"""Model configuration: HYBRID(lambda, gamma) and its marginal cases.

Section 1.3 of the paper parameterises the model by

* ``lambda`` -- the maximum number of bits per local edge per round
  (``None`` means unlimited, as in LOCAL / the standard HYBRID model), and
* ``gamma`` -- the maximum number of bits each node may send *and* receive via
  the global mode per round (``0`` disables the global mode entirely).

and distinguishes HYBRID (identifier space exactly ``[n]``, known to all) from
HYBRID_0 (identifiers drawn from a polynomial range ``[n^c]``; initially a node
only knows its own identifier and those of its graph neighbors).

The classical models arise as marginal cases (Section 1.3):

====================  ==========================================
Congested Clique      HYBRID(0, O(n log n))
NCC                   HYBRID(0, O(log^2 n))
NCC_0                 HYBRID_0(0, O(log^2 n))
LOCAL                 HYBRID_0(inf, 0)
CONGEST               HYBRID_0(O(log n), 0)
====================  ==========================================
"""

from __future__ import annotations

import dataclasses
import enum
import math
from typing import Optional

__all__ = [
    "IdentifierRegime",
    "ModelConfig",
    "WORD_BITS",
    "log2_ceil",
    "word_bits",
]


#: Number of bits in one "O(log n) bit" message word for an n-node network.
#: The simulator charges message sizes in words of this many bits.
WORD_BITS = 64


def log2_ceil(n: int) -> int:
    """``ceil(log2(n))`` with the convention that values below 2 give 1."""
    if n < 2:
        return 1
    return int(math.ceil(math.log2(n)))


def word_bits(n: int) -> int:
    """Bits of one O(log n)-bit message word in an ``n``-node network."""
    return max(1, log2_ceil(max(n, 2)))


class IdentifierRegime(enum.Enum):
    """Whether identifiers form the dense range ``[n]`` (HYBRID) or an arbitrary
    polynomial-range set initially known only locally (HYBRID_0)."""

    DENSE = "dense"  # HYBRID: IDs are exactly [n], globally known.
    SPARSE = "sparse"  # HYBRID_0: IDs from [n^c], known only for neighbors.


@dataclasses.dataclass(frozen=True)
class ModelConfig:
    """Configuration of a HYBRID(lambda, gamma) network.

    Attributes
    ----------
    name:
        Human-readable model name (used in metrics and benchmark tables).
    local_bits_per_edge:
        ``lambda``; ``None`` means unlimited local bandwidth.  ``0`` disables the
        local mode (pure global models such as NCC or the Congested Clique).
    global_messages_per_node:
        Number of O(log n)-bit global messages each node may send and receive
        per round.  The paper's HYBRID model uses ``O(log n)`` messages of
        ``O(log n)`` bits, i.e. ``gamma = O(log^2 n)`` bits; we expose the
        message count directly because that is what algorithms reason about.
        ``None`` means the count scales as ``ceil(log2 n)`` with the instance,
        ``0`` disables the global mode.
    identifier_regime:
        DENSE for HYBRID (IDs are exactly ``[n]``), SPARSE for HYBRID_0.
    strict:
        When True (default) capacity violations raise; when False they are
        recorded in the metrics but messages are still delivered.  Non-strict
        mode exists only for exploratory debugging and is never used in tests.
    words_per_message:
        How many identifier-sized words one O(log n)-bit global message can
        carry.  The paper's messages routinely carry a constant number of
        fields (two endpoint identifiers plus a value, a distance label plus a
        source identifier, ...), so the per-node global budget in *words* is
        ``messages * words_per_message``.
    """

    name: str = "hybrid"
    local_bits_per_edge: Optional[int] = None
    global_messages_per_node: Optional[int] = None
    identifier_regime: IdentifierRegime = IdentifierRegime.DENSE
    strict: bool = True
    words_per_message: int = 4

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def resolve_global_message_budget(self, n: int) -> int:
        """Global messages a node may send/receive per round in an n-node network."""
        if self.global_messages_per_node is None:
            return max(1, log2_ceil(max(n, 2)))
        return self.global_messages_per_node

    def resolve_global_word_budget(self, n: int) -> int:
        """Per-node, per-round global budget in words (messages x words/message)."""
        return self.resolve_global_message_budget(n) * max(1, self.words_per_message)

    def resolve_local_word_limit(self) -> Optional[int]:
        """Per-edge, per-round local payload cap in words (``None`` = unlimited).

        CONGEST-style finite bandwidth: ``lambda`` bits per edge buy
        ``lambda / WORD_BITS`` words, at least one.  Shared by the tuple and
        plane local send paths so both enforce the identical cap.
        """
        limit = self.local_bits_per_edge
        if limit is None or limit <= 0:
            return None
        return max(1, limit // WORD_BITS)

    def local_mode_enabled(self) -> bool:
        return self.local_bits_per_edge is None or self.local_bits_per_edge > 0

    def global_mode_enabled(self) -> bool:
        return self.global_messages_per_node is None or self.global_messages_per_node > 0

    def is_hybrid0(self) -> bool:
        return self.identifier_regime is IdentifierRegime.SPARSE

    # ------------------------------------------------------------------
    # Named configurations (Section 1.3)
    # ------------------------------------------------------------------
    @staticmethod
    def hybrid(*, strict: bool = True) -> "ModelConfig":
        """The standard HYBRID model: unlimited local, O(log n) global messages,
        dense identifier space ``[n]``."""
        return ModelConfig(
            name="hybrid",
            local_bits_per_edge=None,
            global_messages_per_node=None,
            identifier_regime=IdentifierRegime.DENSE,
            strict=strict,
        )

    @staticmethod
    def hybrid0(*, strict: bool = True) -> "ModelConfig":
        """HYBRID_0: like HYBRID but identifiers come from a polynomial range and
        global messages may only be sent to identifiers the sender knows."""
        return ModelConfig(
            name="hybrid0",
            local_bits_per_edge=None,
            global_messages_per_node=None,
            identifier_regime=IdentifierRegime.SPARSE,
            strict=strict,
        )

    @staticmethod
    def hybrid_parameterized(
        local_bits_per_edge: Optional[int],
        global_messages_per_node: Optional[int],
        *,
        sparse_ids: bool = False,
        strict: bool = True,
    ) -> "ModelConfig":
        """General HYBRID(lambda, gamma) with explicit parameters."""
        regime = IdentifierRegime.SPARSE if sparse_ids else IdentifierRegime.DENSE
        return ModelConfig(
            name="hybrid(lambda,gamma)",
            local_bits_per_edge=local_bits_per_edge,
            global_messages_per_node=global_messages_per_node,
            identifier_regime=regime,
            strict=strict,
        )

    @staticmethod
    def local(*, strict: bool = True) -> "ModelConfig":
        """LOCAL = HYBRID_0(inf, 0): unlimited local, no global mode."""
        return ModelConfig(
            name="local",
            local_bits_per_edge=None,
            global_messages_per_node=0,
            identifier_regime=IdentifierRegime.SPARSE,
            strict=strict,
        )

    @staticmethod
    def congest(*, strict: bool = True) -> "ModelConfig":
        """CONGEST = HYBRID_0(O(log n), 0)."""
        return ModelConfig(
            name="congest",
            local_bits_per_edge=WORD_BITS,
            global_messages_per_node=0,
            identifier_regime=IdentifierRegime.SPARSE,
            strict=strict,
        )

    @staticmethod
    def ncc(*, strict: bool = True) -> "ModelConfig":
        """NCC ~ HYBRID(0, O(log^2 n)): no local mode, dense identifiers."""
        return ModelConfig(
            name="ncc",
            local_bits_per_edge=0,
            global_messages_per_node=None,
            identifier_regime=IdentifierRegime.DENSE,
            strict=strict,
        )

    @staticmethod
    def ncc0(*, strict: bool = True) -> "ModelConfig":
        """NCC_0 ~ HYBRID_0(0, O(log^2 n))."""
        return ModelConfig(
            name="ncc0",
            local_bits_per_edge=0,
            global_messages_per_node=None,
            identifier_regime=IdentifierRegime.SPARSE,
            strict=strict,
        )

    @staticmethod
    def congested_clique(n: int, *, strict: bool = True) -> "ModelConfig":
        """Congested Clique ~ HYBRID(0, O(n log n)): each node may exchange one
        O(log n)-bit message with every other node per round."""
        return ModelConfig(
            name="congested_clique",
            local_bits_per_edge=0,
            global_messages_per_node=max(1, n - 1),
            identifier_regime=IdentifierRegime.DENSE,
            strict=strict,
        )
