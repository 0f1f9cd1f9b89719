"""Round and message accounting.

Every algorithm in this repository returns (or exposes) a :class:`RoundMetrics`
instance.  The central quantity the paper reasons about is the number of
synchronous *rounds*; we additionally track messages and words per mode, and —
per the substitution policy in DESIGN.md — distinguish

* ``measured_rounds``: rounds that were physically simulated (``advance_round``
  was called and messages flowed through the capacity checks), and
* ``charged_rounds``: rounds added analytically for subroutines whose cited
  construction we did not replicate round-by-round (e.g. the O(mu log n)-round
  ruling-set computation of [KMW18]); each charge carries a human-readable
  reason so benchmark output can show exactly what was charged.

``total_rounds`` (= measured + charged) is what the benchmark tables report.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

__all__ = ["ChargeRecord", "RoundMetrics"]


@dataclasses.dataclass(frozen=True)
class ChargeRecord:
    """A single analytic round charge (see module docstring)."""

    rounds: int
    reason: str
    reference: str = ""


@dataclasses.dataclass
class RoundMetrics:
    """Mutable accumulator for one algorithm execution."""

    measured_rounds: int = 0
    local_messages: int = 0
    local_words: int = 0
    global_messages: int = 0
    global_words: int = 0
    max_global_words_per_node_round: int = 0
    capacity_violations: int = 0
    # Fault-injection accounting (all zero on fault-free runs; see
    # repro.simulator.faults): messages lost to crashes/drops/link failures,
    # tokens re-sent by the self-healing exchange, and the summed number of
    # rounds each node spent crashed.
    dropped_messages: int = 0
    retransmissions: int = 0
    crashed_node_rounds: int = 0
    charges: List[ChargeRecord] = dataclasses.field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def charged_rounds(self) -> int:
        return sum(charge.rounds for charge in self.charges)

    @property
    def total_rounds(self) -> int:
        return self.measured_rounds + self.charged_rounds

    # ------------------------------------------------------------------
    def charge(self, rounds: int, reason: str, reference: str = "") -> None:
        """Add an analytic round charge (non-negative)."""
        if rounds < 0:
            raise ValueError("charged rounds must be non-negative")
        if rounds == 0:
            return
        self.charges.append(ChargeRecord(rounds=rounds, reason=reason, reference=reference))

    def record_round(self) -> None:
        self.measured_rounds += 1

    def record_local_bulk(self, messages: int, words: int) -> None:
        """Account a whole round of local traffic at once (batch engine)."""
        self.local_messages += messages
        self.local_words += words

    def record_global_bulk(self, messages: int, words: int) -> None:
        """Account a whole round of global traffic at once (batch engine)."""
        self.global_messages += messages
        self.global_words += words

    def record_node_round_load(self, words: int) -> None:
        if words > self.max_global_words_per_node_round:
            self.max_global_words_per_node_round = words

    def record_violation(self) -> None:
        self.capacity_violations += 1

    def record_dropped(self, messages: int) -> None:
        """Account messages lost to crashes, link failures, or drop draws."""
        self.dropped_messages += messages

    def record_retransmissions(self, messages: int) -> None:
        """Account tokens re-sent by the self-healing exchange wrapper."""
        self.retransmissions += messages

    def record_crashed_nodes(self, count: int) -> None:
        """Account one round's worth of crashed nodes (count nodes down)."""
        self.crashed_node_rounds += count

    # ------------------------------------------------------------------
    def merge(self, other: "RoundMetrics") -> "RoundMetrics":
        """Combine metrics of two sequentially composed executions."""
        merged = RoundMetrics(
            measured_rounds=self.measured_rounds + other.measured_rounds,
            local_messages=self.local_messages + other.local_messages,
            local_words=self.local_words + other.local_words,
            global_messages=self.global_messages + other.global_messages,
            global_words=self.global_words + other.global_words,
            max_global_words_per_node_round=max(
                self.max_global_words_per_node_round,
                other.max_global_words_per_node_round,
            ),
            capacity_violations=self.capacity_violations + other.capacity_violations,
            dropped_messages=self.dropped_messages + other.dropped_messages,
            retransmissions=self.retransmissions + other.retransmissions,
            crashed_node_rounds=self.crashed_node_rounds + other.crashed_node_rounds,
            charges=list(self.charges) + list(other.charges),
        )
        return merged

    def diff(self, other: "RoundMetrics") -> Dict[str, Tuple[object, object]]:
        """Summary keys whose values differ between two runs: ``{} == identical``.

        The identity-assertion helper for the charge-only and engine-identity
        suites: instead of dumping two full summaries on mismatch, tests and
        benchmarks report exactly the diverging counters as
        ``key -> (self value, other value)``.
        """
        mine = self.summary()
        theirs = other.summary()
        return {
            key: (mine[key], theirs[key])
            for key in mine
            if mine[key] != theirs[key]
        }

    def summary(self) -> Dict[str, object]:
        """Plain-dict summary used by the benchmark harness."""
        return {
            "measured_rounds": self.measured_rounds,
            "charged_rounds": self.charged_rounds,
            "total_rounds": self.total_rounds,
            "local_messages": self.local_messages,
            "local_words": self.local_words,
            "global_messages": self.global_messages,
            "global_words": self.global_words,
            "max_global_words_per_node_round": self.max_global_words_per_node_round,
            "capacity_violations": self.capacity_violations,
            "dropped_messages": self.dropped_messages,
            "retransmissions": self.retransmissions,
            "crashed_node_rounds": self.crashed_node_rounds,
            "charge_reasons": [charge.reason for charge in self.charges],
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RoundMetrics(total={self.total_rounds}, measured={self.measured_rounds}, "
            f"charged={self.charged_rounds}, local_msgs={self.local_messages}, "
            f"global_msgs={self.global_messages})"
        )
