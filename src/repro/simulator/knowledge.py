"""Identifier-knowledge tracking for HYBRID_0.

In HYBRID_0 (Section 1.3) a node may only address global messages to nodes whose
identifiers it *knows*; initially it knows its own identifier and those of its
graph neighbors.  Knowledge grows when a node receives a message (the sender's
identifier is always learned) or a payload carrying identifiers, which the
application declares through ``simulator.declare_learned_ids`` (e.g. the
broadcast of all identifiers used as a preprocessing step in Theorem 1's
corollary).  Sending to an unknown identifier raises
:class:`~repro.simulator.errors.UnknownIdentifierError`.

The tracker is addressed by node index only (positions in the simulator's node
order); :class:`~repro.simulator.network.HybridSimulator` translates
identifiers at its public boundary.  "Node ``a`` knows node ``b``'s identifier"
is held in one of two places:

* The **pair store** (:class:`_PairMemo`, :attr:`KnowledgeTracker.pairs`) of flat
  keys ``a * n + b``.  It holds every per-pair fact: the initial knowledge (the
  graph's directed adjacency plus the diagonal, seeded once as one sorted
  array), declared identifiers, partner pairs
  (:meth:`KnowledgeTracker.learn_index_pairs`: overlay-tree neighbors,
  rank-matched partners), learned senders and validated send pairs — each
  batch merged as one sorted key array.
* The **shared records** of :meth:`KnowledgeTracker.learn_shared`: one
  ``(learners, learned)`` pair of node-index frozensets per broadcast ("every
  cluster member learns all leader identifiers"), O(n + |ids|) instead of
  n * |ids| pair keys.

The dense regime (HYBRID) is one flag, :attr:`KnowledgeTracker.all_known`.
Knowledge is monotone and node order is fixed at construction, so nothing is
ever removed.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Set, Tuple

import numpy as np

from repro.simulator.errors import PairKeyOverflowError, UnknownNodeError

__all__ = ["KnowledgeTracker", "check_pair_key_range", "sorted_unique", "MAX_PAIR_KEY_NODES"]

#: Largest ``n`` whose flat pair keys ``a * n + b`` (at most ``n * n - 1``)
#: fit a signed 64-bit integer.
MAX_PAIR_KEY_NODES = 3_037_000_499


def check_pair_key_range(n: int) -> None:
    """Raise :class:`PairKeyOverflowError` if ``a * n + b`` keys overflow int64.

    Knowledge pairs, failed-edge keys and send-validation keys are all flat
    ``a * n + b`` int64 values; past :data:`MAX_PAIR_KEY_NODES` they would wrap
    silently instead of failing.
    """
    if n > MAX_PAIR_KEY_NODES:
        raise PairKeyOverflowError(
            f"{n} nodes exceed the flat pair-key limit of {MAX_PAIR_KEY_NODES}: "
            "a * n + b keys would overflow int64"
        )


def sorted_unique(keys):
    """``np.unique`` of an int64 key array, by one sort and an adjacent
    compare: NumPy 2's hash-based ``np.unique`` is an order of magnitude
    slower on the store's key arrays."""
    keys = np.sort(keys)
    if keys.size > 1:
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    return keys


class _PairMemo:
    """Monotone store of flat ``a * n + b`` pair keys.

    The keys live in a *two-level* sorted int64 view: a big snapshot and a
    small recent buffer of keys absorbed since the last merge (recent >= 1/4
    of the snapshot triggers a merge), so total re-sorting stays linearithmic
    however the keys trickle in, and :meth:`unknown` (the one filter of a
    round's keys) sweeps both with ``searchsorted`` on sorted needles, which
    walks each level front to back instead of jumping around it per needle.
    """

    __slots__ = ("_sorted", "_recent")

    def __init__(self) -> None:
        self._sorted = None
        self._recent = None

    def __bool__(self) -> bool:
        return self._sorted is not None

    def __contains__(self, key: int) -> bool:
        for level in self.levels():
            slot = int(level.searchsorted(key))
            if slot < level.size and level[slot] == key:
                return True
        return False

    def unknown(self, keys):
        """The keys of the int64 array ``keys`` not yet stored, in their given
        order (exact for any order, duplicates kept).  Callers pass sorted,
        duplicate-free keys: the fast probe, and the result is ready for
        :meth:`absorb`."""
        for level in self.levels():
            if not keys.size:
                break
            slot = np.searchsorted(level, keys)
            slot[slot == level.size] = 0
            keys = keys[level[slot] != keys]
        return keys

    def levels(self):
        """The stored sorted arrays, snapshot first."""
        if self._recent is None:
            return () if self._sorted is None else (self._sorted,)
        return (self._sorted, self._recent)

    def absorb(self, fresh) -> None:
        """Fold a sorted, duplicate-free array of new keys into the store."""
        if not fresh.size:
            return
        snapshot = self._sorted
        if snapshot is None:
            self._sorted = fresh
            return
        # Concatenated sorted runs: the stable sort (timsort) merges them in
        # linear time.
        recent = self._recent
        if recent is None:
            recent = fresh
        else:
            recent = np.concatenate((recent, fresh))
            recent.sort(kind="stable")
        if 4 * recent.size >= snapshot.size:
            merged = np.concatenate((snapshot, recent))
            merged.sort(kind="stable")
            self._sorted = merged
            self._recent = None
        else:
            self._recent = recent

    def add(self, keys) -> None:
        """Store ``keys`` (a list or int64 array) through :meth:`absorb`
        (stored keys and duplicates are dropped)."""
        if len(keys):
            self.absorb(self.unknown(sorted_unique(np.asarray(keys, dtype=np.int64))))

    def row(self, a: int, n: int) -> List[int]:
        """Every ``b`` with key ``a * n + b`` stored (may repeat)."""
        lo = a * n
        found: List[int] = []
        for level in self.levels():
            span = level[level.searchsorted(lo) : level.searchsorted(lo + n)]
            found.extend((span - lo).tolist())
        return found


class KnowledgeTracker:
    """Which identifiers every node knows, addressed by node index ``0..n-1``.

    ``knows(a, b)``: node ``a`` knows node ``b``'s identifier.  Indices are
    positions in the simulator's node order; out-of-range learners raise
    :class:`UnknownNodeError`, out-of-range targets are simply unknown.
    """

    def __init__(self, n: int, all_known: bool = False) -> None:
        self.n = n
        #: HYBRID's dense regime: every node knows every identifier.
        self.all_known = all_known
        #: The pair store: key ``a * n + b`` = "node a knows node b's id".
        self.pairs = _PairMemo()
        self._shared: List[Tuple[FrozenSet[int], FrozenSet[int]]] = []

    def knows(self, a: int, b: int) -> bool:
        self._validate(a)
        return 0 <= b < self.n and (a * self.n + b in self.pairs or self.knows_shared(a, b))

    def knows_shared(self, a: int, b: int) -> bool:
        """Whether ``a`` knows ``b`` outside the pair store: through the dense
        flag or a shared record (the residue check of a caller that already
        filtered its keys against :attr:`pairs`)."""
        return self.all_known or any(
            a in learners and b in learned for learners, learned in self._shared
        )

    def known(self, a: int) -> Set[int]:
        """Every node index whose identifier ``a`` knows."""
        self._validate(a)
        if self.all_known:
            return set(range(self.n))
        result = set(self.pairs.row(a, self.n))
        for learners, learned in self._shared:
            if a in learners:
                result |= learned
        return result

    def learn(self, a: int, learned: Iterable[int]) -> None:
        """Node ``a`` learns the identifiers of the node indices ``learned``."""
        self._validate(a)
        self.pairs.add(np.fromiter(learned, np.int64) + a * self.n)

    def learn_index_pairs(self, learners, learned) -> None:
        """Node index ``learners[i]`` learns node index ``learned[i]``'s
        identifier, for every ``i`` — parallel int64 arrays (or lists), recorded
        in the pair store with one merge instead of one update per node."""
        learners = np.asarray(learners, dtype=np.int64)
        self.pairs.add(learners * self.n + np.asarray(learned, dtype=np.int64))

    def learn_shared(self, learners: FrozenSet[int], learned: FrozenSet[int]) -> None:
        """Every node index in ``learners`` learns every one in ``learned``.

        Kept as one ``(learners, learned)`` record, O(|learners| + |learned|)
        however many pairs it stands for.  The caller validates both sets and
        must not mutate them afterwards.
        """
        if learners and learned:
            self._shared.append((learners, learned))

    def _validate(self, a: int) -> None:
        if not 0 <= a < self.n:
            raise UnknownNodeError(a)
