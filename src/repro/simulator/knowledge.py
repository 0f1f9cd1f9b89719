"""Identifier-knowledge tracking for HYBRID_0.

In HYBRID_0 (Section 1.3) a node may only address global messages to nodes whose
identifiers it *knows*; initially it knows its own identifier and those of its
graph neighbors.  Knowledge grows when a node receives a message whose payload
contains identifiers (the application must declare them) or simply by having
exchanged a message with a node (sender identifiers are always learned).

The tracker is deliberately explicit: algorithms call
``simulator.declare_learned_ids(node, ids)`` when a received payload taught the
node new identifiers (e.g. the broadcast of all identifiers used as a
preprocessing step in Theorem 1's corollary).  Sending to an unknown identifier
raises :class:`~repro.simulator.errors.UnknownIdentifierError`.

Representation: each node's knowledge is the union of three layers.

* A **personal** mutable set (own and neighbor identifiers, declared ids).
* A list of **shared frozensets** appended by
  :meth:`KnowledgeTracker.learn_shared` — the broadcast idiom ("every cluster
  member learns all leader identifiers", "everyone knows everything" in the
  dense regime) stores one frozenset object referenced by every learner
  instead of copying it into n per-node sets, which keeps the bookkeeping
  O(n) instead of O(n * |ids|) in both time and memory.
* One network-wide **pair store** (:class:`_PairMemo`, :attr:`KnowledgeTracker.pairs`)
  of flat keys ``a * n + b`` over node indices — the tracker is built with
  the identifiers in node order, so index ``i`` is the ``i``-th identifier —
  meaning "node ``a`` knows node ``b``'s identifier".  The plane paths learn
  a whole round's sender identifiers (and record validated send pairs), and
  algorithms declare index pairs (:meth:`KnowledgeTracker.learn_index_pairs`:
  overlay-tree neighbors, rank-matched partners), as one sorted key array
  merged into the store, instead of boxing ints into per-node Python sets.

Membership checks probe the personal set first, then the (short) shared list,
then the store; :meth:`~KnowledgeTracker.known_ids` materialises the union on
demand.  Knowledge is monotone and node order is fixed at construction, so the
store is never reset.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Set

from repro.simulator import _accel
from repro.simulator.errors import PairKeyOverflowError, UnknownNodeError

__all__ = ["KnowledgeTracker", "check_pair_key_range", "MAX_PAIR_KEY_NODES"]

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


def _in_levels(levels, key) -> bool:
    """Bisection probe of sorted arrays (backend-agnostic: ``bisect`` works on
    NumPy arrays through ``__getitem__``, so probes keep working even if the
    accelerator gate is switched off after arrays were stored)."""
    for level in levels:
        slot = bisect_left(level, key)
        if slot < len(level) and level[slot] == key:
            return True
    return False


class _PairMemo:
    """Monotone store of flat ``a * n + b`` pair keys.

    With NumPy the keys live in a *two-level* sorted int64 view: a big
    snapshot and a small recent buffer of keys absorbed since the last merge
    (recent >= 1/4 of the snapshot triggers a merge), so total re-sorting
    stays linearithmic however the keys trickle in, and :meth:`unknown` (the
    one filter of a round's keys) sweeps both with ``searchsorted``.
    Without NumPy the keys live in the Python set :attr:`known`.  Membership
    is the disjunction of both, so either backend reads what the other wrote.
    """

    __slots__ = ("known", "_sorted", "_recent")

    def __init__(self) -> None:
        self.known: Set[int] = set()
        self._sorted = None
        self._recent = None

    def __bool__(self) -> bool:
        return bool(self.known) or self._sorted is not None

    def __contains__(self, key: int) -> bool:
        return key in self.known or _in_levels(self.levels(), key)

    def unknown(self, np, keys):
        """The subset of the int64 array ``keys`` not yet stored (exact; may
        have dupes)."""
        for level in self.levels():
            if not keys.size:
                break
            slot = np.searchsorted(level, keys)
            slot[slot == level.size] = 0
            keys = keys[level[slot] != keys]
        known = self.known
        if known and keys.size:
            keys = keys[np.fromiter((k not in known for k in keys.tolist()), bool)]
        return keys

    def levels(self):
        """The stored sorted arrays, snapshot first (empty without NumPy)."""
        if self._recent is None:
            return () if self._sorted is None else (self._sorted,)
        return (self._sorted, self._recent)

    def absorb(self, np, fresh) -> None:
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

    def add(self, np, keys) -> None:
        """Store ``keys`` (a list or int64 array): into :attr:`known` without
        NumPy, otherwise through :meth:`absorb` (stored keys and duplicates
        are dropped)."""
        if np is None:
            self.known.update(keys)
        elif len(keys):
            self.absorb(np, np.unique(self.unknown(np, np.asarray(keys, dtype=np.int64))))

    def row(self, a: int, n: int) -> List[int]:
        """Every ``b`` with key ``a * n + b`` stored (may repeat)."""
        lo = a * n
        hi = lo + n
        found: List[int] = []
        for level in self.levels():
            found.extend((level[bisect_left(level, lo) : bisect_left(level, hi)] - lo).tolist())
        known = self.known
        if len(known) > n:
            found.extend(b for b in range(n) if lo + b in known)
        else:
            found.extend(key - lo for key in known if lo <= key < hi)
        return found


class _KnownView:
    """Read-only membership view over a personal set, shared frozensets and
    (optionally) the node's row ``base + b`` of the pair store, where
    ``index`` maps identifiers to node indices ``b``."""

    __slots__ = ("_personal", "_shared", "_pairs", "_index", "_base")

    def __init__(self, personal, shared, pairs=None, index=None, base=0) -> None:
        self._personal = personal
        self._shared = shared
        self._pairs = pairs
        self._index = index
        self._base = base

    def __contains__(self, target: Hashable) -> bool:
        if target in self._personal:
            return True
        for ids in self._shared:
            if target in ids:
                return True
        if self._pairs is None:
            return False
        b = self._index.get(target)
        return b is not None and self._base + b in self._pairs


class KnowledgeTracker:
    """Tracks, per node, the set of identifiers the node currently knows.

    ``all_ids`` lists the identifiers in node order: the ``i``-th identifier
    is node index ``i`` of the pair store's ``a * n + b`` keys.
    """

    def __init__(self, all_ids: Iterable[Hashable]) -> None:
        self._ids: List[Hashable] = list(all_ids)
        self._all_ids: Set[Hashable] = set(self._ids)
        self._index: Optional[Dict[Hashable, int]] = None
        self._known: Dict[Hashable, Set[Hashable]] = {}
        self._shared: Dict[Hashable, List[FrozenSet[Hashable]]] = {}
        #: The pair store: key ``a * n + b`` = "node a knows node b's id".
        self.pairs = _PairMemo()

    def _index_of_id(self) -> Dict[Hashable, int]:
        """``identifier -> node index`` (built on the first store probe)."""
        index = self._index
        if index is None:
            index = self._index = {i: k for k, i in enumerate(self._ids)}
        return index

    def initialize_node(self, node_id: Hashable, neighbor_ids: Iterable[Hashable]) -> None:
        """A node starts knowing its own identifier and its neighbors' (Section 1.3)."""
        self._validate(node_id)
        known = {node_id}
        known.update(neighbor_ids)
        self._known[node_id] = known

    def initialize_all_known(self) -> None:
        """HYBRID (dense regime): every node knows every identifier from the start.

        One shared frozenset referenced by all nodes — O(n), not O(n^2).
        """
        universe = frozenset(self._all_ids)
        for node_id in self._all_ids:
            self._shared[node_id] = [universe]

    def knows(self, node_id: Hashable, target_id: Hashable) -> bool:
        return target_id in self.known_ids_view(node_id)

    def known_ids(self, node_id: Hashable) -> Set[Hashable]:
        self._validate(node_id)
        result = set(self._known.get(node_id, ()))
        for ids in self._shared.get(node_id, ()):
            result |= ids
        if self.pairs:
            ids = self._ids
            a = self._index_of_id()[node_id]
            result.update(ids[b] for b in self.pairs.row(a, len(ids)))
        return result

    def set_layers_view(self, node_id: Hashable):
        """Membership over the personal and shared layers only (no store).

        For callers that have already filtered their candidates against
        :attr:`pairs` with one vectorised sweep.  Returns the personal set
        itself when the node has no shared knowledge; read-only.
        """
        shared = self._shared.get(node_id)
        personal = self._known.get(node_id, set())
        if not shared:
            return personal
        return _KnownView(personal, shared)

    def known_ids_view(self, node_id: Hashable):
        """The node's knowledge *without* a defensive copy.

        Used by the batch send paths, which probe membership once per queued
        message (or unique pair); supports only the ``in`` operator and must
        be treated as read-only.  Returns the personal set itself when the
        node has no shared knowledge and the pair store is empty.
        """
        self._validate(node_id)
        if not self.pairs:
            return self.set_layers_view(node_id)
        index = self._index_of_id()
        return _KnownView(
            self._known.get(node_id, set()),
            self._shared.get(node_id, ()),
            self.pairs,
            index,
            index[node_id] * len(self._ids),
        )

    def learn(self, node_id: Hashable, new_ids: Iterable[Hashable]) -> None:
        """Record that ``node_id`` learned the identifiers in ``new_ids``.

        Identifiers that do not exist in the network are ignored (a node may be
        told about identifiers that turn out to be bogus; it simply cannot reach
        anyone with them).
        """
        self._validate(node_id)
        bucket = self._known.setdefault(node_id, {node_id})
        if not isinstance(new_ids, (set, frozenset)):
            new_ids = set(new_ids)
        bucket |= new_ids & self._all_ids

    def learn_index_pairs(self, learners, learned) -> None:
        """Node index ``learners[i]`` learns node index ``learned[i]``'s
        identifier, for every ``i`` — parallel int64 arrays (or lists), recorded
        in the pair store with one merge instead of one set update per node."""
        n = len(self._ids)
        np = _accel.np
        if np is not None and isinstance(learners, np.ndarray):
            keys = learners * n + learned
        else:
            keys = [a * n + b for a, b in zip(learners, learned)]
        self.pairs.add(np, keys)

    def learn_shared(
        self, node_ids: Iterable[Hashable], ids: FrozenSet[Hashable]
    ) -> None:
        """Every node in ``node_ids`` learns the same (validated) frozenset.

        Stored by reference — one append per learner, however large ``ids``
        is.  The caller is responsible for filtering bogus identifiers (see
        :meth:`valid_ids`) and for not mutating the set afterwards.
        """
        shared = self._shared
        for node_id in node_ids:
            shared.setdefault(node_id, []).append(ids)

    def valid_ids(self, ids: Iterable[Hashable]) -> Set[Hashable]:
        """The subset of ``ids`` that exist in the network.

        Lets a bulk caller apply :meth:`learn`'s bogus-id filtering once per
        shared identifier set instead of once per learning node (pair with
        :meth:`learn_shared`).
        """
        if not isinstance(ids, (set, frozenset)):
            ids = set(ids)
        return ids & self._all_ids

    def knowledge_count(self, node_id: Hashable) -> int:
        return len(self.known_ids(node_id))

    def _validate(self, node_id: Hashable) -> None:
        if node_id not in self._all_ids:
            raise UnknownNodeError(node_id)
