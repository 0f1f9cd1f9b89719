"""The synchronous HYBRID(lambda, gamma) network simulator.

The simulator owns the local communication graph ``G`` and advances in
synchronous rounds (Section 1.3):

* **Local mode** — in each round a node may send an arbitrarily large message
  over each incident edge of ``G`` (unless ``lambda`` is finite, as in CONGEST,
  in which case the per-edge payload is capped).
* **Global mode** — in each round a node may send and receive at most
  ``gamma`` bits (equivalently, O(log n) messages of O(log n) bits) addressed to
  *any* node, provided the sender knows the receiver's identifier.  In HYBRID
  all identifiers are globally known; in HYBRID_0 a node initially only knows
  its own identifier and those of its graph neighbors, and knowledge spreads
  only through received messages.

Token planes
------------

The simulator has one send path.  Traffic is submitted as **token planes**
(:class:`~repro.simulator.engine.TokenPlane`): parallel arrays of integer node
indices (positions in the deterministic :attr:`HybridSimulator.nodes` order,
see :meth:`node_indexer`) plus a payload side list.
:meth:`global_send_plane` / :meth:`local_send_plane` queue a whole shard at
once: membership is a range check, HYBRID_0 knowledge and local adjacency are
validated on the workload's *unique* (sender, receiver) pairs with set/array
operations, and the shard is queued as one batch.  A shard is validated up
front; on error nothing is queued.

Capacity-accounting semantics: sends keep no counters.  At ``advance_round``
one sweep reads the round's per-node loads off the queued global batches —
every token adds its word count (payload words plus tag words) to its
sender's and its receiver's load — and compares each load exactly once
against the node's budget (:meth:`HybridSimulator.global_budget_words`, or a
node-scoped degraded budget).  Send-side overruns raise in strict mode (they
are always under the algorithm's control); receive-side overruns raise only
when ``enforce_receive_capacity`` is set and are otherwise recorded in
:class:`~repro.simulator.metrics.RoundMetrics.capacity_violations`.  A
raised overrun voids the round: its queued traffic is discarded.  The
accounting is therefore identical to charging each message individually — only
the bookkeeping is grouped per node instead of per message.

The delivered planes are the round's inbox.  :meth:`delivered_plane_positions`
names the positions of a tagged plane that arrived (the round engine's ack
channel), and :meth:`per_node_inbox` expands the planes into per-receiver
``(sender, payload, tag, words)`` records on request.

The plane paths cache id-native state on first use (node-index maps,
identifier arrays, adjacency keys) — but the graph is no longer assumed
frozen: the simulator records the graph's **version stamp**
(:func:`repro.graphs.index.graph_version`) and every plane send checks it, so
a mutation through :class:`repro.graphs.mutation.GraphMutator`,
:mod:`repro.graphs.weighted` or :func:`repro.graphs.index.invalidate_index`
makes the next plane send raise
:class:`~repro.simulator.errors.StaleGraphError` instead of silently
validating against dead adjacency keys.  After a deliberate mid-simulation
mutation, call :meth:`HybridSimulator.invalidate_index` to drop the cached
arrays and resynchronise the stamp.  Node additions/removals remain
unsupported (the node order, identifier assignment and knowledge state are
fixed at construction); edge edits are fully supported, including permanent
link-failure commits from the fault layer (see ``advance_round``).

Algorithms drive the simulator directly::

    sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=0)
    index = sim.node_indexer()
    plane = TokenPlane(
        [index[u]] * len(targets),
        [index[v] for v in targets],
        [payload_words(p) for p in payloads],
        payloads,
    )
    sim.global_send_plane(plane, tag="t")
    sim.advance_round()
    for sender, payload, tag, words in sim.per_node_inbox().get(v, ()):
        ...

Every send is size-accounted; capacity violations raise (strict mode) or are
recorded in :class:`~repro.simulator.metrics.RoundMetrics`.
"""

from __future__ import annotations

import math
import random
from itertools import chain
from typing import Any, Dict, Hashable, Iterable, List, Optional, Set, Tuple

import networkx as nx
import numpy as np

from repro.graphs.index import graph_version
from repro.graphs.mutation import GraphMutator
from repro.simulator.config import IdentifierRegime, ModelConfig
from repro.simulator.faults import FaultSchedule, FaultState
from repro.simulator.errors import (
    CapacityExceededError,
    ChargeOnlyError,
    LocalBandwidthExceededError,
    NotANeighborError,
    RoundLifecycleError,
    StaleGraphError,
    UnknownIdentifierError,
    UnknownNodeError,
)
from repro.simulator.knowledge import KnowledgeTracker, check_pair_key_range, sorted_unique
from repro.simulator.messages import GLOBAL_MODE, LOCAL_MODE, payload_words
from repro.simulator.metrics import RoundMetrics

Node = Hashable

__all__ = ["HybridSimulator", "BatchRecord", "node_sort_key"]

#: One delivered message as :meth:`HybridSimulator.per_node_inbox` reports it:
#: ``(sender, payload, tag, words)``.  The receiver is the bucket key.
BatchRecord = Tuple[Node, Any, Optional[str], int]


# HYBRID_0 identifiers come from a polynomial range [n^c] (c = 3).  The
# range is capped so every identifier fits the int64 identifier column; the
# cap stays >= n^2 for any graph that fits memory, so identifier collisions
# remain impossible and the sparse-regime semantics are unchanged.  Below the
# cap (n < ~1.66 * 10^6) the draw is bit-identical to the uncapped
# formulation.
_ID_UNIVERSE_CAP = 1 << 62
#: Most ``getrandbits`` attempts :func:`_sample_distinct` reads at once.
_DRAW_CHUNK = 1 << 18


def _identifier_universe(n: int) -> int:
    return max(min(n**3, _ID_UNIVERSE_CAP), 8)


def _sample_distinct(rng: random.Random, universe: int, k: int) -> np.ndarray:
    """``rng.sample(range(universe), k)`` as an int64 array, read in bulk and
    leaving ``rng`` in the same state; ``universe < 2**63`` (see DESIGN.md)."""
    setsize = 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)
    if universe <= setsize:  # sample's pool path
        return np.array(rng.sample(range(universe), k), dtype=np.int64)
    # The set path keeps the first k distinct getrandbits(bits) attempts below
    # universe: ``words`` little-endian MT words each, the top one shifted right
    # by -bits % 32.  Reads of up to _DRAW_CHUNK attempts continue one stream
    # until it holds k distinct values, so the k-th is in the last read.
    bits = universe.bit_length()
    words = -(-bits // 32)
    expected = -math.log1p(-k / universe) * (1 << bits)
    attempts = min(int(expected + 4 * math.sqrt(expected)) + 16, _DRAW_CHUNK)
    state, drawn, reads = rng.getstate(), [], 0  # drawn: values below universe
    while True:
        reads += 1
        raw = rng.getrandbits(32 * words * attempts).to_bytes(4 * words * attempts, "little")
        column = np.frombuffer(raw, dtype="<u4").astype(np.uint64).reshape(attempts, words)
        values = column[:, -1] >> np.uint64(-bits % 32)
        for word in range(words - 2, -1, -1):
            values = values << np.uint64(32) | column[:, word]
        del raw, column  # not held through the final dedupe
        (kept,) = np.nonzero(values < universe)
        drawn.append(values[kept])
        if sum(map(len, drawn)) < k:
            continue
        values = np.concatenate(drawn)
        drawn, first = [values], np.arange(k)
        if not np.diff(np.sort(values)).all():  # a repeat counts at its first attempt
            first = np.sort(np.unique(values, return_index=True)[1])
        if first.size >= k:
            break
    last = int(kept[first[k - 1] - (values.size - kept.size)]) if k else -1
    rng.setstate(state)
    rng.getrandbits(32 * words * (attempts * (reads - 1) + last + 1))
    return values[first[:k]].astype(np.int64)


def node_sort_key(node: Node) -> Tuple[int, Any]:
    """Deterministic total order over nodes: numbers numerically, then strings.

    Integer-labelled graphs (the common case) order as ``0, 1, 2, ..., 10, 11``
    rather than the lexicographic ``0, 1, 10, 11, ..., 2`` a plain ``key=str``
    produces; non-numeric labels fall back to their string form in a separate
    group so mixed-type node sets still compare without a ``TypeError``.
    """
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return (1, str(node))
    return (0, node)


class _PlaneBatch:
    """One queued shard of id-native traffic (see the module docstring).

    ``senders`` / ``receivers`` / ``words`` are the *selected* columns of the
    submitted plane (tag words already folded into ``words``), ``payloads``
    the plane's full side list and ``positions`` the selected indices into it
    (``None`` when the whole plane was sent).  ``payloads`` is ``None`` for
    charge-only traffic — scheduling, fault filtering, capacity accounting
    and id learning never read it; only :meth:`records` (inbox assembly)
    does, and raises.  Sender-id learning reads the batch's own columns.
    Per-receiver record tuples are only built if the round's inbox is
    actually read.
    """

    __slots__ = ("senders", "receivers", "words", "payloads", "positions", "tag")

    def __init__(self, senders, receivers, words, payloads, positions, tag) -> None:
        self.senders = senders
        self.receivers = receivers
        self.words = words
        self.payloads = payloads
        self.positions = positions
        self.tag = tag

    def __len__(self) -> int:
        return len(self.senders)

    def records(self, nodes: List[Node]):
        """Yield ``(receiver, record)`` pairs in submission order."""
        tag = self.tag
        payloads = self.payloads
        if payloads is None:
            raise ChargeOnlyError(
                "this plane traffic was queued charge-only (no payload "
                "column); its schedule and accounting are exact, but the "
                "round's inbox contents were never materialised"
            )
        positions = self.positions
        senders = self.senders
        receivers = self.receivers
        words = self.words
        if hasattr(senders, "tolist"):
            senders = senders.tolist()
            receivers = receivers.tolist()
            words = words.tolist()
        if positions is None:
            for k, sender_index in enumerate(senders):
                yield nodes[receivers[k]], (
                    nodes[sender_index], payloads[k], tag, words[k]
                )
        else:
            if hasattr(positions, "tolist"):
                positions = positions.tolist()
            for k, sender_index in enumerate(senders):
                yield nodes[receivers[k]], (
                    nodes[sender_index], payloads[positions[k]], tag, words[k]
                )


def _isin_sorted(values, table):
    """Vectorised membership of ``values`` in a **sorted** int64 ``table``."""
    if not len(table):
        return np.zeros(len(values), dtype=bool)
    slots = np.searchsorted(table, values)
    slots[slots == len(table)] = 0
    return table[slots] == values


def _fault_keep_mask(senders, receivers, crashed, failed, n: int):
    """Crash/edge keep-mask of a plane batch (see ``_filter_planes``).

    ``crashed`` / ``failed`` are sorted int64 arrays (crashed node indices,
    directed ``u * n + v`` failed-edge keys).  Drop draws are *not* taken
    here: the RNG consumes one draw per crash/edge survivor in ascending
    token order, which the caller applies afterwards.
    """
    keep = np.ones(len(senders), dtype=bool)
    if len(crashed):
        keep &= ~_isin_sorted(senders, crashed)
        keep &= ~_isin_sorted(receivers, crashed)
    if len(failed):
        keep &= ~_isin_sorted(senders * n + receivers, failed)
    return keep


class HybridSimulator:
    """Round-based simulator of a HYBRID(lambda, gamma) network.

    Parameters
    ----------
    graph:
        The local communication graph.  Nodes may be any hashable objects; for
        the HYBRID (dense) identifier regime with integer nodes ``0..n-1`` the
        identifier of node ``v`` is ``v`` itself, matching the paper's "[n]"
        convention up to a shift.
    config:
        The :class:`~repro.simulator.config.ModelConfig` describing lambda,
        gamma, and the identifier regime.
    seed:
        Seed for the simulator's own randomness (sparse identifier assignment).
    capacity_multiplier:
        Slack factor applied to the per-node global budget.  The paper's
        guarantees are "O(log n) messages w.h.p."; on the small instances used
        in tests the hidden constants matter, so callers may allow a small
        constant slack.  The default of 1 enforces the budget exactly.
    enforce_receive_capacity:
        If True, a node receiving more than its budget in one round raises in
        strict mode.  By default receive-side overload is only *recorded*
        (mirroring the paper's remark that an adversary may drop the excess;
        our algorithms are expected to keep the bound and the tests assert
        ``capacity_violations == 0`` where the paper claims it).
    fault_schedule:
        Optional :class:`~repro.simulator.faults.FaultSchedule`.  An empty (or
        absent) schedule installs **no** fault state — ``fault_state`` stays
        ``None`` and no fault code path runs, so the run is bit-identical to a
        fault-free simulator.  A non-empty schedule makes ``advance_round``
        drop the traffic of crashed nodes and failed links, apply seeded
        per-mode message drops, and degrade the global budget per the
        schedule's windows (see :mod:`repro.simulator.faults`).
    charge_only:
        When true, sends queue **no payload references**: the round engine
        runs on the (sender, receiver, words) data alone, so schedules,
        capacity accounting, metrics, round counts and HYBRID_0 identifier
        learning are bit-identical to a payload run (the property suites pin
        this), while memory stays flat in the payload volume.  Reading a
        round's inbox for charge-only traffic
        raises :class:`~repro.simulator.errors.ChargeOnlyError`; fault
        filtering and delivery acks (``delivered_plane_positions``) are
        unaffected.
    """

    def __init__(
        self,
        graph: nx.Graph,
        config: Optional[ModelConfig] = None,
        *,
        seed: Optional[int] = None,
        capacity_multiplier: int = 1,
        enforce_receive_capacity: bool = False,
        fault_schedule: Optional[FaultSchedule] = None,
        charge_only: bool = False,
    ) -> None:
        if graph.number_of_nodes() == 0:
            raise ValueError("cannot simulate an empty network")
        if capacity_multiplier < 1:
            raise ValueError("capacity_multiplier must be at least 1")
        self.graph = graph
        self.config = config if config is not None else ModelConfig.hybrid()
        self.n = graph.number_of_nodes()
        check_pair_key_range(self.n)
        self.rng = random.Random(seed)
        self.capacity_multiplier = capacity_multiplier
        self.enforce_receive_capacity = enforce_receive_capacity
        self.charge_only = bool(charge_only)
        self.fault_schedule = fault_schedule
        # The empty-schedule identity guarantee: only a non-empty schedule
        # builds a FaultState; with fault_state None not a single fault branch
        # is taken anywhere in the round lifecycle.
        self.fault_state: Optional[FaultState] = (
            FaultState(fault_schedule, self.n)
            if fault_schedule is not None and not fault_schedule.is_empty()
            else None
        )
        self.metrics = RoundMetrics()
        self.round = 0
        # Version stamp of the graph the id-native caches describe.  Plane
        # sends compare it against the live stamp and raise StaleGraphError on
        # mismatch; ``invalidate_index`` resynchronises it after a deliberate
        # mutation.
        self._graph_version = graph_version(graph)
        # Edges the fault layer deleted for good (permanent link failures
        # committed at window close, in commit order).  See ``advance_round``.
        self.committed_link_removals: List[Tuple[Node, Node]] = []

        # All-int labels sort plainly, in node_sort_key's order (bool and
        # NumPy ints are not ``int`` and take its str group).
        nodes: List[Node] = list(graph.nodes)
        nodes.sort(key=None if set(map(type, nodes)) == {int} else node_sort_key)
        self._nodes = nodes
        self._index_of: Dict[Node, int] = dict(zip(nodes, range(self.n)))
        # Lazy id-native cache (frozen-graph caveat; see invalidate_index):
        # the directed adjacency as sorted flat s * n + r keys for vectorised
        # edge validation.
        self._edge_keys: Optional[Any] = None
        self._assign_identifiers()
        self._init_knowledge()

        # Round state: the plane batches queued for the round being composed,
        # their message and word totals, and the batches delivered by the
        # most recent ``advance_round``.  Per-node loads are read off the
        # queued batches by the capacity sweep; the send path keeps none.
        self._clear_pending()
        self._delivered_local_planes: List[_PlaneBatch] = []
        self._delivered_global_planes: List[_PlaneBatch] = []
        self._delivered_round = -1

    # ------------------------------------------------------------------
    # Identifiers and knowledge
    # ------------------------------------------------------------------
    def _assign_identifiers(self) -> None:
        if self.config.identifier_regime is IdentifierRegime.DENSE:
            # HYBRID: identifiers are exactly [n] in node order (a graph on
            # 0..n-1 keeps its labels); the column is its own argsort.
            ids = self._by_id = np.arange(self.n, dtype=np.int64)
        else:
            # HYBRID_0: distinct random identifiers from [n^3] (capped, see
            # _identifier_universe), drawn exactly as rng.sample draws them.
            ids = _sample_distinct(self.rng, _identifier_universe(self.n), self.n)
            self._by_id = None  # argsort of the column, built on first lookup
        ids.setflags(write=False)
        #: Identifier of every node, in node-index order (read-only int64).
        self._ids = ids

    def _init_knowledge(self) -> None:
        """HYBRID: everyone knows every identifier (one flag).  HYBRID_0: a
        node knows its own identifier and its neighbors' (Section 1.3) — the
        diagonal plus the directed adjacency keys, copied into the pair store
        as one sorted array."""
        n = self.n
        dense = self.config.identifier_regime is IdentifierRegime.DENSE
        self.knowledge = KnowledgeTracker(n, all_known=dense)
        if dense:
            return
        self.knowledge.pairs.add(
            np.concatenate(
                (self._edge_key_index(), np.arange(0, n * n, n + 1, dtype=np.int64))
            )
        )

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[Node]:
        """All nodes, in a deterministic order (numeric labels numerically)."""
        return list(self._nodes)

    def neighbors(self, node: Node) -> List[Node]:
        self._require_node(node)
        return sorted(self.graph.neighbors(node), key=node_sort_key)

    def node_indexer(self) -> Dict[Node, int]:
        """``node -> index`` into the deterministic :attr:`nodes` order.

        The returned dict is the simulator's own map — treat it as read-only.
        Token planes address nodes by these indices.
        """
        return self._index_of

    def node_index(self, node: Node) -> int:
        """Index of ``node`` in the deterministic :attr:`nodes` order."""
        index = self._index_of.get(node)
        if index is None:
            raise UnknownNodeError(node)
        return index

    def invalidate_index(self) -> None:
        """Drop the cached id-native arrays and resynchronise the graph stamp.

        A deliberate mid-simulation mutation of the graph must be followed by
        this call (mirroring :func:`repro.graphs.index.invalidate_index` for
        the analytics layer); until then, plane sends raise
        :class:`~repro.simulator.errors.StaleGraphError` because the cached
        adjacency keys describe a graph that no longer exists.  Node
        additions/removals are not supported — the node order and identifier
        assignment are fixed at construction, and knowledge is monotone and
        holds its own copy of the construction-time adjacency, so it survives
        this call.
        """
        self._graph_version = graph_version(self.graph)
        self._edge_keys = None

    def _check_graph_version(self) -> None:
        """Raise :class:`StaleGraphError` if the graph mutated behind us.

        One weak-dict lookup per plane shard — negligible against the shard
        work it guards.
        """
        current = graph_version(self.graph)
        if current != self._graph_version:
            raise StaleGraphError(
                f"graph version moved from {self._graph_version} to {current} "
                "since the simulator's id-native arrays were built; call "
                "invalidate_index() after mutating the graph"
            )

    def _edge_key_index(self):
        """The directed adjacency as flat ``s * n + r`` keys (cached): a
        sorted int64 array, validated with one ``searchsorted`` per shard.

        Built from the adjacency in node order by C-level passes (targets
        mapped to indices, row bases repeated by degree) and one sort; a
        directed graph's successor lists get their reverse keys too."""
        keys = self._edge_keys
        if keys is None:
            n = self.n
            neighbours = list(map(dict(self.graph.adjacency()).__getitem__, self._nodes))
            degrees = np.fromiter(map(len, neighbours), dtype=np.int64, count=n)
            keys = np.fromiter(
                map(self._index_of.__getitem__, chain.from_iterable(neighbours)),
                dtype=np.int64,
                count=int(degrees.sum()),
            )
            keys += np.repeat(np.arange(0, n * n, n, dtype=np.int64), degrees)
            if self.graph.is_directed():
                keys = sorted_unique(np.concatenate((keys, keys % n * n + keys // n)))
            else:
                keys.sort()
            self._edge_keys = keys
        return keys

    def id_of(self, node: Node) -> int:
        """Identifier of ``node``, a Python ``int``."""
        return self._ids.item(self.node_index(node))

    def identifier_column(self) -> np.ndarray:
        """Every node's identifier in node-index order: the simulator's own
        int64 array, read-only (writes raise)."""
        return self._ids

    def node_of_id(self, identifier: int) -> Node:
        """The node holding ``identifier``; :class:`UnknownNodeError` if none does,
        as for every value no identifier equals (non-integer, out of range)."""
        found = self._indices_of_ids((identifier,))
        if not found.size:
            raise UnknownNodeError(identifier)
        return self._nodes[found.item(0)]

    def all_ids(self) -> List[int]:
        return np.sort(self._ids).tolist()

    def _indices_of_ids(self, identifiers: Iterable[int]) -> np.ndarray:
        """Node indices of ``identifiers``, skipping ones that do not exist (a
        node may be told bogus identifiers; it simply cannot reach anyone
        with them), non-integers and integers outside the universe included."""
        held = (i for i in identifiers if isinstance(i, (int, np.integer)))
        wanted = np.fromiter((i for i in held if 0 <= i < _ID_UNIVERSE_CAP), np.int64)
        ids, by_id = self._ids, self._by_id
        if by_id is None:
            by_id = self._by_id = np.argsort(ids)
        found = by_id[np.minimum(ids.searchsorted(wanted, sorter=by_id), self.n - 1)]
        return found[ids[found] == wanted]

    def known_ids(self, node: Node) -> Set[int]:
        known = self.knowledge.known(self.node_index(node))
        return set(self._ids[np.fromiter(known, np.int64, len(known))].tolist())

    def knows_id(self, node: Node, identifier: int) -> bool:
        learner = self.node_index(node)
        found = self._indices_of_ids((identifier,))
        return bool(found.size) and self.knowledge.knows(learner, found.item(0))

    def declare_learned_ids(self, node: Node, identifiers: Iterable[int]) -> None:
        """Record that ``node`` learned identifiers from received payloads."""
        self.knowledge.learn(self.node_index(node), self._indices_of_ids(identifiers))

    def declare_learned_ids_bulk(
        self, nodes: Iterable[Node], identifiers: Iterable[int]
    ) -> None:
        """Record that every node in ``nodes`` learned the same identifiers.

        Equivalent to calling :meth:`declare_learned_ids` per node, but the
        bogus-id filtering happens once for the shared set — the broadcast
        idiom ("every cluster member learns all leader identifiers") is one
        shared record.  Every learner is resolved before anything is
        recorded: an unknown node raises :class:`UnknownNodeError` and
        teaches no one.
        """
        try:
            learners = frozenset(map(self._index_of.__getitem__, nodes))
        except KeyError as missing:
            raise UnknownNodeError(missing.args[0]) from None
        self.knowledge.learn_shared(
            learners, frozenset(self._indices_of_ids(identifiers).tolist())
        )

    def global_budget_words(self) -> int:
        """Per-node, per-round global budget in words.

        Under a fault schedule the budget is degraded by the node-wide
        capacity factors active in the *current* round — callers that plan
        traffic before ``advance_round`` (the two-tier scheduler reads this at
        planning time) therefore plan with exactly the budget the capacity
        sweep will enforce, as long as planning and delivery happen in the
        same round.  Node-scoped factors do not appear here; they only tighten
        that node's budget in the capacity sweep of :meth:`advance_round`.
        """
        base = self.config.resolve_global_word_budget(self.n) * self.capacity_multiplier
        fault_state = self.fault_state
        if fault_state is not None:
            return fault_state.degraded_budget(base, self.round)
        return base

    def edge_weight(self, u: Node, v: Node) -> float:
        return self.graph[u][v].get("weight", 1)

    # ------------------------------------------------------------------
    # Sending — id-native plane API (the round engine's hot path)
    # ------------------------------------------------------------------
    #: Shards below this size take the scalar (list) paths of validation and
    #: fault filtering, and a round with fewer global tokens than this sweeps
    #: capacity with dicts: the grouped NumPy reductions only pay off on bulk
    #: traffic.
    _SMALL_SHARD = 32

    def _select_plane_columns(self, plane, positions):
        """The (senders, receivers, words, positions) columns of a shard.

        O(shard), not O(plane): a position outside the plane raises
        :class:`IndexError` before anything is queued, and only the selected
        entries are gathered.  Shards below :attr:`_SMALL_SHARD` tokens come
        back as plain lists, so the callers' scalar paths run without
        per-element NumPy boxing; bulk shards stay int64 arrays.
        """
        columns = (plane.senders, plane.receivers, plane.words)
        if positions is not None:
            positions = np.asarray(positions, dtype=np.int64)
            size = len(plane)
            outside = positions[(positions < 0) | (positions >= size)].tolist()
            if outside:
                raise IndexError(
                    f"plane position {outside[0]} is out of range for a plane "
                    f"of {size} tokens"
                )
            columns = tuple(column.take(positions) for column in columns)
        if len(columns[0]) >= self._SMALL_SHARD:
            return (*columns, positions)
        return (
            *(column.tolist() for column in columns),
            None if positions is None else positions.tolist(),
        )

    def _validate_index_range(self, values) -> None:
        """Membership check for a node-index column: one range comparison."""
        n = self.n
        if len(values) < self._SMALL_SHARD:
            for value in values:
                if not 0 <= value < n:
                    raise UnknownNodeError(value)
        elif int(values.min()) < 0 or int(values.max()) >= n:
            bad = values[(values < 0) | (values >= n)]
            raise UnknownNodeError(int(bad[0]))

    def _validate_plane_knowledge(self, s_col, r_col, small: bool) -> None:
        """HYBRID_0 knowledge check over the shard's *unique* (s, r) pairs.

        Pairs already in the knowledge tracker's pair store (initial
        adjacency, learned sender ids, pairs validated earlier) are filtered
        out first and only the residue is checked against the shared
        records; repeated pairs (the common case in rank-matched workloads)
        cost one probe, not one per token.  The error reported is the
        earliest offending token in submission order.  A small shard probes
        the store once per token (scalar); a bulk shard sorts its own pair
        keys once and probes the store with the distinct ones.  The pair
        store is the only thing a shard trusts: no earlier shard of the same
        plane vouches for it.
        """
        pairs = self.knowledge.pairs
        n = self.n
        if small:
            keys = [s * n + r for s, r in zip(s_col, r_col)]
            fresh = sorted({key for key in keys if key not in pairs})
        else:
            key_column = s_col * n + r_col
            uniq = pairs.unknown(sorted_unique(key_column))
            fresh = uniq.tolist()
        if not fresh:
            return
        knows_shared = self.knowledge.knows_shared
        offending = {key for key in fresh if not knows_shared(*divmod(key, n))}
        if offending:
            # Report the earliest offending token in submission order.  The
            # store is left untouched — nothing was queued, so the good pairs
            # of a failing shard simply re-validate later.
            if not small:
                keys = key_column.tolist()
            position = next(k for k, key in enumerate(keys) if key in offending)
            raise UnknownIdentifierError(
                f"node {self._nodes[int(s_col[position])]!r} does not know "
                f"identifier {self._ids.item(r_col[position])!r}"
            )
        pairs.absorb(np.array(fresh, dtype=np.int64) if small else uniq)

    def global_send_plane(self, plane, positions=None, tag: Optional[str] = None) -> int:
        """Queue a shard of an id-native token plane over the global mode.

        ``plane`` carries parallel node-index arrays plus a payload side list
        (see :class:`~repro.simulator.engine.TokenPlane`); ``positions``
        selects the shard (``None`` sends the whole plane).  Membership is a
        range check and HYBRID_0 knowledge is validated per unique (sender,
        receiver) pair; the shard is then queued as it is, with its tag words
        folded into its word column.  Capacity is not counted here: the sweep
        in :meth:`advance_round` reads every node's load off the queued
        shards.  No per-token record objects are built unless the round's
        inbox is read.  The workload is validated up front; on error nothing
        is queued.  Returns the number of messages queued.
        """
        if not self.config.global_mode_enabled():
            raise CapacityExceededError(
                f"global mode disabled in model {self.config.name!r}"
            )
        self._check_graph_version()
        s_sel, r_sel, w_sel, positions = self._select_plane_columns(plane, positions)
        count = len(s_sel)
        if count == 0:
            return 0
        tag_words = payload_words(tag) if tag is not None else 0
        self._validate_index_range(s_sel)
        self._validate_index_range(r_sel)
        small = count < self._SMALL_SHARD
        if self.config.is_hybrid0():
            self._validate_plane_knowledge(s_sel, r_sel, small)
        if small:
            wt = [w + tag_words for w in w_sel] if tag_words else w_sel
            total = sum(wt)
        else:
            wt = w_sel + tag_words if tag_words else w_sel
            total = int(wt.sum())
        self._pending_global_planes.append(
            _PlaneBatch(
                s_sel, r_sel, wt,
                None if self.charge_only else plane.payloads,
                positions, tag,
            )
        )
        self._pending_global_msgs += count
        self._pending_global_words += total
        return count

    def local_send_plane(self, plane, positions=None, tag: Optional[str] = None) -> int:
        """Queue a shard of an id-native token plane over the local mode.

        The local counterpart of :meth:`global_send_plane`: adjacency is
        validated per unique (sender, receiver) pair against the cached
        directed edge keys (one ``searchsorted`` sweep on bulk shards), and
        the CONGEST-style per-edge limit, when configured, is checked with
        one vectorised comparison.  Returns the number of messages queued.
        """
        if not self.config.local_mode_enabled():
            raise LocalBandwidthExceededError(
                f"local mode disabled in model {self.config.name!r}"
            )
        self._check_graph_version()
        s_sel, r_sel, w_sel, positions = self._select_plane_columns(plane, positions)
        count = len(s_sel)
        if count == 0:
            return 0
        tag_words = payload_words(tag) if tag is not None else 0
        self._validate_index_range(s_sel)
        self._validate_index_range(r_sel)
        n = self.n
        nodes = self._nodes
        edge_keys = self._edge_key_index()
        small = count < self._SMALL_SHARD
        if not small:
            uniq, first = np.unique(s_sel * n + r_sel, return_index=True)
            slot = np.searchsorted(edge_keys, uniq)
            in_bounds = slot < edge_keys.size
            match = np.zeros(uniq.size, dtype=bool)
            match[in_bounds] = edge_keys[slot[in_bounds]] == uniq[in_bounds]
            if not match.all():
                bad = int(first[~match].min())
                raise NotANeighborError(
                    f"{nodes[int(s_sel[bad])]!r} and {nodes[int(r_sel[bad])]!r} "
                    f"are not adjacent"
                )
            wt = w_sel + tag_words if tag_words else w_sel
            total = int(wt.sum())
        else:
            checked: Set[int] = set()
            for k in range(count):
                key = s_sel[k] * n + r_sel[k]
                if key not in checked:
                    if key not in edge_keys:
                        raise NotANeighborError(
                            f"{nodes[s_sel[k]]!r} and {nodes[r_sel[k]]!r} "
                            f"are not adjacent"
                        )
                    checked.add(key)
            wt = [w + tag_words for w in w_sel] if tag_words else w_sel
            total = sum(wt)
        max_words = self.config.resolve_local_word_limit()
        if max_words is not None:
            if small:
                oversized = sum(1 for w in wt if w > max_words)
            else:
                oversized = int((wt > max_words).sum())
            if oversized:
                if self.config.strict:
                    raise LocalBandwidthExceededError(
                        f"local message exceeds per-edge budget of "
                        f"{max_words} words"
                    )
                for _ in range(oversized):
                    self.metrics.record_violation()
        self._pending_local_planes.append(
            _PlaneBatch(
                s_sel, r_sel, wt,
                None if self.charge_only else plane.payloads,
                positions, tag,
            )
        )
        self._pending_local_msgs += count
        self._pending_local_words += total
        return count

    # ------------------------------------------------------------------
    # Round lifecycle
    # ------------------------------------------------------------------
    def advance_round(self) -> None:
        """Deliver all queued messages and advance the round counter.

        The round runs as stages over the queued plane batches: the global
        capacity sweep (:meth:`_sweep_global_capacity`), the round's message
        and word totals, the fault filter (:meth:`_apply_faults`, under a
        non-empty fault schedule), sparse-regime sender-identifier learning
        (:meth:`_learn_from_planes`) and delivery (:meth:`_deliver`).  The
        order is the semantics: capacity is charged per attempt, before
        faults (drops never refund budget), and receivers learn identifiers
        only from the messages that survived the filter.  A strict capacity
        error voids the round: its queued traffic (both modes) is discarded.
        """
        try:
            self._sweep_global_capacity()
        except CapacityExceededError:
            self._clear_pending()
            raise
        self.metrics.record_local_bulk(self._pending_local_msgs, self._pending_local_words)
        self.metrics.record_global_bulk(self._pending_global_msgs, self._pending_global_words)
        fault_state = self.fault_state
        if fault_state is not None:
            self._apply_faults(fault_state)
        # Receiving a global message always teaches the receiver the sender's
        # identifier (the sender attaches it implicitly).  In the dense regime
        # everyone already knows every identifier, so the bookkeeping is
        # skipped.
        if (
            self.config.identifier_regime is IdentifierRegime.SPARSE
            and self._pending_global_planes
        ):
            self._learn_from_planes(self._pending_global_planes)
        self._deliver()
        if fault_state is not None:
            self._commit_permanent_link_failures(fault_state)

    def _sweep_global_capacity(self) -> None:
        """Charge the round's global traffic against every node's budget.

        Each node's send and receive loads are read off the queued global
        batches (payload plus tag words per token) and compared once against
        its budget: :meth:`global_budget_words`, or the node's own degraded
        budget under a node-scoped :class:`~repro.simulator.faults.
        CapacityDegradation`.  A round below :attr:`_SMALL_SHARD` global
        tokens sums its loads in index-keyed dicts; a larger round
        ``bincount``-s each batch into one float64 pair (exact below 2^53
        words) and compares it against a limit vector when a node budget is
        degraded.  The metrics keep the peak load and one violation per
        overloaded node and side.  Send-side overloads raise in strict mode
        (they are always under the algorithm's control); receive-side
        overloads raise only when ``enforce_receive_capacity`` is set.  The
        error names the lowest-indexed offender, send side first.
        """
        planes = self._pending_global_planes
        if not planes:
            return
        budget = self.global_budget_words()
        node_budgets: Dict[int, int] = {}
        if self.fault_state is not None:
            node_budgets = {
                index: max(1, int(budget * factor))
                for index, factor in self.fault_state.node_capacity_factors(
                    self.round
                ).items()
            }
        # No node is overloaded unless the peak load exceeds the lowest budget
        # (node-scoped budgets never exceed the node-wide one).
        lowest = min(node_budgets.values(), default=budget)
        # Per side: (loads by node index, peak load, overloaded nodes, the
        # lowest-indexed offender).
        swept = []
        if self._pending_global_msgs < self._SMALL_SHARD:
            sent: Dict[int, int] = {}
            received: Dict[int, int] = {}
            for queued in planes:
                for s, r, w in zip(queued.senders, queued.receivers, queued.words):
                    sent[s] = sent.get(s, 0) + w
                    received[r] = received.get(r, 0) + w
            for loads in (sent, received):
                peak = max(loads.values())
                over = []
                if peak > lowest:
                    over = [
                        index
                        for index, words in loads.items()
                        if words > node_budgets.get(index, budget)
                    ]
                swept.append((loads, peak, len(over), min(over) if over else -1))
        else:
            n = self.n
            sent_arr = np.zeros(n)
            recv_arr = np.zeros(n)
            for queued in planes:
                sent_arr += np.bincount(queued.senders, weights=queued.words, minlength=n)
                recv_arr += np.bincount(queued.receivers, weights=queued.words, minlength=n)
            limit: Any = budget
            if node_budgets:
                limit = np.full(n, budget)
                limit[list(node_budgets)] = list(node_budgets.values())
            for loads in (sent_arr, recv_arr):
                peak = loads.max()
                over = np.flatnonzero(loads > limit) if peak > lowest else []
                swept.append((loads, peak, len(over), int(over[0]) if len(over) else -1))
        metrics = self.metrics
        strict = self.config.strict
        for verb, (loads, peak, over_count, first), enforce in zip(
            ("sent", "received"),
            swept,
            (strict, strict and self.enforce_receive_capacity),
        ):
            metrics.record_node_round_load(int(peak))
            if over_count and enforce:
                metrics.record_violation()
                raise CapacityExceededError(
                    f"node {self._nodes[first]!r} {verb} {int(loads[first])} global "
                    f"words in round {self.round}, budget is "
                    f"{node_budgets.get(first, budget)}"
                )
            for _ in range(over_count):
                metrics.record_violation()

    def _deliver(self) -> None:
        """The queued planes become this round's inboxes; the round ends."""
        self._delivered_local_planes = self._pending_local_planes
        self._delivered_global_planes = self._pending_global_planes
        self._clear_pending()
        self._delivered_round = self.round
        self.round += 1
        self.metrics.record_round()

    def _clear_pending(self) -> None:
        """Start composing a round with nothing queued."""
        self._pending_local_planes: List[_PlaneBatch] = []
        self._pending_global_planes: List[_PlaneBatch] = []
        self._pending_local_msgs = 0
        self._pending_local_words = 0
        self._pending_global_msgs = 0
        self._pending_global_words = 0

    def _commit_permanent_link_failures(self, fault_state: FaultState) -> None:
        """Turn closed permanent link-failure windows into real edge deletions.

        Every ``LinkFailure(..., permanent=True)`` whose window has closed (the
        just-entered round is at or past its ``end_round``) is committed in
        one graph mutation per round, a
        :meth:`~repro.graphs.mutation.GraphMutator.apply_batch` of removals:
        the edges are deleted for good, the graph's version stamp advances
        once, and the cached analytics :class:`~repro.graphs.index.GraphIndex`
        takes one splice, so dissemination/APSP re-runs on the churned graph
        see the committed topology.  The simulator resynchronises its own
        id-native caches via :meth:`invalidate_index` (knowledge and
        identifiers are untouched: nodes never disappear).  Committed edges
        are appended to :attr:`committed_link_removals` in commit order.
        """
        closures = fault_state.take_permanent_closures(self.round)
        if not closures:
            return
        nodes = self._nodes
        seen = set()
        removed: List[Tuple[Node, Node]] = []
        for ui, vi in closures:
            u, v = nodes[ui], nodes[vi]
            key = (ui, vi) if ui < vi else (vi, ui)
            # A schedule may name a non-edge, a pair a previous window already
            # removed, or one edge twice (in either orientation) closing in
            # the same round: each is committed at most once, never an error.
            if key not in seen and self.graph.has_edge(u, v):
                seen.add(key)
                removed.append((u, v))
        if removed:
            GraphMutator(self.graph).apply_batch([("remove", u, v) for u, v in removed])
            self.committed_link_removals.extend(removed)
            self.invalidate_index()

    def _learn_from_planes(self, planes: List["_PlaneBatch"]) -> None:
        """Sparse-regime sender-identifier learning: one store merge per round.

        Each receiver learns the identifier of every sender it heard from this
        round, recorded as ``receiver * n + sender`` keys in the knowledge
        tracker's pair store: the round's keys are concatenated, sorted once
        and filtered through the store's sorted-needle probe straight into
        one absorb, with no per-receiver work at all.
        """
        pairs = self.knowledge.pairs
        n = self.n
        chunks = [
            np.asarray(b.receivers, np.int64) * n + np.asarray(b.senders, np.int64)
            for b in planes
        ]
        pairs.absorb(pairs.unknown(sorted_unique(np.concatenate(chunks))))

    # ------------------------------------------------------------------
    # Fault injection (see repro.simulator.faults)
    # ------------------------------------------------------------------
    def _apply_faults(self, fault_state: FaultState) -> None:
        """Drop pending traffic per the fault schedule.

        Runs inside :meth:`advance_round`, after capacity accounting
        (attempt-based: a dropped message keeps its budget charge) and before
        sparse-regime identifier learning (a receiver learns nothing from a
        message it did not get).  Drop draws are consumed in a fixed order —
        global mode first, then local; within a mode, plane batches in
        submission order, one draw per crash/link survivor — so a run replays
        bit-for-bit from ``(schedule.seed, schedule)``.
        """
        round_index = self.round
        metrics = self.metrics
        crashed = fault_state.crashed_indices(round_index)
        if crashed:
            metrics.record_crashed_nodes(len(crashed))
        failed_edges = fault_state.failed_edge_keys(round_index)
        dropped = 0
        for mode, planes in (
            (GLOBAL_MODE, self._pending_global_planes),
            (LOCAL_MODE, self._pending_local_planes),
        ):
            rate = fault_state.drop_rate(mode)
            edges = failed_edges if (mode == LOCAL_MODE and failed_edges) else None
            if not planes or (not crashed and edges is None and not rate > 0.0):
                continue
            # Seeded fresh from (seed, round, mode), so seeding only rounds
            # that draw leaves every draw unchanged.
            rng = fault_state.round_rng(round_index, mode) if rate > 0.0 else None
            crashed_arr = fault_state.crashed_index_array(round_index)
            failed_arr = (
                fault_state.failed_edge_key_array(round_index)
                if edges is not None
                else crashed_arr[:0]
            )
            dropped += self._filter_planes(
                planes, crashed, edges, rate, rng, crashed_arr, failed_arr
            )
        if dropped:
            metrics.record_dropped(dropped)

    def _filter_planes(
        self, planes, crashed, failed_edges, rate, rng, crashed_arr, failed_arr
    ) -> int:
        """Filter queued plane batches in place; return the drop count.

        Surviving batches keep their original column objects when nothing was
        dropped.  Bulk batches filter vectorised: the crash/edge keep-mask is
        computed per batch (:func:`_fault_keep_mask`), then the RNG consumes
        one draw per crash/edge survivor in ascending token order, exactly
        like the scalar loop that small batches run — the drop decisions and
        the draw stream match bit for bit.  Id learning later reads the
        surviving columns, so a dropped token teaches nothing.
        """
        n = self.n
        dropped = 0
        for i, batch in enumerate(planes):
            senders = batch.senders
            receivers = batch.receivers
            words = batch.words
            positions = batch.positions
            if len(batch) >= self._SMALL_SHARD:
                keep_mask = _fault_keep_mask(
                    senders, receivers, crashed_arr, failed_arr, n
                )
                if rng is not None:
                    passing = np.flatnonzero(keep_mask)
                    if passing.size:
                        draw = rng.random
                        draws = np.fromiter(
                            (draw() for _ in range(passing.size)),
                            dtype=np.float64,
                            count=passing.size,
                        )
                        keep_mask[passing[draws < rate]] = False
                kept = np.flatnonzero(keep_mask)
                if kept.size == len(senders):
                    continue
                dropped += len(senders) - int(kept.size)
                planes[i] = _PlaneBatch(
                    senders[kept],
                    receivers[kept],
                    words[kept],
                    batch.payloads,
                    kept if positions is None else positions[kept],
                    batch.tag,
                )
                continue
            keep: List[int] = []
            for k in range(len(senders)):
                sender_index = senders[k]
                receiver_index = receivers[k]
                if (
                    sender_index in crashed
                    or receiver_index in crashed
                    or (
                        failed_edges is not None
                        and sender_index * n + receiver_index in failed_edges
                    )
                    or (rng is not None and rng.random() < rate)
                ):
                    dropped += 1
                    continue
                keep.append(k)
            if len(keep) == len(senders):
                continue
            planes[i] = _PlaneBatch(
                [senders[k] for k in keep],
                [receivers[k] for k in keep],
                [words[k] for k in keep],
                batch.payloads,
                keep if positions is None else [positions[k] for k in keep],
                batch.tag,
            )
        return dropped

    def delivered_plane_positions(self, tag, mode: str = GLOBAL_MODE) -> List[int]:
        """Plane positions actually delivered for ``tag`` in the last round.

        Positions index the submitted plane's payload side list.  This is the
        self-healing exchange's ack channel: positions absent from the result
        were dropped by the fault layer and need retransmission.  Batches are
        matched by tag equality, so pass a unique
        :class:`~repro.simulator.engine.ExchangeTag` per exchange.
        """
        delivered: List[int] = []
        for batch in self._delivered_planes(mode):
            if batch.tag != tag:
                continue
            positions = batch.positions
            if positions is None:
                delivered.extend(range(len(batch.senders)))
            else:
                if hasattr(positions, "tolist"):
                    positions = positions.tolist()
                delivered.extend(positions)
        return delivered

    def advance_rounds(self, count: int) -> None:
        """Advance ``count`` (possibly silent) rounds."""
        if count < 0:
            raise ValueError("count must be non-negative")
        for _ in range(count):
            self.advance_round()

    def charge_rounds(self, rounds: int, reason: str, reference: str = "") -> None:
        """Add an analytic round charge (see DESIGN.md substitution policy)."""
        self.metrics.charge(rounds, reason, reference)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def per_node_inbox(self, mode: str = GLOBAL_MODE) -> Dict[Node, List[BatchRecord]]:
        """The deliveries of the last round for ``mode``, bucketed by receiver.

        Returns the mapping ``receiver -> [(sender, payload, tag, words), ...]``
        — nodes that received nothing are absent, so read with
        ``inbox.get(node, ())``.  Within a receiver, records follow plane
        submission order.  The dict is built from the delivered planes on
        every call (the round engine harvests from its own shards and
        :meth:`delivered_plane_positions` and never calls this), so read it
        once per round.  Charge-only planes raise
        :class:`~repro.simulator.errors.ChargeOnlyError` here.
        """
        inbox: Dict[Node, List[BatchRecord]] = {}
        nodes = self._nodes
        for batch in self._delivered_planes(mode):
            for receiver, record in batch.records(nodes):
                bucket = inbox.get(receiver)
                if bucket is None:
                    bucket = inbox[receiver] = []
                bucket.append(record)
        return inbox

    def _delivered_planes(self, mode: str) -> List[_PlaneBatch]:
        self._require_delivered()
        if mode == GLOBAL_MODE:
            return self._delivered_global_planes
        if mode == LOCAL_MODE:
            return self._delivered_local_planes
        raise ValueError(f"unknown mode {mode!r}")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _require_node(self, node: Node) -> None:
        if node not in self._index_of:
            raise UnknownNodeError(node)

    def _require_delivered(self) -> None:
        if self._delivered_round < 0:
            raise RoundLifecycleError(
                "no round has been delivered yet; call advance_round() first"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HybridSimulator(n={self.n}, model={self.config.name!r}, "
            f"round={self.round})"
        )
