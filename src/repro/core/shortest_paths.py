"""Universally optimal shortest-paths algorithms (Section 6).

This module implements the four universally optimal distance-computation
results that sit on top of the information-dissemination toolbox:

* :class:`KLShortestPaths` — Theorem 5: (1+eps)-approximate (k, l)-SP in
  ``eO(NQ_k)`` rounds, by solving one SSSP/k-SSP instance per target and then
  reversing the direction of the obtained labels with a (k, l)-routing instance
  (Theorem 3).
* :class:`UnweightedApproxAPSP` — Theorem 6 / Algorithm 3: deterministic
  (1+eps)-approximate APSP on unweighted graphs in ``eO(NQ_n / eps^2)`` rounds,
  via NQ_n-clustering, SSSP from every cluster leader, an ``x``-hop local
  exploration with ``x = 4 NQ_n ceil(log n) / eps``, and a broadcast of every
  node's closest-leader distance.
* :class:`SpannerAPSP` — Theorem 7: deterministic (1 + eps log n)-approximate
  weighted APSP in ``eO(2^{1/eps} NQ_n)`` rounds, by broadcasting a
  ``(2t-1)``-spanner with ``t = ceil(eps log n / 2)``.
* :class:`SkeletonAPSP` — Theorem 8 / Algorithm 4: randomized (4 alpha - 1)-
  approximate weighted APSP in ``eO(n^{1/(3 alpha + 1)} NQ_n^{2/(3 + 1/alpha)}
  + NQ_n)`` rounds, via a skeleton graph, a spanner of the skeleton, and the
  Algorithm 4 combination formula.

Every algorithm returns per-node distance estimate tables plus the metrics of
the simulator run; the distance *values* are computed exactly as the paper's
formulas prescribe (so the stretch observed in the tests is the real output of
the approximation pipeline, not an artefact).

Since the batch-native migration, the whole stack is driven by
:class:`~repro.simulator.engine.BatchAlgorithm`: every Theorem 1 broadcast
(node identifiers, spanner edges, closest-leader / closest-skeleton labels,
and the (k, l)-SP reversal traffic) is *physically simulated* as a
:class:`~repro.core.dissemination.KDissemination` / routing instance riding
the batch messaging engine, with round counts pinned by
``tests/unit/test_round_regression.py``.  The centralized all-pairs table
assemblies run as :class:`~repro.graphs.index.GraphIndex` flat-array sweeps:
:class:`UnweightedApproxAPSP` returns a :class:`DenseDistanceTable` whose
``n``-wide rows are materialised on demand from dense BFS rows instead of one
Python-dict BFS per node.
"""

from __future__ import annotations

import math
from array import array
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.core.clustering import Clustering, distributed_nq_clustering
from repro.core.dissemination import KDissemination
from repro.core.neighborhood_quality import neighborhood_quality
from repro.core.routing import KLRouting, RoutingScenario
from repro.core.skeleton import build_skeleton
from repro.core.spanner import distributed_spanner, greedy_spanner
from repro.core.sssp import approx_sssp_distances, sssp_round_cost
from repro.core.ksp import KSourceShortestPaths
from repro.graphs.index import GraphIndex, SSSPRowCache, get_index
from repro.graphs.properties import weighted_distances_from
from repro.simulator.config import log2_ceil
from repro.simulator.engine import BatchAlgorithm
from repro.simulator.metrics import RoundMetrics
from repro.simulator.network import HybridSimulator

Node = Hashable

__all__ = [
    "DistanceTable",
    "DenseDistanceTable",
    "KLShortestPaths",
    "UnweightedApproxAPSP",
    "SpannerAPSP",
    "SkeletonAPSP",
]


class DistanceTable:
    """Distance estimates produced by an approximate shortest-paths algorithm.

    ``estimates[target][source]`` is the estimate the target node holds for its
    distance to the source node.  ``stretch_bound`` is the guarantee the
    producing theorem promises (used by the tests).

    :meth:`estimate` follows the ``weak_diameter`` contract: querying a target
    the algorithm never computed a row for raises ``KeyError`` (it is a caller
    bug, not a distance), while a source the target's row simply has no finite
    entry for is *unreachable* and yields ``math.inf``.
    """

    def __init__(
        self,
        estimates: Dict[Node, Dict[Node, float]],
        stretch_bound: float,
        metrics: RoundMetrics,
        nq: Optional[int] = None,
    ) -> None:
        self.estimates = estimates
        self.stretch_bound = stretch_bound
        self.metrics = metrics
        self.nq = nq

    def estimate(self, target: Node, source: Node) -> float:
        try:
            row = self.estimates[target]
        except KeyError:
            raise KeyError(f"target {target!r} has no estimate row") from None
        return row.get(source, math.inf)

    def targets(self) -> List[Node]:
        return list(self.estimates)


class DenseDistanceTable(DistanceTable):
    """A :class:`DistanceTable` backed by dense per-target rows.

    Each target's estimates are one flat ``|columns|``-wide sequence of floats
    aligned with a fixed column order, produced lazily by ``row_factory`` from
    the :class:`~repro.graphs.index.GraphIndex` sweeps and cached as an
    ``array('d')`` of C doubles (8 bytes per entry instead of a pointer to a
    boxed float; values are exactly preserved).  A factory row that already is
    an ``array('d')`` is cached as it is, without a copy.  The
    dict-of-dicts :attr:`estimates` view of the base class is materialised on
    first attribute access, so existing consumers (stretch measurement,
    equivalence tests) see exactly the classic representation while all-pairs
    producers avoid building ``n^2`` dict entries they may never read.

    Query contract (shared with :class:`DistanceTable` and ``weak_diameter``):

    * :meth:`row` / :meth:`estimate` with a target outside :meth:`targets`
      raise ``KeyError`` — a wrong-node query is a caller bug, not a distance.
    * :meth:`estimate` with a source outside :meth:`columns` raises
      ``KeyError`` for the same reason (the dense column universe is known, so
      the query can be rejected instead of silently answered).
    * ``math.inf`` is returned *only* for a genuinely unreachable
      (target, source) pair — a row the algorithm computed whose entry is
      infinite.

    ``index`` (optional) ties the table to the
    :class:`~repro.graphs.index.GraphIndex` its rows derive from: the table
    records the index version at construction and *every* read — including
    reads of rows cached or materialised before a mutation — raises
    :class:`~repro.graphs.index.StaleIndexError` once that index is retired
    or patched past the recorded version.  Without it a consumer holding the
    table across an ``invalidate_index`` / ``GraphMutator`` edit would keep
    reading distances for a graph that no longer exists.
    """

    def __init__(
        self,
        row_nodes: Sequence[Node],
        columns: Sequence[Node],
        row_factory,
        stretch_bound: float,
        metrics: RoundMetrics,
        nq: Optional[int] = None,
        index: Optional[GraphIndex] = None,
    ) -> None:
        self._row_nodes = list(row_nodes)
        self._row_set = set(self._row_nodes)
        self._columns = list(columns)
        self._column_position = {node: i for i, node in enumerate(self._columns)}
        self._row_factory = row_factory
        self._rows: Dict[Node, array] = {}
        self._estimates: Optional[Dict[Node, Dict[Node, float]]] = None
        self.stretch_bound = stretch_bound
        self.metrics = metrics
        self.nq = nq
        self._guard_index = index
        self._guard_version = index.version if index is not None else None

    def _check_guard(self) -> None:
        index = self._guard_index
        if index is not None:
            index.ensure_current(self._guard_version)

    def columns(self) -> List[Node]:
        return list(self._columns)

    def row(self, target: Node) -> array:
        """The dense estimate row of ``target``, aligned with :meth:`columns`."""
        self._check_guard()
        if target not in self._row_set:
            raise KeyError(f"target {target!r} has no estimate row")
        cached = self._rows.get(target)
        if cached is None:
            if self._estimates is not None:
                # The dict view is materialised; read it back instead of
                # re-running the row factory, but keep the packing and the
                # cache — repeated row() reads after materialisation must not
                # rebuild a boxed list per call.
                row_dict = self._estimates[target]
                cached = [row_dict[column] for column in self._columns]
            else:
                cached = self._row_factory(target)
            if not (isinstance(cached, array) and cached.typecode == "d"):
                cached = array("d", cached)
            self._rows[target] = cached
        return cached

    def estimate(self, target: Node, source: Node) -> float:
        self._check_guard()
        position = self._column_position.get(source)
        if position is None:
            raise KeyError(f"source {source!r} is not a column of this table")
        if target not in self._row_set:
            raise KeyError(f"target {target!r} has no estimate row")
        if self._estimates is not None:
            return self._estimates[target][source]
        return self.row(target)[position]

    def targets(self) -> List[Node]:
        return list(self._row_nodes)

    @property
    def estimates(self) -> Dict[Node, Dict[Node, float]]:
        self._check_guard()
        if self._estimates is None:
            columns = self._columns
            rows = self._rows
            # Build uncached rows without retaining them: the dict-of-dicts
            # view supersedes the dense cache, and keeping both would hold two
            # full n^2 copies alive.  From here on ``row()`` / ``estimate()``
            # read the materialised view, so the factory (and the index
            # sweeps its closure pins) can be dropped too.
            self._estimates = {
                target: dict(
                    zip(
                        columns,
                        rows[target] if target in rows else self._row_factory(target),
                    )
                )
                for target in self._row_nodes
            }
            rows.clear()
            self._row_factory = None
        return self._estimates


def _graph_is_unit_weighted(graph: nx.Graph) -> bool:
    """Whether every edge weight is exactly 1 (the unweighted convention)."""
    return all(data.get("weight", 1) == 1 for _, _, data in graph.edges(data=True))


def _identifier_tokens(simulator: HybridSimulator) -> Dict[Node, List[Tuple]]:
    """One Theorem 1 token per node carrying its identifier (k = n)."""
    return {v: [("apsp-id", simulator.id_of(v))] for v in simulator.nodes}


def _edge_tokens(
    simulator: HybridSimulator, edges_graph: nx.Graph, tag: str
) -> Dict[Node, List[Tuple]]:
    """One Theorem 1 token per edge of ``edges_graph`` (k = m*).

    Each edge is held by its smaller-id endpoint; the token carries both
    endpoint identifiers and the edge weight.
    """
    tokens: Dict[Node, List[Tuple]] = {}
    for u, v, data in edges_graph.edges(data=True):
        holder = min(u, v, key=simulator.id_of)
        tokens.setdefault(holder, []).append(
            (tag, simulator.id_of(u), simulator.id_of(v), data.get("weight", 1))
        )
    return tokens


def _label_tokens(
    simulator: HybridSimulator, labels: Dict[Node, Tuple[Node, float]], tag: str
) -> Dict[Node, List[Tuple]]:
    """One Theorem 1 token per node carrying its (label node, distance) pair."""
    return {
        v: [(tag, simulator.id_of(v), simulator.id_of(label), distance)]
        for v, (label, distance) in labels.items()
    }


# ----------------------------------------------------------------------
# Theorem 5: (k, l)-SP
# ----------------------------------------------------------------------
class KLShortestPaths(BatchAlgorithm):
    """Theorem 5: (1+eps)-approximate (k, l)-SP in ``eO(NQ_k)`` rounds.

    Every target in ``targets`` must learn its (approximate) distance to every
    source in ``sources``.  The algorithm solves the shortest-paths problem "in
    reverse" — one (1+eps)-SSSP per target (Theorem 13), or the k-SSP algorithm
    of Theorem 14 when there are many targets — after which each *source* knows
    its distance to each target; a (k, l)-routing instance (Theorem 3) then
    ships each label to the target that needs it.

    The reversal traffic rides :class:`~repro.core.routing.KLRouting` on the
    batch messaging engine.
    """

    def __init__(
        self,
        simulator: HybridSimulator,
        sources: Sequence[Node],
        targets: Sequence[Node],
        *,
        epsilon: float = 0.25,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(simulator)
        if not sources or not targets:
            raise ValueError("sources and targets must be non-empty")
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.sources = sorted(set(sources), key=simulator.id_of)
        self.targets = sorted(set(targets), key=simulator.id_of)
        self.epsilon = epsilon
        self.seed = seed
        # Phase state.
        self.nq = 0
        self._reversed_estimates: Dict[Node, Dict[Node, float]] = {}
        self._estimates: Dict[Node, Dict[Node, float]] = {}

    def phases(self):
        return (
            ("parameters", self._phase_parameters),
            ("reverse-sssp", self._phase_reverse_sssp),
            ("reverse-routing", self._phase_reverse_routing),
        )

    def _phase_parameters(self) -> None:
        sim = self.simulator
        k = len(self.sources)
        # Memoised per (graph, k) by the analytics engine; the KLRouting
        # instance below receives it as a hint, so the whole Theorem 5
        # pipeline evaluates NQ_k exactly once.
        self.nq = max(1, neighborhood_quality(sim.graph, max(k, 1)))
        sim.charge_rounds(self.nq, "distributed computation of NQ_k", "Lemma 3.3")

    def _phase_reverse_sssp(self) -> None:
        """Solve l-SSP for the targets acting as SSSP sources ("in reverse")."""
        sim = self.simulator
        l = len(self.targets)
        if l <= max(2, self.nq):
            # First claim of Theorem 5: l sequential SSSP instances.
            for target in self.targets:
                self._reversed_estimates[target] = approx_sssp_distances(
                    sim.graph, target, self.epsilon
                )
                sim.charge_rounds(
                    sssp_round_cost(sim.n, self.epsilon),
                    f"(1+eps)-SSSP from target {target!r}",
                    "Theorem 13 via Theorem 5",
                )
        else:
            # Second claim: one k-SSP instance with the targets as sources.
            ksp = KSourceShortestPaths(
                sim,
                self.targets,
                epsilon=self.epsilon,
                sources_in_skeleton=True,
                seed=self.seed,
                )
            ksp_result = ksp.run()
            self._reversed_estimates = {
                target: {
                    node: ksp_result.estimate(node, target) for node in sim.nodes
                }
                for target in self.targets
            }

    def _phase_reverse_routing(self) -> None:
        """Each source now knows d~(s, t) for every target; reverse with
        (k, l)-routing (Theorem 3)."""
        sim = self.simulator
        l = len(self.targets)
        messages: Dict[Tuple[Node, Node], float] = {}
        for source in self.sources:
            for target in self.targets:
                messages[(source, target)] = self._reversed_estimates[target].get(
                    source, math.inf
                )
        routing = KLRouting(
            sim,
            messages,
            scenario=RoutingScenario.ARBITRARY_SOURCES_RANDOM_TARGETS
            if l <= self.nq
            else RoutingScenario.RANDOM_SOURCES_RANDOM_TARGETS,
            seed=self.seed,
            nq=self.nq,
        )
        routing_result = routing.run()
        self._estimates = {
            target: dict(routing_result.delivered.get(target, {}))
            for target in self.targets
        }

    def finish(self) -> DistanceTable:
        return DistanceTable(
            estimates=self._estimates,
            stretch_bound=1.0 + self.epsilon,
            metrics=self.simulator.metrics,
            nq=self.nq,
        )


# ----------------------------------------------------------------------
# Theorem 6: unweighted APSP
# ----------------------------------------------------------------------
class UnweightedApproxAPSP(BatchAlgorithm):
    """Theorem 6 / Algorithm 3: (1+eps)-approximate unweighted APSP in
    ``eO(NQ_n / eps^2)`` rounds, deterministically, in HYBRID_0.

    Both Theorem 1 broadcasts — all node identifiers, and every node's
    (closest leader, distance) pair — are physically simulated
    :class:`~repro.core.dissemination.KDissemination` instances sharing the
    NQ_n evaluation and the Lemma 3.5 clustering of the surrounding
    algorithm.  The centralized table
    assembly is dense: cluster-leader SSSP rows and the per-node hop rows are
    flat :class:`~repro.graphs.index.GraphIndex` sweeps, and the resulting
    :class:`DenseDistanceTable` materialises Algorithm 3's estimate rows on
    demand.
    """

    def __init__(
        self,
        simulator: HybridSimulator,
        *,
        epsilon: float = 0.5,
        nq: Optional[int] = None,
        clustering: Optional[Clustering] = None,
    ) -> None:
        super().__init__(simulator)
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")
        self.epsilon = epsilon
        # ``nq`` / ``clustering`` are precomputation hints with the same
        # contract as KDissemination's: graph analytics a caller already has
        # (e.g. a benchmark reusing one instance) are not
        # recomputed, and a hinted clustering skips the Lemma 3.5 construction
        # charges exactly like KDissemination's hint does.
        self._nq_hint = nq
        self._clustering_hint = clustering
        # Phase state.
        self._log_n = log2_ceil(max(simulator.n, 2))
        self.nq = 0
        self.x = 0
        self.clustering: Optional[Clustering] = None
        self.leaders: List[Node] = []
        self._index: Optional[GraphIndex] = None
        self._unit_weighted = True
        self._leader_rows: Dict[Node, List[int]] = {}
        self._leader_estimates: Dict[Node, Dict[Node, float]] = {}
        self._closest_leader: Dict[Node, Tuple[Node, float]] = {}

    def phases(self):
        return (
            ("parameters", self._phase_parameters),
            ("identifier-broadcast", self._phase_identifier_broadcast),
            ("leader-sssp", self._phase_leader_sssp),
            ("local-exploration", self._phase_local_exploration),
            ("closest-leader-broadcast", self._phase_closest_leader_broadcast),
        )

    # ------------------------------------------------------------------
    def _phase_parameters(self) -> None:
        """NQ_n (Lemma 3.3, charged) and the Lemma 3.5 clustering, shared with
        every broadcast instance below."""
        sim = self.simulator
        nq = self._nq_hint
        if nq is None:
            nq = neighborhood_quality(sim.graph, sim.n)
        self.nq = max(1, nq)
        sim.charge_rounds(self.nq, "distributed computation of NQ_n", "Lemma 3.3")
        if self._clustering_hint is not None:
            self.clustering = self._clustering_hint
        else:
            self.clustering = distributed_nq_clustering(sim, sim.n, nq=self.nq)
        self.leaders = self.clustering.leaders()
        self._index = get_index(sim.graph)
        self._unit_weighted = _graph_is_unit_weighted(sim.graph)

    def _phase_identifier_broadcast(self) -> None:
        """Theorem 1 with k = n: every node's identifier becomes global
        knowledge (physically simulated)."""
        sim = self.simulator
        KDissemination(
            sim,
            _identifier_tokens(sim),
            nq=self.nq,
            clustering=self.clustering,
        ).run()

    def _phase_leader_sssp(self) -> None:
        """(1+eps)-approximate SSSP from every cluster leader (Theorem 13),
        |R| <= NQ_n instances; dense GraphIndex sweeps on unit weights."""
        sim = self.simulator
        self._leader_rows = self._index.hop_distance_rows(self.leaders)
        if not self._unit_weighted:
            # Theorem 6 assumes unit weights; on a weighted graph fall back to
            # the weight-rounded Dijkstra so estimates keep the SSSP stretch.
            for leader in self.leaders:
                self._leader_estimates[leader] = approx_sssp_distances(
                    sim.graph, leader, self.epsilon
                )
        sim.charge_rounds(
            len(self.leaders) * sssp_round_cost(sim.n, self.epsilon),
            f"(1+eps)-SSSP from {len(self.leaders)} cluster leaders",
            "Theorem 13 via Theorem 6",
        )

    def _phase_local_exploration(self) -> None:
        """Every node learns its x-hop neighborhood, x = 4 NQ_n ceil(log n)/eps
        (charged); each node's closest leader falls out of the leader rows by
        symmetry of hop distances."""
        sim = self.simulator
        self.x = int(math.ceil(4 * self.nq * self._log_n / self.epsilon))
        sim.charge_rounds(self.x, "x-hop local neighborhood exploration", "Theorem 6")
        index = self._index
        leader_rows = self._leader_rows
        for v in sim.nodes:
            iv = index.index_of[v]

            def hop_to(leader: Node, iv=iv) -> float:
                d = leader_rows[leader][iv]
                return math.inf if d < 0 else d

            best = min(self.leaders, key=lambda r: (hop_to(r), str(r)))
            self._closest_leader[v] = (best, hop_to(best))

    def _phase_closest_leader_broadcast(self) -> None:
        """Every node broadcasts (closest leader, distance) — n messages,
        Theorem 1, physically simulated."""
        sim = self.simulator
        KDissemination(
            sim,
            _label_tokens(sim, self._closest_leader, "apsp-cl"),
            nq=self.nq,
            clustering=self.clustering,
        ).run()

    # ------------------------------------------------------------------
    def finish(self) -> DenseDistanceTable:
        sim = self.simulator
        index = self._index
        columns = list(sim.nodes)
        column_indices = [index.index_of[w] for w in columns]
        closest_leader = self._closest_leader
        leader_rows = self._leader_rows
        leader_estimates = self._leader_estimates
        unit = self._unit_weighted
        x = self.x

        def make_row(v: Node) -> List[float]:
            """The Algorithm 3 estimate row of ``v`` from one dense sweep."""
            iv = index.index_of[v]
            dist = index.hop_distance_row(v)
            row: List[float] = []
            append = row.append
            for w, iw in zip(columns, column_indices):
                direct = dist[iw]
                if 0 <= direct <= x:
                    append(float(direct))
                    continue
                c_w, d_w_cw = closest_leader[w]
                if unit:
                    to_leader = leader_rows[c_w][iv]
                    estimate = math.inf if to_leader < 0 else float(to_leader)
                else:
                    estimate = leader_estimates[c_w].get(v, math.inf)
                append(estimate + d_w_cw)
            return row

        # eps' = 3 eps + eps^2 per the Theorem 6 analysis.
        stretch = 1.0 + 3 * self.epsilon + self.epsilon * self.epsilon
        return DenseDistanceTable(
            row_nodes=columns,
            columns=columns,
            row_factory=make_row,
            stretch_bound=stretch,
            metrics=sim.metrics,
            nq=self.nq,
            index=index,
        )


# ----------------------------------------------------------------------
# Theorem 7: deterministic weighted APSP via a spanner
# ----------------------------------------------------------------------
class SpannerAPSP(BatchAlgorithm):
    """Theorem 7: (1 + eps log n)-approximate weighted APSP in
    ``eO(2^{1/eps} NQ_n)`` rounds by broadcasting a ``(2t-1)``-spanner.

    The m*-edge spanner broadcast (Theorem 1 with k = m*) is a physically
    simulated :class:`~repro.core.dissemination.KDissemination` instance:
    every spanner edge is one token held by its smaller-id endpoint, and the
    per-node Dijkstra table assembly runs only once every node knows the full
    edge list.

    The table assembly runs on the spanner's own
    :class:`~repro.graphs.index.GraphIndex`: one flat-array Dijkstra row per
    node over a CSR built once for the whole sweep, returned as an
    array-backed :class:`DenseDistanceTable` (rows materialise lazily, cached
    as C-double arrays) instead of ``n`` eager ``networkx`` Dijkstra dicts.
    """

    def __init__(
        self, simulator: HybridSimulator, *, epsilon: float = 0.5
    ) -> None:
        super().__init__(simulator)
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.epsilon = epsilon
        # Phase state.
        self._spanner: Optional[nx.Graph] = None
        self._spanner_index: Optional[GraphIndex] = None
        self._t = 1

    def phases(self):
        return (
            ("spanner", self._phase_spanner),
            ("spanner-broadcast", self._phase_spanner_broadcast),
            ("local-apsp", self._phase_local_apsp),
        )

    def _phase_spanner(self) -> None:
        sim = self.simulator
        log_n = log2_ceil(max(sim.n, 2))
        self._t = max(1, int(math.ceil(self.epsilon * log_n / 2)))
        self._spanner = distributed_spanner(sim, self._t)

    def _phase_spanner_broadcast(self) -> None:
        """Broadcast the m* spanner edges (Theorem 1 with k = m*, physically
        simulated).  The NQ evaluation hits the per-(graph, k) memo on repeat
        runs over the same instance (the Table 2 sweep does exactly that)."""
        sim = self.simulator
        spanner_edges = self._spanner.number_of_edges()
        nq_mstar = max(1, neighborhood_quality(sim.graph, max(spanner_edges, 1)))
        tokens = _edge_tokens(sim, self._spanner, "spanner-edge")
        if tokens:
            KDissemination(sim, tokens, nq=nq_mstar).run()

    def _phase_local_apsp(self) -> None:
        """Every node locally computes APSP on the (now globally known)
        spanner.

        Builds the spanner's :class:`~repro.graphs.index.GraphIndex` once;
        the per-node Dijkstra rows are pulled lazily by the returned dense
        table, so a consumer that reads only a few rows never pays for the
        full n x n sweep.
        """
        self._spanner_index = get_index(self._spanner)

    def finish(self) -> DenseDistanceTable:
        sim = self.simulator
        index = self._spanner_index
        columns = list(sim.nodes)
        positions = [index.index_of[node] for node in columns]

        def make_row(source: Node) -> List[float]:
            row = index.sssp_row(source)
            return [row[i] for i in positions]

        return DenseDistanceTable(
            row_nodes=columns,
            columns=columns,
            row_factory=make_row,
            stretch_bound=float(2 * self._t - 1),
            metrics=sim.metrics,
            nq=neighborhood_quality(sim.graph, sim.n),
            index=index,
        )


# ----------------------------------------------------------------------
# Theorem 8: randomized weighted APSP via skeleton + spanner
# ----------------------------------------------------------------------
class SkeletonAPSP(BatchAlgorithm):
    """Theorem 8 / Algorithm 4: (4 alpha - 1)-approximate weighted APSP.

    The three Theorem 1 broadcasts (node identifiers, the skeleton spanner,
    every node's closest skeleton node) are physically simulated
    :class:`~repro.core.dissemination.KDissemination` instances; the h-hop
    limited tables run on the :class:`~repro.graphs.index.GraphIndex`
    flat-array Bellman-Ford.
    """

    def __init__(
        self,
        simulator: HybridSimulator,
        *,
        alpha: int = 1,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(simulator)
        if alpha < 1:
            raise ValueError("alpha must be a positive integer")
        self.alpha = alpha
        self.seed = seed
        # Phase state.
        self._log_n = log2_ceil(max(simulator.n, 2))
        self.nq = 0
        self.clustering: Optional[Clustering] = None
        self._skeleton = None
        self._spanner: Optional[nx.Graph] = None
        self._skeleton_rows: Optional[SSSPRowCache] = None
        self._limited: Dict[Node, array] = {}
        self._closest_skeleton: Dict[Node, Tuple[Node, float]] = {}

    def phases(self):
        return (
            ("parameters", self._phase_parameters),
            ("skeleton", self._phase_skeleton),
            ("skeleton-spanner", self._phase_skeleton_spanner),
            ("local-exploration", self._phase_local_exploration),
        )

    def _phase_parameters(self) -> None:
        """NQ_n, one shared Lemma 3.5 clustering for both k = n broadcasts,
        plus the Theorem 1 broadcast of all node identifiers (physically
        simulated)."""
        sim = self.simulator
        self.nq = max(1, neighborhood_quality(sim.graph, sim.n))
        self.clustering = distributed_nq_clustering(sim, sim.n, nq=self.nq)
        KDissemination(
            sim,
            _identifier_tokens(sim),
            nq=self.nq,
            clustering=self.clustering,
        ).run()
        sim.charge_rounds(self.nq, "distributed computation of NQ_n", "Lemma 3.3")

    def _phase_skeleton(self) -> None:
        """t = n^{1/(3a+1)} * NQ_n^{2/(3+1/a)} and the Definition 6.2 skeleton."""
        sim = self.simulator
        alpha = self.alpha
        t = max(
            1,
            int(
                round(
                    sim.n ** (1.0 / (3 * alpha + 1))
                    * self.nq ** (2.0 / (3 + 1.0 / alpha))
                )
            ),
        )
        sampling_probability = min(1.0, 1.0 / t)
        self._skeleton = build_skeleton(sim.graph, sampling_probability, seed=self.seed)
        sim.charge_rounds(
            self._skeleton.h, "skeleton construction", "Lemma 6.3 via Theorem 8"
        )

    def _phase_skeleton_spanner(self) -> None:
        """(2 alpha - 1)-spanner of the skeleton, broadcast to everyone
        (Theorem 1, physically simulated)."""
        sim = self.simulator
        skeleton = self._skeleton
        self._spanner = greedy_spanner(skeleton.graph, self.alpha)
        sim.charge_rounds(
            self.alpha * self._log_n * max(1, skeleton.h),
            "spanner construction on the skeleton (simulated over local paths)",
            "Lemma 6.1 via Theorem 8",
        )
        spanner_edges = max(1, self._spanner.number_of_edges())
        nq_x = max(1, neighborhood_quality(sim.graph, max(spanner_edges, sim.n)))
        tokens = _edge_tokens(sim, self._spanner, "skeleton-spanner-edge")
        if tokens:
            KDissemination(sim, tokens, nq=nq_x).run()
        # One index over the skeleton spanner serves every skeleton-node
        # Dijkstra row (flat CSR shared across the whole batch); the rows are
        # pulled lazily by the table :meth:`finish` returns, one Dijkstra per
        # *queried* closest-skeleton node instead of an eager dict-of-dicts
        # over every skeleton node.
        self._skeleton_rows = SSSPRowCache(get_index(self._spanner))

    def _phase_local_exploration(self) -> None:
        """Every node learns its h-hop neighborhood (GraphIndex Bellman-Ford)
        and broadcasts its closest skeleton node (Theorem 1, physical)."""
        sim = self.simulator
        skeleton = self._skeleton
        h = skeleton.h
        sim.charge_rounds(h, "h-hop local neighborhood exploration", "Theorem 8")
        index = get_index(sim.graph)
        self._limited = dict(zip(sim.nodes, index.h_hop_limited_rows(sim.nodes, h)))
        # ``skeleton_nodes`` is ``str``-sorted, so the first minimum of a row
        # read at these positions is the ``(dist, str)`` minimum.
        skeleton_nodes = skeleton.skeleton_nodes
        skeleton_set = set(skeleton_nodes)
        at = np.array([index.index_of[u] for u in skeleton_nodes])
        for v in sim.nodes:
            dists = np.frombuffer(self._limited[v])[at]
            j = int(np.argmin(dists))
            if dists[j] < math.inf:
                self._closest_skeleton[v] = (skeleton_nodes[j], float(dists[j]))
                continue
            full = weighted_distances_from(sim.graph, v)
            candidates = {u: d for u, d in full.items() if u in skeleton_set}
            best, dist = min(candidates.items(), key=lambda kv: (kv[1], str(kv[0])))
            self._closest_skeleton[v] = (best, dist)
        KDissemination(
            sim,
            _label_tokens(sim, self._closest_skeleton, "apsp-cs"),
            nq=self.nq,
            clustering=self.clustering,
        ).run()

    def finish(self) -> DenseDistanceTable:
        sim = self.simulator
        limited = self._limited
        closest_skeleton = self._closest_skeleton
        skeleton_rows = self._skeleton_rows
        columns = list(sim.nodes)
        # Column j's position in the dense h-hop limited rows.
        index_of = get_index(sim.graph).index_of
        limited_pos = np.array([index_of[w] for w in columns])

        # Per-column closest-skeleton data, resolved once: ``cs_pos[j]`` is
        # the spanner-index position of column j's closest skeleton node and
        # ``cs_dist[j]`` the distance to it.
        cs_pos = np.array([skeleton_rows.position_of(closest_skeleton[w][0]) for w in columns])
        cs_dist = np.array([closest_skeleton[w][1] for w in columns], dtype=np.float64)

        # Algorithm 4 estimate, one lazy row per target: the skeleton-spanner
        # Dijkstra row of v's closest skeleton node is pulled (and cached) on
        # first use, so a consumer reading only a few targets never pays for
        # an all-skeleton sweep.  ``(d_v_vs + skel[cs_pos]) + cs_dist`` keeps
        # the reference formula's left-to-right association, so the values
        # are bit-identical to the eager dict-of-dicts construction.
        def make_row(v: Node) -> array:
            v_s, d_v_vs = closest_skeleton[v]
            skel = np.frombuffer(skeleton_rows.row(v_s))
            lim = np.frombuffer(limited[v])
            row = np.minimum(lim[limited_pos], (d_v_vs + skel[cs_pos]) + cs_dist)
            return array("d", row.tobytes())

        return DenseDistanceTable(
            row_nodes=columns,
            columns=columns,
            row_factory=make_row,
            stretch_bound=float(4 * self.alpha - 1),
            metrics=sim.metrics,
            nq=self.nq,
            index=skeleton_rows.index,
        )
