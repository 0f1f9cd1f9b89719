"""Existentially optimal k-source shortest paths (Section 9, Theorem 14).

Theorem 14: in HYBRID(infinity, gamma), k-SSP can be approximated w.h.p.

* with stretch 1+eps in ``eO(sqrt(k) / eps^2)`` rounds when the sources are
  sampled with probability ``k/n`` (standard HYBRID),
* with stretch 3+eps in ``eO(sqrt(k / gamma) / eps^2)`` rounds for arbitrary
  sources,
* with stretch 1+eps in ``eO(1/eps^2)`` rounds for ``k <= gamma`` arbitrary
  sources.

The algorithm (Lemmas 9.3, 9.4):

1. build a skeleton graph with sampling probability ``sqrt(gamma / k)``
   (Definition 6.2); for the random-sources case the sources are added to the
   skeleton,
2. compute classic helper sets (Definition 9.1) and schedule one Theorem 13
   SSSP instance per source on the skeleton, all in parallel, with each helper
   simulating ``eO(sqrt(k * gamma))`` instances — total
   ``eO(sqrt(k / gamma) * T_SSSP)`` rounds (Lemma 9.3, charged),
3. every node learns its ``h``-hop limited distances to nearby skeleton nodes
   over the local mode (``h`` rounds, charged) and combines them with the
   skeleton estimates (Lemma 9.4); for arbitrary sources the sources first tag
   *proxy sources* on the skeleton and broadcast the proxy offsets
   (k-dissemination, Theorem 1, charged).

The skeleton construction, the per-source skeleton SSSP estimates, the h-hop
limited local distances, and the combination formulas are all computed for
real (they produce genuinely approximate distances whose stretch the tests
check against Dijkstra ground truth); the parallel-scheduling round cost is
charged per Lemma 9.3.

The implementation is a :class:`~repro.simulator.engine.BatchAlgorithm`: the
proxy-offset broadcast of the arbitrary-sources case is a physically
simulated k-dissemination instance riding the batch messaging engine; the
h-hop limited tables run on the :class:`~repro.graphs.index.GraphIndex` flat-array Bellman-Ford.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.core.dissemination import KDissemination
from repro.core.helper_sets import compute_classic_helper_sets
from repro.core.skeleton import SkeletonGraph, build_skeleton
from repro.core.sssp import sssp_round_cost
from repro.graphs.index import SSSPRowCache, get_index
from repro.graphs.properties import weighted_distances_from
from repro.simulator.config import log2_ceil
from repro.simulator.engine import BatchAlgorithm
from repro.simulator.metrics import RoundMetrics
from repro.simulator.network import HybridSimulator

Node = Hashable

__all__ = ["KSPResult", "KSourceShortestPaths", "ksp_round_cost"]


def ksp_round_cost(n: int, k: int, gamma_words: int, epsilon: float) -> int:
    """The Lemma 9.3 / Theorem 14 scheduling cost ``eO(sqrt(k/gamma)/eps^2)``."""
    log_n = log2_ceil(max(n, 2))
    eps = max(epsilon, 1e-9)
    if k <= gamma_words:
        parallel_factor = 1.0
    else:
        parallel_factor = math.sqrt(k / max(1, gamma_words))
    return int(math.ceil(parallel_factor / (eps * eps))) * log_n * log_n


@dataclasses.dataclass
class KSPResult:
    """Outcome of a k-SSP computation."""

    sources: List[Node]
    distances: Dict[Node, Dict[Node, float]]
    stretch_bound: float
    epsilon: float
    skeleton: SkeletonGraph
    proxy_of: Dict[Node, Node]
    metrics: RoundMetrics

    def estimate(self, node: Node, source: Node) -> float:
        return self.distances.get(node, {}).get(source, math.inf)


class KSourceShortestPaths(BatchAlgorithm):
    """Theorem 14: approximate k-SSP via parallel SSSP scheduling on a skeleton.

    Parameters
    ----------
    simulator: the network.
    sources: the k source nodes.
    epsilon: approximation parameter of the underlying SSSP instances.
    sources_in_skeleton: set True for the "random sources" case (the sources are
        forced into the skeleton, giving stretch 1+eps); False for arbitrary
        sources routed through proxy sources (stretch 3+eps).
    gamma_words: the per-node global capacity in words (defaults to the
        simulator's budget), which controls the skeleton density and the
        scheduling cost — this is the ``HYBRID(infinity, gamma)`` knob of
        Theorem 14.
    seed: randomness for the skeleton sampling and helper sets.
    """

    def __init__(
        self,
        simulator: HybridSimulator,
        sources: Sequence[Node],
        *,
        epsilon: float = 0.25,
        sources_in_skeleton: bool = True,
        gamma_words: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(simulator)
        if not sources:
            raise ValueError("sources must be non-empty")
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        node_set = set(simulator.nodes)
        for source in sources:
            if source not in node_set:
                raise KeyError(f"source {source!r} is not a node of the network")
        self.sources = sorted(set(sources), key=simulator.id_of)
        self.epsilon = epsilon
        self.sources_in_skeleton = sources_in_skeleton
        self.gamma_words = (
            gamma_words if gamma_words is not None else simulator.global_budget_words()
        )
        self.seed = seed
        # Phase state.
        self._log_n = log2_ceil(max(simulator.n, 2))
        self._probability = 1.0
        self.skeleton: Optional[SkeletonGraph] = None
        self._skeleton_set: set = set()
        self._proxy_of: Dict[Node, Node] = {}
        self._proxy_offset: Dict[Node, float] = {}
        self._skeleton_rows: Optional[SSSPRowCache] = None
        self._distances: Dict[Node, Dict[Node, float]] = {}

    # ------------------------------------------------------------------
    def phases(self):
        return (
            ("skeleton", self._phase_skeleton),
            ("helper-sets", self._phase_helper_sets),
            ("proxy-sources", self._phase_proxy_sources),
            ("skeleton-sssp", self._phase_skeleton_sssp),
            ("combine", self._phase_combine),
        )

    def _phase_skeleton(self) -> None:
        """Step 1: skeleton with sampling probability sqrt(gamma / k)."""
        sim = self.simulator
        k = len(self.sources)
        probability = min(1.0, math.sqrt(self.gamma_words / max(k, 1)))
        self._probability = probability
        forced = self.sources if self.sources_in_skeleton else None
        self.skeleton = build_skeleton(
            sim.graph, probability, seed=self.seed, forced_nodes=forced
        )
        self._skeleton_set = set(self.skeleton.skeleton_nodes)
        sim.charge_rounds(
            self.skeleton.h,
            "skeleton construction (h-hop local exploration)",
            "Definition 6.2 / Lemma 6.3",
        )

    def _phase_helper_sets(self) -> None:
        """Step 2a: classic helper sets for the skeleton nodes (charged)."""
        sim = self.simulator
        x = max(1, int(round(1.0 / self._probability)))
        compute_classic_helper_sets(
            sim.graph, self.skeleton.skeleton_nodes, x, seed=self.seed
        )
        sim.charge_rounds(
            2 * x * self._log_n,
            "classic helper-set computation for skeleton nodes",
            "Definition 9.1 / Lemma 9.2",
        )

    def _phase_proxy_sources(self) -> None:
        """Proxy sources: for arbitrary sources, each source tags the closest
        skeleton node within h hops (Lemma 6.3 guarantees one exists w.h.p.)
        and the proxy offsets are made public with Theorem 1 — a physically
        simulated k-dissemination instance."""
        sim = self.simulator
        graph = sim.graph
        h = self.skeleton.h
        skeleton_set = self._skeleton_set
        index = get_index(graph)
        skeleton_positions = [
            (u, index.index_of[u]) for u in self.skeleton.skeleton_nodes
        ]
        for source in self.sources:
            if source in skeleton_set:
                self._proxy_of[source] = source
                self._proxy_offset[source] = 0.0
        outside = [source for source in self.sources if source not in skeleton_set]
        for source, limited in zip(outside, index.h_hop_limited_rows(outside, h)):
            candidates = {
                u: limited[p] for u, p in skeleton_positions if limited[p] < math.inf
            }
            if not candidates:
                # Fall back to the globally closest skeleton node (can only
                # happen on tiny or pathological instances).
                full = weighted_distances_from(graph, source)
                candidates = {
                    node: dist for node, dist in full.items() if node in skeleton_set
                }
            proxy, offset = min(candidates.items(), key=lambda kv: (kv[1], str(kv[0])))
            self._proxy_of[source] = proxy
            self._proxy_offset[source] = offset
        if not self.sources_in_skeleton:
            tokens = {
                source: [
                    (
                        "ksp-proxy",
                        sim.id_of(source),
                        sim.id_of(self._proxy_of[source]),
                        self._proxy_offset[source],
                    )
                ]
                for source in self.sources
            }
            KDissemination(sim, tokens).run()

    def _phase_skeleton_sssp(self) -> None:
        """One SSSP per (proxy) source on the skeleton, scheduled in parallel
        (Lemma 9.3); the estimates are computed for real, the scheduling
        rounds are charged."""
        sim = self.simulator
        proxies = sorted({self._proxy_of[source] for source in self.sources}, key=str)
        # One shared rounded-weight CSR over the skeleton, one flat Dijkstra
        # per distinct proxy; the dense ``array('d')`` rows replace the
        # per-proxy estimate dicts (identical values — same index Dijkstra).
        self._skeleton_rows = SSSPRowCache(get_index(self.skeleton.graph), self.epsilon)
        for proxy in proxies:
            self._skeleton_rows.row(proxy)
        sim.charge_rounds(
            ksp_round_cost(sim.n, len(self.sources), self.gamma_words, self.epsilon),
            f"parallel scheduling of {len(proxies)} SSSP instances on the skeleton",
            "Lemma 9.3 / Theorem 14",
        )

    def _phase_combine(self) -> None:
        """Step 3: every node combines its h-hop limited distances to nearby
        skeleton nodes with the skeleton estimates (Lemma 9.4 / Theorem 14)."""
        sim = self.simulator
        graph = sim.graph
        h = self.skeleton.h
        skeleton_rows = self._skeleton_rows
        sim.charge_rounds(
            h,
            "h-hop limited distance computation over the local mode",
            "Lemma 9.4",
        )
        index = get_index(graph)
        skeleton_positions = [
            (index.index_of[u], skeleton_rows.position_of(u))
            for u in self.skeleton.skeleton_nodes
        ]
        source_positions = [index.index_of[source] for source in self.sources]
        # Flat-array assembly.  The historical loop evaluated
        # ``(limited[u] + d_skel(proxy, u)) + offset`` per (source, u) pair;
        # the node-to-proxy leg does not depend on the source, and adding the
        # per-source offset afterwards is value-exact (``x -> fl(x + c)`` is
        # monotone, so the factored minimum equals the pairwise one).  Each
        # node therefore scans its nearby skeleton entry points once per
        # *distinct proxy* against that proxy's dense row — |proxies| * |U| +
        # k work instead of k * |U|.
        for node, limited in zip(sim.nodes, index.h_hop_limited_rows(sim.nodes, h)):
            nearby = [
                (position, limited[p])
                for p, position in skeleton_positions
                if limited[p] < math.inf
            ]
            via_to_proxy: Dict[Node, float] = {}
            per_source: Dict[Node, float] = {}
            for source, source_position in zip(self.sources, source_positions):
                proxy = self._proxy_of[source]
                to_proxy = via_to_proxy.get(proxy)
                if to_proxy is None:
                    row = skeleton_rows.row(proxy)
                    to_proxy = math.inf
                    for position, d_node_u in nearby:
                        candidate = d_node_u + row[position]
                        if candidate < to_proxy:
                            to_proxy = candidate
                    via_to_proxy[proxy] = to_proxy
                best = limited[source_position]
                via = to_proxy + self._proxy_offset[source]
                if via < best:
                    best = via
                per_source[source] = best
            self._distances[node] = per_source

    def finish(self) -> KSPResult:
        stretch_bound = (
            (1.0 + self.epsilon)
            if self.sources_in_skeleton
            else (3.0 + 3 * self.epsilon)
        )
        return KSPResult(
            sources=list(self.sources),
            distances=self._distances,
            stretch_bound=stretch_bound,
            epsilon=self.epsilon,
            skeleton=self.skeleton,
            proxy_of=self._proxy_of,
            metrics=self.simulator.metrics,
        )
