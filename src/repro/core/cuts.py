"""Cut-size approximation via sparsifier broadcast (Theorem 9, Section 6.4).

Theorem 9: in ``eO(NQ_n / eps + 1/eps^2)`` rounds of HYBRID_0, every node can
locally compute a (1+eps)-approximation of *every* cut size of the weighted
input graph, which immediately yields (1+eps)-approximations of minimum cut,
minimum s-t cut, sparsest cut and maximum cut.  The recipe: run a CONGEST cut
sparsifier construction (the paper cites [KX16], eO(1/eps^2) rounds) to obtain
a reweighted subgraph with ``eO(n / eps^2)`` edges that preserves all cuts up to
(1 +- eps), then broadcast those edges with Theorem 1.

We implement a Benczur-Karger style sparsifier: every edge is sampled with
probability inversely proportional to an *edge-strength* lower bound obtained
from a Nagamochi-Ibaraki forest decomposition (edges in the i-th forest have
strength at least i) and re-weighted by the inverse probability, which keeps
every cut's expected weight exact and concentrates it within (1 +- eps) w.h.p.
for the oversampling constant used.  Tests validate the approximation
empirically on random cuts and on the exact minimum cut.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

import networkx as nx

from repro.core.neighborhood_quality import neighborhood_quality
from repro.simulator.config import log2_ceil
from repro.simulator.metrics import RoundMetrics
from repro.simulator.network import HybridSimulator

Node = Hashable

__all__ = [
    "nagamochi_ibaraki_forest_index",
    "build_cut_sparsifier",
    "cut_weight",
    "CutApproximation",
    "CutSparsifierAPSP",
]


def nagamochi_ibaraki_forest_index(graph: nx.Graph) -> Dict[Tuple[Node, Node], int]:
    """Forest index of every edge (Nagamochi-Ibaraki scan).

    Repeatedly extract maximal spanning forests; the index of an edge is the
    number of the forest that picked it (1-based).  An edge with index ``i``
    has connectivity (strength) at least ``i`` between its endpoints, which is
    the lower bound the sparsifier sampling uses.
    """
    remaining = nx.Graph()
    remaining.add_nodes_from(graph.nodes)
    remaining.add_edges_from(graph.edges)
    index: Dict[Tuple[Node, Node], int] = {}
    forest_number = 0
    while remaining.number_of_edges() > 0:
        forest_number += 1
        forest = nx.Graph()
        forest.add_nodes_from(remaining.nodes)
        # Maximal spanning forest: scan edges, keep those joining distinct
        # components (union-find).
        parent: Dict[Node, Node] = {v: v for v in remaining.nodes}

        def find(v: Node) -> Node:
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        picked: List[Tuple[Node, Node]] = []
        for u, v in sorted(remaining.edges, key=lambda e: (str(e[0]), str(e[1]))):
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                picked.append((u, v))
        for u, v in picked:
            key = (u, v) if str(u) <= str(v) else (v, u)
            index[key] = forest_number
            remaining.remove_edge(u, v)
    return index


def build_cut_sparsifier(
    graph: nx.Graph,
    epsilon: float,
    *,
    seed: Optional[int] = None,
    oversampling: float = 6.0,
) -> nx.Graph:
    """Benczur-Karger style (1+eps) cut sparsifier with ``eO(n / eps^2)`` edges."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    rng = random.Random(seed)
    n = graph.number_of_nodes()
    rho = oversampling * math.log(max(n, 2)) / (epsilon * epsilon)
    strength = nagamochi_ibaraki_forest_index(graph)
    sparsifier = nx.Graph()
    sparsifier.add_nodes_from(graph.nodes)
    for u, v, data in graph.edges(data=True):
        key = (u, v) if str(u) <= str(v) else (v, u)
        weight = data.get("weight", 1)
        k_e = max(1, strength.get(key, 1))
        probability = min(1.0, rho / k_e)
        if rng.random() < probability:
            sparsifier.add_edge(u, v, weight=weight / probability)
    # Keep the sparsifier connected whenever the input was connected: add a
    # spanning forest of the original graph with its original weights if
    # sampling dropped a bridge (keeps cut estimates finite and conservative).
    if nx.is_connected(graph) and not nx.is_connected(sparsifier):
        for u, v in nx.minimum_spanning_edges(graph, weight="weight", data=False):
            if not sparsifier.has_edge(u, v):
                sparsifier.add_edge(u, v, weight=graph[u][v].get("weight", 1))
    return sparsifier


def cut_weight(graph: nx.Graph, side: Iterable[Node]) -> float:
    """Total weight of edges crossing the cut (side, V \\ side)."""
    side_set = set(side)
    total = 0.0
    for u, v, data in graph.edges(data=True):
        if (u in side_set) != (v in side_set):
            total += data.get("weight", 1)
    return total


@dataclasses.dataclass
class CutApproximation:
    """The sparsifier every node ends up knowing, plus accounting."""

    sparsifier: nx.Graph
    epsilon: float
    nq: int
    metrics: RoundMetrics

    def approximate_min_cut(self) -> float:
        return nx.stoer_wagner(self.sparsifier, weight="weight")[0]


class CutSparsifierAPSP:
    """Theorem 9: every node learns a (1+eps) cut sparsifier of the whole graph.

    Name note: despite living next to the APSP algorithms this class solves the
    *cut approximation* problem of Theorem 9; the common structure (construct a
    sparse certificate, broadcast it with Theorem 1, finish locally) is why it
    shares their shape.
    """

    def __init__(
        self, simulator: HybridSimulator, *, epsilon: float = 0.5, seed: Optional[int] = None
    ) -> None:
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")
        self.simulator = simulator
        self.epsilon = epsilon
        self.seed = seed

    def run(self) -> CutApproximation:
        sim = self.simulator
        n = sim.n
        log_n = log2_ceil(max(n, 2))
        eps = self.epsilon

        # CONGEST sparsifier construction, eO(1/eps^2) rounds (charged).
        sparsifier = build_cut_sparsifier(sim.graph, eps, seed=self.seed)
        sim.charge_rounds(
            int(math.ceil(1.0 / (eps * eps))) * log_n,
            "CONGEST cut-sparsifier construction",
            "Lemma 6.4 [KX16]",
        )

        # Broadcast the sparsifier's edges with Theorem 1.
        k = max(1, sparsifier.number_of_edges())
        nq_k = max(1, neighborhood_quality(sim.graph, k))
        sim.charge_rounds(
            nq_k * log_n,
            f"broadcast of the {k}-edge cut sparsifier",
            "Theorem 1 via Theorem 9",
        )
        nq_n = max(1, neighborhood_quality(sim.graph, n))
        return CutApproximation(
            sparsifier=sparsifier, epsilon=eps, nq=nq_n, metrics=sim.metrics
        )
