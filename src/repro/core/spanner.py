"""Multiplicative spanners (Lemma 6.1).

A subgraph ``H`` of a weighted graph ``G`` is a ``t``-spanner if
``d_H(u, v) <= t * d_G(u, v)`` for all node pairs.  Theorem 7's weighted APSP
algorithm computes a ``(2t - 1)``-spanner with ``O(t n^{1 + 1/t} log n)`` edges
(the deterministic CONGEST construction of [RG20, Corollary 3.16]) and then
broadcasts it.

We implement two constructions:

* :func:`greedy_spanner` — the classic greedy algorithm (Althoefer et al.):
  scan edges by non-decreasing weight and keep an edge iff the current spanner
  distance between its endpoints exceeds ``(2t - 1)`` times its weight.  This
  gives the girth-based size bound ``O(n^{1 + 1/t})`` deterministically and is
  the variant used by default (its output is deterministic, matching the
  deterministic flavour of Theorem 7).
* :func:`baswana_sen_spanner` — the randomized clustering-based construction of
  Baswana and Sen, closer in spirit to the distributed algorithms cited by the
  paper and faster on dense graphs.

The distributed wrapper charges the eO(1) CONGEST rounds of [RG20].
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Dict, Hashable, List, Optional, Set, Tuple

import networkx as nx

from repro.graphs.index import get_index
from repro.simulator.config import log2_ceil
from repro.simulator.network import HybridSimulator

Node = Hashable

__all__ = ["greedy_spanner", "baswana_sen_spanner", "distributed_spanner", "spanner_stretch"]


def greedy_spanner(graph: nx.Graph, t: int) -> nx.Graph:
    """Greedy ``(2t - 1)``-spanner with ``O(n^{1 + 1/t})`` edges.

    Each decision is a Dijkstra over the spanner so far, cut off at
    ``(2t - 1) * weight``: exact for non-negative weights (DESIGN.md).
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    stretch = 2 * t - 1
    spanner = nx.Graph()
    spanner.add_nodes_from(graph.nodes)
    edges = sorted(
        graph.edges(data=True),
        key=lambda item: (item[2].get("weight", 1), str(item[0]), str(item[1])),
    )
    if edges and edges[0][2].get("weight", 1) < 0:
        raise ValueError("greedy_spanner needs non-negative edge weights")
    position = {node: i for i, node in enumerate(graph.nodes)}
    adjacency: List[Dict[int, float]] = [{} for _ in position]
    for u, v, data in edges:
        weight = data.get("weight", 1)
        source, target = position[u], position[v]
        if source != target and not _reaches_within(adjacency, source, target, stretch * weight):
            spanner.add_edge(u, v, weight=weight)
            adjacency[source][target] = adjacency[target][source] = weight
    return spanner


def _reaches_within(adjacency: list, source: int, target: int, cutoff: float) -> bool:
    """Whether some ``source``-``target`` path weighs at most ``cutoff``."""
    best = {source: 0}
    heap = [(0, source)]
    while heap:
        d, x = heapq.heappop(heap)
        if d > best[x]:
            continue
        for y, w in adjacency[x].items():
            candidate = d + w
            if candidate <= cutoff and candidate < best.get(y, math.inf):
                if y == target:
                    return True
                best[y] = candidate
                heapq.heappush(heap, (candidate, y))
    return False


def baswana_sen_spanner(graph: nx.Graph, t: int, seed: Optional[int] = None) -> nx.Graph:
    """Randomized Baswana-Sen ``(2t - 1)``-spanner with expected ``O(t n^{1+1/t})`` edges."""
    if t < 1:
        raise ValueError("t must be at least 1")
    n = graph.number_of_nodes()
    rng = random.Random(seed)
    spanner = nx.Graph()
    spanner.add_nodes_from(graph.nodes)

    # cluster[v] = centre of v's cluster (None once v drops out).
    cluster: Dict[Node, Optional[Node]] = {v: v for v in graph.nodes}
    # Remaining edges, as an adjacency structure we prune as we go.
    remaining = {v: dict() for v in graph.nodes}
    for u, v, data in graph.edges(data=True):
        w = data.get("weight", 1)
        remaining[u][v] = w
        remaining[v][u] = w

    sample_probability = n ** (-1.0 / t) if n > 1 else 1.0

    for _ in range(max(0, t - 1)):
        centres = {c for c in cluster.values() if c is not None}
        sampled: Set[Node] = {c for c in centres if rng.random() < sample_probability}
        new_cluster: Dict[Node, Optional[Node]] = {}
        for v in graph.nodes:
            centre = cluster[v]
            if centre is not None and centre in sampled:
                new_cluster[v] = centre
                continue
            # v's cluster was not sampled: connect to the nearest sampled
            # neighbouring cluster (by lightest edge) or keep one edge per
            # neighbouring cluster.
            incident: Dict[Node, Tuple[float, Node]] = {}
            for u, w in remaining[v].items():
                c_u = cluster[u]
                if c_u is None:
                    continue
                if c_u not in incident or w < incident[c_u][0]:
                    incident[c_u] = (w, u)
            sampled_neighbours = {
                c: info for c, info in incident.items() if c in sampled
            }
            if sampled_neighbours:
                best_centre, (best_weight, best_node) = min(
                    sampled_neighbours.items(), key=lambda kv: (kv[1][0], str(kv[0]))
                )
                spanner.add_edge(v, best_node, weight=best_weight)
                new_cluster[v] = best_centre
                # Baswana-Sen rule: additionally add the lightest edge to every
                # neighbouring cluster whose connecting edge is lighter than the
                # chosen one, then discard all edges into those clusters and
                # into the chosen cluster (edges to heavier clusters survive to
                # the next phase).
                for c, (w, u) in sorted(incident.items(), key=lambda kv: str(kv[0])):
                    if c != best_centre and w >= best_weight:
                        continue
                    if c != best_centre:
                        spanner.add_edge(v, u, weight=w)
                    for neighbor in list(remaining[v]):
                        if cluster[neighbor] == c:
                            remaining[v].pop(neighbor, None)
                            remaining[neighbor].pop(v, None)
            else:
                # No sampled neighbouring cluster: add one lightest edge per
                # neighbouring cluster and drop out.
                for c, (w, u) in sorted(incident.items(), key=lambda kv: str(kv[0])):
                    spanner.add_edge(v, u, weight=w)
                for u in list(remaining[v]):
                    remaining[v].pop(u, None)
                    remaining[u].pop(v, None)
                new_cluster[v] = None
        cluster = new_cluster

    # Final phase: every surviving node adds one lightest edge to each
    # neighbouring cluster.
    for v in graph.nodes:
        incident: Dict[Node, Tuple[float, Node]] = {}
        for u, w in remaining[v].items():
            c_u = cluster[u]
            if c_u is None:
                continue
            if c_u not in incident or w < incident[c_u][0]:
                incident[c_u] = (w, u)
        for c, (w, u) in sorted(incident.items(), key=lambda kv: str(kv[0])):
            spanner.add_edge(v, u, weight=w)

    return spanner


def distributed_spanner(
    simulator: HybridSimulator, t: int, *, randomized: bool = False, seed: Optional[int] = None
) -> nx.Graph:
    """Spanner construction with the eO(1)-round CONGEST cost charged (Lemma 6.1)."""
    if randomized:
        spanner = baswana_sen_spanner(simulator.graph, t, seed=seed)
    else:
        spanner = greedy_spanner(simulator.graph, t)
    log_n = log2_ceil(max(simulator.n, 2))
    simulator.charge_rounds(
        t * log_n,
        f"(2*{t}-1)-spanner construction in CONGEST",
        "Lemma 6.1 [RG20, Corollary 3.16]",
    )
    return spanner


def spanner_stretch(graph: nx.Graph, spanner: nx.Graph, sample: Optional[int] = None,
                    seed: Optional[int] = None) -> float:
    """Maximum observed stretch ``d_spanner / d_graph`` over (sampled) node pairs."""
    rng = random.Random(seed)
    nodes = sorted(graph.nodes, key=str)
    if sample is not None and sample < len(nodes):
        sources = rng.sample(nodes, sample)
    else:
        sources = nodes
    worst = 1.0
    graph_index = get_index(graph)
    spanner_index = get_index(spanner)
    for source in sources:
        original = graph_index.sssp_dict(source)
        in_spanner = spanner_index.sssp_dict(source)
        for target, dist in original.items():
            if target == source or dist == 0:
                continue
            spanner_dist = in_spanner.get(target, math.inf)
            worst = max(worst, spanner_dist / dist)
    return worst
