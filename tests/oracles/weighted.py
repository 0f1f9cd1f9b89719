"""Weighted-distance oracles: index-free ground truth for the weighted engine.

* :func:`_reference_weighted_distances_from` is ``networkx`` Dijkstra, which
  :func:`repro.graphs.properties.weighted_distances_from` must match.
* :func:`_reference_h_hop_limited_distances` is the original dict-based
  Bellman-Ford over ``networkx`` adjacency: ``h`` synchronous relaxation
  rounds from one source.  Both
  :meth:`repro.graphs.index.GraphIndex.h_hop_limited_distances` and every row
  of :meth:`~repro.graphs.index.GraphIndex.h_hop_limited_rows` must match it
  exactly.
* :func:`_reference_exact_sssp_distances` /
  :func:`_reference_approx_sssp_distances` run the dict+heapq Dijkstra
  (:func:`_dijkstra`) on the original or the power-of-``(1 + eps)`` rounded
  weights; the flat-array Dijkstra of :mod:`repro.graphs.index` replicates its
  tie-break keys and relaxation tolerance.
* :func:`_reference_greedy_spanner` is the greedy scan with one full
  ``networkx`` Dijkstra per edge, which the cutoff-bounded
  :func:`repro.core.spanner.greedy_spanner` must match edge for edge, in
  insertion order.
* :func:`_reference_closest_skeleton` and :func:`_reference_skeleton_estimates`
  are Algorithm 4's closest-skeleton choice (``min`` by ``(dist, str)``) and
  its eager dict-of-dicts estimate formula over Python floats, which the
  rows of :class:`repro.core.shortest_paths.SkeletonAPSP` must match bit for
  bit.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Hashable, List, Set, Tuple

import networkx as nx

from repro.graphs.index import round_weight_up
from repro.graphs.properties import edge_weight

Node = Hashable


def _reference_weighted_distances_from(
    graph: nx.Graph, source: Node
) -> Dict[Node, float]:
    """Ground truth for :func:`weighted_distances_from`: networkx Dijkstra."""
    return nx.single_source_dijkstra_path_length(graph, source, weight="weight")


def _reference_h_hop_limited_distances(
    graph: nx.Graph, source: Node, h: int
) -> Dict[Node, float]:
    """``d^h(source, .)`` over reached nodes: ``h`` rounds of dict relaxation."""
    if h < 0:
        raise ValueError("h must be non-negative")
    dist: Dict[Node, float] = {source: 0.0}
    frontier: Set[Node] = {source}
    for _ in range(h):
        updates: Dict[Node, float] = {}
        for u in frontier:
            du = dist[u]
            for v in graph.neighbors(u):
                cand = du + edge_weight(graph, u, v)
                if cand < dist.get(v, math.inf) and cand < updates.get(v, math.inf):
                    updates[v] = cand
        if not updates:
            break
        frontier = set()
        for v, d in updates.items():
            if d < dist.get(v, math.inf):
                dist[v] = d
                frontier.add(v)
        if not frontier:
            break
    return dist


def _reference_exact_sssp_distances(
    graph: nx.Graph, source: Node
) -> Dict[Node, float]:
    """Index-free ground truth for :func:`~repro.core.sssp.exact_sssp_distances`."""
    return _dijkstra(graph, source, lambda w: float(w))


def _reference_approx_sssp_distances(
    graph: nx.Graph, source: Node, epsilon: float
) -> Dict[Node, float]:
    """Index-free ground truth for :func:`~repro.core.sssp.approx_sssp_distances`."""
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    if epsilon == 0:
        return _reference_exact_sssp_distances(graph, source)
    return _dijkstra(graph, source, lambda w: round_weight_up(w, epsilon))


def _dijkstra(graph: nx.Graph, source: Node, transform) -> Dict[Node, float]:
    """The pre-index dict+heapq Dijkstra.

    The flat-array Dijkstra in :mod:`repro.graphs.index` replicates this
    routine's tie-break keys and relaxation tolerance exactly.
    """
    if source not in graph:
        raise KeyError(f"source {source!r} not in graph")
    # Tie-break keys are precomputed once per node: str() per heap push is a
    # measurable cost at n >= 10^3 and the visit order must stay identical.
    tie_key: Dict[Node, str] = {node: str(node) for node in graph.nodes}
    dist: Dict[Node, float] = {source: 0.0}
    visited: Dict[Node, bool] = {}
    heap: List[Tuple[float, str, Node]] = [(0.0, tie_key[source], source)]
    while heap:
        d, _, u = heapq.heappop(heap)
        if visited.get(u):
            continue
        visited[u] = True
        for v in graph.neighbors(u):
            w = transform(edge_weight(graph, u, v))
            candidate = d + w
            if candidate < dist.get(v, math.inf) - 1e-15:
                dist[v] = candidate
                heapq.heappush(heap, (candidate, tie_key[v], v))
    return dist


def _reference_greedy_spanner(graph: nx.Graph, t: int) -> nx.Graph:
    """The greedy ``(2t - 1)``-spanner with one full Dijkstra per edge."""
    if t < 1:
        raise ValueError("t must be at least 1")
    stretch = 2 * t - 1
    spanner = nx.Graph()
    spanner.add_nodes_from(graph.nodes)
    edges = sorted(
        graph.edges(data=True),
        key=lambda item: (item[2].get("weight", 1), str(item[0]), str(item[1])),
    )
    for u, v, data in edges:
        weight = data.get("weight", 1)
        try:
            current = nx.dijkstra_path_length(spanner, u, v, weight="weight")
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            current = math.inf
        if current > stretch * weight:
            spanner.add_edge(u, v, weight=weight)
    return spanner


def _reference_closest_skeleton(graph: nx.Graph, skeleton) -> Dict[Node, Tuple[Node, float]]:
    """Every node's closest skeleton node within ``h`` hops, ties by ``str``;
    past ``h`` hops, the closest one by full distance."""
    closest: Dict[Node, Tuple[Node, float]] = {}
    for v in graph.nodes:
        near = _reference_h_hop_limited_distances(graph, v, skeleton.h)
        if not any(u in near for u in skeleton.skeleton_nodes):
            near = _reference_exact_sssp_distances(graph, v)
        candidates = [(u, near[u]) for u in skeleton.skeleton_nodes if u in near]
        closest[v] = min(candidates, key=lambda item: (item[1], str(item[0])))
    return closest


def _reference_skeleton_estimates(
    graph: nx.Graph, skeleton, alpha: int
) -> Dict[Node, Dict[Node, float]]:
    """Algorithm 4: ``min(d^h(v, w), (d(v, v_s) + d_H(v_s, w_s)) + d(w_s, w))``
    over a ``(2 alpha - 1)``-spanner ``H`` of the skeleton."""
    spanner = _reference_greedy_spanner(skeleton.graph, alpha)
    closest = _reference_closest_skeleton(graph, skeleton)
    limited = {v: _reference_h_hop_limited_distances(graph, v, skeleton.h) for v in graph}
    via = {u: _reference_exact_sssp_distances(spanner, u) for u in skeleton.skeleton_nodes}
    estimates: Dict[Node, Dict[Node, float]] = {}
    for v in graph.nodes:
        v_s, d_v_vs = closest[v]
        estimates[v] = {
            w: min(
                limited[v].get(w, math.inf),
                (d_v_vs + via[v_s].get(closest[w][0], math.inf)) + closest[w][1],
            )
            for w in graph.nodes
        }
    return estimates
