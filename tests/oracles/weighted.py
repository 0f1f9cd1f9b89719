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
