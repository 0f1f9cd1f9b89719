"""Weighted-distance oracles: index-free ground truth for the weighted engine.

* :func:`_reference_weighted_distances_from` is ``networkx`` Dijkstra, which
  :func:`repro.graphs.properties.weighted_distances_from` must match.
* :func:`_reference_h_hop_limited_distances` is the original dict-based
  Bellman-Ford over ``networkx`` adjacency: ``h`` synchronous relaxation
  rounds from one source.  Both
  :meth:`repro.graphs.index.GraphIndex.h_hop_limited_distances` and every row
  of :meth:`~repro.graphs.index.GraphIndex.h_hop_limited_rows` must match it
  exactly.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Set

import networkx as nx

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
