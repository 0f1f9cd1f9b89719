"""Hop-distance oracles: index-free ground truth for the BFS analytics.

Each function here is the plain per-node BFS formulation (one
:func:`~repro.graphs.properties.hop_distances_from` sweep per node) of a
:mod:`repro.graphs.properties` primitive that now runs on the cached
:class:`~repro.graphs.index.GraphIndex`: all-pairs hop distances, ball sizes,
eccentricity, and the diameter, weak diameter and strong diameter.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, List

import networkx as nx

from repro.graphs.properties import hop_distances_from

Node = Hashable


def _reference_all_hop_distances(graph: nx.Graph) -> Dict[Node, Dict[Node, int]]:
    """Index-free ground truth for ``all_hop_distances``."""
    return {v: hop_distances_from(graph, v) for v in graph.nodes}


def _reference_ball_sizes_all_radii(graph: nx.Graph, center: Node) -> List[int]:
    """Index-free ground truth for ``ball_sizes_all_radii``."""
    dist = hop_distances_from(graph, center)
    if not dist:
        return [1]
    ecc = max(dist.values())
    counts = [0] * (ecc + 1)
    for d in dist.values():
        counts[d] += 1
    sizes = []
    running = 0
    for c in counts:
        running += c
        sizes.append(running)
    return sizes


def _reference_eccentricity(graph: nx.Graph, v: Node) -> int:
    """Index-free ground truth for ``eccentricity``."""
    dist = hop_distances_from(graph, v)
    return max(dist.values()) if dist else 0


def _reference_diameter(graph: nx.Graph) -> int:
    """Index-free ground truth for ``diameter``: n BFS passes."""
    if graph.number_of_nodes() == 0:
        raise ValueError("diameter of empty graph is undefined")
    best = 0
    reference_size = graph.number_of_nodes()
    for v in graph.nodes:
        dist = hop_distances_from(graph, v)
        if len(dist) != reference_size:
            raise ValueError("graph is disconnected; diameter undefined")
        best = max(best, max(dist.values()))
    return best


def _reference_weak_diameter(graph: nx.Graph, nodes: Iterable[Node]) -> int:
    """Index-free ground truth for ``weak_diameter``: one full BFS per member
    plus a target-set scan.  Kept verbatim — including the
    historical quirk that a member missing from the graph surfaces as ``inf``
    or ``KeyError`` depending on iteration order, which the fast path fixes."""
    node_list = list(nodes)
    if not node_list:
        return 0
    best = 0
    targets = set(node_list)
    for v in node_list:
        dist = hop_distances_from(graph, v)
        for t in targets:
            if t not in dist:
                return math.inf
            best = max(best, dist[t])
    return best


def _reference_strong_diameter(graph: nx.Graph, nodes: Iterable[Node]) -> int:
    """Index-free ground truth for ``strong_diameter``."""
    sub = graph.subgraph(set(nodes))
    if sub.number_of_nodes() <= 1:
        return 0
    try:
        return _reference_diameter(sub)
    except ValueError:
        return math.inf
