"""Structural graph primitives used throughout the paper (Section 1.2).

All graphs are ``networkx.Graph`` instances whose nodes are hashable (typically
integers) and whose edges may carry a ``weight`` attribute.  Unweighted graphs
are treated as having unit weights (``w == 1``), matching the paper's
convention.

The functions here are *centralized* helpers: they are used by the graph
generators, by the centralized reference solvers, and by the theory-side
predictions.  The distributed algorithms in :mod:`repro.core` never call them
to cheat; they only ever access the simulator's communication interface.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

import networkx as nx

from repro.graphs.index import get_index

Node = Hashable

__all__ = [
    "ball",
    "ball_size",
    "ball_sizes_all_radii",
    "hop_distance",
    "hop_distances_from",
    "all_hop_distances",
    "weighted_distances_from",
    "all_weighted_distances",
    "h_hop_limited_distances",
    "eccentricity",
    "diameter",
    "weak_diameter",
    "strong_diameter",
    "power_graph",
    "is_connected",
    "validate_paper_graph",
    "edge_weight",
    "total_edge_weight",
]


def edge_weight(graph: nx.Graph, u: Node, v: Node) -> float:
    """Return the weight of the edge ``{u, v}``, defaulting to 1."""
    return graph[u][v].get("weight", 1)


def total_edge_weight(graph: nx.Graph) -> float:
    """Sum of all edge weights (unit weights if unweighted)."""
    return sum(data.get("weight", 1) for _, _, data in graph.edges(data=True))


def hop_distances_from(graph: nx.Graph, source: Node) -> Dict[Node, int]:
    """Unweighted (hop) distances from ``source`` via BFS.

    Nodes unreachable from ``source`` are omitted from the result.
    """
    if source not in graph:
        raise KeyError(f"source {source!r} not in graph")
    dist: Dict[Node, int] = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in graph.neighbors(u):
            if v not in dist:
                dist[v] = du + 1
                queue.append(v)
    return dist


def hop_distance(graph: nx.Graph, u: Node, v: Node) -> int:
    """Hop distance between ``u`` and ``v``; ``math.inf`` if disconnected.

    The BFS stops the moment ``v`` is discovered instead of exploring the rest
    of ``u``'s component (the full component is only traversed when ``v`` is
    unreachable, where that is unavoidable).
    """
    if u == v:
        return 0
    if u not in graph:
        raise KeyError(f"source {u!r} not in graph")
    dist: Dict[Node, int] = {u: 0}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        dx = dist[x]
        for y in graph.neighbors(x):
            if y not in dist:
                if y == v:
                    return dx + 1
                dist[y] = dx + 1
                queue.append(y)
    return math.inf


def all_hop_distances(graph: nx.Graph) -> Dict[Node, Dict[Node, int]]:
    """All-pairs hop distances as dicts, assembled from dense index rows.

    Delegates to the cached :class:`~repro.graphs.index.GraphIndex`: one flat
    multi-source sweep per node instead of one Python-dict BFS per node.
    Unreachable nodes are omitted from each row, matching
    :func:`hop_distances_from`; only the key order inside a row differs.
    """
    index = get_index(graph)
    nodes = index.nodes
    return {
        v: {nodes[i]: d for i, d in enumerate(index.hop_distance_row(v)) if d >= 0}
        for v in nodes
    }


def weighted_distances_from(graph: nx.Graph, source: Node) -> Dict[Node, float]:
    """Weighted single-source distances via Dijkstra (unit weights by default).

    Delegates to the cached :class:`~repro.graphs.index.GraphIndex` flat-array
    Dijkstra — identical values to ``networkx`` (pinned by
    ``tests/properties/test_weighted_equivalence.py``), with the CSR adjacency
    and tie keys shared across queries on the same graph.  Unreachable nodes
    are omitted; a missing source raises ``KeyError``.
    """
    return get_index(graph).sssp_dict(source)


def all_weighted_distances(graph: nx.Graph) -> Dict[Node, Dict[Node, float]]:
    """All-pairs weighted distances, one flat index Dijkstra row per node."""
    index = get_index(graph)
    return {v: index.sssp_dict(v) for v in graph.nodes}


def h_hop_limited_distances(
    graph: nx.Graph, source: Node, h: int
) -> Dict[Node, float]:
    """``h``-hop limited weighted distances ``d^h(source, .)`` (Section 1.2).

    ``d^h(u, v)`` is the weight of a shortest ``u``-``v`` path among all paths
    using at most ``h`` edges; nodes with no such path are omitted.  Delegates
    to the cached :class:`~repro.graphs.index.GraphIndex` flat-array
    Bellman-Ford (identical values to the reference; ``KeyError`` on a missing
    source, like the other BFS primitives).
    """
    return get_index(graph).h_hop_limited_distances(source, h)


def ball(graph: nx.Graph, center: Node, radius: int) -> Set[Node]:
    """The ball ``B_t(v) = {w : hop(v, w) <= t}`` (Section 1.2), including ``v``."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    dist: Dict[Node, int] = {center: 0}
    queue = deque([center])
    while queue:
        u = queue.popleft()
        du = dist[u]
        if du == radius:
            continue
        for v in graph.neighbors(u):
            if v not in dist:
                dist[v] = du + 1
                queue.append(v)
    return set(dist)


def ball_size(graph: nx.Graph, center: Node, radius: int) -> int:
    """``|B_t(v)|``."""
    return len(ball(graph, center, radius))


def ball_sizes_all_radii(graph: nx.Graph, center: Node) -> List[int]:
    """Return ``[|B_0(v)|, |B_1(v)|, ..., |B_ecc(v)|]`` in one BFS pass.

    Delegates to the cached :class:`~repro.graphs.index.GraphIndex`.
    """
    return get_index(graph).ball_sizes_all_radii(center)


def eccentricity(graph: nx.Graph, v: Node) -> int:
    """Maximum hop distance from ``v`` to any reachable node.

    Delegates to the cached :class:`~repro.graphs.index.GraphIndex`.
    """
    return get_index(graph).eccentricity(v)


def diameter(graph: nx.Graph) -> int:
    """Hop diameter ``D = max_{v,w} hop(v, w)`` (Section 1.2).

    Raises ``ValueError`` on disconnected graphs.  Delegates to the cached
    :class:`~repro.graphs.index.GraphIndex`, which computes the exact value
    with a double sweep plus iFUB eccentricity pruning instead of ``n`` full
    BFS passes (and memoises it per graph).
    """
    return get_index(graph).diameter()


def weak_diameter(graph: nx.Graph, nodes: Iterable[Node]) -> int:
    """Weak diameter of a node set: max pairwise hop distance *in G* (Section 1.2).

    Empty and singleton sets have weak diameter 0; a member set spanning
    several components returns ``math.inf`` (in contrast to :func:`diameter`,
    which raises on disconnected graphs — pinned by the tests).  A member that
    is not a node of the graph raises ``KeyError`` no matter where it appears
    in the iteration order.  Delegates to the cached
    :class:`~repro.graphs.index.GraphIndex`, whose per-member BFS stops as
    soon as every other member is discovered instead of sweeping the whole
    component and re-scanning the target set.
    """
    node_list = list(nodes)
    if not node_list:
        return 0
    return get_index(graph).weak_diameter(node_list)


def strong_diameter(graph: nx.Graph, nodes: Iterable[Node]) -> int:
    """Strong diameter: diameter of the subgraph induced by ``nodes``.

    Runs on the induced subgraph's own (ephemeral) :class:`GraphIndex` via
    :func:`diameter`; a disconnected induced subgraph yields ``math.inf``.
    """
    sub = graph.subgraph(set(nodes))
    if sub.number_of_nodes() == 0:
        return 0
    if sub.number_of_nodes() == 1:
        return 0
    try:
        return diameter(sub)
    except ValueError:
        return math.inf


def power_graph(graph: nx.Graph, t: int) -> nx.Graph:
    """The power graph ``G^t``: edge ``{u, v}`` iff ``hop(u, v) <= t`` (Section 3).

    Node set is preserved; edges carry no weights.
    """
    if t < 1:
        raise ValueError("power must be at least 1")
    result = nx.Graph()
    result.add_nodes_from(graph.nodes)
    for v in graph.nodes:
        for w in ball(graph, v, t):
            if w != v:
                result.add_edge(v, w)
    return result


def is_connected(graph: nx.Graph) -> bool:
    """Whether the graph is connected (empty graphs count as connected)."""
    n = graph.number_of_nodes()
    if n <= 1:
        return True
    start = next(iter(graph.nodes))
    return len(hop_distances_from(graph, start)) == n


def validate_paper_graph(graph: nx.Graph, *, require_weights_polynomial: bool = True) -> None:
    """Validate the standing assumptions of Section 1.2.

    The paper assumes undirected, connected graphs with positive edge weights
    polynomial in ``n``.  Raises ``ValueError`` when an assumption is violated.
    """
    n = graph.number_of_nodes()
    if n == 0:
        raise ValueError("graph must be non-empty")
    if graph.is_directed():
        raise ValueError("graph must be undirected")
    if not is_connected(graph):
        raise ValueError("graph must be connected")
    if require_weights_polynomial:
        # "Polynomial in n" is interpreted as w <= n^4, generous enough for every
        # construction in this repository while still catching accidents like
        # exponential weights.
        limit = max(n, 2) ** 4
        for u, v, data in graph.edges(data=True):
            w = data.get("weight", 1)
            if w <= 0:
                raise ValueError(f"edge ({u!r}, {v!r}) has non-positive weight {w}")
            if w > limit:
                raise ValueError(
                    f"edge ({u!r}, {v!r}) weight {w} exceeds polynomial bound {limit}"
                )
