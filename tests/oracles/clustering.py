"""Clustering oracles: the set-based Lemma 3.5 construction.

:func:`_reference_greedy_ruling_set` grows one Python-set BFS per ruler, and
:func:`_reference_nq_clustering` assigns every node to its closest ruler with
one full dict BFS per ruler, then orders each cluster with a second per-ruler
BFS (:func:`_bfs_order_from`).  :func:`repro.core.ruling_sets.greedy_ruling_set`
and :func:`repro.core.clustering.nq_clustering` must match them exactly
(assignment, leaders and member order).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set

import networkx as nx

from repro.core.clustering import Cluster, Clustering, _split_cluster
from repro.core.neighborhood_quality import neighborhood_quality
from repro.graphs.properties import hop_distances_from

Node = Hashable


def _reference_greedy_ruling_set(
    graph: nx.Graph, alpha: int, order: Optional[List[Node]] = None
) -> Set[Node]:
    """Index-free ground truth for
    :func:`~repro.core.ruling_sets.greedy_ruling_set`."""
    if alpha < 1:
        raise ValueError("alpha must be at least 1")
    nodes = order if order is not None else sorted(graph.nodes, key=str)
    ruling: Set[Node] = set()
    # Nodes within alpha - 1 hops of the current ruling set; a node is addable
    # iff it is not covered.  Each new ruler runs its own truncated BFS (with a
    # private visited set, so coverage by earlier rulers does not block the
    # traversal) and adds everything it reaches to the shared covered set.
    covered: Set[Node] = set()
    for v in nodes:
        if v in covered:
            continue
        ruling.add(v)
        visited: Set[Node] = {v}
        covered.add(v)
        frontier = {v}
        for _ in range(1, alpha):
            next_frontier = set()
            for u in frontier:
                for w in graph.neighbors(u):
                    if w not in visited:
                        visited.add(w)
                        covered.add(w)
                        next_frontier.add(w)
            frontier = next_frontier
            if not frontier:
                break
    return ruling


def _bfs_order_from(graph: nx.Graph, root: Node, members: Set[Node]) -> List[Node]:
    """Members of a cluster ordered by BFS (in G) from the leader.

    :func:`~repro.core.clustering.nq_clustering` reads the same order out of
    its shared multi-source sweep.
    """
    dist = hop_distances_from(graph, root)
    inside = [m for m in members if m in dist]
    inside.sort(key=lambda m: (dist[m], str(m)))
    missing = sorted((m for m in members if m not in dist), key=str)
    return inside + missing


def _reference_nq_clustering(
    graph: nx.Graph,
    k: float,
    nq: Optional[int] = None,
    id_of=None,
) -> Clustering:
    """Index-free ground truth for :func:`~repro.core.clustering.nq_clustering`.

    One full dict BFS per ruler for the assignment plus one per-ruler re-BFS
    for the member order — the pre-sweep formulation, kept verbatim."""
    if k <= 0:
        raise ValueError("k must be positive")
    n = graph.number_of_nodes()
    if nq is None:
        nq = neighborhood_quality(graph, k)
    nq = max(1, nq)
    if id_of is None:
        id_of = lambda node: node  # noqa: E731 - trivial default

    rulers = _reference_greedy_ruling_set(graph, alpha=2 * nq + 1)

    # Every node joins the cluster of its closest ruler (ties by min identifier).
    # Multi-source BFS, processing rulers in identifier order so ties resolve
    # to the smallest identifier deterministically.
    assignment: Dict[Node, Node] = {}
    best_dist: Dict[Node, int] = {}
    for ruler in sorted(rulers, key=lambda r: (id_of(r), str(r))):
        dist = hop_distances_from(graph, ruler)
        for node, d in dist.items():
            current = best_dist.get(node)
            if current is None or d < current:
                best_dist[node] = d
                assignment[node] = ruler
    # (Ties keep the earlier, i.e. smaller-identifier, ruler.)

    members_by_ruler: Dict[Node, Set[Node]] = {ruler: set() for ruler in rulers}
    for node, ruler in assignment.items():
        members_by_ruler[ruler].add(node)

    lower = min(float(n), k / nq)
    upper = 2 * lower if lower >= 1 else 2.0

    clusters: List[Cluster] = []
    cluster_of: Dict[Node, int] = {}
    for ruler in sorted(rulers, key=lambda r: (id_of(r), str(r))):
        members = members_by_ruler[ruler]
        if not members:
            continue
        ordered = _bfs_order_from(graph, ruler, members)
        for chunk in _split_cluster(ordered, lower, upper):
            leader = ruler if ruler in chunk else chunk[0]
            index = len(clusters)
            clusters.append(Cluster(leader=leader, members=list(chunk), index=index))
            for node in chunk:
                cluster_of[node] = index

    return Clustering(clusters=clusters, nq=nq, k=k, cluster_of=cluster_of)
