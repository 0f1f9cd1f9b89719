"""(alpha, beta)-ruling sets (Definition 3.4).

A set ``W`` is an (alpha, beta)-ruling set for ``G = (V, E)`` if every node is
within hop distance ``beta`` of some node of ``W`` and any two distinct nodes
of ``W`` are at hop distance at least ``alpha``.

The paper uses the deterministic CONGEST construction of [KMW18], which yields
a ``(mu + 1, mu * ceil(log n))``-ruling set in ``O(mu log n)`` rounds.  We
provide a centralized greedy construction that satisfies the same (in fact a
slightly stronger) guarantee, and a distributed wrapper that charges the
[KMW18] round bound (DESIGN.md substitution note 1).
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Optional, Set

import networkx as nx

from repro.graphs.index import get_index
from repro.graphs.properties import hop_distances_from
from repro.simulator.config import log2_ceil
from repro.simulator.network import HybridSimulator

Node = Hashable

__all__ = [
    "greedy_ruling_set",
    "verify_ruling_set",
    "distributed_ruling_set",
]


def greedy_ruling_set(
    graph: nx.Graph, alpha: int, order: Optional[List[Node]] = None
) -> Set[Node]:
    """Greedy (alpha, alpha - 1)-ruling set.

    Scans nodes in the given order (default: sorted by label) and adds a node to
    ``W`` whenever it is at hop distance at least ``alpha`` from every node
    already in ``W``.  The result satisfies

    * separation: pairwise hop distance of nodes in ``W`` is at least ``alpha``;
    * domination: every node is within ``alpha - 1`` hops of ``W`` (otherwise it
      would have been added itself), which is at most ``mu * ceil(log n)`` for
      ``alpha = mu + 1`` and ``n >= 2`` — i.e. it is also a valid
      ``(mu + 1, mu * ceil(log n))``-ruling set in the paper's sense.

    Delegates to the cached :class:`~repro.graphs.index.GraphIndex`: each new
    ruler grows a flat truncated frontier over the CSR adjacency and marks its
    radius-``alpha - 1`` ball in a shared flat ``covered`` array, instead of
    one Python-set BFS per ruler.  Output is identical to the set-based
    formulation (``tests/oracles/clustering.py``).
    """
    if alpha < 1:
        raise ValueError("alpha must be at least 1")
    return set(get_index(graph).ruling_set(alpha, order))


def verify_ruling_set(graph: nx.Graph, ruling: Set[Node], alpha: int, beta: int) -> bool:
    """Check Definition 3.4: separation >= alpha and domination <= beta."""
    ruling = set(ruling)
    if not ruling:
        return graph.number_of_nodes() == 0
    # Separation.
    for w in ruling:
        dist = hop_distances_from(graph, w)
        for other in ruling:
            if other != w and dist.get(other, math.inf) < alpha:
                return False
    # Domination: multi-source BFS from the ruling set.
    best: Dict[Node, int] = {w: 0 for w in ruling}
    frontier = set(ruling)
    depth = 0
    while frontier and depth < beta:
        depth += 1
        next_frontier = set()
        for u in frontier:
            for v in graph.neighbors(u):
                if v not in best:
                    best[v] = depth
                    next_frontier.add(v)
        frontier = next_frontier
    return all(v in best for v in graph.nodes)


def distributed_ruling_set(
    simulator: HybridSimulator, mu: int
) -> Set[Node]:
    """Compute a ``(mu + 1, mu * ceil(log n))``-ruling set on the simulator.

    The output is produced by the centralized greedy construction (which
    satisfies the required guarantees); the round cost ``O(mu log n)`` of the
    [KMW18] CONGEST algorithm is charged (DESIGN.md substitution note 1).
    """
    if mu < 1:
        raise ValueError("mu must be at least 1")
    n = simulator.n
    ruling = greedy_ruling_set(simulator.graph, alpha=mu + 1)
    simulator.charge_rounds(
        mu * log2_ceil(max(n, 2)),
        f"({mu + 1}, {mu}*ceil(log n))-ruling set construction",
        "[KMW18, Theorem 1.1]",
    )
    return ruling
