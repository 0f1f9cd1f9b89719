"""Edge-weight assignment schemes.

The paper's weighted problems assume positive integer weights polynomial in
``n`` (Section 1.2).  The helpers below mutate a graph in place and return it,
so they compose with the generators:

    >>> from repro.graphs import grid_graph, assign_random_weights
    >>> g = assign_random_weights(grid_graph(4), max_weight=10, seed=0)

Each helper rewrites *every* edge weight, so splicing the edits into the
cached :class:`~repro.graphs.index.GraphIndex` (the
:class:`~repro.graphs.mutation.GraphMutator` path, which rewrites each
touched row) would touch every row — they take the full-drop path instead:
:func:`~repro.graphs.index.invalidate_index` retires the cached index and
bumps the graph's version stamp, so every versioned consumer (``get_index``,
simulator plane sends, row caches) resynchronises on next use.  To
re-weight a few edges prefer ``GraphMutator.update_weight`` or
``GraphMutator.apply_batch``.
"""

from __future__ import annotations

import random
from typing import Optional

import networkx as nx

from repro.graphs.index import invalidate_index

__all__ = [
    "unit_weights",
    "assign_uniform_weights",
    "assign_random_weights",
    "assign_polynomial_weights",
]


def unit_weights(graph: nx.Graph) -> nx.Graph:
    """Set every edge weight to 1 (the unweighted convention ``w == 1``)."""
    for u, v in graph.edges:
        graph[u][v]["weight"] = 1
    invalidate_index(graph)
    return graph


def assign_uniform_weights(graph: nx.Graph, weight: int) -> nx.Graph:
    """Set every edge weight to the given positive integer."""
    if weight <= 0:
        raise ValueError("weight must be positive")
    for u, v in graph.edges:
        graph[u][v]["weight"] = int(weight)
    invalidate_index(graph)
    return graph


def assign_random_weights(
    graph: nx.Graph, max_weight: int, seed: Optional[int] = None
) -> nx.Graph:
    """Assign independent uniform integer weights from ``[1, max_weight]``."""
    if max_weight < 1:
        raise ValueError("max_weight must be at least 1")
    rng = random.Random(seed)
    for u, v in sorted(graph.edges, key=lambda e: (str(e[0]), str(e[1]))):
        graph[u][v]["weight"] = rng.randint(1, max_weight)
    invalidate_index(graph)
    return graph


def assign_polynomial_weights(
    graph: nx.Graph, exponent: float = 2.0, seed: Optional[int] = None
) -> nx.Graph:
    """Assign random weights up to ``n**exponent`` (capped at the paper's bound).

    Useful for stress-testing the weighted shortest-paths algorithms with large
    weight ranges while staying within the "polynomial in n" assumption.
    """
    n = max(graph.number_of_nodes(), 2)
    if exponent <= 0:
        raise ValueError("exponent must be positive")
    if exponent > 4:
        raise ValueError("exponent above 4 violates the polynomial-weight assumption")
    max_weight = max(1, int(n**exponent))
    return assign_random_weights(graph, max_weight=max_weight, seed=seed)
