"""Reference formulations of the simulator's per-graph set-up state.

``HybridSimulator`` orders its nodes, builds the directed adjacency keys
(``_edge_key_index``) and seeds the HYBRID_0 pair store with array passes;
these are the per-node and per-edge Python formulations they must equal.
"""

from __future__ import annotations

from typing import Hashable, List

import networkx as nx
import numpy as np

from repro.simulator.network import node_sort_key


def _reference_node_order(graph: nx.Graph) -> List[Hashable]:
    """Every node, ordered by one ``node_sort_key`` call per node."""
    return sorted(graph.nodes, key=node_sort_key)


def _reference_edge_keys(graph: nx.Graph):
    """The directed adjacency as sorted flat ``s * n + r`` int64 keys, one
    ``set`` insert per edge direction (both directions of every edge
    ``graph.edges()`` yields, so a directed edge counts both ways)."""
    n = graph.number_of_nodes()
    index_of = {node: index for index, node in enumerate(_reference_node_order(graph))}
    pairs = set()
    for u, v in graph.edges():
        ui = index_of[u]
        vi = index_of[v]
        pairs.add(ui * n + vi)
        pairs.add(vi * n + ui)
    keys = np.fromiter(pairs, dtype=np.int64, count=len(pairs))
    keys.sort()
    return keys


def _reference_pair_seed(graph: nx.Graph):
    """The HYBRID_0 knowledge seed: the edge keys plus the diagonal, sorted."""
    n = graph.number_of_nodes()
    diagonal = [i * n + i for i in range(n)]
    return np.array(
        sorted(set(_reference_edge_keys(graph).tolist()) | set(diagonal)), dtype=np.int64
    )
