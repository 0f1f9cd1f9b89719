"""Theorem 8's analytics equal their index-free references bit for bit.

* **Greedy spanner** — :func:`~repro.core.spanner.greedy_spanner`'s
  cutoff-bounded search keeps exactly the edges of the full-Dijkstra scan
  ``oracles.weighted._reference_greedy_spanner``, with the same node order,
  edge data and edge insertion order (the Theorem 1 spanner broadcast reads
  edges in that order).  Six families x three seeds x t in {1, 2, 3} on
  integer weights (ties are common), non-dyadic floats (sums that tie in
  exact arithmetic differ in the last bit) and zero weights, plus a
  disconnected graph with a self-loop and string labels.  Negative weights
  raise up front.
* **Algorithm 4 rows** — every row of
  :class:`~repro.core.shortest_paths.SkeletonAPSP` equals the eager
  dict-of-dicts formula ``oracles.weighted._reference_skeleton_estimates`` on
  float weights, where a reassociated sum shows, and the closest skeleton
  node is the ``(dist, str)`` minimum, also when two skeleton nodes tie.
"""

import math
import random

import networkx as nx
import pytest

from repro.core.shortest_paths import SkeletonAPSP
from repro.core.spanner import greedy_spanner
from repro.graphs.generators import (
    barbell_graph,
    cycle_graph,
    erdos_renyi_graph,
    grid_graph,
    path_graph,
)
from repro.simulator.config import ModelConfig
from repro.simulator.network import HybridSimulator

from oracles.weighted import (
    _reference_closest_skeleton,
    _reference_greedy_spanner,
    _reference_h_hop_limited_distances,
    _reference_skeleton_estimates,
)

SEEDS = [0, 1, 2]

FAMILIES = {
    "path": lambda seed: path_graph(30),
    "cycle": lambda seed: cycle_graph(30),
    "grid": lambda seed: grid_graph(6, 2),
    "barbell": lambda seed: barbell_graph(8, 12),
    "erdos_renyi": lambda seed: erdos_renyi_graph(30, 0.3, seed=seed),
    "complete": lambda seed: nx.complete_graph(12),
}

WEIGHTS = {
    "int": lambda rng: rng.randint(1, 9),
    "float": lambda rng: rng.choice([0.1, 0.2, 0.3, 0.4, 0.7]),
    "zero": lambda rng: rng.choice([0, 0, 1, 2, 3]),
}


def _weighted(graph: nx.Graph, kind: str, seed: int) -> nx.Graph:
    rng = random.Random(seed)
    for u, v in sorted(graph.edges(), key=str):
        graph[u][v]["weight"] = WEIGHTS[kind](rng)
    return graph


def _assert_same_spanner(graph: nx.Graph, t: int) -> None:
    spanner = greedy_spanner(graph, t)
    reference = _reference_greedy_spanner(graph, t)
    assert list(spanner.nodes) == list(reference.nodes)
    assert list(spanner.edges(data=True)) == list(reference.edges(data=True))


# ----------------------------------------------------------------------
# Greedy spanner == the full-Dijkstra scan, edge for edge and in order
# ----------------------------------------------------------------------
@pytest.mark.parametrize("t", [1, 2, 3])
@pytest.mark.parametrize("kind", sorted(WEIGHTS))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_greedy_spanner_equals_the_reference_scan(family, seed, kind, t):
    _assert_same_spanner(_weighted(FAMILIES[family](seed), kind, seed), t)


@pytest.mark.parametrize("t", [1, 2, 3])
@pytest.mark.parametrize("kind", sorted(WEIGHTS))
def test_greedy_spanner_on_a_disconnected_graph_with_a_self_loop(kind, t):
    graph = nx.disjoint_union(erdos_renyi_graph(15, 0.4, seed=7), nx.complete_graph(6))
    graph.add_nodes_from([100, 101])  # isolated nodes
    graph.add_edge(3, 3)  # a self-loop is never kept
    _assert_same_spanner(_weighted(graph, kind, 7), t)


@pytest.mark.parametrize("t", [1, 2, 3])
@pytest.mark.parametrize("kind", sorted(WEIGHTS))
def test_greedy_spanner_on_string_labels(kind, t):
    base = erdos_renyi_graph(25, 0.3, seed=8)
    order = list(base.nodes)
    random.Random(8).shuffle(order)
    graph = nx.Graph()
    graph.add_nodes_from(f"v{i}" for i in order)  # "v10" sorts before "v9"
    graph.add_edges_from((f"v{u}", f"v{v}") for u, v in base.edges())
    _assert_same_spanner(_weighted(graph, kind, 8), t)


@pytest.mark.parametrize("t", [1, 2])
@pytest.mark.parametrize("graph", ["path", "cycle"])
def test_greedy_spanner_rejects_negative_weights_up_front(graph, t):
    # On a path no search ever reaches a node twice, so a full Dijkstra per
    # edge never notices the negative edge; the bounded scan rejects it first.
    g = _weighted(FAMILIES[graph](0), "int", 0)
    u, v = sorted(g.edges())[len(g) // 2]
    g[u][v]["weight"] = -1
    with pytest.raises(ValueError, match="non-negative"):
        greedy_spanner(g, t)


# ----------------------------------------------------------------------
# SkeletonAPSP rows == the eager Algorithm 4 formula, bit for bit
# ----------------------------------------------------------------------
ROW_FAMILIES = {
    "path": lambda: path_graph(60),
    "cycle": lambda: cycle_graph(80),
    "grid": lambda: grid_graph(8, 2),
}


def _run(graph: nx.Graph, seed: int, alpha: int):
    sim = HybridSimulator(graph, ModelConfig.hybrid(), seed=seed)
    algorithm = SkeletonAPSP(sim, alpha=alpha, seed=seed)
    return algorithm, algorithm.run()


def _assert_rows_equal_the_reference(graph: nx.Graph, seed: int, alpha: int) -> None:
    algorithm, table = _run(graph, seed, alpha)
    skeleton = algorithm._skeleton
    assert algorithm._closest_skeleton == _reference_closest_skeleton(graph, skeleton)
    expected = _reference_skeleton_estimates(graph, skeleton, alpha)
    columns = table.columns()
    for target in table.targets():
        assert list(table.row(target)) == [expected[target][w] for w in columns]


@pytest.mark.parametrize("alpha", [1, 2])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("family", sorted(ROW_FAMILIES))
def test_skeleton_apsp_rows_equal_the_reference(family, seed, alpha):
    _assert_rows_equal_the_reference(
        _weighted(ROW_FAMILIES[family](), "float", seed), seed, alpha
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_closest_skeleton_ties_break_by_str(seed):
    """On a grid with equal weights some node is equally far from two
    skeleton nodes whose ``str`` order is not their index order."""
    graph = grid_graph(6, 2)
    nx.set_edge_attributes(graph, 0.1, "weight")
    algorithm, _ = _run(graph, seed, 1)
    skeleton = algorithm._skeleton
    index_of = {node: i for i, node in enumerate(graph.nodes)}
    ties = 0
    for v in graph.nodes:
        near = _reference_h_hop_limited_distances(graph, v, skeleton.h)
        best = min(near.get(u, math.inf) for u in skeleton.skeleton_nodes)
        tied = [u for u in skeleton.skeleton_nodes if near.get(u, math.inf) == best]
        ties += min(tied, key=str) != min(tied, key=index_of.get)
    assert ties
    _assert_rows_equal_the_reference(graph, seed, 1)
