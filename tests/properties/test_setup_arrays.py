"""The simulator's and the index's set-up arrays equal their Python references.

``HybridSimulator`` sorts all-``int`` labels plainly, builds the directed
adjacency keys from the adjacency lists in C-level passes and seeds the
HYBRID_0 pair store from them; ``GraphIndex`` reads its weight column off
the neighbour dicts.  Each must equal the per-node / per-edge formulation in
``oracles.construction`` (or ``graph[u][v]``) on every input the constructors
accept: six families x three seeds under shuffled integer labels, directed
and multigraph inputs, self-loops and non-integer labels.  The HYBRID_0
identifier draw is a bulk read of Python's own generator and must equal the
bare ``random.Random(seed).sample`` call: the same identifiers and the same
generator state afterwards.
"""

from __future__ import annotations

import random

import networkx as nx
import numpy as np
import pytest

from repro.graphs.generators import (
    barbell_graph,
    broom_graph,
    cycle_graph,
    erdos_renyi_graph,
    grid_graph,
    path_graph,
)
from repro.graphs.index import GraphIndex
from repro.simulator.config import ModelConfig
from repro.simulator import network
from repro.simulator.network import (
    _ID_UNIVERSE_CAP,
    HybridSimulator,
    _identifier_universe,
    _sample_distinct,
)

from oracles.construction import (
    _reference_edge_keys,
    _reference_node_order,
    _reference_pair_seed,
)

SEEDS = [0, 1, 2]

GRAPH_FAMILIES = {
    "path": lambda seed: path_graph(30),
    "cycle": lambda seed: cycle_graph(30),
    "grid": lambda seed: grid_graph(6, 2),
    "barbell": lambda seed: barbell_graph(8, 12),
    "broom": lambda seed: broom_graph(18, 10),
    "erdos_renyi": lambda seed: erdos_renyi_graph(30, 0.12, seed=seed),
}

CASES = [(family, seed) for family in sorted(GRAPH_FAMILIES) for seed in SEEDS]


def _shuffled_labels(graph, seed):
    """``graph`` relabelled with distinct random ints, inserted in random
    order, so neither insertion nor label order is the sorted order."""
    rng = random.Random(seed)
    nodes = list(graph.nodes)
    labels = dict(zip(nodes, rng.sample(range(10 * len(nodes)), len(nodes))))
    rng.shuffle(nodes)
    relabelled = nx.Graph()
    relabelled.add_nodes_from(labels[v] for v in nodes)
    edges = [(labels[u], labels[v]) for u, v in graph.edges()]
    rng.shuffle(edges)
    relabelled.add_edges_from(edges)
    return relabelled


def _stored_pairs(sim):
    return np.sort(np.concatenate(sim.knowledge.pairs.levels()))


def _assert_setup_matches_reference(graph, seed=0):
    sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=seed)
    assert sim.nodes == _reference_node_order(graph)
    keys = sim._edge_key_index()
    assert keys.dtype == np.int64
    assert keys.tolist() == _reference_edge_keys(graph).tolist()
    assert _stored_pairs(sim).tolist() == _reference_pair_seed(graph).tolist()
    dense = HybridSimulator(graph, ModelConfig.hybrid(), seed=seed)
    assert dense.nodes == sim.nodes
    assert dense._edge_key_index().tolist() == keys.tolist()
    assert not dense.knowledge.pairs
    return sim


@pytest.mark.parametrize("case", CASES, ids=lambda case: f"{case[0]}-s{case[1]}")
def test_setup_matches_reference_on_family_grid(case):
    family, seed = case
    base = GRAPH_FAMILIES[family](seed)
    _assert_setup_matches_reference(base, seed)
    _assert_setup_matches_reference(_shuffled_labels(base, seed), seed)


def _with_self_loop(graph, node):
    graph.add_edge(node, node)
    return graph


def _directed():
    graph = nx.DiGraph()
    graph.add_nodes_from([4, 0, 9, 2, 7])
    # One-way edges, a two-way pair and a self-loop: the keys count every
    # link both ways, once.
    graph.add_edges_from([(4, 0), (0, 9), (9, 0), (2, 7), (7, 4), (2, 2)])
    return graph


def _multigraph():
    graph = nx.MultiGraph()
    graph.add_edges_from([(3, 1), (1, 3), (1, 3), (1, 0), (0, 2), (2, 2), (2, 2)])
    return graph


SPECIAL_INPUTS = {
    "digraph": _directed,
    "multidigraph": lambda: nx.MultiDiGraph(_directed()),
    "multigraph": _multigraph,
    "self-loop": lambda: _with_self_loop(nx.path_graph([5, 3, 8, 1]), 8),
    "str-labels": lambda: nx.relabel_nodes(nx.cycle_graph(12), lambda v: f"v{v}"),
    # True hashes as 1 but sorts in node_sort_key's str group, after the ints.
    "bool-label": lambda: nx.Graph([(5, True), (True, 2), (2, 7), (7, 5)]),
    "numpy-int-labels": lambda: nx.relabel_nodes(
        nx.path_graph(12), lambda v: np.int64(3 * v + 1)
    ),
    "numpy-and-int-labels": lambda: nx.Graph(
        [(np.int64(20), 3), (3, np.int64(100)), (4, 3)]
    ),
    "mixed-int-str": lambda: nx.Graph([(10, "a"), ("a", 2), (2, "b"), ("b", 33), (33, 10)]),
}


@pytest.mark.parametrize("name", sorted(SPECIAL_INPUTS))
def test_setup_matches_reference_on_special_inputs(name):
    graph = SPECIAL_INPUTS[name]()
    sim = _assert_setup_matches_reference(graph)
    for node in graph.nodes:
        assert sim.node_index(node) == sim.nodes.index(node)


def test_plain_int_sort_keeps_the_reference_order():
    graph = nx.Graph()
    graph.add_nodes_from([10, -3, 2, 0, 1 << 70, 11, 1, -(1 << 65)])
    sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=0)
    assert sim.nodes == _reference_node_order(graph) == sorted(graph.nodes)


def test_bool_labels_keep_the_str_group():
    graph = nx.Graph([(3, True), (True, 2)])
    sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=0)
    assert sim.nodes == [2, 3, True]


@pytest.mark.parametrize("case", CASES, ids=lambda case: f"{case[0]}-s{case[1]}")
def test_identifier_draw_is_one_bare_sample(case):
    family, seed = case
    graph = _shuffled_labels(GRAPH_FAMILIES[family](seed), seed)
    n = graph.number_of_nodes()
    sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=seed)
    reference = random.Random(seed)
    ids = reference.sample(range(max(n**3, 8)), n)
    assert [sim.id_of(node) for node in sim.nodes] == ids
    assert sim.rng.getstate() == reference.getstate()


# universe -> sample size: sample's pool path; just past its set size for
# k = 100, so repeats are common; 32 bits with no shift; 33 bits, two words
# and a shift of 31; the capped universe (63 bits).
DRAWS = {8: 6, 1046: 100, 2**32 - 1: 1000, 2**32: 1000, _ID_UNIVERSE_CAP: 1000}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("universe", sorted(DRAWS), ids=hex)
def test_bulk_draw_equals_sample(universe, seed):
    k = DRAWS[universe]
    rng, reference = random.Random(seed), random.Random(seed)
    drawn = _sample_distinct(rng, universe, k)
    assert drawn.dtype == np.int64
    assert drawn.tolist() == reference.sample(range(universe), k)
    assert rng.getstate() == reference.getstate()
    assert rng.random() == reference.random()


class _CountingRandom(random.Random):
    """A ``random.Random`` that counts its ``getrandbits`` reads."""

    reads = 0

    def getrandbits(self, k):
        self.reads += 1
        return super().getrandbits(k)


@pytest.mark.parametrize("chunk", [7, 64])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("universe", sorted(DRAWS)[1:], ids=hex)
def test_chunked_draw_equals_sample(universe, seed, chunk, monkeypatch):
    """Reads of ``chunk`` attempts continue one stream: repeats keep their
    first attempt across read boundaries, and the state ends where
    ``sample`` leaves it."""
    monkeypatch.setattr(network, "_DRAW_CHUNK", chunk)
    k = DRAWS[universe]
    rng, reference = _CountingRandom(seed), random.Random(seed)
    drawn = _sample_distinct(rng, universe, k)
    assert rng.reads > 3  # several reads, then the advance
    assert drawn.tolist() == reference.sample(range(universe), k)
    assert rng.getstate() == reference.getstate()


@pytest.mark.parametrize("n", [300, 2000, 10_000, 30_000])
def test_benchmark_sized_draws_read_once(n):
    """At the benchmark suite's sizes the whole draw is one read (plus the
    advance past the attempts it used)."""
    rng, reference = _CountingRandom(1), random.Random(1)
    drawn = _sample_distinct(rng, _identifier_universe(n), n)
    assert rng.reads == 2
    assert drawn.tolist() == reference.sample(range(_identifier_universe(n)), n)
    assert rng.getstate() == reference.getstate()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_tiny_hybrid0_draws_equal_sample(n, seed):
    sim = HybridSimulator(path_graph(n), ModelConfig.hybrid0(), seed=seed)
    reference = random.Random(seed)
    assert sim.identifier_column().tolist() == reference.sample(range(max(n**3, 8)), n)
    assert sim.rng.getstate() == reference.getstate()


def _weighted(graph, draw):
    rng = random.Random(7)
    for u, v in graph.edges():
        weight = draw(rng)
        if weight is not None:
            graph[u][v]["weight"] = weight
    return graph


WEIGHTINGS = {
    "unweighted": lambda rng: None,
    "int": lambda rng: rng.randint(1, 50),
    "float": lambda rng: rng.uniform(0.5, 9.5),
    "partly": lambda rng: rng.choice([None, 3, 2.25]),
}


@pytest.mark.parametrize("weighting", sorted(WEIGHTINGS))
@pytest.mark.parametrize("family", ["grid", "erdos_renyi", "barbell"])
def test_index_weight_column_matches_edge_data(family, weighting):
    graph = _weighted(GRAPH_FAMILIES[family](1), WEIGHTINGS[weighting])
    index = GraphIndex(graph)
    offsets, targets, weights = index._offsets, index._targets, index._weights
    assert len(weights) == len(targets) == 2 * graph.number_of_edges()
    for i, u in enumerate(index.nodes):
        for slot in range(offsets[i], offsets[i + 1]):
            expected = graph[u][index.nodes[targets[slot]]].get("weight", 1)
            assert weights[slot] == expected
            assert type(weights[slot]) is type(expected)
