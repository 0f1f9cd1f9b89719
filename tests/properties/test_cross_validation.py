"""Cross-validation of the batch-migrated algorithms against centralized truth.

Every algorithm migrated onto the batch messaging engine (KDissemination,
KAggregation, KLRouting, ApproxSSSP, and — since PR 3 — the shortest-paths
stack: UnweightedApproxAPSP, KSourceShortestPaths, KLShortestPaths and the
BCC bridge) is checked against :mod:`repro.baselines.centralized` reference
solvers on a corpus of six graph families (path, cycle, grid, barbell, broom,
Erdos-Renyi) x three seeds each.
"""

import math
import random

import pytest

from repro.baselines.centralized import exact_hop_apsp, exact_sssp, max_stretch_of_table
from repro.core.aggregation import KAggregation
from repro.core.bcc import BCCSimulator
from repro.core.dissemination import KDissemination
from repro.core.ksp import KSourceShortestPaths
from repro.core.routing import KLRouting
from repro.core.shortest_paths import KLShortestPaths, UnweightedApproxAPSP
from repro.core.sssp import ApproxSSSP
from repro.graphs.generators import (
    barbell_graph,
    broom_graph,
    cycle_graph,
    erdos_renyi_graph,
    grid_graph,
    path_graph,
)
from repro.graphs.weighted import assign_random_weights, unit_weights
from repro.simulator.config import ModelConfig
from repro.simulator.network import HybridSimulator

from oracles.engines import exchange_via

SEEDS = [0, 1, 2]

GRAPH_FAMILIES = {
    "path": lambda seed: path_graph(30),
    "cycle": lambda seed: cycle_graph(30),
    "grid": lambda seed: grid_graph(6, 2),
    "barbell": lambda seed: barbell_graph(8, 12),
    "broom": lambda seed: broom_graph(18, 10),
    "erdos_renyi": lambda seed: erdos_renyi_graph(30, 0.12, seed=seed),
}

CASES = [
    (family, seed) for family in sorted(GRAPH_FAMILIES) for seed in SEEDS
]


def _ids(case):
    family, seed = case
    return f"{family}-s{seed}"


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_dissemination_matches_token_union(case):
    family, seed = case
    graph = GRAPH_FAMILIES[family](seed)
    rng = random.Random(100 + seed)
    nodes = sorted(graph.nodes)
    tokens = {}
    for index in range(12):
        tokens.setdefault(rng.choice(nodes), []).append(("tok", index))
    expected = {token for held in tokens.values() for token in held}

    sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=seed)
    result = KDissemination(sim, tokens).run()

    assert result.tokens == expected
    assert result.all_nodes_know_all_tokens()
    assert result.metrics.capacity_violations == 0


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_aggregation_matches_centralized_reduction(case):
    family, seed = case
    graph = GRAPH_FAMILIES[family](seed)
    rng = random.Random(200 + seed)
    k = 6
    values = {node: [rng.randint(-500, 500) for _ in range(k)] for node in graph.nodes}
    expected_min = [min(values[v][i] for v in graph.nodes) for i in range(k)]
    expected_sum = [sum(values[v][i] for v in graph.nodes) for i in range(k)]

    sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=seed)
    assert KAggregation(sim, values, min).run().aggregates == expected_min
    sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=seed)
    result = KAggregation(sim, values, lambda a, b: a + b).run()
    assert result.aggregates == expected_sum
    assert result.all_nodes_know_all_aggregates()


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_routing_delivers_every_message(case):
    family, seed = case
    graph = GRAPH_FAMILIES[family](seed)
    rng = random.Random(300 + seed)
    nodes = sorted(graph.nodes)
    sources = rng.sample(nodes, 4)
    targets = rng.sample(nodes, 3)
    messages = {
        (s, t): ("payload", s, t) for s in sources for t in targets
    }

    sim = HybridSimulator(graph, ModelConfig.hybrid(), seed=seed)
    result = KLRouting(sim, messages, seed=seed).run()

    assert result.all_delivered(messages)
    for (source, target), payload in messages.items():
        assert result.delivered[target][source] == payload


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_sssp_matches_centralized_dijkstra(case):
    family, seed = case
    graph = assign_random_weights(GRAPH_FAMILIES[family](seed), max_weight=9, seed=seed)
    source = sorted(graph.nodes)[0]
    epsilon = 0.25
    truth = exact_sssp(graph, source)

    sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=seed)
    result = ApproxSSSP(sim, source, epsilon=epsilon).run()

    for node, true_distance in truth.items():
        estimate = result.distance_to(node)
        assert estimate < math.inf
        # Never underestimates, overestimates by at most (1 + eps).
        assert estimate >= true_distance - 1e-9
        assert estimate <= (1.0 + epsilon) * true_distance + 1e-9


@pytest.mark.parametrize("engine", ["batch", "legacy"])
@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_apsp_matches_centralized_hop_truth(case, engine):
    family, seed = case
    graph = unit_weights(GRAPH_FAMILIES[family](seed))
    truth = {
        v: {w: float(d) for w, d in row.items()}
        for v, row in exact_hop_apsp(graph).items()
    }

    sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=seed)
    with exchange_via(engine):
        table = UnweightedApproxAPSP(sim, epsilon=0.5).run()

    stretch = max_stretch_of_table(truth, table.estimates)
    assert stretch <= table.stretch_bound + 1e-6
    assert sim.metrics.capacity_violations == 0


@pytest.mark.parametrize("engine", ["batch", "legacy"])
@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_ksp_matches_centralized_dijkstra(case, engine):
    family, seed = case
    graph = assign_random_weights(GRAPH_FAMILIES[family](seed), max_weight=9, seed=seed)
    rng = random.Random(400 + seed)
    sources = rng.sample(sorted(graph.nodes), 4)
    truth = {s: exact_sssp(graph, s) for s in sources}

    sim = HybridSimulator(graph, ModelConfig.hybrid(), seed=seed)
    with exchange_via(engine):
        result = KSourceShortestPaths(
            sim, sources, epsilon=0.25, sources_in_skeleton=True, seed=seed
        ).run()

    for node in graph.nodes:
        for s in sources:
            true_distance = truth[s].get(node, math.inf)
            estimate = result.estimate(node, s)
            assert estimate >= true_distance - 1e-6
            if true_distance > 0:
                assert estimate <= result.stretch_bound * true_distance + 1e-6


@pytest.mark.parametrize("engine", ["batch", "legacy"])
@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_klsp_matches_centralized_dijkstra(case, engine):
    family, seed = case
    graph = assign_random_weights(GRAPH_FAMILIES[family](seed), max_weight=9, seed=seed)
    rng = random.Random(500 + seed)
    nodes = sorted(graph.nodes)
    sources = rng.sample(nodes, 4)
    targets = rng.sample(nodes, 3)
    truth = {t: exact_sssp(graph, t) for t in targets}

    sim = HybridSimulator(graph, ModelConfig.hybrid(), seed=seed)
    with exchange_via(engine):
        table = KLShortestPaths(sim, sources, targets, epsilon=0.25, seed=seed).run()

    pairs = [(t, s) for t in targets for s in sources]
    stretch = max_stretch_of_table(truth, table.estimates, pairs=pairs)
    assert stretch <= table.stretch_bound + 1e-6


@pytest.mark.parametrize("engine", ["batch", "legacy"])
@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_bcc_round_delivers_every_broadcast(case, engine):
    family, seed = case
    graph = GRAPH_FAMILIES[family](seed)
    broadcasts = {v: ("bcast", v, seed) for v in graph.nodes}

    sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=seed)
    with exchange_via(engine):
        result = BCCSimulator(sim).simulate_round(broadcasts)

    assert result.all_nodes_received_everything()
    assert result.rounds_used > 0
    assert sim.metrics.capacity_violations == 0
