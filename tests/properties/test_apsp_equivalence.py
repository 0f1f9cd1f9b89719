"""Equivalence harness for the batch-native shortest-paths pipeline (PR 3).

Three layers of cross-validation over six graph families x three seeds:

* **engine equivalence** — every algorithm of the shortest-paths stack
  (UnweightedApproxAPSP, SpannerAPSP, SkeletonAPSP, KSourceShortestPaths,
  KLShortestPaths, the BCC bridge) produces *identical* results and identical
  metrics summaries on the plane path and on the legacy oracle engine
  (``oracles.engines.exchange_via("legacy")``);
* **dense-vs-reference equivalence** — the :class:`DenseDistanceTable`
  assembled from GraphIndex flat-array sweeps equals, entry for entry, the
  dict-BFS formulation of Algorithm 3 that the seed implementation used;
* **primitive equivalence** — the index-backed graph primitives
  (``weak_diameter``, ``h_hop_limited_distances``, ``all_hop_distances``)
  equal their ``_reference_*`` ground-truth counterparts exactly.
"""

import math
import random
from array import array

import pytest

from repro.core.bcc import BCCBroadcast, BCCSimulator
from repro.core.clustering import nq_clustering
from repro.core.ksp import KSourceShortestPaths
from repro.core.neighborhood_quality import neighborhood_quality
from repro.core.shortest_paths import (
    DenseDistanceTable,
    KLShortestPaths,
    SkeletonAPSP,
    SpannerAPSP,
    UnweightedApproxAPSP,
)
from repro.core.sssp import approx_sssp_distances
from repro.graphs.generators import (
    barbell_graph,
    broom_graph,
    cycle_graph,
    erdos_renyi_graph,
    grid_graph,
    path_graph,
)
from repro.graphs.properties import (
    all_hop_distances,
    h_hop_limited_distances,
    hop_distances_from,
    weak_diameter,
)
from repro.graphs.weighted import assign_random_weights, unit_weights
from repro.simulator.config import ModelConfig
from repro.simulator.network import HybridSimulator

from oracles.engines import exchange_via
from oracles.hops import _reference_all_hop_distances, _reference_weak_diameter
from oracles.weighted import _reference_h_hop_limited_distances

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


def _ids(case):
    family, seed = case
    return f"{family}-s{seed}"


# ----------------------------------------------------------------------
# Unweighted APSP: batch == legacy == the dict-BFS reference pipeline
# ----------------------------------------------------------------------
def _reference_algorithm3_estimates(graph, sim, algorithm):
    """Algorithm 3 computed the pre-index way: one dict BFS per node, one
    weight-rounded Dijkstra per cluster leader — the seed formulation."""
    leaders = algorithm.clustering.leaders()
    epsilon = algorithm.epsilon
    x = algorithm.x
    hop_tables = {v: hop_distances_from(graph, v) for v in sim.nodes}
    leader_estimates = {
        leader: approx_sssp_distances(graph, leader, epsilon) for leader in leaders
    }
    closest_leader = {}
    for v in sim.nodes:
        hops = hop_tables[v]
        best = min(leaders, key=lambda r: (hops.get(r, math.inf), str(r)))
        closest_leader[v] = (best, hops.get(best, math.inf))
    estimates = {}
    for v in sim.nodes:
        hops_v = hop_tables[v]
        row = {}
        for w in sim.nodes:
            direct = hops_v.get(w, math.inf)
            if direct <= x:
                row[w] = float(direct)
            else:
                c_w, d_w_cw = closest_leader[w]
                row[w] = leader_estimates[c_w].get(v, math.inf) + d_w_cw
        estimates[v] = row
    return estimates


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_apsp_engines_and_reference_pipeline_agree(case):
    family, seed = case
    graph = unit_weights(GRAPH_FAMILIES[family](seed))

    def run(engine):
        sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=seed)
        algorithm = UnweightedApproxAPSP(sim, epsilon=0.5)
        with exchange_via(engine):
            return algorithm, algorithm.run(), sim

    batch_algo, batch, batch_sim = run("batch")
    _, legacy, _ = run("legacy")

    assert isinstance(batch, DenseDistanceTable)
    assert batch.metrics.summary() == legacy.metrics.summary()
    assert batch.estimates == legacy.estimates
    assert batch_sim.metrics.capacity_violations == 0

    expected = _reference_algorithm3_estimates(graph, batch_sim, batch_algo)
    assert batch.estimates == expected


def test_apsp_leader_fallback_branch_matches_reference():
    """Force ``x`` below the diameter so far pairs take the closest-leader
    estimate branch of the dense row assembly.

    On every small instance (and on the benchmark graphs) ``x = ceil(4 NQ_n
    log n / eps)`` exceeds the diameter, so the direct-hop branch answers all
    pairs and the fallback arm would otherwise go untested until n is large
    enough for ``x < D``."""

    class SmallXAPSP(UnweightedApproxAPSP):
        def _phase_local_exploration(self):
            super()._phase_local_exploration()
            self.x = 3

    for graph in (
        unit_weights(path_graph(30)),  # dense hop-row arm
        assign_random_weights(path_graph(30), max_weight=5, seed=2),  # Dijkstra arm
    ):
        sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=2)
        algorithm = SmallXAPSP(sim, epsilon=0.5)
        table = algorithm.run()
        assert algorithm.x == 3 < 29  # far pairs exist: the fallback fires
        expected = _reference_algorithm3_estimates(graph, sim, algorithm)
        assert table.estimates == expected


def test_apsp_weighted_fallback_matches_reference():
    """On a (non-unit) weighted graph the leader estimates fall back to the
    weight-rounded Dijkstra; the dense rows must still equal the reference."""
    graph = assign_random_weights(grid_graph(5, 2), max_weight=7, seed=3)
    sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=3)
    algorithm = UnweightedApproxAPSP(sim, epsilon=0.5)
    table = algorithm.run()
    expected = _reference_algorithm3_estimates(graph, sim, algorithm)
    assert table.estimates == expected


def test_dense_table_api_is_consistent():
    graph = unit_weights(grid_graph(4, 2))
    sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=0)
    table = UnweightedApproxAPSP(sim, epsilon=0.5).run()
    assert set(table.targets()) == set(graph.nodes)
    assert set(table.columns()) == set(graph.nodes)
    for target in table.targets():
        row = table.row(target)
        assert len(row) == len(table.columns())
        for source, value in zip(table.columns(), row):
            assert table.estimate(target, source) == value
            assert table.estimates[target][source] == value
    # weak_diameter contract: wrong-node queries raise instead of silently
    # answering inf; inf is reserved for computed-but-unreachable pairs.
    with pytest.raises(KeyError):
        table.estimate("missing", 0)
    with pytest.raises(KeyError):
        table.estimate(0, "missing")
    with pytest.raises(KeyError):
        table.row("missing")


def test_dense_table_caches_rows_as_c_doubles_without_copying_arrays():
    """A factory row that already is an ``array('d')`` is cached as it is;
    any other row is packed into one, with the same values."""
    made = {"packed": array("d", [0.0, 1.5]), "listed": [2.5, math.inf]}
    table = DenseDistanceTable(
        row_nodes=list(made),
        columns=["a", "b"],
        row_factory=made.__getitem__,
        stretch_bound=1.0,
        metrics=None,
    )
    assert table.row("packed") is made["packed"]
    listed = table.row("listed")
    assert isinstance(listed, array) and listed.typecode == "d"
    assert list(listed) == made["listed"]
    assert table.row("listed") is listed


def test_hinted_apsp_is_exact_on_a_path_on_every_engine():
    """UnweightedApproxAPSP on precomputed NQ_n and clustering hints: on a
    path every estimate is the exact distance, and the plane path and the
    legacy oracle agree on the metrics and on every estimate."""
    n = 64
    graph = path_graph(n)
    warmup = HybridSimulator(graph, ModelConfig.hybrid0(), seed=3)
    nq = max(1, neighborhood_quality(graph, n))
    clustering = nq_clustering(graph, n, nq=nq, id_of=warmup.id_of)

    def run(engine):
        sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=3)
        algorithm = UnweightedApproxAPSP(sim, epsilon=0.5, nq=nq, clustering=clustering)
        with exchange_via(engine):
            return algorithm.run(), sim

    batch, batch_sim = run("batch")
    legacy, legacy_sim = run("legacy")
    assert batch_sim.metrics.summary() == legacy_sim.metrics.summary()
    assert batch_sim.metrics.capacity_violations == 0
    for u in range(n):
        for v in range(n):
            assert batch.estimate(u, v) == legacy.estimate(u, v) == float(abs(u - v))


# ----------------------------------------------------------------------
# k-SP / (k, l)-SP / weighted APSP: batch == legacy exactly
# ----------------------------------------------------------------------
@pytest.mark.parametrize("in_skeleton", [True, False], ids=["skel", "arb"])
@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_ksp_engines_agree_exactly(case, in_skeleton):
    family, seed = case
    graph = assign_random_weights(GRAPH_FAMILIES[family](seed), max_weight=9, seed=seed)
    rng = random.Random(400 + seed)
    sources = rng.sample(sorted(graph.nodes), 4)

    def run(engine):
        sim = HybridSimulator(graph, ModelConfig.hybrid(), seed=seed)
        with exchange_via(engine):
            result = KSourceShortestPaths(
                sim,
                sources,
                epsilon=0.25,
                sources_in_skeleton=in_skeleton,
                seed=seed,
            ).run()
        return result, sim

    batch, batch_sim = run("batch")
    legacy, legacy_sim = run("legacy")
    assert batch.distances == legacy.distances
    assert batch.proxy_of == legacy.proxy_of
    assert batch_sim.metrics.summary() == legacy_sim.metrics.summary()


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_klsp_engines_agree_exactly(case):
    family, seed = case
    graph = assign_random_weights(GRAPH_FAMILIES[family](seed), max_weight=9, seed=seed)
    rng = random.Random(500 + seed)
    nodes = sorted(graph.nodes)
    sources = rng.sample(nodes, 4)
    targets = rng.sample(nodes, 3)

    def run(engine):
        sim = HybridSimulator(graph, ModelConfig.hybrid(), seed=seed)
        with exchange_via(engine):
            table = KLShortestPaths(
                sim, sources, targets, epsilon=0.25, seed=seed
            ).run()
        return table, sim

    batch, batch_sim = run("batch")
    legacy, legacy_sim = run("legacy")
    assert batch.estimates == legacy.estimates
    assert batch_sim.metrics.summary() == legacy_sim.metrics.summary()


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_weighted_apsp_engines_agree_exactly(case):
    family, seed = case
    graph = assign_random_weights(GRAPH_FAMILIES[family](seed), max_weight=9, seed=seed)

    for algorithm_factory in (
        lambda sim: SpannerAPSP(sim, epsilon=0.5),
        lambda sim: SkeletonAPSP(sim, alpha=1, seed=seed),
    ):
        def run(engine):
            sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=seed)
            with exchange_via(engine):
                return algorithm_factory(sim).run(), sim

        batch, batch_sim = run("batch")
        legacy, legacy_sim = run("legacy")
        assert batch.estimates == legacy.estimates
        assert batch_sim.metrics.summary() == legacy_sim.metrics.summary()


# ----------------------------------------------------------------------
# BCC bridge: batch == legacy == the broadcast vector itself
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_bcc_engines_agree_and_deliver_everything(case):
    family, seed = case
    graph = GRAPH_FAMILIES[family](seed)
    schedule = [
        {v: ("round0", v) for v in graph.nodes},
        {v: ("round1", str(v)) for v in graph.nodes},
    ]

    def run(engine):
        sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=seed)
        with exchange_via(engine):
            return BCCBroadcast(sim, schedule).run(), sim

    batch, batch_sim = run("batch")
    legacy, legacy_sim = run("legacy")
    assert batch.all_rounds_complete()
    assert batch_sim.metrics.summary() == legacy_sim.metrics.summary()
    for batch_round, legacy_round, broadcasts in zip(
        batch.rounds, legacy.rounds, schedule
    ):
        assert batch_round.received == legacy_round.received
        for view in batch_round.received.values():
            assert view == broadcasts


def test_bcc_simulator_engines_agree():
    graph = grid_graph(5, 2)
    broadcasts = {v: v * 3 for v in graph.nodes}

    def run(engine):
        sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=1)
        with exchange_via(engine):
            return BCCSimulator(sim).simulate_round(broadcasts), sim

    batch, batch_sim = run("batch")
    legacy, legacy_sim = run("legacy")
    assert batch.received == legacy.received
    assert batch.rounds_used == legacy.rounds_used
    assert batch_sim.metrics.summary() == legacy_sim.metrics.summary()


# ----------------------------------------------------------------------
# Index-backed primitives == their _reference_* ground truth
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_weak_diameter_fast_equals_reference(case):
    family, seed = case
    graph = GRAPH_FAMILIES[family](seed)
    rng = random.Random(600 + seed)
    nodes = sorted(graph.nodes)
    member_sets = [
        nodes,  # the whole graph (weak diameter == diameter)
        rng.sample(nodes, 2),
        rng.sample(nodes, max(3, len(nodes) // 4)),
        rng.sample(nodes, max(4, len(nodes) // 2)),
    ]
    for members in member_sets:
        assert weak_diameter(graph, members) == _reference_weak_diameter(
            graph, members
        ), f"{family} seed {seed}: weak diameter diverged on {members!r}"


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_h_hop_limited_distances_fast_equals_reference(case):
    family, seed = case
    graph = assign_random_weights(GRAPH_FAMILIES[family](seed), max_weight=9, seed=seed)
    rng = random.Random(700 + seed)
    sources = rng.sample(sorted(graph.nodes), 4)
    for source in sources:
        for h in (0, 1, 3, 8):
            assert h_hop_limited_distances(graph, source, h) == (
                _reference_h_hop_limited_distances(graph, source, h)
            )


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_all_hop_distances_fast_equals_reference(case):
    family, seed = case
    graph = GRAPH_FAMILIES[family](seed)
    assert all_hop_distances(graph) == _reference_all_hop_distances(graph)
