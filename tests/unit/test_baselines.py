"""Unit tests for the baselines: centralized references, analytic existential
bounds, and the simulatable naive algorithms."""

import math
import random

import pytest

from repro.baselines.centralized import (
    exact_apsp,
    exact_hop_apsp,
    exact_sssp,
    max_stretch_of_table,
    measure_stretch,
)
from repro.baselines.existential import ExistentialBounds
from repro.baselines.naive import (
    LocalFloodingBroadcast,
    NaiveGlobalBroadcast,
    SqrtNSkeletonAPSP,
)
from repro.graphs.generators import grid_graph, path_graph, star_graph
from repro.graphs.properties import diameter
from repro.graphs.weighted import assign_random_weights, unit_weights
from repro.simulator.config import ModelConfig
from repro.simulator.network import HybridSimulator

from oracles.engines import exchange_via


class TestCentralizedReferences:
    def test_exact_sssp_matches_hops_on_unweighted(self):
        g = path_graph(10)
        dist = exact_sssp(g, 0)
        assert dist[9] == 9

    def test_exact_apsp_symmetry(self):
        g = assign_random_weights(grid_graph(4, 2), max_weight=5, seed=0)
        apsp = exact_apsp(g)
        assert apsp[0][15] == apsp[15][0]

    def test_hop_apsp(self):
        g = star_graph(6)
        hops = exact_hop_apsp(g)
        assert hops[1][2] == 2

    def test_measure_stretch(self):
        assert measure_stretch(4.0, 6.0) == pytest.approx(1.5)
        assert measure_stretch(0.0, 0.0) == 1.0
        assert measure_stretch(0.0, 1.0) == math.inf
        assert measure_stretch(2.0, None) == math.inf

    def test_max_stretch_of_table(self):
        truth = {0: {1: 2.0, 2: 4.0}}
        estimates = {0: {1: 3.0, 2: 4.0}}
        assert max_stretch_of_table(truth, estimates) == pytest.approx(1.5)

    def test_max_stretch_rejects_underestimates(self):
        truth = {0: {1: 2.0}}
        estimates = {0: {1: 1.0}}
        with pytest.raises(AssertionError):
            max_stretch_of_table(truth, estimates)


class TestExistentialBounds:
    def test_broadcast_bound(self):
        assert ExistentialBounds.broadcast_ahk20(100, 64) == pytest.approx(9.0)

    def test_unicast_bound(self):
        assert ExistentialBounds.unicast_ks20(100, 25, 4) == pytest.approx(6.0)

    def test_apsp_bound(self):
        assert ExistentialBounds.apsp_sqrt_n(400) == pytest.approx(20.0)

    def test_ksp_bounds_monotone_in_k(self):
        assert ExistentialBounds.ksp_this_work(16) < ExistentialBounds.ksp_this_work(64)
        assert ExistentialBounds.ksp_chlp21(1000, 4) > ExistentialBounds.ksp_this_work(4)

    def test_sssp_bounds_ordering(self):
        # For large n the new polylog bound beats every prior polynomial bound.
        n = 10**8
        new = ExistentialBounds.sssp_this_work(n, 0.5)
        assert new < ExistentialBounds.sssp_chlp21(n)
        assert new < ExistentialBounds.sssp_ag21(n)

    def test_universal_bound_sandwich(self):
        nq, n = 10, 1000
        assert ExistentialBounds.universal_lower_bound(nq, n) <= nq
        assert ExistentialBounds.universal_upper_bound(nq, n) >= nq


class TestLocalFloodingBroadcast:
    def test_all_tokens_delivered(self):
        g = grid_graph(5, 2)
        sim = HybridSimulator(g, ModelConfig.local(), seed=0)
        outcome = LocalFloodingBroadcast(sim, {0: ["a", "b"], 24: ["c"]}).run()
        assert outcome.all_nodes_know_all_tokens()

    def test_round_count_close_to_eccentricity(self):
        g = path_graph(30)
        sim = HybridSimulator(g, ModelConfig.local(), seed=0)
        outcome = LocalFloodingBroadcast(sim, {0: ["x"]}).run()
        assert outcome.all_nodes_know_all_tokens()
        assert sim.metrics.measured_rounds == diameter(g)

    def test_empty_tokens(self):
        g = path_graph(5)
        sim = HybridSimulator(g, ModelConfig.local(), seed=0)
        outcome = LocalFloodingBroadcast(sim, {}).run()
        assert outcome.tokens == set()


class TestNaiveGlobalBroadcast:
    def test_all_tokens_delivered(self):
        g = path_graph(20)
        sim = HybridSimulator(g, ModelConfig.hybrid(), seed=0)
        tokens = {0: [("t", i) for i in range(5)]}
        outcome = NaiveGlobalBroadcast(sim, tokens).run()
        assert outcome.all_nodes_know_all_tokens()
        assert sim.metrics.capacity_violations == 0

    def test_rounds_grow_linearly_in_k(self):
        g = path_graph(20)
        costs = []
        for k in (4, 16):
            sim = HybridSimulator(g, ModelConfig.hybrid(), seed=0)
            NaiveGlobalBroadcast(sim, {0: [("t", i) for i in range(k)]}).run()
            costs.append(sim.metrics.measured_rounds)
        assert costs[1] >= 2 * costs[0]

    def test_batch_and_legacy_engines_agree_exactly(self):
        g = grid_graph(4, 2)
        tokens = {0: [("t", i) for i in range(6)], 9: [("u", i) for i in range(3)]}

        def run(engine):
            sim = HybridSimulator(g, ModelConfig.hybrid(), seed=0)
            with exchange_via(engine):
                return NaiveGlobalBroadcast(sim, tokens).run()

        batch, legacy = run("batch"), run("legacy")
        assert batch.known_tokens == legacy.known_tokens
        assert batch.metrics.summary() == legacy.metrics.summary()
        assert batch.all_nodes_know_all_tokens()


class TestSqrtNSkeletonAPSP:
    def test_exact_on_small_weighted_grid(self):
        g = assign_random_weights(grid_graph(4, 2), max_weight=4, seed=1)
        sim = HybridSimulator(g, ModelConfig.hybrid(), seed=1)
        table = SqrtNSkeletonAPSP(sim, seed=1).run()
        truth = exact_apsp(g)
        stretch = max_stretch_of_table(truth, table.estimates)
        assert stretch == pytest.approx(1.0)

    def test_charges_sqrt_n_order_rounds(self):
        g = path_graph(36)
        sim = HybridSimulator(g, ModelConfig.hybrid(), seed=2)
        SqrtNSkeletonAPSP(sim, seed=2).run()
        assert sim.metrics.charged_rounds >= math.sqrt(36)
