"""Unit tests for the neighborhood-quality parameter NQ_k (Section 3)."""

import math

import pytest

from repro.core.neighborhood_quality import (
    DistributedNQComputation,
    neighborhood_quality,
    neighborhood_quality_of_node,
    neighborhood_quality_per_node,
)
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.graphs.index import GraphIndex
from repro.graphs.properties import diameter
from repro.simulator.config import ModelConfig
from repro.simulator.network import HybridSimulator


class TestDefinition:
    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            neighborhood_quality(path_graph(5), 0)

    def test_single_node_graph(self):
        assert neighborhood_quality(path_graph(1), 5) == 0

    def test_complete_graph_is_one(self):
        # |B_1(v)| = n >= k / 1 for any k <= n.
        assert neighborhood_quality(complete_graph(10), 10) == 1

    def test_star_graph_small_and_large_k(self):
        # A leaf's 1-ball has only 2 nodes, so k = 2 is satisfied at t = 1 but
        # k = 20 needs t = 2 (the whole star).
        assert neighborhood_quality(star_graph(20), 2) == 1
        assert neighborhood_quality(star_graph(20), 20) == 2

    def test_k_one_is_always_one_or_less(self):
        for graph in (path_graph(10), grid_graph(4, 2), cycle_graph(9)):
            assert neighborhood_quality(graph, 1) <= 1

    def test_path_middle_vs_end_node(self):
        # End nodes of a path have the smallest balls, so they maximize NQ_k(v).
        g = path_graph(50)
        per_node = neighborhood_quality_per_node(g, 40)
        assert per_node[0] == max(per_node.values())
        assert per_node[25] <= per_node[0]

    def test_definition_threshold_exact(self):
        # On a path, |B_t(v)| for an interior node is 2t + 1, so NQ_k(v) is the
        # smallest t with 2t + 1 >= k / t, i.e. 2t^2 + t >= k.
        g = path_graph(201)
        v = 100
        for k in (10, 50, 100):
            expected = next(t for t in range(1, 201) if 2 * t * t + t >= k)
            assert neighborhood_quality_of_node(g, k, v) == expected

    def test_capped_by_diameter(self):
        # Tiny diameter, huge k: NQ_k = D.
        g = star_graph(10)
        assert neighborhood_quality(g, 10**6) == diameter(g) == 2

    def test_nq_is_max_over_nodes(self):
        g = path_graph(30)
        per_node = neighborhood_quality_per_node(g, 20)
        assert neighborhood_quality(g, 20) == max(per_node.values())

    def test_monotone_in_k(self):
        g = path_graph(64)
        values = [neighborhood_quality(g, k) for k in (2, 8, 32, 64, 128)]
        assert values == sorted(values)


class TestKnownFamilies:
    """Spot checks of Theorems 15/16 magnitudes (full scaling in property tests)."""

    def test_path_sqrt_scaling(self):
        g = path_graph(200)
        nq = neighborhood_quality(g, 100)
        assert 0.3 * math.sqrt(100) <= nq <= 1.5 * math.sqrt(100)

    def test_cycle_sqrt_scaling(self):
        g = cycle_graph(200)
        nq = neighborhood_quality(g, 100)
        assert 0.3 * math.sqrt(100) <= nq <= 1.5 * math.sqrt(100)

    def test_grid_cube_root_scaling(self):
        g = grid_graph(14, 2)  # 196 nodes
        k = 125
        nq = neighborhood_quality(g, k)
        prediction = k ** (1.0 / 3.0)
        assert 0.3 * prediction <= nq <= 3 * prediction

    @pytest.mark.parametrize("k, expected", [(2, 1), (8, 2), (32, 4)])
    def test_small_k_on_a_cycle_prices_blocks_without_a_union_bfs(
        self, k, expected, monkeypatch
    ):
        # No ball of a cycle certifies another, so the scan prices a block
        # after every 256 growths; a ball of at most 2 * expected + 1 nodes
        # cannot make a 256-source block dense, which its size alone tells.
        unions = []
        ball_union = GraphIndex._ball_union

        def counting(self, *args):
            unions.append(args)
            return ball_union(self, *args)

        monkeypatch.setattr(GraphIndex, "_ball_union", counting)
        # |B_t| = 2t + 1 >= k / t first holds at t = expected.
        assert GraphIndex(cycle_graph(20_000)).nq_value(k) == expected
        assert not unions

    def test_grid_beats_path_for_same_k(self):
        k = 80
        path_nq = neighborhood_quality(path_graph(100), k)
        grid_nq = neighborhood_quality(grid_graph(10, 2), k)
        assert grid_nq < path_nq


class TestLemma36Bounds:
    def test_upper_bound_min_d_sqrt_k(self):
        for graph in (path_graph(60), grid_graph(7, 2), cycle_graph(40)):
            d = diameter(graph)
            for k in (4, 16, 64):
                nq = neighborhood_quality(graph, k)
                assert nq <= min(d, math.ceil(math.sqrt(k))) + 1

    def test_lower_bound_sqrt_dk_over_3n(self):
        for graph in (path_graph(60), grid_graph(7, 2)):
            n = graph.number_of_nodes()
            d = diameter(graph)
            for k in (4, 16, 64):
                nq = neighborhood_quality(graph, k)
                assert nq > math.sqrt(d * k / (3.0 * n)) - 1


class TestDistributedComputation:
    def test_matches_centralized_on_grid(self):
        g = grid_graph(5, 2)
        k = 20
        sim = HybridSimulator(g, ModelConfig.hybrid0(), seed=0)
        result = DistributedNQComputation(sim, k).run()
        assert result.nq == neighborhood_quality(g, k)

    def test_matches_centralized_on_path(self):
        g = path_graph(30)
        k = 15
        sim = HybridSimulator(g, ModelConfig.hybrid0(), seed=0)
        result = DistributedNQComputation(sim, k).run()
        assert result.nq == neighborhood_quality(g, k)

    def test_per_node_values_at_most_global(self):
        g = grid_graph(4, 2)
        sim = HybridSimulator(g, ModelConfig.hybrid0(), seed=0)
        result = DistributedNQComputation(sim, 10).run()
        assert all(value <= result.nq for value in result.per_node.values())

    def test_round_cost_scales_with_nq(self):
        g = path_graph(60)
        k = 40
        sim = HybridSimulator(g, ModelConfig.hybrid0(), seed=0)
        result = DistributedNQComputation(sim, k).run()
        # Lemma 3.3: measured exploration depth equals NQ_k (one local round per
        # depth step).
        assert result.metrics.measured_rounds == result.nq
        assert result.metrics.charged_rounds > 0

    def test_rejects_bad_k(self):
        sim = HybridSimulator(path_graph(4), ModelConfig.hybrid0(), seed=0)
        with pytest.raises(ValueError):
            DistributedNQComputation(sim, 0)
