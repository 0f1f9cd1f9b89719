"""Unit tests for the structural graph primitives (Section 1.2 notation)."""

import math

import networkx as nx
import pytest

from repro.graphs.generators import cycle_graph, grid_graph, path_graph, star_graph
from repro.graphs.weighted import assign_random_weights, unit_weights
from repro.graphs.properties import (
    ball,
    ball_size,
    ball_sizes_all_radii,
    diameter,
    eccentricity,
    edge_weight,
    h_hop_limited_distances,
    hop_distance,
    hop_distances_from,
    is_connected,
    power_graph,
    strong_diameter,
    total_edge_weight,
    validate_paper_graph,
    weak_diameter,
    weighted_distances_from,
)

from oracles.hops import _reference_diameter
from oracles.weighted import _reference_h_hop_limited_distances


class TestHopDistances:
    def test_bfs_distances_on_path(self):
        g = path_graph(10)
        dist = hop_distances_from(g, 0)
        assert dist[0] == 0
        assert dist[9] == 9

    def test_hop_distance_symmetric(self):
        g = grid_graph(4, 2)
        assert hop_distance(g, 0, 15) == hop_distance(g, 15, 0)

    def test_hop_distance_same_node(self):
        g = path_graph(5)
        assert hop_distance(g, 2, 2) == 0

    def test_hop_distance_disconnected(self):
        g = nx.Graph()
        g.add_nodes_from([0, 1])
        assert hop_distance(g, 0, 1) == math.inf

    def test_unknown_source_raises(self):
        with pytest.raises(KeyError):
            hop_distances_from(path_graph(3), 99)

    def test_hop_distance_unknown_source_raises(self):
        with pytest.raises(KeyError):
            hop_distance(path_graph(3), 99, 0)

    def test_hop_distance_terminates_early(self):
        # The BFS must stop as soon as the target is found: with the target
        # adjacent to the source, only the source's neighborhood may be
        # explored, no matter how large the rest of the component is.
        g = path_graph(10_000)
        explored = []
        original_neighbors = g.neighbors

        def counting_neighbors(node):
            explored.append(node)
            return original_neighbors(node)

        g.neighbors = counting_neighbors
        try:
            assert hop_distance(g, 5000, 5001) == 1
        finally:
            del g.neighbors
        assert len(explored) <= 1

    def test_hop_distance_values_unchanged(self):
        g = grid_graph(5, 2)
        for u in (0, 7, 24):
            full = hop_distances_from(g, u)
            for v in (0, 3, 12, 24):
                assert hop_distance(g, u, v) == full.get(v, math.inf)


class TestBalls:
    def test_ball_radius_zero(self):
        g = path_graph(10)
        assert ball(g, 5, 0) == {5}

    def test_ball_radius_one_on_path_interior(self):
        g = path_graph(10)
        assert ball(g, 5, 1) == {4, 5, 6}

    def test_ball_covers_graph_at_diameter(self):
        g = grid_graph(3, 2)
        assert ball(g, 0, diameter(g)) == set(g.nodes)

    def test_ball_size_monotone_in_radius(self):
        g = grid_graph(4, 2)
        sizes = [ball_size(g, 0, r) for r in range(7)]
        assert sizes == sorted(sizes)

    def test_ball_sizes_all_radii_matches_ball_size(self):
        g = grid_graph(4, 2)
        sizes = ball_sizes_all_radii(g, 0)
        for radius, size in enumerate(sizes):
            assert size == ball_size(g, 0, radius)

    def test_ball_negative_radius_raises(self):
        with pytest.raises(ValueError):
            ball(path_graph(3), 0, -1)


class TestDiameters:
    def test_path_diameter(self):
        assert diameter(path_graph(7)) == 6

    def test_star_diameter(self):
        assert diameter(star_graph(8)) == 2

    def test_eccentricity_of_path_end_and_middle(self):
        g = path_graph(9)
        assert eccentricity(g, 0) == 8
        assert eccentricity(g, 4) == 4

    def test_diameter_of_disconnected_raises(self):
        g = nx.Graph()
        g.add_nodes_from([0, 1, 2])
        g.add_edge(0, 1)
        with pytest.raises(ValueError):
            diameter(g)

    def test_weak_diameter_uses_whole_graph(self):
        # Two far ends of a cycle have weak diameter n/2 even though the induced
        # subgraph on them alone is disconnected.
        g = cycle_graph(10)
        assert weak_diameter(g, {0, 5}) == 5
        assert strong_diameter(g, {0, 5}) == math.inf

    def test_strong_diameter_of_connected_subset(self):
        g = path_graph(10)
        assert strong_diameter(g, {3, 4, 5}) == 2

    def test_weak_diameter_empty_and_singleton(self):
        g = path_graph(4)
        assert weak_diameter(g, []) == 0
        assert weak_diameter(g, [2]) == 0
        # Duplicated members are one member.
        assert weak_diameter(g, [2, 2, 2]) == 0

    def test_weak_diameter_disconnected_members_is_inf(self):
        g = nx.Graph()
        g.add_edges_from([(0, 1), (2, 3)])
        assert weak_diameter(g, [0, 2]) == math.inf
        assert weak_diameter(g, [2, 0]) == math.inf
        # Members within one component stay finite.
        assert weak_diameter(g, [0, 1]) == 1

    def test_weak_diameter_missing_member_raises_regardless_of_order(self):
        # The reference implementation surfaced a member that is not a graph
        # node as `inf` or `KeyError` depending on its position in the
        # iteration order; the GraphIndex path always raises.
        g = path_graph(4)
        with pytest.raises(KeyError):
            weak_diameter(g, [99, 0])
        with pytest.raises(KeyError):
            weak_diameter(g, [0, 99])

    def test_weak_diameter_of_all_nodes_is_the_diameter(self):
        for g in (path_graph(9), cycle_graph(12), grid_graph(4, 2), star_graph(7)):
            assert weak_diameter(g, g.nodes) == diameter(g)

    def test_weak_diameter_inf_where_diameter_raises(self):
        # The documented contract split on disconnected graphs: weak_diameter
        # over all nodes reports `inf`, diameter raises ValueError — and the
        # GraphIndex path raises exactly the reference's error.
        g = nx.Graph()
        g.add_nodes_from(range(4))
        g.add_edges_from([(0, 1), (2, 3)])
        assert weak_diameter(g, g.nodes) == math.inf
        with pytest.raises(ValueError, match="disconnected"):
            diameter(g)
        with pytest.raises(ValueError, match="disconnected"):
            _reference_diameter(g)

    @pytest.mark.parametrize("rows,cols", [(60, 60), (45, 45), (30, 90)])
    def test_diameter_matches_reference_on_large_grids(self, rows, cols):
        # Many nodes lie halfway along the double sweep's a-b path here (a
        # whole anti-diagonal on the square grids), so iFUB's midpoint is a
        # choice; the answer must not depend on it.  networkx's bounding
        # diameter is exact and fast here, where the index-free reference
        # runs one dict BFS per node (about 30 s for these three grids).
        graph = nx.grid_2d_graph(rows, cols)
        assert diameter(graph) == nx.diameter(graph, usebounds=True) == rows + cols - 2

    def test_diameter_matches_index_free_reference_on_a_square_grid(self):
        # A whole anti-diagonal of midpoint candidates, small enough for the
        # per-node BFS reference.
        graph = nx.grid_2d_graph(20, 20)
        assert diameter(graph) == _reference_diameter(graph) == 38

    def test_index_diameter_error_matches_reference_error(self):
        g = nx.Graph()
        g.add_nodes_from([0, 1, 2])
        g.add_edge(0, 1)
        with pytest.raises(ValueError) as fast_error:
            diameter(g)
        with pytest.raises(ValueError) as reference_error:
            _reference_diameter(g)
        assert str(fast_error.value) == str(reference_error.value)
        empty = nx.Graph()
        with pytest.raises(ValueError) as fast_empty:
            diameter(empty)
        with pytest.raises(ValueError) as reference_empty:
            _reference_diameter(empty)
        assert str(fast_empty.value) == str(reference_empty.value)


class TestWeightedDistances:
    def test_unit_weight_default(self):
        g = path_graph(4)
        assert edge_weight(g, 0, 1) == 1
        assert total_edge_weight(g) == 3

    def test_weighted_distances(self):
        g = path_graph(4)
        g[0][1]["weight"] = 5
        g[1][2]["weight"] = 2
        dist = weighted_distances_from(g, 0)
        assert dist[2] == 7

    def test_h_hop_limited_distances_respects_hop_budget(self):
        # A direct heavy edge vs. a light 3-hop detour: with h = 1 only the
        # heavy edge is available.
        g = nx.Graph()
        g.add_edge(0, 3, weight=10)
        g.add_edge(0, 1, weight=1)
        g.add_edge(1, 2, weight=1)
        g.add_edge(2, 3, weight=1)
        assert h_hop_limited_distances(g, 0, 1)[3] == 10
        assert h_hop_limited_distances(g, 0, 3)[3] == 3

    def test_h_hop_limited_distances_unreachable_omitted(self):
        g = path_graph(6)
        limited = h_hop_limited_distances(g, 0, 2)
        assert 5 not in limited
        assert limited[2] == 2

    def test_h_hop_zero(self):
        g = path_graph(3)
        assert h_hop_limited_distances(g, 1, 0) == {1: 0.0}

    def test_h_hop_negative_raises(self):
        with pytest.raises(ValueError):
            h_hop_limited_distances(path_graph(3), 0, -1)

    def test_reweighting_invalidates_cached_index(self):
        # Re-weighting keeps node/edge counts constant, so the GraphIndex
        # count-based staleness check alone would keep serving the weights the
        # index was built with; the weighted helpers must invalidate it.
        g = path_graph(6)
        assert h_hop_limited_distances(g, 0, 5)[5] == 5.0  # caches the index
        assign_random_weights(g, max_weight=9, seed=1)
        reweighted = h_hop_limited_distances(g, 0, 5)
        assert reweighted == _reference_h_hop_limited_distances(g, 0, 5)
        assert reweighted[5] == sum(g[u][v]["weight"] for u, v in g.edges)
        unit_weights(g)
        assert h_hop_limited_distances(g, 0, 5)[5] == 5.0


class TestPowerGraph:
    def test_power_graph_square_of_path(self):
        g = path_graph(5)
        g2 = power_graph(g, 2)
        assert g2.has_edge(0, 2)
        assert not g2.has_edge(0, 3)

    def test_power_graph_at_diameter_is_complete(self):
        g = path_graph(5)
        gd = power_graph(g, 4)
        assert gd.number_of_edges() == 10

    def test_power_graph_invalid(self):
        with pytest.raises(ValueError):
            power_graph(path_graph(3), 0)


class TestValidation:
    def test_connected_check(self):
        assert is_connected(path_graph(5))
        g = nx.Graph()
        g.add_nodes_from([0, 1])
        assert not is_connected(g)
        assert is_connected(nx.Graph())

    def test_validate_accepts_standard_graph(self):
        validate_paper_graph(grid_graph(3, 2))

    def test_validate_rejects_disconnected(self):
        g = nx.Graph()
        g.add_nodes_from([0, 1, 2])
        g.add_edge(0, 1)
        with pytest.raises(ValueError):
            validate_paper_graph(g)

    def test_validate_rejects_nonpositive_weight(self):
        g = path_graph(3)
        g[0][1]["weight"] = 0
        with pytest.raises(ValueError):
            validate_paper_graph(g)

    def test_validate_rejects_superpolynomial_weight(self):
        g = path_graph(3)
        g[0][1]["weight"] = 10**12
        with pytest.raises(ValueError):
            validate_paper_graph(g)

    def test_validate_rejects_empty(self):
        with pytest.raises(ValueError):
            validate_paper_graph(nx.Graph())
