"""Integration tests: full pipelines on every graph family, cross-checked
against centralized references, plus the model marginal cases and the paper's
headline qualitative claims."""

import math
import random

import networkx as nx
import pytest

from repro.analysis.experiments import (
    run_fig2_broadcast_structure,
    run_nq_family_point,
    run_table1_dissemination,
    run_table2_apsp,
    run_table3_klsp,
)
from repro.analysis.theory import TheoryPredictions
from repro.baselines.centralized import exact_apsp, max_stretch_of_table
from repro.baselines.existential import ExistentialBounds
from repro.baselines.naive import LocalFloodingBroadcast
from repro.core.aggregation import KAggregation
from repro.core.dissemination import KDissemination
from repro.core.neighborhood_quality import neighborhood_quality
from repro.core.routing import KLRouting
from repro.core.shortest_paths import SpannerAPSP, UnweightedApproxAPSP
from repro.core.sssp import ApproxSSSP
from repro.graphs.generators import GraphSpec, generate_graph
from repro.graphs.weighted import assign_random_weights
from repro.lowerbounds.universal import dissemination_lower_bound
from repro.simulator.config import ModelConfig
from repro.simulator.messages import GLOBAL_MODE
from repro.simulator.network import HybridSimulator

from oracles import transport


FAMILY_SPECS = [
    GraphSpec.of("path", n=48),
    GraphSpec.of("cycle", n=48),
    GraphSpec.of("grid", side=7, dim=2),
    GraphSpec.of("tree", branching=2, height=5),
    GraphSpec.of("star", n=40),
    GraphSpec.of("erdos_renyi", n=48, p=0.1, seed=11),
    GraphSpec.of("barbell", clique_size=10, path_length=20),
    GraphSpec.of("caterpillar", spine_length=16, legs_per_node=2),
]


class TestDisseminationAcrossFamilies:
    @pytest.mark.parametrize("spec", FAMILY_SPECS, ids=lambda s: s.label())
    def test_dissemination_pipeline(self, spec):
        graph = generate_graph(spec)
        rng = random.Random(5)
        k = 16
        tokens = {}
        nodes = sorted(graph.nodes, key=str)
        for index in range(k):
            tokens.setdefault(rng.choice(nodes), []).append(("tok", index))
        sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=5)
        result = KDissemination(sim, tokens).run()
        assert result.all_nodes_know_all_tokens()
        assert sim.metrics.capacity_violations == 0
        # Consistency with the universal lower bound of Theorem 4.
        lower = dissemination_lower_bound(graph, k)
        assert lower.is_consistent_with_upper_bound(sim.metrics.total_rounds)


class TestShortestPathPipelines:
    @pytest.mark.parametrize(
        "spec",
        [
            GraphSpec.of("path", n=36),
            GraphSpec.of("grid", side=6, dim=2),
            GraphSpec.of("erdos_renyi", n=36, p=0.12, seed=3),
        ],
        ids=lambda s: s.label(),
    )
    def test_weighted_apsp_via_spanner_matches_bound(self, spec):
        graph = assign_random_weights(generate_graph(spec), max_weight=11, seed=3)
        sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=3)
        table = SpannerAPSP(sim, epsilon=0.5).run()
        stretch = max_stretch_of_table(exact_apsp(graph), table.estimates)
        assert stretch <= table.stretch_bound + 1e-6

    def test_sssp_then_apsp_consistency(self):
        # The SSSP estimates used inside the APSP pipeline must themselves be
        # consistent with the final APSP table (no pipeline stage may
        # underestimate).
        graph = assign_random_weights(generate_graph(GraphSpec.of("grid", side=5, dim=2)),
                                      max_weight=7, seed=4)
        sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=4)
        sssp = ApproxSSSP(sim, 0, epsilon=0.25).run()
        truth = nx.single_source_dijkstra_path_length(graph, 0, weight="weight")
        for node, d in truth.items():
            assert sssp.distances[node] >= d - 1e-9


class TestMarginalModels:
    def test_local_model_flooding_matches_diameter(self):
        graph = generate_graph(GraphSpec.of("grid", side=6, dim=2))
        sim = HybridSimulator(graph, ModelConfig.local(), seed=0)
        outcome = LocalFloodingBroadcast(sim, {0: ["x"]}).run()
        assert outcome.all_nodes_know_all_tokens()
        from repro.graphs.properties import eccentricity

        assert sim.metrics.measured_rounds == eccentricity(graph, 0)

    def test_congested_clique_can_do_all_to_all_in_one_round(self):
        graph = generate_graph(GraphSpec.of("complete", n=12))
        sim = HybridSimulator(graph, ModelConfig.congested_clique(12), seed=0)
        for u in sim.nodes:
            for v in sim.nodes:
                if u != v:
                    transport.send(sim, u, v, 1)
        sim.advance_round()
        assert sim.metrics.capacity_violations == 0

    def test_hybrid0_preprocessing_enables_arbitrary_global_sends(self):
        # Corollary of Theorem 1: after broadcasting all identifiers, HYBRID_0
        # behaves like HYBRID.  We emulate the preprocessing by disseminating
        # every identifier as a token and declaring them learned.
        graph = generate_graph(GraphSpec.of("path", n=24))
        sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=0)
        ids = sim.all_ids()
        tokens = {sim.nodes[0]: [("id", identifier) for identifier in ids]}
        result = KDissemination(sim, tokens).run()
        assert result.all_nodes_know_all_tokens()
        for node in sim.nodes:
            sim.declare_learned_ids(node, ids)
        # Now any node can message any other directly.
        last = sim.nodes[-1]
        transport.send(sim, sim.nodes[0], sim.id_of(last), "post-preprocessing", by_id=True)
        sim.advance_round()
        assert transport.inbox(sim, last, GLOBAL_MODE)[0].payload == "post-preprocessing"


class TestPaperQualitativeClaims:
    """The 'shape' claims of the paper's tables, checked end to end."""

    def test_universal_beats_existential_on_low_nq_graphs(self):
        # On a star-like graph NQ_k is O(1); the universal algorithm's rounds
        # should therefore beat the sqrt(k)-scaled existential bound as k grows,
        # once both include their polylog factors.
        spec = GraphSpec.of("star", n=80)
        graph = generate_graph(spec)
        k = 64
        row = run_table1_dissemination(spec, k, seed=0)
        assert row["NQ_k"] <= 2
        assert row["rounds (Thm 1, total)"] <= 4 * row["prior incl. polylog"]

    def test_nq_ordering_star_grid_path(self):
        # NQ_k(star) <= NQ_k(grid) <= NQ_k(path) for the same k: the parameter
        # orders the families by how much locality helps (Section 3.3).
        k = 36
        nq_star = neighborhood_quality(generate_graph(GraphSpec.of("star", n=64)), k)
        nq_grid = neighborhood_quality(generate_graph(GraphSpec.of("grid", side=8, dim=2)), k)
        nq_path = neighborhood_quality(generate_graph(GraphSpec.of("path", n=64)), k)
        assert nq_star <= nq_grid <= nq_path

    def test_rounds_track_nq_across_families(self):
        # Theorem 1's round count should follow the NQ_k ordering, not the size
        # of the graph: path >= grid >= star for equal n and k.
        k = 24
        rows = {
            family: run_table1_dissemination(spec, k, seed=2)
            for family, spec in {
                "star": GraphSpec.of("star", n=64),
                "grid": GraphSpec.of("grid", side=8, dim=2),
                "path": GraphSpec.of("path", n=64),
            }.items()
        }
        assert rows["star"]["rounds (Thm 1, total)"] <= rows["grid"]["rounds (Thm 1, total)"]
        assert rows["grid"]["rounds (Thm 1, total)"] <= rows["path"]["rounds (Thm 1, total)"]

    def test_theorem15_and_16_shapes(self):
        path_row = run_nq_family_point(GraphSpec.of("path", n=100), 64)
        grid_row = run_nq_family_point(GraphSpec.of("grid", side=10, dim=2), 64)
        assert TheoryPredictions.ratio_is_within_polylog(
            path_row["NQ_k measured"], path_row["NQ_k predicted"], 100, slack=4.0, polylog_power=1
        )
        assert TheoryPredictions.ratio_is_within_polylog(
            grid_row["NQ_k measured"], grid_row["NQ_k predicted"], 100, slack=4.0, polylog_power=1
        )
        # The grid's NQ is smaller than the path's for the same k (k^{1/3} vs sqrt k).
        assert grid_row["NQ_k measured"] <= path_row["NQ_k measured"]

    def test_fig2_cluster_structure_bounds(self):
        row = run_fig2_broadcast_structure(GraphSpec.of("grid", side=8, dim=2), 64)
        assert row["max weak diameter"] <= row["weak diameter bound"]
        assert row["min size"] >= math.floor(row["k"] / row["NQ_k"])
        assert row["max size"] <= math.ceil(2 * row["k"] / row["NQ_k"])

    def test_apsp_stretch_bounds_across_theorems(self):
        rows = run_table2_apsp(GraphSpec.of("grid", side=5, dim=2), seed=1)
        assert len(rows) == 3
        for row in rows:
            assert row["stretch measured"] <= row["stretch bound"] + 1e-6

    def test_klsp_consistent_with_lower_bound(self):
        row = run_table3_klsp(GraphSpec.of("grid", side=6, dim=2), 6, 3, seed=1)
        assert row["rounds (Thm 5, total)"] >= row["universal LB (Thm 11)"]
