"""Unit tests for Theorem 1 (k-dissemination) and Theorem 2 (k-aggregation)."""

import math
import operator
import random

import numpy as np
import pytest

from repro.core.aggregation import KAggregation
from repro.core.dissemination import (
    KDissemination,
    build_cluster_tree,
    match_cluster_tree_ids,
)
from repro.core.clustering import nq_clustering
from repro.core.load_balancing import balance_items
from repro.core.neighborhood_quality import neighborhood_quality
from repro.graphs.generators import (
    barbell_graph,
    broom_graph,
    cycle_graph,
    erdos_renyi_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.simulator.config import ModelConfig, log2_ceil
from repro.simulator.engine import BatchAlgorithm
from repro.simulator.messages import payload_words
from repro.simulator.network import HybridSimulator

from oracles.scheduler import iter_triples, rank_matched_triples


def scatter(graph, k, seed=0, concentrated=False):
    rng = random.Random(seed)
    nodes = sorted(graph.nodes, key=str)
    tokens = {}
    if concentrated:
        tokens[nodes[0]] = [("tok", i) for i in range(k)]
        return tokens
    for i in range(k):
        holder = rng.choice(nodes)
        tokens.setdefault(holder, []).append(("tok", i))
    return tokens


def run_dissemination(graph, k, seed=0, concentrated=False, hybrid0=True):
    config = ModelConfig.hybrid0() if hybrid0 else ModelConfig.hybrid()
    sim = HybridSimulator(graph, config, seed=seed)
    tokens = scatter(graph, k, seed=seed, concentrated=concentrated)
    return KDissemination(sim, tokens).run(), sim


class TestClusterTree:
    def test_cluster_tree_spans_all_clusters(self):
        g = grid_graph(6, 2)
        clustering = nq_clustering(g, 24)
        tree = build_cluster_tree(clustering)
        assert sorted(tree.order) == sorted(c.index for c in clustering.clusters)

    def test_cluster_tree_depth_logarithmic(self):
        g = path_graph(100)
        clustering = nq_clustering(g, 50)
        tree = build_cluster_tree(clustering)
        assert tree.depth <= log2_ceil(len(clustering.clusters)) + 1

    def test_rank_matching_teaches_ids_both_ways(self):
        g = grid_graph(5, 2)
        sim = HybridSimulator(g, ModelConfig.hybrid0(), seed=0)
        clustering = nq_clustering(g, 12, id_of=sim.id_of)
        tree = build_cluster_tree(clustering)
        match_cluster_tree_ids(sim, clustering, tree)
        for child_index, parent_index in tree.parent.items():
            if parent_index is None:
                continue
            child = clustering.clusters[child_index]
            parent = clustering.clusters[parent_index]
            child_members = sorted(child.members, key=sim.id_of)
            parent_members = sorted(parent.members, key=sim.id_of)
            # Member i of either cluster meets member i mod |other| of the
            # other, whichever cluster is larger.
            for mine, other in ((child_members, parent_members), (parent_members, child_members)):
                for rank, member in enumerate(mine):
                    counterpart = other[rank % len(other)]
                    assert sim.knows_id(member, sim.id_of(counterpart))
                    assert sim.knows_id(counterpart, sim.id_of(member))

    def test_rank_matched_triples_only_use_matched_pairs(self):
        g = grid_graph(5, 2)
        sim = HybridSimulator(g, ModelConfig.hybrid0(), seed=0)
        clustering = nq_clustering(g, 12, id_of=sim.id_of)
        assert len(clustering.clusters) >= 2
        source, target = clustering.clusters[0], clustering.clusters[1]
        payloads = [("p", i) for i in range(17)]
        source_members = sorted(source.members, key=sim.id_of)
        target_members = sorted(target.members, key=sim.id_of)
        triples = rank_matched_triples(source_members, target_members, payloads)
        assert [payload for _, _, payload in triples] == payloads
        for sender, receiver, _ in triples:
            rank = source_members.index(sender)
            assert receiver == target_members[rank % len(target_members)]


LOAD_BALANCE_FAMILIES = {
    "path": lambda seed: path_graph(30),
    "cycle": lambda seed: cycle_graph(30),
    "grid": lambda seed: grid_graph(6, 2),
    "barbell": lambda seed: barbell_graph(8, 12),
    "broom": lambda seed: broom_graph(18, 10),
    "erdos_renyi": lambda seed: erdos_renyi_graph(30, 0.12, seed=seed),
}


#: Token shapes for the plane tests: variable-length tuples of mixed word
#: sizes; equal-length pairs (one words value); equal-length triples of mixed
#: word sizes.  Equal-length tuples are what ``np.array(..., dtype=object)``
#: would stack into a 2-D array instead of a column of tokens.
TOKEN_KINDS = {
    "mixed": lambda i: ("tok", i) if i % 3 else ("wide", i, "x" * (8 * (i % 5))),
    "pairs": lambda i: ("tok", i),
    "triples": lambda i: ("tok", i, "x" * (8 * (i % 4))),
}


def _recorded_level_planes(monkeypatch, graph, tokens, seed, charge_only=False):
    """Run KDissemination and return it with every ``(edges, plane)`` its
    level builder produced."""
    built = []
    build = KDissemination._build_level_plane

    def recording(self, edges):
        plane = build(self, edges)
        built.append((list(edges), plane))
        return plane

    # A context, not undo(): undo() would also revert the ``arms`` cutoffs.
    with monkeypatch.context() as patch:
        patch.setattr(KDissemination, "_build_level_plane", recording)
        sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=seed)
        algorithm = KDissemination(sim, tokens, charge_only=charge_only)
        result = algorithm.run()
    return algorithm, result, built


@pytest.mark.parametrize("kind", sorted(TOKEN_KINDS))
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("family", sorted(LOAD_BALANCE_FAMILIES))
def test_level_planes_lower_to_the_rank_matched_tuple_workload(
    family, seed, kind, monkeypatch, arms
):
    """Every cluster-tree level plane KDissemination submits, lowered to
    tuples, is token for token the :func:`rank_matched_triples` workload of
    that level's edges: same senders, receivers, payloads, words and order.
    A charge-only run builds the very same columns, with no payloads."""
    graph = LOAD_BALANCE_FAMILIES[family](seed)
    rng = random.Random(seed)
    nodes = sorted(graph.nodes)
    tokens = {}
    for i in range(30):
        tokens.setdefault(rng.choice(nodes), []).append(TOKEN_KINDS[kind](i))
    algorithm, result, built = _recorded_level_planes(monkeypatch, graph, tokens, seed)
    assert result.all_nodes_know_all_tokens()

    sim = algorithm.simulator
    members = {
        cluster.index: sorted(cluster.members, key=sim.id_of)
        for cluster in algorithm.clustering.clusters
    }
    sorted_tokens = sorted(algorithm.all_tokens, key=str)
    words = {token: payload_words(token) for token in sorted_tokens}
    lowered = 0
    for edges, plane in built:
        expected = []
        for source, target, ranks in edges:
            expected.extend(
                rank_matched_triples(
                    members[source],
                    members[target],
                    [sorted_tokens[rank] for rank in ranks],
                    words,
                )
            )
        if not expected:
            assert plane is None
            continue
        assert plane.payloads.shape == (len(expected),)
        assert list(iter_triples(plane, sim)) == expected
        lowered += 1
    assert lowered >= 2

    charged, charged_result, charged_built = _recorded_level_planes(
        monkeypatch, graph, tokens, seed, charge_only=True
    )
    assert charged_result.metrics.summary() == result.metrics.summary()
    assert len(charged_built) == len(built)
    for (edges, plane), (charged_edges, charged_plane) in zip(built, charged_built):
        assert [(s, t, r.tolist()) for s, t, r in charged_edges] == [
            (s, t, r.tolist()) for s, t, r in edges
        ]
        if plane is None:
            assert charged_plane is None
            continue
        assert charged_plane.payloads is None
        for column in ("senders", "receivers", "words"):
            assert np.array_equal(getattr(charged_plane, column), getattr(plane, column))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("family", sorted(LOAD_BALANCE_FAMILIES))
def test_aggregation_level_planes_lower_to_the_rank_matched_tuple_workload(
    family, seed, monkeypatch, arms
):
    """Every converge-cast level plane KAggregation submits, lowered to
    tuples, is token for token the :func:`rank_matched_triples` workload of
    that level: each cluster sends its ``k`` pairs ``(index, partial)`` in
    index order to its parent, partials folded bottom-up level by level."""
    graph = LOAD_BALANCE_FAMILIES[family](seed)
    rng = random.Random(seed)
    k = 7
    values = {node: [rng.randrange(100) for _ in range(k)] for node in graph.nodes}
    submitted = []
    exchange = BatchAlgorithm.exchange

    def recording(self, triples, tag=None, **kwargs):
        submitted.append(triples)
        return exchange(self, triples, tag, **kwargs)

    # A context, not undo(): undo() would also revert the ``arms`` cutoffs.
    with monkeypatch.context() as patch:
        patch.setattr(KAggregation, "exchange", recording)
        sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=seed)
        algorithm = KAggregation(sim, values, operator.add)
        result = algorithm.run()
    assert result.all_nodes_know_all_aggregates()

    clustering = algorithm.clustering
    tree = algorithm.cluster_tree
    members = {
        cluster.index: sorted(cluster.members, key=sim.id_of)
        for cluster in clustering.clusters
    }
    partials = {
        cluster.index: [sum(values[v][i] for v in cluster.members) for i in range(k)]
        for cluster in clustering.clusters
    }
    levels = list(reversed(tree.levels()[1:]))
    assert len(submitted) == len(levels) >= 1
    for level, plane in zip(levels, submitted):
        expected = []
        for cluster_index in level:
            pairs = list(enumerate(partials[cluster_index]))
            expected.extend(
                rank_matched_triples(
                    members[cluster_index],
                    members[tree.parent[cluster_index]],
                    pairs,
                    {pair: payload_words(pair) for pair in pairs},
                )
            )
        assert list(iter_triples(plane, sim)) == expected
        for cluster_index in level:
            parent = partials[tree.parent[cluster_index]]
            for index, value in enumerate(partials[cluster_index]):
                parent[index] += value
    assert result.aggregates == partials[tree.root]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("family", sorted(LOAD_BALANCE_FAMILIES))
def test_cluster_masks_equal_the_balanced_allocation(family, seed, arms):
    """Phase 4 charges Lemma 4.1 without materialising the allocation: the
    cluster token masks the converge-cast starts from equal masks built from
    a ``balance_items`` allocation of every cluster."""
    graph = LOAD_BALANCE_FAMILIES[family](seed)
    tokens = scatter(graph, 16, seed=seed)
    sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=seed)
    algorithm = KDissemination(sim, tokens)
    for _, phase in algorithm.phases()[:3]:
        phase()
    ranked = sorted(algorithm.all_tokens, key=str)
    token_rank = {token: rank for rank, token in enumerate(ranked)}
    clustering = algorithm.clustering
    assert len(clustering.clusters) > 1

    want = [set() for _ in clustering.clusters]
    for cluster in clustering.clusters:
        allocation = balance_items(cluster.members, tokens)
        for held in allocation.values():
            want[cluster.index].update(token_rank[token] for token in held)
    masks = algorithm._cluster_token_masks(token_rank)
    assert [set(np.flatnonzero(row).tolist()) for row in masks] == want


class TestKDissemination:
    @pytest.mark.parametrize(
        "graph_builder,k",
        [
            (lambda: path_graph(40), 20),
            (lambda: cycle_graph(36), 12),
            (lambda: grid_graph(6, 2), 36),
            (lambda: star_graph(25), 10),
            (lambda: barbell_graph(8, 10), 16),
        ],
    )
    def test_every_node_learns_every_token(self, graph_builder, k):
        result, _ = run_dissemination(graph_builder(), k, seed=1)
        assert result.k == k
        assert result.all_nodes_know_all_tokens()

    def test_concentrated_distribution_also_works(self):
        result, _ = run_dissemination(path_graph(40), 20, seed=2, concentrated=True)
        assert result.all_nodes_know_all_tokens()

    def test_works_in_dense_id_hybrid_too(self):
        result, _ = run_dissemination(grid_graph(5, 2), 15, seed=3, hybrid0=False)
        assert result.all_nodes_know_all_tokens()

    def test_no_capacity_violations(self):
        result, sim = run_dissemination(grid_graph(6, 2), 30, seed=4)
        assert sim.metrics.capacity_violations == 0

    def test_zero_tokens_trivial(self):
        g = path_graph(10)
        sim = HybridSimulator(g, ModelConfig.hybrid0(), seed=0)
        result = KDissemination(sim, {}).run()
        assert result.k == 0
        assert result.all_nodes_know_all_tokens()

    def test_single_token(self):
        result, _ = run_dissemination(grid_graph(4, 2), 1, seed=5)
        assert result.k == 1
        assert result.all_nodes_know_all_tokens()

    def test_unknown_holder_rejected(self):
        g = path_graph(5)
        sim = HybridSimulator(g, ModelConfig.hybrid0(), seed=0)
        with pytest.raises(KeyError):
            KDissemination(sim, {99: ["x"]})

    def test_nq_value_matches_centralized(self):
        g = grid_graph(6, 2)
        k = 18
        result, _ = run_dissemination(g, k, seed=6)
        assert result.nq == neighborhood_quality(g, k)

    def test_round_cost_grows_with_nq_not_k_alone(self):
        # Same k on a star (NQ small) vs. a path (NQ ~ sqrt k): the path must
        # cost more rounds.
        k = 24
        star_result, star_sim = run_dissemination(star_graph(60), k, seed=7)
        path_result, path_sim = run_dissemination(path_graph(60), k, seed=7)
        assert star_result.nq < path_result.nq
        assert star_sim.metrics.total_rounds < path_sim.metrics.total_rounds

    def test_duplicate_tokens_counted_once(self):
        g = path_graph(20)
        sim = HybridSimulator(g, ModelConfig.hybrid0(), seed=0)
        tokens = {0: [("tok", 0), ("tok", 1)], 5: [("tok", 0)]}
        result = KDissemination(sim, tokens).run()
        assert result.k == 2
        assert result.all_nodes_know_all_tokens()


class TestKAggregation:
    def test_componentwise_minimum(self):
        g = grid_graph(5, 2)
        rng = random.Random(0)
        k = 6
        values = {v: [rng.randint(0, 1000) for _ in range(k)] for v in g.nodes}
        sim = HybridSimulator(g, ModelConfig.hybrid0(), seed=0)
        result = KAggregation(sim, values, min).run()
        expected = [min(values[v][i] for v in g.nodes) for i in range(k)]
        assert result.aggregates == expected
        assert result.all_nodes_know_all_aggregates()

    def test_componentwise_sum(self):
        g = path_graph(30)
        k = 4
        values = {v: [1, 2, 3, v if isinstance(v, int) else 0] for v in g.nodes}
        sim = HybridSimulator(g, ModelConfig.hybrid0(), seed=0)
        result = KAggregation(sim, values, operator.add).run()
        assert result.aggregates[0] == 30
        assert result.aggregates[1] == 60
        assert result.aggregates[3] == sum(range(30))

    def test_componentwise_max(self):
        g = cycle_graph(24)
        k = 3
        values = {v: [v, -v, v * v] for v in g.nodes}
        sim = HybridSimulator(g, ModelConfig.hybrid0(), seed=0)
        result = KAggregation(sim, values, max).run()
        assert result.aggregates == [23, 0, 23 * 23]

    def test_all_nodes_receive_results(self):
        g = grid_graph(4, 2)
        values = {v: [v % 3, v % 5] for v in g.nodes}
        sim = HybridSimulator(g, ModelConfig.hybrid0(), seed=0)
        result = KAggregation(sim, values, min).run()
        for node, known in result.known_aggregates.items():
            assert known == result.aggregates

    def test_requires_uniform_k(self):
        g = path_graph(4)
        sim = HybridSimulator(g, ModelConfig.hybrid0(), seed=0)
        with pytest.raises(ValueError):
            KAggregation(sim, {0: [1], 1: [1, 2], 2: [1], 3: [1]}, min)

    def test_requires_all_nodes(self):
        g = path_graph(4)
        sim = HybridSimulator(g, ModelConfig.hybrid0(), seed=0)
        with pytest.raises(ValueError):
            KAggregation(sim, {0: [1]}, min)

    def test_rejects_k_zero(self):
        g = path_graph(4)
        sim = HybridSimulator(g, ModelConfig.hybrid0(), seed=0)
        with pytest.raises(ValueError):
            KAggregation(sim, {v: [] for v in g.nodes}, min)

    def test_no_capacity_violations(self):
        g = grid_graph(5, 2)
        values = {v: [v % 7, v % 11, v % 13] for v in g.nodes}
        sim = HybridSimulator(g, ModelConfig.hybrid0(), seed=0)
        KAggregation(sim, values, min).run()
        assert sim.metrics.capacity_violations == 0
