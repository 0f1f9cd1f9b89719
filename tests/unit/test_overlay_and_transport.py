"""Unit tests for virtual-tree overlays (Lemmas 4.3-4.6), load balancing
(Lemma 4.1) and the throttled global transport oracle."""

import math
import random

import pytest

from repro.core import overlay
from repro.core.load_balancing import balance_items, cluster_load_balance
from repro.core.overlay import (
    aggregate_via_tree,
    basic_aggregation,
    basic_dissemination,
    broadcast_via_tree,
    build_virtual_tree,
    build_virtual_tree_on_subset,
)
from repro.graphs.generators import grid_graph, path_graph
from repro.simulator.config import ModelConfig, log2_ceil
from repro.simulator.network import HybridSimulator

from oracles import overlay as tree_oracle
from oracles.transport import GlobalTransfer, throttled_global_exchange


def make_sim(graph=None, hybrid0=True, seed=0, **kwargs):
    graph = graph if graph is not None else grid_graph(5, 2)
    config = ModelConfig.hybrid0() if hybrid0 else ModelConfig.hybrid()
    return HybridSimulator(graph, config, seed=seed, **kwargs)


class TestVirtualTree:
    def test_tree_spans_all_nodes(self):
        sim = make_sim()
        tree = build_virtual_tree(sim)
        assert sorted(tree.nodes, key=str) == sorted(sim.nodes, key=str)

    def test_tree_depth_is_logarithmic(self):
        sim = make_sim(path_graph(64))
        tree = build_virtual_tree(sim)
        assert tree.depth <= log2_ceil(64)

    def test_tree_degree_is_constant(self):
        sim = make_sim(path_graph(100))
        tree = build_virtual_tree(sim)
        assert tree.max_degree() <= 3

    def test_tree_parent_child_consistency(self):
        sim = make_sim()
        tree = build_virtual_tree(sim)
        for node in tree.nodes:
            for child in tree.children[node]:
                assert tree.parent[child] == node
        assert tree.parent[tree.root] is None

    def test_tree_members_know_relatives_ids(self):
        sim = make_sim()
        tree = build_virtual_tree(sim)
        for node in tree.nodes:
            relatives = list(tree.children[node])
            if tree.parent[node] is not None:
                relatives.append(tree.parent[node])
            for relative in relatives:
                assert sim.knows_id(node, sim.id_of(relative))

    def test_tree_construction_charges_rounds(self):
        sim = make_sim()
        build_virtual_tree(sim)
        assert sim.metrics.charged_rounds > 0

    def test_subset_tree_contains_only_subset(self):
        sim = make_sim(grid_graph(6, 2))
        subset = [0, 5, 10, 15, 20, 25, 30, 35]
        tree = build_virtual_tree_on_subset(sim, subset)
        assert sorted(tree.nodes) == sorted(subset)

    def test_subset_tree_rejects_empty(self):
        sim = make_sim()
        with pytest.raises(ValueError):
            build_virtual_tree_on_subset(sim, [])

    def test_levels_partition_nodes(self):
        sim = make_sim(path_graph(31))
        tree = build_virtual_tree(sim)
        flattened = [node for level in tree.levels() for node in level]
        assert sorted(flattened, key=str) == sorted(tree.nodes, key=str)


def _relatives(tree, node):
    parent = tree.parent[node]
    return list(tree.children[node]) + ([] if parent is None else [parent])


@pytest.mark.parametrize("subset", [False, True], ids=["full", "subset"])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 100])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_heap_layout_tree_matches_the_dict_oracle(n, subset, seed, arms):
    """The slot-arithmetic views and the taught identifiers equal those of
    the eager dict heap tree over the identifier-sorted members."""
    sim = make_sim(path_graph(n), seed=seed)
    before = {node: sim.known_ids(node) for node in sim.nodes}
    if subset:
        rng = random.Random(f"tree-{n}-{seed}")
        members = rng.sample(sim.nodes, rng.randint(1, n))
        tree = build_virtual_tree_on_subset(sim, members + members[:1])
    else:
        members = sim.nodes
        tree = build_virtual_tree(sim)
    oracle = tree_oracle.heap_tree(sorted(members, key=sim.id_of))

    assert tree.order == oracle.order
    assert tree.root == oracle.root
    assert tree.parent == oracle.parent
    assert tree.children == oracle.children
    assert tree.levels() == oracle.levels()
    assert tree.depth == oracle.depth
    assert tree.max_degree() == oracle.max_degree()
    for node in sim.nodes:
        taught = (
            {sim.id_of(relative) for relative in _relatives(oracle, node)}
            if node in oracle.parent
            else set()
        )
        assert sim.known_ids(node) == before[node] | taught


#: Partials on both sides of the one-word boundary of ``payload_words``.
SIZING_PARTIALS = [
    None, 0, -1, 2**63 - 1, 2**63, 2**64 - 1, 2**64, -(2**64 - 1), -(2**64),
    True, 1.5, ("t", 2**64), "a string of several words",
]


def _keep_first(a, b):
    return a


@pytest.mark.parametrize("partial", SIZING_PARTIALS, ids=repr)
def test_level_sizing_matches_the_tuple_oracle(partial, arms):
    """A level sized once (None and ints of at most 64 bits) or value by
    value charges what the per-value tuple oracle charges."""
    plane_sim, oracle_sim = make_sim(path_graph(13)), make_sim(path_graph(13))
    values = {v: partial for v in plane_sim.nodes}
    got = basic_aggregation(plane_sim, values, _keep_first)
    want = tree_oracle.basic_aggregation(oracle_sim, values, _keep_first, mode="tuple")
    assert got == want
    assert plane_sim.metrics.total_rounds == oracle_sim.metrics.total_rounds
    assert plane_sim.metrics.global_words == oracle_sim.metrics.global_words
    assert plane_sim.metrics.summary() == oracle_sim.metrics.summary()


def test_level_sizing_of_mixed_partials_matches_the_tuple_oracle(arms):
    n = len(SIZING_PARTIALS) * 3
    plane_sim, oracle_sim = make_sim(path_graph(n)), make_sim(path_graph(n))
    values = {
        v: SIZING_PARTIALS[i % len(SIZING_PARTIALS)]
        for i, v in enumerate(plane_sim.nodes)
    }
    got = basic_aggregation(plane_sim, values, _keep_first)
    want = tree_oracle.basic_aggregation(oracle_sim, values, _keep_first, mode="tuple")
    assert got == want
    assert plane_sim.metrics.global_words == oracle_sim.metrics.global_words
    assert plane_sim.metrics.summary() == oracle_sim.metrics.summary()


class TestTreeAggregationAndBroadcast:
    def test_sum_aggregation_reaches_root(self):
        sim = make_sim()
        tree = build_virtual_tree(sim)
        values = {v: 1 for v in sim.nodes}
        total = aggregate_via_tree(sim, tree, values, lambda a, b: a + b)
        assert total == sim.n

    def test_min_aggregation(self):
        sim = make_sim()
        tree = build_virtual_tree(sim)
        values = {v: sim.id_of(v) for v in sim.nodes}
        result = aggregate_via_tree(sim, tree, values, min)
        assert result == min(sim.id_of(v) for v in sim.nodes)

    def test_aggregation_with_missing_values(self):
        sim = make_sim()
        tree = build_virtual_tree(sim)
        values = {v: 5 for v in list(sim.nodes)[:3]}
        result = aggregate_via_tree(sim, tree, values, lambda a, b: a + b)
        assert result == 15

    def test_broadcast_reaches_every_node(self):
        sim = make_sim()
        tree = build_virtual_tree(sim)
        received = broadcast_via_tree(sim, tree, "announcement")
        assert set(received) == set(sim.nodes)
        assert all(value == "announcement" for value in received.values())

    def test_basic_aggregation_lemma_4_4(self):
        sim = make_sim()
        values = {v: v if isinstance(v, int) else 0 for v in sim.nodes}
        result = basic_aggregation(sim, values, max)
        assert result == max(values.values())

    def test_basic_dissemination_lemma_4_4(self):
        sim = make_sim()
        source = sim.nodes[7]
        received = basic_dissemination(sim, source, ("token", 42))
        assert all(received[v] == ("token", 42) for v in sim.nodes)

    def test_tree_communication_respects_global_budget(self):
        sim = make_sim(grid_graph(6, 2))
        values = {v: 1 for v in sim.nodes}
        basic_aggregation(sim, values, lambda a, b: a + b)
        assert sim.metrics.capacity_violations == 0

    def test_round_cost_is_polylogarithmic(self):
        sim = make_sim(path_graph(64))
        values = {v: 1 for v in sim.nodes}
        basic_aggregation(sim, values, lambda a, b: a + b)
        log_n = log2_ceil(64)
        # Lemma 4.4: eO(1) rounds; with our constants that is <= ~4 log^2 n.
        assert sim.metrics.total_rounds <= 6 * log_n * log_n


TREE_GRAPHS = {"grid5": lambda: grid_graph(5, 2), "path31": lambda: path_graph(31)}


def _add(a, b):
    return a + b


@pytest.mark.parametrize("mode", tree_oracle.MODES)
@pytest.mark.parametrize("graph", sorted(TREE_GRAPHS))
class TestDefaultTreeOpsMatchTheOracles:
    """The default (plane) tree operations against the tuple and per-message
    oracles: same result, same rounds, same metrics summary."""

    def _pair(self, graph):
        return make_sim(TREE_GRAPHS[graph]()), make_sim(TREE_GRAPHS[graph]())

    def test_aggregate_via_tree(self, graph, mode, arms):
        plane_sim, oracle_sim = self._pair(graph)
        values = {v: i for i, v in enumerate(plane_sim.nodes) if i % 3}
        tree = build_virtual_tree(plane_sim)
        oracle_tree = build_virtual_tree(oracle_sim)
        got = aggregate_via_tree(plane_sim, tree, values, _add)
        want = tree_oracle.aggregate_via_tree(
            oracle_sim, oracle_tree, values, _add, mode=mode
        )
        assert got == want
        assert plane_sim.round == oracle_sim.round
        assert plane_sim.metrics.summary() == oracle_sim.metrics.summary()

    def test_broadcast_via_tree(self, graph, mode, arms):
        plane_sim, oracle_sim = self._pair(graph)
        got = broadcast_via_tree(plane_sim, build_virtual_tree(plane_sim), ("b", 1))
        want = tree_oracle.broadcast_via_tree(
            oracle_sim, build_virtual_tree(oracle_sim), ("b", 1), mode=mode
        )
        assert got == want
        assert plane_sim.round == oracle_sim.round
        assert plane_sim.metrics.summary() == oracle_sim.metrics.summary()

    def test_basic_aggregation(self, graph, mode, arms):
        plane_sim, oracle_sim = self._pair(graph)
        values = {v: 1 for v in plane_sim.nodes}
        got = basic_aggregation(plane_sim, values, max)
        want = tree_oracle.basic_aggregation(oracle_sim, values, max, mode=mode)
        assert got == want
        assert plane_sim.round == oracle_sim.round
        assert plane_sim.metrics.summary() == oracle_sim.metrics.summary()

    def test_basic_dissemination_down_cast(self, graph, mode, monkeypatch, arms):
        plane_sim, oracle_sim = self._pair(graph)
        source = plane_sim.nodes[7]
        got = basic_dissemination(plane_sim, source, ("token", 42))

        def oracle_broadcast(simulator, tree, value):
            return tree_oracle.broadcast_via_tree(simulator, tree, value, mode=mode)

        monkeypatch.setattr(overlay, "broadcast_via_tree", oracle_broadcast)
        want = basic_dissemination(oracle_sim, source, ("token", 42))
        assert got == want
        assert plane_sim.round == oracle_sim.round
        assert plane_sim.metrics.summary() == oracle_sim.metrics.summary()


class TestLoadBalancing:
    def test_balanced_allocation_bound(self):
        members = list(range(5))
        items = {0: list(range(17))}
        allocation = balance_items(members, items)
        quota = math.ceil(17 / 5)
        assert all(len(allocation[m]) <= quota for m in members)
        assert sum(len(v) for v in allocation.values()) == 17

    def test_items_preserved_exactly(self):
        members = ["a", "b", "c"]
        items = {"a": [1, 2], "b": [3], "c": [4, 5, 6]}
        allocation = balance_items(members, items)
        flat = sorted(item for bucket in allocation.values() for item in bucket)
        assert flat == [1, 2, 3, 4, 5, 6]

    def test_empty_pool(self):
        allocation = balance_items([1, 2], {})
        assert allocation == {1: [], 2: []}

    def test_rejects_empty_members(self):
        with pytest.raises(ValueError):
            balance_items([], {1: [1]})

    def test_deterministic(self):
        members = list(range(4))
        items = {0: list(range(10))}
        assert balance_items(members, items) == balance_items(members, items)

    def test_cluster_load_balance_charges_2d_rounds(self):
        sim = make_sim()
        members = sim.nodes[:6]
        allocation = cluster_load_balance(sim, members, {members[0]: [1, 2, 3]}, weak_diameter=4)
        assert sum(len(v) for v in allocation.values()) == 3
        assert sim.metrics.charged_rounds == 8


class TestThrottledTransport:
    def test_all_transfers_delivered(self):
        sim = make_sim(hybrid0=False)
        transfers = [
            GlobalTransfer(sender=0, receiver=v, payload=("x", v), tag="t")
            for v in sim.nodes
            if v != 0
        ]
        delivered = throttled_global_exchange(sim, transfers)
        assert sum(len(v) for v in delivered.values()) == len(transfers)

    def test_schedule_respects_send_budget(self):
        sim = make_sim(hybrid0=False)
        budget = sim.global_budget_words()
        transfers = [
            GlobalTransfer(sender=0, receiver=(v % (sim.n - 1)) + 1, payload=i)
            for i, v in enumerate(range(4 * budget))
        ]
        throttled_global_exchange(sim, transfers)
        assert sim.metrics.capacity_violations == 0
        # One sender with 4x budget worth of single-word messages needs >= 4 rounds.
        assert sim.metrics.measured_rounds >= 4

    def test_schedule_respects_receive_budget(self):
        sim = make_sim(hybrid0=False)
        budget = sim.global_budget_words()
        transfers = [
            GlobalTransfer(sender=s, receiver=0, payload=1)
            for s in sim.nodes
            if s != 0
            for _ in range(2)
        ]
        throttled_global_exchange(sim, transfers)
        assert sim.metrics.capacity_violations == 0
        assert sim.metrics.measured_rounds >= math.ceil(len(transfers) / budget)

    def test_empty_transfer_list(self):
        sim = make_sim(hybrid0=False)
        assert throttled_global_exchange(sim, []) == {}
        assert sim.metrics.measured_rounds == 0

    def test_max_rounds_guard(self):
        sim = make_sim(hybrid0=False)
        transfers = [
            GlobalTransfer(sender=0, receiver=1, payload=i) for i in range(200)
        ]
        with pytest.raises(RuntimeError):
            throttled_global_exchange(sim, transfers, max_rounds=1)
