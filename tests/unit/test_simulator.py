"""Unit tests for the HYBRID(lambda, gamma) simulator: configuration, message
accounting, knowledge tracking, capacity enforcement and the round lifecycle.

Label-addressed traffic goes through the ``oracles.transport`` adapter, which
lowers every call to one token plane."""

import random

import numpy as np
import pytest

from repro.graphs.generators import path_graph, grid_graph, complete_graph
from repro.graphs.weighted import assign_uniform_weights
from repro.simulator.config import IdentifierRegime, ModelConfig, log2_ceil, word_bits
from repro.simulator.errors import (
    CapacityExceededError,
    LocalBandwidthExceededError,
    NotANeighborError,
    PairKeyOverflowError,
    RoundLifecycleError,
    UnknownIdentifierError,
    UnknownNodeError,
)
from repro.simulator.knowledge import (
    MAX_PAIR_KEY_NODES,
    KnowledgeTracker,
    check_pair_key_range,
)
from repro.simulator.messages import GLOBAL_MODE, LOCAL_MODE, payload_words
from repro.simulator.metrics import ChargeRecord, RoundMetrics
from repro.simulator.network import HybridSimulator, node_sort_key

from oracles import transport
from oracles.delivery import ReferenceNetwork
from oracles.transport import Message


class TestModelConfig:
    def test_log2_ceil(self):
        assert log2_ceil(1) == 1
        assert log2_ceil(2) == 1
        assert log2_ceil(3) == 2
        assert log2_ceil(1024) == 10

    def test_hybrid_defaults(self):
        config = ModelConfig.hybrid()
        assert config.local_mode_enabled()
        assert config.global_mode_enabled()
        assert not config.is_hybrid0()

    def test_hybrid0_is_sparse(self):
        assert ModelConfig.hybrid0().identifier_regime is IdentifierRegime.SPARSE

    def test_local_model_has_no_global_mode(self):
        config = ModelConfig.local()
        assert config.local_mode_enabled()
        assert not config.global_mode_enabled()

    def test_congest_has_finite_local_bandwidth(self):
        config = ModelConfig.congest()
        assert config.local_bits_per_edge is not None
        assert not config.global_mode_enabled()

    def test_ncc_has_no_local_mode(self):
        config = ModelConfig.ncc()
        assert not config.local_mode_enabled()
        assert config.global_mode_enabled()

    def test_congested_clique_budget_scales_with_n(self):
        config = ModelConfig.congested_clique(50)
        assert config.resolve_global_message_budget(50) == 49

    def test_default_budget_scales_logarithmically(self):
        config = ModelConfig.hybrid()
        assert config.resolve_global_message_budget(1024) == 10
        assert config.resolve_global_word_budget(1024) == 10 * config.words_per_message

    def test_parameterized_constructor(self):
        config = ModelConfig.hybrid_parameterized(64, 5, sparse_ids=True)
        assert config.local_bits_per_edge == 64
        assert config.resolve_global_message_budget(100) == 5
        assert config.is_hybrid0()


class TestPayloadWords:
    def test_primitives_cost_one_word(self):
        assert payload_words(7) == 1
        assert payload_words(3.14) == 1
        assert payload_words(None) == 1
        assert payload_words(True) == 1

    def test_big_int_costs_more(self):
        assert payload_words(1 << 200) >= 4

    def test_string_cost_scales_with_length(self):
        assert payload_words("abc") == 1
        assert payload_words("a" * 64) == 8

    def test_container_costs_sum_plus_framing(self):
        assert payload_words((1, 2, 3)) == 4
        assert payload_words({"a": 1}) == 3

    def test_message_words_include_tag(self):
        message = Message(0, 1, (1, 2), "global", tag="x")
        assert message.words == payload_words((1, 2)) + 1


class TestKnowledgeTracker:
    """The tracker is addressed by node index; the simulator translates
    identifiers at its boundary."""

    def test_initial_knowledge_is_self_and_neighbors(self):
        sim = HybridSimulator(path_graph(3), ModelConfig.hybrid0(), seed=0)
        assert sim.known_ids(0) == {sim.id_of(0), sim.id_of(1)}
        assert sim.knows_id(1, sim.id_of(0)) and sim.knows_id(1, sim.id_of(2))
        assert not sim.knows_id(0, sim.id_of(2))
        assert sim.knowledge.known(2) == {1, 2}

    def test_learning_new_ids(self):
        tracker = KnowledgeTracker(3)
        tracker.learn(0, [2])
        assert tracker.knows(0, 2)
        assert not tracker.knows(0, 1) and not tracker.knows(2, 0)
        sim = HybridSimulator(path_graph(3), ModelConfig.hybrid0(), seed=0)
        sim.declare_learned_ids(0, [sim.id_of(2)])
        assert sim.knows_id(0, sim.id_of(2))

    def test_learning_nonexistent_id_is_ignored(self):
        sim = HybridSimulator(path_graph(3), ModelConfig.hybrid0(), seed=0)
        bogus = max(sim.all_ids()) + 1
        before = sim.known_ids(0)
        sim.declare_learned_ids(0, [bogus])
        sim.declare_learned_ids_bulk([0, 1], [bogus])
        assert not sim.knows_id(0, bogus)
        assert sim.known_ids(0) == before

    def test_target_past_the_last_index_is_unknown(self):
        # Key 1 * 4 + 0 must not read as node 0 knowing "index 4".
        tracker = KnowledgeTracker(4)
        tracker.learn(1, [0])
        assert not tracker.knows(0, 4) and not tracker.knows(0, -1)

    def test_all_known_initialization(self):
        tracker = KnowledgeTracker(3, all_known=True)
        assert tracker.knows(0, 2)
        assert tracker.known(1) == {0, 1, 2}
        assert not tracker.pairs
        sim = HybridSimulator(path_graph(3), ModelConfig.hybrid(), seed=0)
        assert sim.known_ids(0) == set(sim.all_ids())
        assert not sim.knowledge.pairs

    def test_shared_record_teaches_every_learner(self):
        tracker = KnowledgeTracker(5)
        tracker.learn_shared(frozenset({0, 1}), frozenset({3, 4}))
        assert tracker.knows(1, 4) and tracker.knows_shared(0, 3)
        assert not tracker.knows(2, 3) and not tracker.knows(0, 2)
        assert tracker.known(0) == {3, 4} and tracker.known(2) == set()
        assert not tracker.pairs

    def test_unknown_node_raises(self):
        tracker = KnowledgeTracker(1)
        with pytest.raises(UnknownNodeError):
            tracker.knows(99, 0)
        sim = HybridSimulator(path_graph(3), ModelConfig.hybrid0(), seed=0)
        with pytest.raises(UnknownNodeError):
            sim.knows_id("ghost", sim.id_of(0))

    def test_declare_learned_ids_bulk_is_atomic(self, arms):
        sim = HybridSimulator(path_graph(8), ModelConfig.hybrid0(), seed=0)
        target = sim.id_of(5)
        with pytest.raises(UnknownNodeError):
            sim.declare_learned_ids_bulk([0, 1, "ghost"], [target])
        # The unknown learner taught no one, not even the learners before it.
        assert not sim.knows_id(0, target) and not sim.knows_id(1, target)
        sim.declare_learned_ids_bulk(iter([0, 1]), [target])
        assert sim.knows_id(0, target) and sim.knows_id(1, target)
        assert not sim.knows_id(2, target)


class TestPairStore:
    """The tracker's pair store: key ``a * n + b`` = "node a knows node b's id"."""

    N = 64

    def _tracker(self):
        # Node 0 also knows {0, 1} through a shared record, so every probe
        # reads the store and the records together.
        tracker = KnowledgeTracker(self.N)
        tracker.learn_shared(frozenset({0}), frozenset({0, 1}))
        return tracker

    def test_learned_pair_is_visible_through_every_probe(self, arms):
        tracker = self._tracker()
        tracker.pairs.add([0 * self.N + 7, 0 * self.N + 30, 5 * self.N + 0])
        assert tracker.knows(0, 7)
        assert tracker.knows(5, 0)
        assert not tracker.knows(0, 8)
        assert not tracker.knows(0, 999)
        assert tracker.known(0) == {0, 1, 7, 30}
        assert tracker.knows(0, 30) and tracker.knows(0, 1) and not tracker.knows(0, 29)
        assert tracker.known(5) == {0}

    def test_learn_index_pairs_takes_arrays_and_lists(self, arms):
        tracker = self._tracker()
        learners = np.array([2, 2, 9], dtype=np.int64)
        learned = np.array([40, 41, 2], dtype=np.int64)
        tracker.learn_index_pairs(learners, learned)
        tracker.learn_index_pairs([2], [40])  # already known: a no-op
        assert tracker.known(2) == {40, 41}
        assert tracker.knows(9, 2) and not tracker.knows(2, 9)

    def test_random_trickle_keeps_membership_exact(self, arms):
        n = 512
        tracker = KnowledgeTracker(n)
        rng = random.Random(13)
        expected = {a: set() for a in range(4)}
        for _ in range(60):
            keys = []
            for _ in range(rng.randrange(1, 9)):
                a, b = rng.randrange(4), rng.randrange(n)
                keys.append(a * n + b)
                expected[a].add(b)
            tracker.pairs.add(keys)
        for a, learned in expected.items():
            assert tracker.known(a) == learned
            assert all(tracker.knows(a, b) == (b in learned) for b in range(n))
        levels = tracker.pairs.levels()
        # At most two sorted levels, holding every key exactly once.
        assert 1 <= len(levels) <= 2
        stored = []
        for level in levels:
            assert level.tolist() == sorted(level.tolist())
            stored.extend(level.tolist())
        assert sorted(stored) == sorted(a * n + b for a in expected for b in expected[a])

    def test_unknown_filters_already_stored_keys(self, arms):
        tracker = self._tracker()
        tracker.pairs.add([3, 9, 90])
        tracker.pairs.add([40])
        keys = np.array([3, 4, 9, 40, 41, 90, 4], dtype=np.int64)
        assert tracker.pairs.unknown(keys).tolist() == [4, 41, 4]
        sorted_keys = np.array([3, 4, 9, 40, 41, 90], dtype=np.int64)
        assert tracker.pairs.unknown(sorted_keys).tolist() == [4, 41]


class TestPairKeyRange:
    def test_helper_rejects_n_past_the_int64_bound(self):
        check_pair_key_range(MAX_PAIR_KEY_NODES)
        assert (MAX_PAIR_KEY_NODES**2 - 1) < 2**63 <= (MAX_PAIR_KEY_NODES + 1) ** 2 - 1
        with pytest.raises(PairKeyOverflowError, match="3037000500 nodes"):
            check_pair_key_range(MAX_PAIR_KEY_NODES + 1)
        with pytest.raises(OverflowError):
            check_pair_key_range(10**12)

    def test_simulator_construction_runs_the_guard(self, monkeypatch):
        from repro.simulator import knowledge

        monkeypatch.setattr(knowledge, "MAX_PAIR_KEY_NODES", 3)
        with pytest.raises(PairKeyOverflowError):
            HybridSimulator(path_graph(4), ModelConfig.hybrid0(), seed=0)


class TestRoundMetrics:
    def test_charge_accumulates(self):
        metrics = RoundMetrics()
        metrics.charge(5, "setup")
        metrics.charge(3, "more setup", "Lemma X")
        assert metrics.charged_rounds == 8
        assert metrics.total_rounds == 8
        assert metrics.charges[1] == ChargeRecord(3, "more setup", "Lemma X")

    def test_zero_charge_is_noop(self):
        metrics = RoundMetrics()
        metrics.charge(0, "nothing")
        assert metrics.charges == []

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            RoundMetrics().charge(-1, "bad")

    def test_merge(self):
        a = RoundMetrics(measured_rounds=2, global_messages=3)
        b = RoundMetrics(measured_rounds=1, local_messages=4)
        b.charge(7, "x")
        merged = a.merge(b)
        assert merged.measured_rounds == 3
        assert merged.global_messages == 3
        assert merged.local_messages == 4
        assert merged.charged_rounds == 7

    def test_summary_keys(self):
        summary = RoundMetrics().summary()
        assert "total_rounds" in summary
        assert "capacity_violations" in summary


class TestSimulatorBasics:
    def test_rejects_empty_graph(self):
        import networkx as nx

        with pytest.raises(ValueError):
            HybridSimulator(nx.Graph())

    def test_dense_ids_are_node_labels(self):
        sim = HybridSimulator(path_graph(5), ModelConfig.hybrid())
        assert sim.id_of(3) == 3
        assert sim.node_of_id(3) == 3

    def test_sparse_ids_are_distinct_and_resolvable(self):
        sim = HybridSimulator(path_graph(6), ModelConfig.hybrid0(), seed=1)
        ids = [sim.id_of(v) for v in sim.nodes]
        assert len(set(ids)) == 6
        for v in sim.nodes:
            assert sim.node_of_id(sim.id_of(v)) == v

    def test_sparse_id_universe_is_capped_for_huge_graphs(self):
        """n^3 overflows a C ssize_t past n ~ 2*10^6; the capped universe
        keeps random.sample viable and every id inside int64 (packed
        knowledge arrays), while staying bit-identical below the cap."""
        from repro.simulator.network import _ID_UNIVERSE_CAP, _identifier_universe

        assert _identifier_universe(6) == 6**3
        assert _identifier_universe(1) == 8
        assert _identifier_universe(10_000_000) == _ID_UNIVERSE_CAP
        assert _ID_UNIVERSE_CAP < 2**63  # ssize_t and int64 safe
        # The draw that used to raise OverflowError at n=10^7:
        drawn = random.Random(0).sample(range(_identifier_universe(10_000_000)), 5)
        assert len(set(drawn)) == 5

    def test_neighbors(self):
        sim = HybridSimulator(path_graph(5))
        assert sim.neighbors(0) == [1]
        assert sim.neighbors(2) == [1, 3]

    def test_unknown_node_raises(self):
        sim = HybridSimulator(path_graph(3))
        with pytest.raises(UnknownNodeError):
            sim.neighbors(17)

    def test_edge_weight_accessor(self):
        graph = assign_uniform_weights(path_graph(3), 4)
        sim = HybridSimulator(graph)
        assert sim.edge_weight(0, 1) == 4

    def test_inbox_before_first_round_raises(self):
        sim = HybridSimulator(path_graph(3))
        with pytest.raises(RoundLifecycleError):
            transport.inbox(sim, 0, LOCAL_MODE)


class TestIdentifierBoundary:
    """Identifiers live in an int64 column but cross the API as plain ints,
    and values the column cannot hold are simply no one's identifier."""

    BOGUS = [2**64, -1, 1.5, "x"]

    @pytest.mark.parametrize("config", [ModelConfig.hybrid0(), ModelConfig.hybrid()])
    def test_identifiers_come_out_as_python_ints(self, config):
        sim = HybridSimulator(path_graph(6), config, seed=0)
        assert all(type(sim.id_of(v)) is int for v in sim.nodes)
        assert all(type(i) is int for i in sim.all_ids())
        assert all(type(i) is int for i in sim.known_ids(2))
        assert sim.all_ids() == sorted(sim.id_of(v) for v in sim.nodes)

    @pytest.mark.parametrize("neighbour_tokens", [0, 40], ids=["scalar", "array"])
    def test_unknown_identifier_message_prints_a_plain_int(self, neighbour_tokens):
        # 40 tokens to a neighbour first put the shard on the array arm.
        sim = HybridSimulator(path_graph(6), ModelConfig.hybrid0(), seed=0)
        assert sim.id_of(5) == 130
        senders, receivers = [0] * (neighbour_tokens + 1), [1] * neighbour_tokens + [5]
        with pytest.raises(UnknownIdentifierError) as caught:
            transport.send_ids(sim, senders, receivers, ["nope"] * len(senders))
        assert str(caught.value) == "node 0 does not know identifier 130"

    @pytest.mark.parametrize("config", [ModelConfig.hybrid0(), ModelConfig.hybrid()])
    @pytest.mark.parametrize("bogus", BOGUS, ids=repr)
    def test_values_the_column_cannot_hold_are_no_identifier(self, config, bogus):
        sim = HybridSimulator(path_graph(6), config, seed=0)
        before = sim.known_ids(0)
        sim.declare_learned_ids(0, [bogus, sim.id_of(5)])
        sim.declare_learned_ids_bulk([1, 2], [bogus])
        assert sim.known_ids(0) == before | {sim.id_of(5)}
        assert not sim.knows_id(0, bogus)
        with pytest.raises(UnknownNodeError):
            sim.node_of_id(bogus)

    def test_identifier_column_is_read_only(self):
        sim = HybridSimulator(path_graph(6), ModelConfig.hybrid0(), seed=0)
        column = sim.identifier_column()
        assert column.dtype == np.int64
        assert column.tolist() == [sim.id_of(v) for v in sim.nodes]
        with pytest.raises(ValueError):
            column[0] = 1


class TestLocalMode:
    def test_local_send_delivers_next_round(self):
        sim = HybridSimulator(path_graph(3))
        transport.send(sim, 0, 1, "hello", mode=LOCAL_MODE)
        sim.advance_round()
        inbox = transport.inbox(sim, 1, LOCAL_MODE)
        assert len(inbox) == 1
        assert inbox[0].payload == "hello"
        assert transport.inbox(sim, 0, LOCAL_MODE) == []

    def test_local_send_requires_edge(self):
        sim = HybridSimulator(path_graph(3))
        with pytest.raises(NotANeighborError):
            transport.send(sim, 0, 2, "nope", mode=LOCAL_MODE)

    def test_local_broadcast_reaches_all_neighbors(self):
        sim = HybridSimulator(grid_graph(3, 2))
        transport.broadcast(sim, 4, "x")  # the grid centre has 4 neighbors
        sim.advance_round()
        receivers = [v for v in sim.nodes if transport.inbox(sim, v, LOCAL_MODE)]
        assert len(receivers) == 4

    def test_local_mode_disabled_in_ncc(self):
        sim = HybridSimulator(path_graph(3), ModelConfig.ncc())
        with pytest.raises(LocalBandwidthExceededError):
            transport.send(sim, 0, 1, "x", mode=LOCAL_MODE)

    def test_congest_local_bandwidth_enforced(self):
        sim = HybridSimulator(path_graph(3), ModelConfig.congest())
        transport.send(sim, 0, 1, 5, mode=LOCAL_MODE)  # one word is fine
        with pytest.raises(LocalBandwidthExceededError):
            transport.send(sim, 0, 1, tuple(range(50)), mode=LOCAL_MODE)

    def test_local_messages_unbounded_in_hybrid(self):
        sim = HybridSimulator(path_graph(3), ModelConfig.hybrid())
        transport.send(sim, 0, 1, tuple(range(1000)), mode=LOCAL_MODE)  # arbitrarily large is legal
        sim.advance_round()
        assert transport.inbox(sim, 1, LOCAL_MODE)[0].payload == tuple(range(1000))


class TestGlobalMode:
    def test_global_send_any_pair_in_hybrid(self):
        sim = HybridSimulator(path_graph(6), ModelConfig.hybrid())
        transport.send(sim, 0, 5, "far away", by_id=True)
        sim.advance_round()
        assert transport.inbox(sim, 5, GLOBAL_MODE)[0].payload == "far away"

    def test_global_send_unknown_identifier_in_hybrid0(self):
        sim = HybridSimulator(path_graph(6), ModelConfig.hybrid0(), seed=0)
        far_id = sim.id_of(5)
        with pytest.raises(UnknownIdentifierError):
            transport.send(sim, 0, far_id, "nope", by_id=True)

    def test_global_send_to_neighbor_allowed_in_hybrid0(self):
        sim = HybridSimulator(path_graph(6), ModelConfig.hybrid0(), seed=0)
        transport.send(sim, 0, sim.id_of(1), "ok", by_id=True)
        sim.advance_round()
        assert transport.inbox(sim, 1, GLOBAL_MODE)[0].payload == "ok"

    def test_receiving_teaches_sender_id(self):
        sim = HybridSimulator(path_graph(6), ModelConfig.hybrid0(), seed=0)
        # 0 -> 1 is allowed (neighbors); afterwards 1 knows 0's id (already did),
        # but 1 -> 3 is not; teach 1 about 3 explicitly, then 3 learns 1's id by
        # receiving and can reply.
        sim.declare_learned_ids(1, [sim.id_of(3)])
        transport.send(sim, 1, sim.id_of(3), "ping", by_id=True)
        sim.advance_round()
        assert sim.knows_id(3, sim.id_of(1))
        transport.send(sim, 3, sim.id_of(1), "pong", by_id=True)
        sim.advance_round()
        assert transport.inbox(sim, 1, GLOBAL_MODE)[0].payload == "pong"

    def test_global_mode_disabled_in_local_model(self):
        sim = HybridSimulator(path_graph(4), ModelConfig.local())
        with pytest.raises(CapacityExceededError):
            transport.send(sim, 0, sim.id_of(2), "x", by_id=True)

    def test_send_capacity_enforced(self):
        sim = HybridSimulator(path_graph(40), ModelConfig.hybrid())
        budget = sim.global_budget_words()
        for target in range(1, budget + 2):
            transport.send(sim, 0, target, 1, by_id=True)
        with pytest.raises(CapacityExceededError):
            sim.advance_round()
        assert sim.metrics.capacity_violations >= 1

    @pytest.mark.parametrize(
        "network", [HybridSimulator, ReferenceNetwork], ids=["simulator", "reference"]
    )
    def test_strict_capacity_error_voids_the_round(self, network, arms):
        # One 9-word token against the 8-word budget of path_graph(4), beside
        # a local message: the error discards the round's traffic in both
        # modes, counts one violation and leaves the round counter alone.
        net = network(path_graph(4), ModelConfig.hybrid0())
        budget = net.global_budget_words()
        assert budget == 8
        transport.send_batch(net, [(0, 1, "big", budget + 1)])
        transport.send_batch(net, [(2, 3, "near")], mode=LOCAL_MODE)
        with pytest.raises(CapacityExceededError, match="sent 9 global words in round 0"):
            net.advance_round()
        assert (net.metrics.capacity_violations, net.round) == (1, 0)
        net.advance_round()
        assert (net.metrics.capacity_violations, net.round) == (1, 1)
        assert net.per_node_inbox(GLOBAL_MODE) == net.per_node_inbox(LOCAL_MODE) == {}
        transport.send_batch(net, [(0, 1, "fits", budget)])
        net.advance_round()
        assert net.per_node_inbox() == {1: [(0, "fits", None, budget)]}
        assert (net.metrics.capacity_violations, net.round) == (1, 2)
        assert (net.metrics.global_messages, net.metrics.local_messages) == (1, 0)

    def test_send_within_capacity_passes(self):
        sim = HybridSimulator(path_graph(40), ModelConfig.hybrid())
        budget = sim.global_budget_words()
        for target in range(1, budget + 1):
            transport.send(sim, 0, target, 1, by_id=True)
        sim.advance_round()
        assert sim.metrics.capacity_violations == 0

    def test_receive_overload_recorded_but_not_fatal_by_default(self):
        sim = HybridSimulator(complete_graph(40), ModelConfig.hybrid())
        budget = sim.global_budget_words()
        for sender in range(1, budget + 5):
            transport.send(sim, sender, 0, 1, by_id=True)
        sim.advance_round()
        assert sim.metrics.capacity_violations >= 1
        assert len(transport.inbox(sim, 0, GLOBAL_MODE)) == budget + 4

    def test_receive_overload_raises_when_enforced(self):
        sim = HybridSimulator(
            complete_graph(40), ModelConfig.hybrid(), enforce_receive_capacity=True
        )
        budget = sim.global_budget_words()
        for sender in range(1, budget + 5):
            transport.send(sim, sender, 0, 1, by_id=True)
        with pytest.raises(CapacityExceededError):
            sim.advance_round()

    def test_capacity_multiplier_relaxes_budget(self):
        tight = HybridSimulator(path_graph(40), ModelConfig.hybrid())
        loose = HybridSimulator(path_graph(40), ModelConfig.hybrid(), capacity_multiplier=3)
        assert loose.global_budget_words() == 3 * tight.global_budget_words()


class TestNodeOrdering:
    """Regression: integer nodes must order numerically, not as strings
    (0, 1, 10, 11, ..., 2 was the old ``key=str`` ordering)."""

    def test_nodes_are_numerically_sorted(self):
        sim = HybridSimulator(path_graph(12))
        assert sim.nodes == list(range(12))

    def test_neighbors_are_numerically_sorted(self):
        sim = HybridSimulator(path_graph(12))
        assert sim.neighbors(10) == [9, 11]
        assert sim.neighbors(2) == [1, 3]

    def test_node_sort_key_orders_integers_numerically(self):
        values = [0, 1, 10, 11, 2, 20, 3]
        assert sorted(values, key=node_sort_key) == sorted(values)

    def test_node_sort_key_handles_mixed_types(self):
        import networkx as nx

        graph = nx.Graph()
        graph.add_edge(0, "a")
        graph.add_edge("a", 10)
        graph.add_edge(10, 2)
        sim = HybridSimulator(graph)
        # Numbers first (numerically), then strings.
        assert sim.nodes == [0, 2, 10, "a"]


class TestBatchSending:
    def test_local_send_batch_delivers_prebucketed(self):
        sim = HybridSimulator(path_graph(4))
        queued = transport.send_batch(sim, [(0, 1, "a"), (2, 1, "b"), (2, 3, "c")], mode=LOCAL_MODE)
        assert queued == 3
        sim.advance_round()
        inbox = sim.per_node_inbox(LOCAL_MODE)
        assert [record[1] for record in inbox[1]] == ["a", "b"]
        assert [record[1] for record in inbox[3]] == ["c"]
        assert 0 not in inbox

    def test_global_send_batch_by_node_and_by_id(self):
        sim = HybridSimulator(path_graph(6), ModelConfig.hybrid())
        transport.send_batch(sim, [(0, 5, "x")])
        transport.send_batch(sim, [(1, sim.id_of(4), "y")], by_id=True)
        sim.advance_round()
        assert transport.inbox(sim, 5, GLOBAL_MODE)[0].payload == "x"
        assert transport.inbox(sim, 4, GLOBAL_MODE)[0].payload == "y"

    def test_batch_records_carry_sender_tag_and_words(self):
        sim = HybridSimulator(path_graph(4), ModelConfig.hybrid())
        transport.send_batch(sim, [(0, 2, (1, 2, 3))], tag="t")
        sim.advance_round()
        ((sender, payload, tag, words),) = sim.per_node_inbox(GLOBAL_MODE)[2]
        assert sender == 0
        assert payload == (1, 2, 3)
        assert tag == "t"
        assert words == payload_words((1, 2, 3)) + payload_words("t")

    def test_precomputed_words_are_trusted(self):
        sim = HybridSimulator(path_graph(4), ModelConfig.hybrid())
        transport.send_batch(sim, [(0, 2, "payload", 7)])
        sim.advance_round()
        assert sim.per_node_inbox(GLOBAL_MODE)[2][0][3] == 7
        assert sim.metrics.global_words == 7

    def test_batch_send_validates_edges(self):
        sim = HybridSimulator(path_graph(4))
        with pytest.raises(NotANeighborError):
            transport.send_batch(sim, [(0, 1, "ok"), (0, 3, "not adjacent")], mode=LOCAL_MODE)

    def test_batch_send_validates_nodes(self):
        sim = HybridSimulator(path_graph(4), ModelConfig.hybrid())
        with pytest.raises(UnknownNodeError):
            transport.send_batch(sim, [(0, 99, "nope")])

    def test_batch_knowledge_enforced_in_hybrid0(self):
        sim = HybridSimulator(path_graph(6), ModelConfig.hybrid0(), seed=0)
        with pytest.raises(UnknownIdentifierError):
            transport.send_batch(sim, [(0, 5, "unknown target")])

    def test_batch_capacity_accounting_matches_per_message(self):
        sim = HybridSimulator(path_graph(40), ModelConfig.hybrid())
        budget = sim.global_budget_words()
        transport.send_batch(sim, [(0, target, 1) for target in range(1, budget + 2)])
        with pytest.raises(CapacityExceededError):
            sim.advance_round()
        assert sim.metrics.capacity_violations >= 1

    def test_exchange_does_not_harvest_foreign_traffic(self):
        from repro.simulator.engine import batched_global_exchange

        sim = HybridSimulator(path_graph(6), ModelConfig.hybrid())
        transport.send_batch(sim, [(0, 4, "foreign")], tag="other")
        delivered = batched_global_exchange(sim, [(1, 2, "mine")], tag="x")
        assert delivered == {2: ["mine"]}
        # The foreign message was still delivered in that round, just not
        # folded into the exchange's result.
        assert [r[1] for r in sim.per_node_inbox(GLOBAL_MODE)[4]] == ["foreign"]

    def test_per_node_inbox_requires_delivered_round(self):
        sim = HybridSimulator(path_graph(3))
        with pytest.raises(RoundLifecycleError):
            sim.per_node_inbox()

    def test_per_node_inbox_rejects_unknown_mode(self):
        sim = HybridSimulator(path_graph(3))
        sim.advance_round()
        with pytest.raises(ValueError):
            sim.per_node_inbox("carrier-pigeon")

    def test_per_message_sends_and_one_batch_share_accounting(self):
        batch_sim = HybridSimulator(path_graph(8), ModelConfig.hybrid())
        legacy_sim = HybridSimulator(path_graph(8), ModelConfig.hybrid())
        triples = [(0, 5, ("m", 1)), (1, 5, ("m", 2)), (2, 3, ("m", 3))]
        transport.send_batch(batch_sim, triples, tag="t")
        for sender, receiver, payload in triples:
            transport.send(legacy_sim, sender, receiver, payload, tag="t")
        batch_sim.advance_round()
        legacy_sim.advance_round()
        assert batch_sim.metrics.summary() == legacy_sim.metrics.summary()
        for node in batch_sim.nodes:
            assert transport.inbox(batch_sim, node) == transport.inbox(legacy_sim, node)


class TestRoundLifecycle:
    def test_round_counter_increments(self):
        sim = HybridSimulator(path_graph(3))
        assert sim.round == 0
        sim.advance_round()
        sim.advance_round()
        assert sim.round == 2
        assert sim.metrics.measured_rounds == 2

    def test_advance_rounds_bulk(self):
        sim = HybridSimulator(path_graph(3))
        sim.advance_rounds(5)
        assert sim.round == 5
        with pytest.raises(ValueError):
            sim.advance_rounds(-1)

    def test_inboxes_are_per_round(self):
        sim = HybridSimulator(path_graph(3))
        transport.send(sim, 0, 1, "first", mode=LOCAL_MODE)
        sim.advance_round()
        assert len(transport.inbox(sim, 1, LOCAL_MODE)) == 1
        sim.advance_round()
        assert transport.inbox(sim, 1, LOCAL_MODE) == []

    def test_charge_rounds_recorded(self):
        sim = HybridSimulator(path_graph(3))
        sim.charge_rounds(11, "analysis", "Lemma 4.1")
        assert sim.metrics.charged_rounds == 11
        assert sim.metrics.total_rounds == 11

    def test_message_accounting(self):
        sim = HybridSimulator(path_graph(4), ModelConfig.hybrid())
        transport.send(sim, 0, 1, "a", mode=LOCAL_MODE)
        transport.send(sim, 0, 3, "b", by_id=True)
        sim.advance_round()
        assert sim.metrics.local_messages == 1
        assert sim.metrics.global_messages == 1
        assert sim.metrics.global_words >= 1
