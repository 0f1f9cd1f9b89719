"""Seeded randomized invariants of the simulator's round.

Three conservation/equivalence properties of :class:`HybridSimulator`:

(a) **Flow conservation** — every round, the total number of global words sent
    equals the total number of global words received (and the same for local
    words): messages are never duplicated or dropped by the delivery path.
(b) **Capacity soundness** — ``capacity_violations == 0`` implies every node
    stayed within ``global_budget_words()`` on both the send and the receive
    side in every round (and, conversely, a forced overload is recorded).
(c) **Model equivalence** — one plane per mode and round, and the
    record-level round model (``oracles.delivery``) fed one message per call,
    produce identical inboxes, identical metrics and identical knowledge on
    the same seeded workload.
"""

import dataclasses
import random
from collections import defaultdict

import pytest

from repro.graphs.generators import erdos_renyi_graph
from repro.simulator.config import ModelConfig
from repro.simulator.messages import GLOBAL_MODE, LOCAL_MODE, payload_words
from repro.simulator.network import HybridSimulator

from oracles import transport
from oracles.delivery import ReferenceNetwork

SEEDS = [0, 1, 2, 3, 4]
ROUNDS = 6


def _random_workload(graph, rng, budget, tag_words=0):
    """Per-round lists of local and global (sender, receiver, payload) triples.

    Global traffic is generated within the per-node budget on the send side
    (counting ``tag_words`` per message when the caller will attach a tag);
    the receive side may collide, which is exactly what invariant (a) must
    survive.
    """
    nodes = sorted(graph.nodes)
    edges = sorted(graph.edges)
    workload = []
    for _ in range(ROUNDS):
        local = []
        for _ in range(rng.randrange(0, 3 * len(nodes))):
            u, v = edges[rng.randrange(len(edges))]
            if rng.random() < 0.5:
                u, v = v, u
            local.append((u, v, ("local", rng.randrange(1000))))
        global_, sent = [], defaultdict(int)
        for _ in range(rng.randrange(0, 4 * len(nodes))):
            u = nodes[rng.randrange(len(nodes))]
            v = nodes[rng.randrange(len(nodes))]
            payload = ("global", rng.randrange(1000))
            words = payload_words(payload) + tag_words
            if sent[u] + words > budget:
                continue
            sent[u] += words
            global_.append((u, v, payload))
        workload.append((local, global_))
    return workload


def _fresh_sim(graph, seed):
    return HybridSimulator(graph, ModelConfig.hybrid(), seed=seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_words_sent_equal_words_received_per_round(seed):
    graph = erdos_renyi_graph(40, 0.15, seed=seed)
    sim = _fresh_sim(graph, seed)
    rng = random.Random(1000 + seed)
    workload = _random_workload(graph, rng, sim.global_budget_words())

    for local, global_ in workload:
        local_queued = sum(payload_words(p) for _, _, p in local)
        global_queued = sum(payload_words(p) for _, _, p in global_)
        before_local, before_global = sim.metrics.local_words, sim.metrics.global_words
        transport.send_batch(sim, local, mode=LOCAL_MODE)
        transport.send_batch(sim, global_)
        sim.advance_round()
        # Sent words as accounted by the metrics...
        assert sim.metrics.local_words - before_local == local_queued
        assert sim.metrics.global_words - before_global == global_queued
        # ... equal the words found in the delivered per-node inboxes.
        local_received = sum(
            record[3]
            for records in sim.per_node_inbox(LOCAL_MODE).values()
            for record in records
        )
        global_received = sum(
            record[3]
            for records in sim.per_node_inbox(GLOBAL_MODE).values()
            for record in records
        )
        assert local_received == local_queued
        assert global_received == global_queued
        # Message *counts* are conserved too.
        assert sum(len(r) for r in sim.per_node_inbox(LOCAL_MODE).values()) == len(local)
        assert sum(len(r) for r in sim.per_node_inbox(GLOBAL_MODE).values()) == len(global_)


@pytest.mark.parametrize("seed", SEEDS)
def test_no_violations_implies_within_budget(seed):
    graph = erdos_renyi_graph(40, 0.15, seed=seed)
    sim = _fresh_sim(graph, seed)
    budget = sim.global_budget_words()
    rng = random.Random(2000 + seed)
    workload = _random_workload(graph, rng, budget)

    for _, global_ in workload:
        sent, received = defaultdict(int), defaultdict(int)
        for u, v, payload in global_:
            words = payload_words(payload)
            sent[u] += words
            received[v] += words
        transport.send_batch(sim, global_)
        sim.advance_round()
        if sim.metrics.capacity_violations == 0:
            # The implication under test: zero recorded violations means no
            # node exceeded the budget on either side this round.
            assert all(words <= budget for words in sent.values())
            assert all(words <= budget for words in received.values())
        else:
            # Receive-side collisions are the only way this workload can
            # overload (send side is generated within budget).
            assert max(received.values(), default=0) > budget
            break
    else:
        # Force an overload so the implication is demonstrably not vacuous:
        # aim every node's full budget at a single receiver.
        nodes = sim.nodes
        target = nodes[0]
        transport.send_batch(
            sim,
            [(u, target, tuple(range(budget - 1))) for u in nodes[1 : budget + 2]],
        )
        sim.advance_round()
        assert sim.metrics.capacity_violations > 0


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("hybrid0", [False, True])
def test_batch_sends_match_the_round_model(seed, hybrid0):
    graph = erdos_renyi_graph(32, 0.18, seed=seed)
    config = ModelConfig.hybrid0() if hybrid0 else ModelConfig.hybrid()
    batch_sim = HybridSimulator(graph, config, seed=seed)
    model = ReferenceNetwork(graph, config, seed=seed)
    assert batch_sim.nodes == model.nodes
    rng = random.Random(3000 + seed)
    budget = batch_sim.global_budget_words()
    workload = _random_workload(graph, rng, budget, tag_words=payload_words("gt"))

    if hybrid0:
        # HYBRID_0 senders may only address known identifiers; restrict the
        # global traffic to graph neighbors (known from round zero).
        edge_set = {frozenset(edge) for edge in graph.edges}
        workload = [
            (local, [t for t in global_ if frozenset((t[0], t[1])) in edge_set])
            for local, global_ in workload
        ]

    for local, global_ in workload:
        transport.send_batch(batch_sim, local, tag="lt", mode=LOCAL_MODE)
        transport.send_batch(batch_sim, global_, tag="gt")
        for u, v, payload in local:
            transport.send(model, u, v, payload, tag="lt", mode=LOCAL_MODE)
        for u, v, payload in global_:
            transport.send(model, u, v, payload, tag="gt")
        batch_sim.advance_round()
        model.advance_round()

        # Identical pre-bucketed inboxes (records carry sender/payload/tag/words).
        for mode in (LOCAL_MODE, GLOBAL_MODE):
            assert batch_sim.per_node_inbox(mode) == model.per_node_inbox(mode)
        # Identical Message inboxes through the adapter.
        for node in batch_sim.nodes:
            assert transport.inbox(batch_sim, node) == transport.inbox(model, node)
        # Identical metrics and knowledge.
        assert batch_sim.metrics.summary() == model.metrics.summary()
        assert dataclasses.asdict(batch_sim.metrics) == dataclasses.asdict(model.metrics)
        for node in batch_sim.nodes:
            assert batch_sim.known_ids(node) == model.known_ids(node)
