"""Degenerate inputs on both array backends.

A one-node network, an empty plane, zero-word tokens and a plane whose every
token is individually larger than the round budget.  For each shape the
scheduler must match the greedy reference
(``oracles.scheduler.shard_transfers``) and both exchanges must complete; an
oversized token under strict enforcement must fail loudly with a typed error.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.graphs.generators import path_graph
from repro.simulator.config import ModelConfig
from repro.simulator.engine import (
    TokenPlane,
    batched_global_exchange,
    plan_token_rounds,
    resilient_batched_global_exchange,
)
from repro.simulator.errors import CapacityExceededError
from repro.simulator.faults import FaultSchedule
from repro.simulator.network import HybridSimulator

from oracles.scheduler import shard_transfers


def _one_node():
    graph = nx.Graph()
    graph.add_node(0)
    return graph


#: name -> (graph factory, senders, receivers, words)
CASES = {
    "one-node": (_one_node, [0, 0, 0], [0, 0, 0], [1, 2, 3]),
    "one-node-empty": (_one_node, [], [], []),
    "empty-plane": (lambda: path_graph(5), [], [], []),
    "zero-words": (lambda: path_graph(5), [0, 1, 2, 0], [3, 4, 0, 3], [0, 0, 0, 0]),
    "all-oversized": (
        lambda: path_graph(5), [0, 1, 2, 0, 4], [3, 4, 0, 3, 1], [10_000] * 5
    ),
}


def _plane(case):
    _, senders, receivers, words = CASES[case]
    return TokenPlane(
        senders, receivers, words, [("p", i) for i in range(len(words))]
    )


def _simulator(case, config=None, **kwargs):
    return HybridSimulator(
        CASES[case][0](), config or ModelConfig(strict=False), seed=0, **kwargs
    )


@pytest.mark.parametrize("tag_words", [0, 1])
@pytest.mark.parametrize("case", sorted(CASES))
def test_plan_matches_the_greedy_reference(case, tag_words, backend):
    _, senders, receivers, words = CASES[case]
    budget = _simulator(case).global_budget_words()
    tokens = [(senders[i], receivers[i], i, words[i]) for i in range(len(words))]
    expected = [
        [token[2] for token in shard]
        for shard in shard_transfers(tokens, budget, tag_words)
    ]
    shards = plan_token_rounds(_plane(case), budget, tag_words)
    assert [[int(p) for p in shard] for shard in shards] == expected
    if case == "all-oversized":
        assert expected == [[p] for p in range(len(words))]


@pytest.mark.parametrize("case", sorted(CASES))
def test_exchange_delivers_everything(case, backend):
    sim = _simulator(case)
    delivered = batched_global_exchange(sim, _plane(case), tag="degenerate")
    senders = CASES[case][1]
    assert sum(len(payloads) for payloads in delivered.values()) == len(senders)
    if not senders:
        assert delivered == {}
        assert sim.metrics.total_rounds == 0
    if case == "all-oversized":
        assert sim.metrics.total_rounds == len(senders)
        assert sim.metrics.capacity_violations > 0


@pytest.mark.parametrize("faulted", [False, True])
@pytest.mark.parametrize("case", sorted(CASES))
def test_resilient_exchange_completes(case, faulted, backend):
    kwargs = {}
    if faulted:
        kwargs["fault_schedule"] = FaultSchedule(seed=3, global_drop_rate=0.3)
    sim = _simulator(case, **kwargs)
    result = resilient_batched_global_exchange(sim, _plane(case), tag="degenerate")
    senders = CASES[case][1]
    assert result.undelivered_positions == []
    assert sum(len(payloads) for payloads in result.delivered.values()) == len(senders)
    if not senders:
        assert result.attempts == 0 and sim.metrics.total_rounds == 0


def test_oversized_token_fails_loudly_in_strict_mode(backend):
    sim = _simulator("all-oversized", ModelConfig.hybrid())
    with pytest.raises(CapacityExceededError, match=r"^node 0 sent 1000\d global words"):
        batched_global_exchange(sim, _plane("all-oversized"), tag="degenerate")


def test_one_node_hybrid0_sends_to_itself(backend):
    sim = _simulator("one-node", ModelConfig.hybrid0())
    delivered = batched_global_exchange(sim, _plane("one-node"), tag="self")
    assert delivered == {0: [("p", 0), ("p", 1), ("p", 2)]}
