"""Degenerate inputs.

A one-node network, an empty plane, zero-word tokens and a plane whose every
token is individually larger than the round budget.  For each shape the
scheduler must match the greedy reference
(``oracles.scheduler.shard_transfers``) and both exchanges must complete; an
oversized token under strict enforcement must fail loudly with a typed error.
Theorem 1 on string and mixed int/str node labels must match the oracle
engines (``oracles.engines``) in metrics and identifier knowledge.  A graph
that a permanent link failure disconnects mid-run lets the resilient
dissemination finish, and then makes every diameter-based algorithm on the
churned graph fail with a typed error.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.core.dissemination import KDissemination
from repro.core.resilience import ResilientDissemination
from repro.core.shortest_paths import SkeletonAPSP
from repro.graphs.generators import path_graph
from repro.simulator.config import ModelConfig
from repro.simulator.engine import (
    TokenPlane,
    batched_global_exchange,
    plan_token_rounds,
    resilient_batched_global_exchange,
)
from repro.simulator.errors import CapacityExceededError
from repro.simulator.faults import FaultSchedule, LinkFailure
from repro.simulator.network import HybridSimulator

from oracles.engines import ORACLES, exchange_via
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
def test_plan_matches_the_greedy_reference(case, tag_words, arms):
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
def test_exchange_delivers_everything(case, arms):
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
def test_resilient_exchange_completes(case, faulted, arms):
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


def test_oversized_token_fails_loudly_in_strict_mode(arms):
    sim = _simulator("all-oversized", ModelConfig.hybrid())
    with pytest.raises(CapacityExceededError, match=r"^node 0 sent 1000\d global words"):
        batched_global_exchange(sim, _plane("all-oversized"), tag="degenerate")


def test_one_node_hybrid0_sends_to_itself(arms):
    sim = _simulator("one-node", ModelConfig.hybrid0())
    delivered = batched_global_exchange(sim, _plane("one-node"), tag="self")
    assert delivered == {0: [("p", 0), ("p", 1), ("p", 2)]}


# ----------------------------------------------------------------------
# Non-integer node labels: Theorem 1 against the oracle engines
# ----------------------------------------------------------------------
LABELLINGS = {
    "string": lambda v: f"v{v}",
    "mixed": lambda v: v if v % 2 else f"v{v}",
}


def _dissemination_outcome(graph, tokens):
    sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=5)
    result = KDissemination(sim, tokens).run()
    assert result.all_nodes_know_all_tokens()
    return result.metrics.summary(), {node: sim.known_ids(node) for node in sim.nodes}


@pytest.mark.parametrize("engine", ORACLES)
@pytest.mark.parametrize("labelling", sorted(LABELLINGS))
def test_dissemination_on_non_integer_labels_matches_the_oracles(labelling, engine):
    """Node labels never reach the cluster layout: identifiers are the
    simulator's integers, so string and mixed int/str labels run the one
    array path and match the oracle engines in metrics and knowledge."""
    grid = nx.convert_node_labels_to_integers(nx.grid_2d_graph(5, 6))
    graph = nx.relabel_nodes(grid, LABELLINGS[labelling])
    nodes = sorted(graph.nodes, key=str)
    tokens = {nodes[i]: [("tok", i, j) for j in range(i % 3 + 1)] for i in range(0, 30, 2)}
    outcome = _dissemination_outcome(graph, tokens)
    with exchange_via(engine):
        assert _dissemination_outcome(graph, tokens) == outcome
    assert outcome[0]["global_messages"] > 0


# ----------------------------------------------------------------------
# A graph disconnected by a permanent link failure
# ----------------------------------------------------------------------
def test_a_permanent_link_failure_that_disconnects_the_graph():
    """The resilient run finishes before the cut is committed; afterwards the
    graph is genuinely split, so algorithms that need the diameter refuse it
    with the typed error instead of running on a disconnected network."""
    graph = nx.path_graph(12)
    schedule = FaultSchedule(link_failures=(LinkFailure(5, 6, 0, 2, permanent=True),))
    sim = HybridSimulator(graph, ModelConfig.hybrid(), seed=0, fault_schedule=schedule)
    result = ResilientDissemination(sim, {0: ["left"], 11: ["right"]}).run()
    assert result.complete and result.all_live_nodes_know_all_tokens()
    assert result.removed_edges == [(5, 6)] == sim.committed_link_removals
    assert not graph.has_edge(5, 6) and not nx.is_connected(graph)
    for algorithm in (
        lambda: KDissemination(sim, {0: ["left"]}),
        lambda: SkeletonAPSP(sim, seed=1),
    ):
        with pytest.raises(ValueError, match=r"^graph is disconnected; diameter undefined$"):
            algorithm().run()
