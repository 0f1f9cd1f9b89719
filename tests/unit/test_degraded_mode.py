"""Degraded capacity mode (``ModelConfig(strict=False)``) test coverage.

In strict mode (the default, used everywhere the paper claims a budget holds)
capacity overruns raise; with ``strict=False`` they must be *counted* in
``RoundMetrics.capacity_violations`` while the traffic is still delivered —
and the count must match the record-level round model
(``oracles.delivery.ReferenceNetwork``) and every engine (the plane exchange
or one of the oracle engines in ``tests/oracles``), including the
oversized-message branches where a single token exceeds the whole per-node or
per-edge budget.
"""

from __future__ import annotations

import pytest

from repro.graphs.generators import path_graph
from repro.simulator.config import ModelConfig
from repro.simulator.engine import BatchAlgorithm
from repro.simulator.errors import (
    CapacityExceededError,
    LocalBandwidthExceededError,
)
from repro.simulator.faults import CapacityDegradation, FaultSchedule
from repro.simulator.messages import GLOBAL_MODE, LOCAL_MODE
from repro.simulator.network import HybridSimulator

from oracles import transport
from oracles.delivery import ReferenceNetwork
from oracles.engines import ENGINES, exchange_via


def _overflow_workload(sim):
    """One sender exceeds its send budget by a few one-word messages."""
    budget = sim.global_budget_words()
    count = budget + 3
    receivers = [1 + (i % (sim.n - 1)) for i in range(count)]
    return [0] * count, receivers, ["x"] * count


# ----------------------------------------------------------------------
# Send-side overflow: counted like the round model, raised in strict
# ----------------------------------------------------------------------
def test_send_overflow_counted_like_the_round_model():
    graph = path_graph(12)
    config = ModelConfig.hybrid(strict=False)

    plane_sim = HybridSimulator(graph, config, seed=0)
    senders, receivers, payloads = _overflow_workload(plane_sim)
    transport.send_ids(plane_sim, senders, receivers, payloads)
    plane_sim.advance_round()

    model = ReferenceNetwork(graph, config, seed=0)
    transport.send_ids(model, senders, receivers, payloads)
    model.advance_round()

    assert plane_sim.metrics.capacity_violations == 1
    assert plane_sim.metrics.summary() == model.metrics.summary()
    # Degraded mode still delivers everything.
    assert plane_sim.per_node_inbox(GLOBAL_MODE) == model.per_node_inbox(GLOBAL_MODE)
    assert sum(len(v) for v in plane_sim.per_node_inbox(GLOBAL_MODE).values()) == len(payloads)


@pytest.mark.parametrize("network", [HybridSimulator, ReferenceNetwork], ids=["plane", "model"])
def test_send_overflow_raises_in_strict_mode(network):
    sim = network(path_graph(12), ModelConfig.hybrid(), seed=0)
    senders, receivers, payloads = _overflow_workload(sim)
    transport.send_ids(sim, senders, receivers, payloads)
    with pytest.raises(CapacityExceededError):
        sim.advance_round()


# ----------------------------------------------------------------------
# Receive-side overflow: recorded in both modes, raised only when enforced
# ----------------------------------------------------------------------
@pytest.mark.parametrize("strict", [True, False])
def test_receive_overflow_is_recorded_like_the_round_model(strict):
    graph = path_graph(30)
    config = ModelConfig.hybrid(strict=strict)
    budget = HybridSimulator(graph, config).global_budget_words()
    count = budget + 4
    senders = list(range(1, count + 1))

    plane_sim = HybridSimulator(graph, config, seed=1)
    transport.send_ids(plane_sim, senders, [0] * count, ["y"] * count)
    plane_sim.advance_round()

    model = ReferenceNetwork(graph, config, seed=1)
    transport.send_batch(model, [(s, 0, "y") for s in senders])
    model.advance_round()

    # Receive overload raises only under enforce_receive_capacity; by default
    # both strictness modes just count it — one violation, same summary.
    assert plane_sim.metrics.capacity_violations == 1
    assert plane_sim.metrics.summary() == model.metrics.summary()

    enforcing = HybridSimulator(graph, config, seed=1)
    enforcing.enforce_receive_capacity = True
    transport.send_ids(enforcing, senders, [0] * count, ["y"] * count)
    if strict:
        with pytest.raises(CapacityExceededError):
            enforcing.advance_round()
    else:
        enforcing.advance_round()
        assert enforcing.metrics.capacity_violations == 1


# ----------------------------------------------------------------------
# Local oversized-message branch (finite lambda)
# ----------------------------------------------------------------------
def test_local_oversized_counted_like_the_round_model():
    graph = path_graph(8)
    config = ModelConfig.congest(strict=False)
    limit = config.resolve_local_word_limit()
    assert limit is not None
    payload = "z" * (8 * (limit + 2))  # > limit words

    plane_sim = HybridSimulator(graph, config, seed=0)
    transport.send_ids(plane_sim, [0, 1], [1, 2], [payload, payload], mode=LOCAL_MODE)
    plane_sim.advance_round()

    model = ReferenceNetwork(graph, config, seed=0)
    transport.send_batch(model, [(0, 1, payload), (1, 2, payload)], mode=LOCAL_MODE)
    model.advance_round()

    assert plane_sim.metrics.capacity_violations == 2
    assert plane_sim.metrics.summary() == model.metrics.summary()
    assert plane_sim.per_node_inbox(LOCAL_MODE) == model.per_node_inbox(LOCAL_MODE)


@pytest.mark.parametrize("network", [HybridSimulator, ReferenceNetwork], ids=["plane", "model"])
def test_local_oversized_raises_in_strict_mode(network):
    config = ModelConfig.congest()
    sim = network(path_graph(8), config, seed=0)
    payload = "z" * (8 * (config.resolve_local_word_limit() + 2))
    with pytest.raises(LocalBandwidthExceededError):
        transport.send_ids(sim, [0], [1], [payload], mode=LOCAL_MODE)


# ----------------------------------------------------------------------
# Engine agreement: oversized global tokens through the full exchange
# ----------------------------------------------------------------------
class _OversizedExchange(BatchAlgorithm):
    """One-phase algorithm pushing a workload with oversized tokens."""

    def __init__(self, simulator, triples):
        super().__init__(simulator)
        self.triples = triples
        self.delivered = None

    def phases(self):
        return (("oversized-exchange", self._phase),)

    def _phase(self):
        self.delivered = self.exchange(list(self.triples), "dm")

    def finish(self):
        return self.delivered


def test_exchange_engines_agree_in_degraded_mode():
    graph = path_graph(16)
    config = ModelConfig.hybrid(strict=False)
    budget = HybridSimulator(graph, config).global_budget_words()
    oversized = "w" * (8 * (budget + 5))
    triples = [(i % 4, 8 + (i % 4), ("t", i)) for i in range(20)]
    triples.insert(7, (5, 9, oversized))
    triples.append((6, 10, oversized))

    counts = {}
    for engine in ENGINES:
        sim = HybridSimulator(graph, config, seed=2)
        with exchange_via(engine):
            delivered = _OversizedExchange(sim, triples).run()
        assert delivered[9].count(oversized) == 1, engine
        assert delivered[10].count(oversized) == 1, engine
        summary = sim.metrics.summary()
        counts[engine] = (
            summary["measured_rounds"],
            summary["global_messages"],
            summary["global_words"],
            summary["capacity_violations"],
        )
    assert counts["batch"][3] > 0
    assert counts["batch-reference"] == counts["batch"], counts
    assert counts["legacy"] == counts["batch"], counts


# ----------------------------------------------------------------------
# Degradation-induced overflow (fault schedule x strictness)
# ----------------------------------------------------------------------
def test_degradation_induced_overflow_is_counted_not_raised():
    graph = path_graph(10)
    schedule = FaultSchedule(degradations=(CapacityDegradation(0.25),))
    full_budget = HybridSimulator(graph, ModelConfig.hybrid()).global_budget_words()

    sim = HybridSimulator(
        graph, ModelConfig.hybrid(strict=False), seed=0, fault_schedule=schedule
    )
    degraded_budget = sim.global_budget_words()
    assert degraded_budget < full_budget
    # Legal under the healthy budget, an overrun under the degraded one.
    receivers = [1 + (i % 8) for i in range(full_budget)]
    transport.send_ids(sim, [0] * full_budget, receivers, ["d"] * full_budget)
    sim.advance_round()
    assert sim.metrics.capacity_violations == 1

    strict_sim = HybridSimulator(
        graph, ModelConfig.hybrid(), seed=0, fault_schedule=schedule
    )
    transport.send_ids(strict_sim, [0] * full_budget, receivers, ["d"] * full_budget)
    with pytest.raises(CapacityExceededError):
        strict_sim.advance_round()


@pytest.mark.parametrize("strict", [False, True])
def test_node_scoped_degradation_matches_the_round_model(strict):
    """Two node-scoped windows: the per-node sweep counts both offenders like
    the round model, and a strict error names the lowest-indexed one with its
    own degraded budget, although the other one's traffic came first."""
    graph = path_graph(12)
    schedule = FaultSchedule(
        degradations=(
            CapacityDegradation(0.5, node=7),
            CapacityDegradation(0.25, node=3),
        )
    )
    budget = HybridSimulator(graph, ModelConfig.hybrid()).global_budget_words()
    count = budget // 2 + 1  # over both degraded budgets, under the full one
    senders = [7] * count + [3] * count
    receivers = [(i % 11) + (i % 11 >= 7) for i in range(count)]
    receivers += [(i % 11) + (i % 11 >= 3) for i in range(count)]

    def run(network):
        sim = network(
            graph, ModelConfig.hybrid(strict=strict), seed=0, fault_schedule=schedule
        )
        transport.send_ids(sim, senders, receivers, ["n"] * len(senders))
        try:
            sim.advance_round()
        except CapacityExceededError as exc:
            return sim.metrics.summary(), str(exc)
        return sim.metrics.summary(), None

    plane = run(HybridSimulator)
    assert plane == run(ReferenceNetwork)
    if strict:
        assert plane[1] == (
            f"node 3 sent {count} global words in round 0, budget is "
            f"{max(1, int(budget * 0.25))}"
        )
    else:
        assert plane == (plane[0], None) and plane[0]["capacity_violations"] == 2
