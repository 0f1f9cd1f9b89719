"""Plane delivery in every operating mode, checked against the oracles.

A round's plane traffic passes through the fault filter, the grouped capacity
counters, the capacity sweep and identifier learning.  The record-level round
model (``oracles.delivery.ReferenceNetwork``) and the oracle exchange engines
reach the same quantities through separate per-message code, so for each
mode — fault-free, a crash + link-failure + drop schedule, and charge-only —
the plane path must match them exactly:

* a congested multi-round exchange: the metrics of
  ``oracles.scheduler.reference_batched_global_exchange`` run on the round
  model (and, fault-free, its deliveries);
* HYBRID_0 dissemination: the metrics and every node's identifier knowledge
  of the per-message ``"legacy"`` oracle engine;
* a deliberately overloaded round: the round model's violation counts, and
  under strict enforcement the same error naming the same node.

A charge-only plane run is compared against the payload-carrying oracle run,
which is the accounting it must reproduce.
"""

from __future__ import annotations

import random

import pytest

from repro.core.dissemination import KDissemination
from repro.graphs.generators import (
    barbell_graph,
    broom_graph,
    erdos_renyi_graph,
    path_graph,
)
from repro.simulator.config import ModelConfig
from repro.simulator.engine import TokenPlane, batched_global_exchange
from repro.simulator.errors import CapacityExceededError
from repro.simulator.faults import CrashEvent, FaultSchedule, LinkFailure
from repro.simulator.network import HybridSimulator

from oracles import transport
from oracles.delivery import ReferenceNetwork
from oracles.engines import exchange_via
from oracles.scheduler import reference_batched_global_exchange

SEEDS = [0, 1, 2]
GROUP_COUNTS = [1, 2, 4, 7]
MODES = ["fault-free", "faulted", "charge-only"]

DISSEMINATION_FAMILIES = {
    "erdos_renyi": lambda seed: erdos_renyi_graph(30, 0.18, seed=seed + 40),
    "path": lambda seed: path_graph(30),
    "barbell": lambda seed: barbell_graph(8, 12),
    "broom": lambda seed: broom_graph(18, 10),
}


# ----------------------------------------------------------------------
# Workloads and schedules
# ----------------------------------------------------------------------
def _congested_triples(rng, n, budget, groups):
    """``groups`` node-disjoint congested groups, each with one hot member."""
    nodes = list(range(n))
    rng.shuffle(nodes)
    size = n // groups
    triples = []
    for g in range(groups):
        members = nodes[g * size : (g + 1) * size]
        hot = members[0]
        count = 2 * budget + rng.randrange(5, 20)
        for i in range(count):
            sender = rng.choice(members)
            receiver = hot if i % 4 else rng.choice(members)
            triples.append((sender, receiver, ("m", g, i)))
    # Traffic from and to the nodes the fault schedule crashes, enough to
    # keep them busy past the rounds their crash windows open.
    for i in range(4 * budget):
        crashed = (1, 4)[i % 2]
        other = rng.randrange(n)
        pair = (crashed, other) if i % 4 < 2 else (other, crashed)
        triples.append((pair[0], pair[1], ("c", i)))
    return triples


def _exchange_schedule(seed):
    """Crashes (one transient, one permanent), a failed link and both drop
    rates.  Failed links only filter local traffic, so a global exchange
    exercises the crash and drop branches."""
    return FaultSchedule(
        seed=seed,
        crashes=(
            CrashEvent(node=1, crash_round=1, recover_round=3),
            CrashEvent(node=4, crash_round=2),
        ),
        link_failures=(LinkFailure(2, 3, start_round=1, end_round=5),),
        global_drop_rate=0.15,
        local_drop_rate=0.1,
    )


def _dissemination_schedule(seed):
    """Transient crash only: the algorithm must still terminate."""
    return FaultSchedule(
        seed=seed,
        crashes=(CrashEvent(node=1, crash_round=2, recover_round=4),),
    )


def _fault_kwargs(mode, seed, schedule_factory):
    if mode == "faulted":
        return {"fault_schedule": schedule_factory(seed)}
    return {}


def _knowledge_state(sim):
    return {
        identifier: sorted(sim.known_ids(sim.node_of_id(identifier)))
        for identifier in sim.all_ids()
    }


# ----------------------------------------------------------------------
# Exchange: plane engine vs the reference exchange on the round model
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("groups", GROUP_COUNTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_exchange_metrics_match_the_reference_exchange(seed, groups, mode, arms):
    graph = erdos_renyi_graph(36, 0.15, seed=seed)
    rng = random.Random(f"delivery-{seed}-{groups}-{mode}")
    budget = HybridSimulator(graph, ModelConfig(strict=False)).global_budget_words()
    triples = _congested_triples(rng, 36, min(budget, 57), groups)
    faults = _fault_kwargs(mode, seed, _exchange_schedule)

    reference_sim = ReferenceNetwork(graph, ModelConfig(strict=False), seed=seed, **faults)
    expected = reference_batched_global_exchange(reference_sim, list(triples), tag="sd")

    faults = _fault_kwargs(mode, seed, _exchange_schedule)
    sim = HybridSimulator(
        graph,
        ModelConfig(strict=False),
        seed=seed,
        charge_only=mode == "charge-only",
        **faults,
    )
    delivered = batched_global_exchange(
        sim, list(triples), tag="sd", collect=mode == "fault-free"
    )
    assert sim.metrics.diff(reference_sim.metrics) == {}
    assert sim.metrics.summary() == reference_sim.metrics.summary()
    assert sim.metrics.total_rounds > 1
    if mode == "fault-free":
        assert delivered == expected
    if mode == "faulted":
        assert sim.metrics.summary()["dropped_messages"] > 0


# ----------------------------------------------------------------------
# Dissemination: plane engine vs the per-message oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("family", sorted(DISSEMINATION_FAMILIES))
@pytest.mark.parametrize("seed", SEEDS[:2])
def test_dissemination_matches_the_per_message_oracle(seed, family, mode, arms):
    graph = DISSEMINATION_FAMILIES[family](seed)
    rng = random.Random(f"kdiss-{seed}-{family}-{mode}")
    tokens = {}
    for index in range(16):
        tokens.setdefault(rng.randrange(graph.number_of_nodes()), []).append(
            ("tok", index)
        )

    def run(engine, charge_only):
        sim = HybridSimulator(
            graph,
            ModelConfig.hybrid0(),
            seed=seed,
            **_fault_kwargs(mode, seed, _dissemination_schedule),
        )
        with exchange_via(engine):
            result = KDissemination(sim, tokens, charge_only=charge_only).run()
        return result.metrics, _knowledge_state(sim)

    oracle_metrics, oracle_known = run("legacy", False)
    metrics, known = run("batch", mode == "charge-only")
    assert metrics.diff(oracle_metrics) == {}
    assert metrics.summary() == oracle_metrics.summary()
    assert known == oracle_known


# ----------------------------------------------------------------------
# Capacity sweep: plane sends vs the round model on one overloaded round
# ----------------------------------------------------------------------
def _run_overload(seed, mode, hot_receivers, path, *, strict):
    rng = random.Random(f"overload-{seed}-{mode}-{hot_receivers}")
    if path == "plane":
        network = HybridSimulator
        kwargs = {"charge_only": mode == "charge-only"}
    else:
        network, kwargs = ReferenceNetwork, {}
    sim = network(
        path_graph(24),
        ModelConfig.hybrid(strict=strict),
        seed=seed,
        **kwargs,
        **_fault_kwargs(mode, seed, _exchange_schedule),
    )
    budget = sim.global_budget_words()
    count = 36 * max(1, budget // 2)
    hot = [5, 11, 17][:hot_receivers]
    senders = [rng.randrange(24) for _ in range(count)]
    receivers = [rng.choice(hot) for _ in range(count)]
    words = [rng.choice([1, 2, 3]) for _ in range(count)]
    payloads = [("p", i) for i in range(count)]
    try:
        if path == "plane":
            sim.global_send_plane(
                TokenPlane(senders, receivers, words, payloads), tag="ov"
            )
        else:
            transport.send_batch(
                sim,
                [(senders[i], receivers[i], payloads[i], words[i]) for i in range(count)],
                tag="ov",
            )
        sim.advance_round()
    except CapacityExceededError as exc:
        return sim.metrics, str(exc)
    return sim.metrics, None


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("hot_receivers", [1, 2, 3])
@pytest.mark.parametrize("seed", SEEDS[:2])
def test_capacity_sweep_matches_the_round_model(seed, hot_receivers, mode, arms):
    metrics, error = _run_overload(seed, mode, hot_receivers, "plane", strict=False)
    model_metrics, model_error = _run_overload(
        seed, mode, hot_receivers, "model", strict=False
    )
    assert error is None and model_error is None
    assert metrics.diff(model_metrics) == {}
    assert metrics.summary() == model_metrics.summary()
    assert metrics.capacity_violations > 0


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", SEEDS[:2])
def test_strict_sweep_names_the_same_offender(seed, mode, arms):
    metrics, error = _run_overload(seed, mode, 2, "plane", strict=True)
    model_metrics, model_error = _run_overload(seed, mode, 2, "model", strict=True)
    assert error is not None and "global words in round 0" in error
    assert error == model_error
    assert metrics.diff(model_metrics) == {}
