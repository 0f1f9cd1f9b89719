"""Charge-only mode must be *accounting-identical* to payload runs.

Charge-only traffic carries only the (sender, receiver, words) columns — no
payload objects are materialised, queued or delivered — yet schedules, round
counts and every :class:`~repro.simulator.metrics.RoundMetrics` field must be
bit-identical to the payload run, because the engine's accounting reads only
the words columns.  Both activation levels are pinned across the 6-family x
3-seed grid:

* **algorithm-level** — ``KDissemination(..., charge_only=True)`` builds
  payload-free planes at the source;
* **simulator-level** — ``HybridSimulator(charge_only=True)`` drops payload
  references when plane batches are queued.

The exchanges take payload-free ``TokenPlane(senders, receivers, words)``
planes as they are, so they are pinned against their payload twins too.

Reading payload *content* out of charge-only traffic is a hard
:class:`~repro.simulator.errors.ChargeOnlyError`, never a silent wrong
answer.  The fault layer must filter payload-free planes exactly like
payload planes: a crash/drop/link-failure schedule replays bit-identically
in both modes (the fault x charge-only regression).
"""

from __future__ import annotations

import random

import pytest

from repro.core.dissemination import KDissemination
from repro.graphs.generators import (
    barbell_graph,
    broom_graph,
    cycle_graph,
    erdos_renyi_graph,
    grid_graph,
    path_graph,
)
from repro.simulator.config import ModelConfig
from repro.simulator.engine import (
    TokenPlane,
    batched_global_exchange,
    resilient_batched_global_exchange,
)
from repro.simulator.errors import ChargeOnlyError
from repro.simulator.faults import CrashEvent, FaultSchedule, LinkFailure
from repro.simulator.messages import GLOBAL_MODE, LOCAL_MODE
from repro.simulator.network import HybridSimulator

from oracles import transport
from oracles.scheduler import iter_triples

SEEDS = [0, 1, 2]

GRAPH_FAMILIES = {
    "path": lambda seed: path_graph(30),
    "cycle": lambda seed: cycle_graph(30),
    "grid": lambda seed: grid_graph(6, 2),
    "barbell": lambda seed: barbell_graph(8, 12),
    "broom": lambda seed: broom_graph(18, 10),
    "erdos_renyi": lambda seed: erdos_renyi_graph(30, 0.12, seed=seed),
}

CASES = [(family, seed) for family in sorted(GRAPH_FAMILIES) for seed in SEEDS]


def _ids(case):
    family, seed = case
    return f"{family}-s{seed}"


# ----------------------------------------------------------------------
# The grid: payload vs algorithm-level vs simulator-level charge-only
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_dissemination_charge_only_is_accounting_identical(case, arms):
    family, seed = case
    graph = GRAPH_FAMILIES[family](seed)
    holders = sorted(graph.nodes, key=str)
    rng = random.Random(f"co-{family}-{seed}")
    tokens = {}
    for index in range(rng.randrange(10, 22)):
        tokens.setdefault(rng.choice(holders), []).append(("tok", index))

    def run(sim_charge_only, algo_charge_only):
        sim = HybridSimulator(
            graph, ModelConfig.hybrid0(), seed=seed, charge_only=sim_charge_only
        )
        algo = KDissemination(sim, tokens, charge_only=algo_charge_only)
        result = algo.run()
        assert result.all_nodes_know_all_tokens()
        return result.metrics, tuple(algo.phase_log)

    payload_metrics, payload_phases = run(False, False)
    algo_metrics, algo_phases = run(False, True)
    sim_metrics, sim_phases = run(True, False)

    assert payload_metrics.diff(algo_metrics) == {}
    assert payload_metrics.diff(sim_metrics) == {}
    assert algo_phases == payload_phases
    assert sim_phases == payload_phases
    assert payload_metrics.capacity_violations == 0


def _payload_free(plane):
    """``plane``'s id/word columns without its payloads."""
    return TokenPlane(plane.senders, plane.receivers, plane.words)


@pytest.mark.parametrize("seed", SEEDS)
def test_exchange_level_charge_only_is_accounting_identical(seed, arms):
    graph = erdos_renyi_graph(28, 0.18, seed=seed)
    rng = random.Random(900 + seed)
    triples = [
        (
            rng.randrange(28),
            rng.randrange(28),
            ("m", i, "x" * (rng.choice([1, 2, 5, 9]) * 8)),
        )
        for i in range(rng.randrange(60, 140))
    ]

    def run(charge_only):
        sim = HybridSimulator(graph, ModelConfig(strict=False), seed=seed)
        plane = TokenPlane.from_triples(sim, triples)
        if charge_only:
            plane = _payload_free(plane)
        batched_global_exchange(sim, plane, tag="ce", collect=False)
        return sim.metrics

    payload_metrics = run(False)
    charged_metrics = run(True)
    assert payload_metrics.diff(charged_metrics) == {}
    assert payload_metrics.global_messages > 0


# ----------------------------------------------------------------------
# Guards: payload content is unreachable, loudly
# ----------------------------------------------------------------------
def test_collect_from_charge_only_exchange_raises(arms):
    sim = HybridSimulator(path_graph(8), ModelConfig.hybrid(), seed=0)
    plane = TokenPlane([0, 1], [5, 6], [1, 1])
    with pytest.raises(ChargeOnlyError):
        batched_global_exchange(sim, plane, tag="g")
    with pytest.raises(ChargeOnlyError):
        resilient_batched_global_exchange(sim, plane, tag="g")
    # The oracles cannot lower it to tuples either.
    with pytest.raises(ChargeOnlyError):
        list(iter_triples(plane, sim))
    # collect=False is the supported combination and must work.
    assert batched_global_exchange(sim, plane, tag="g", collect=False) == {}


def test_charge_only_inbox_read_raises(arms):
    sim = HybridSimulator(path_graph(8), ModelConfig.hybrid(), seed=0, charge_only=True)
    batched_global_exchange(sim, [(0, 5, "x"), (1, 6, "y")], tag="g", collect=False)
    with pytest.raises(ChargeOnlyError):
        sim.per_node_inbox(GLOBAL_MODE)


# ----------------------------------------------------------------------
# Fault x charge-only: filtering works on payload-free planes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_fault_schedule_replays_identically_charge_only(seed, arms):
    """Crash windows, drops and retransmission under charge-only traffic
    must replay the payload run's fault trajectory bit-for-bit."""
    graph = erdos_renyi_graph(24, 0.2, seed=seed)
    schedule = FaultSchedule(
        seed=seed,
        global_drop_rate=0.3,
        crashes=(CrashEvent(node=3, crash_round=1, recover_round=5),),
    )
    rng = random.Random(1500 + seed)
    triples = [
        (rng.randrange(24), rng.randrange(24), ("f", i))
        for i in range(rng.randrange(40, 90))
    ]

    def run(charge_only):
        sim = HybridSimulator(
            graph, ModelConfig.hybrid(), seed=seed, fault_schedule=schedule
        )
        plane = TokenPlane.from_triples(sim, triples)
        if charge_only:
            plane = _payload_free(plane)
        outcome = resilient_batched_global_exchange(
            sim, plane, tag="fco", collect=False
        )
        return (
            sim.metrics.summary(),
            outcome.attempts,
            outcome.retransmissions,
            sorted(outcome.undelivered_positions),
        )

    payload_run = run(False)
    charged_run = run(True)
    assert charged_run == payload_run
    assert payload_run[0]["dropped_messages"] > 0  # faults actually fired


def test_failed_edge_filtering_matches_on_charge_only_planes(arms):
    """Local-mode link-failure filtering must drop the same records whether
    or not the plane carries payloads."""
    graph = path_graph(8)
    schedule = FaultSchedule(link_failures=(LinkFailure(2, 3, end_round=2),))

    def run(charge_only):
        sim = HybridSimulator(
            graph,
            ModelConfig.hybrid(),
            seed=0,
            fault_schedule=schedule,
            charge_only=charge_only,
        )
        for r in range(3):
            transport.send_ids(
                sim,
                [2, 3, 4],
                [3, 2, 5],
                [("p", r, 0), ("p", r, 1), ("p", r, 2)],
                tag="lf",
                mode=LOCAL_MODE,
            )
            sim.advance_round()
        return sim.metrics.summary()

    payload_summary = run(False)
    charged_summary = run(True)
    assert charged_summary == payload_summary
    assert payload_summary["dropped_messages"] == 4


@pytest.mark.parametrize("case", CASES[::3], ids=_ids)
def test_crashed_endpoint_dissemination_identical_charge_only(case, arms):
    """A transient crash window mid-dissemination: payload and simulator-level
    charge-only runs must agree on every metric including the fault counters."""
    family, seed = case
    graph = GRAPH_FAMILIES[family](seed)
    holders = sorted(graph.nodes, key=str)
    rng = random.Random(f"cof-{family}-{seed}")
    tokens = {}
    for index in range(12):
        tokens.setdefault(rng.choice(holders), []).append(("tok", index))
    schedule = FaultSchedule(
        seed=seed, crashes=(CrashEvent(node=1, crash_round=2, recover_round=4),)
    )

    def run(charge_only):
        sim = HybridSimulator(
            graph,
            ModelConfig.hybrid0(),
            seed=seed,
            fault_schedule=schedule,
            charge_only=charge_only,
        )
        return KDissemination(sim, tokens).run().metrics.summary()

    assert run(True) == run(False)


# ----------------------------------------------------------------------
# Small tuple batches (oracles.transport: one sub-32-token plane per call,
# the simulator's scalar arm), charge-only
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_tuple_batches_charge_only_are_accounting_identical(seed, arms):
    """Multi-round small-batch traffic (global + local) under a crash +
    drop schedule: charge-only must replay every metric bit-for-bit."""
    n = 24
    graph = path_graph(n)
    schedule = FaultSchedule(
        seed=seed,
        crashes=(CrashEvent(node=2, crash_round=1, recover_round=3),),
        link_failures=(LinkFailure(5, 6, end_round=3),),
        global_drop_rate=0.2,
        local_drop_rate=0.15,
    )

    def run(charge_only):
        rng = random.Random(f"tuple-{seed}")
        sim = HybridSimulator(
            graph,
            ModelConfig.hybrid(strict=False),
            seed=seed,
            fault_schedule=schedule,
            charge_only=charge_only,
        )
        for r in range(4):
            transport.send_batch(
                sim,
                [
                    (rng.randrange(n), rng.randrange(n), ("p", r, i))
                    for i in range(40)
                ],
                tag="tg",
            )
            transport.send_batch(
                sim,
                [(i, i + 1, ("l", r, i)) for i in range(0, n - 1, 2)],
                tag="tl",
                mode=LOCAL_MODE,
            )
            sim.advance_round()
        return sim.metrics.summary()

    payload_summary = run(False)
    charged_summary = run(True)
    assert charged_summary == payload_summary
    assert payload_summary["dropped_messages"] > 0


def test_tuple_inbox_read_raises_charge_only(arms):
    """Reading small-batch traffic queued charge-only is a hard error on both
    modes; a traffic-free round stays readable (an empty inbox is exact)."""
    sim = HybridSimulator(
        path_graph(8), ModelConfig.hybrid(), seed=0, charge_only=True
    )
    transport.send(sim, 0, 5, ("g", 0))
    transport.send(sim, 3, 4, ("l", 0), mode=LOCAL_MODE)
    sim.advance_round()
    with pytest.raises(ChargeOnlyError):
        transport.inbox(sim, 5, GLOBAL_MODE)
    with pytest.raises(ChargeOnlyError):
        transport.inbox(sim, 4, LOCAL_MODE)
    # The next round carries nothing: empty inboxes are exact, not a read
    # of suppressed payloads.
    sim.advance_round()
    assert transport.inbox(sim, 5, GLOBAL_MODE) == []
    assert transport.inbox(sim, 4, LOCAL_MODE) == []


def test_mixed_tuple_and_plane_round_charge_only_identical(arms):
    """One round mixing a bulk plane (array counters) with a small batch
    (dict counters): accounting must match the payload run, and the read
    guard must still fire."""
    n = 16

    def run(charge_only):
        sim = HybridSimulator(
            path_graph(n),
            ModelConfig.hybrid(strict=False),
            seed=7,
            charge_only=charge_only,
        )
        rng = random.Random("mixed")
        count = 48
        plane = TokenPlane(
            [rng.randrange(n) for _ in range(count)],
            [rng.randrange(n) for _ in range(count)],
            [rng.choice([1, 2]) for _ in range(count)],
            [("pp", i) for i in range(count)],
        )
        sim.global_send_plane(plane, tag="mx")
        transport.send_batch(
            sim,
            [(rng.randrange(n), rng.randrange(n), ("tp", i)) for i in range(20)],
            tag="mt",
        )
        sim.advance_round()
        return sim

    payload_sim = run(False)
    charged_sim = run(True)
    assert charged_sim.metrics.diff(payload_sim.metrics) == {}
    with pytest.raises(ChargeOnlyError):
        transport.inbox(charged_sim, 1, GLOBAL_MODE)


def test_tuple_charge_only_sparse_learning_is_identical(arms):
    """HYBRID_0 sender-id learning reads only the sender column, so small
    batches with suppressed payloads must teach exactly the same ids."""
    n = 12
    graph = path_graph(n)

    def run(charge_only):
        sim = HybridSimulator(
            graph, ModelConfig.hybrid0(), seed=5, charge_only=charge_only
        )
        # Teach node 0 a distant identifier so its sends genuinely extend
        # the receiver's knowledge (neighbors are known from the start).
        far_id = sim.id_of(9)
        sim.declare_learned_ids(0, [far_id])
        for r in range(3):
            transport.send(sim, 0, far_id, ("t", r), by_id=True)
            transport.send_batch(
                sim,
                [(i, i + 1, ("u", r, i)) for i in range(n - 1)], tag="k",
            )
            sim.advance_round()
        return (
            {node: sim.known_ids(node) for node in sim.nodes},
            sim.metrics.summary(),
        )

    assert run(True) == run(False)
