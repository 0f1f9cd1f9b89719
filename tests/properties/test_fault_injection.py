"""Property tests for fault injection and the self-healing layer.

Four groups, mirroring the layer's contract:

* **Empty-schedule identity** — an empty :class:`FaultSchedule` installs no
  fault state, so runs are bit-identical (inboxes, metrics, algorithm
  results) to runs with no schedule at all.
* **Fault semantics** — crash windows silence a node's sends *and* receives
  and count ``crashed_node_rounds``; link failures drop local records on the
  failed edge only; degradation windows shrink the planned budget and recover
  afterwards without ever tripping strict capacity checks.
* **Replay** — a fault trajectory is a deterministic function of
  ``(schedule seed, schedule)``: identical across reruns.
* **Self-healing** — the ack-tracked resilient exchange delivers everything
  deliverable under drops, waits out crash windows, reports genuinely dead
  receivers; :class:`ResilientDissemination` reaches every live node on a
  6-family x 3-seed crash/drop grid and reruns byte-identically (the
  acceptance criterion).
"""

from __future__ import annotations

import random

import pytest

from repro.core.dissemination import KDissemination
from repro.core.resilience import ResilientDissemination
from repro.graphs.generators import (
    barbell_graph,
    cycle_graph,
    erdos_renyi_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.simulator.config import ModelConfig
from repro.simulator.engine import BatchAlgorithm
from repro.simulator.faults import (
    CapacityDegradation,
    CrashEvent,
    FaultSchedule,
    LinkFailure,
    crash_fraction_schedule,
)
from repro.simulator.messages import GLOBAL_MODE, LOCAL_MODE, payload_words
from repro.simulator.network import HybridSimulator

from oracles import transport

SEEDS = [0, 1, 2]


def _mixed_traffic(sim, rng, rounds=4):
    """Drive rounds of mixed global/local traffic; return per-round inboxes.

    Send-side budgets are respected (strict mode must not trip); receivers are
    random, so receive overloads may be *recorded* — identically in the runs
    under comparison.
    """
    n = sim.n
    budget = sim.global_budget_words()
    edges = sorted(sim.graph.edges)
    trace = []
    for r in range(rounds):
        senders, receivers, payloads, spent = [], [], [], {}
        for i in range(rng.randrange(10, 40)):
            sender = rng.randrange(n)
            payload = ("g", r, i)
            cost = payload_words(payload) + payload_words("fi")
            if spent.get(sender, 0) + cost > budget:
                continue
            spent[sender] = spent.get(sender, 0) + cost
            senders.append(sender)
            receivers.append(rng.randrange(n))
            payloads.append(payload)
        transport.send_ids(sim, senders, receivers, payloads, tag="fi")
        picks = [edges[rng.randrange(len(edges))] for _ in range(rng.randrange(5, 20))]
        transport.send_batch(
            sim, [(u, v, ("l", r, i)) for i, (u, v) in enumerate(picks)], mode=LOCAL_MODE
        )
        sim.advance_round()
        trace.append(
            {
                GLOBAL_MODE: sim.per_node_inbox(GLOBAL_MODE),
                LOCAL_MODE: sim.per_node_inbox(LOCAL_MODE),
            }
        )
    return trace


# ----------------------------------------------------------------------
# Empty-schedule identity (the layer's hard invariant)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_empty_schedule_runs_are_bit_identical(seed, arms):
    graph = erdos_renyi_graph(22, 0.2, seed=seed)

    def run(schedule):
        sim = HybridSimulator(
            graph, ModelConfig.hybrid(), seed=seed, fault_schedule=schedule
        )
        inboxes = _mixed_traffic(sim, random.Random(1000 + seed))
        return inboxes, sim.metrics.summary(), sim.fault_state

    bare_inbox, bare_summary, bare_state = run(None)
    empty_inbox, empty_summary, empty_state = run(FaultSchedule(seed=123))
    assert bare_state is None and empty_state is None
    assert empty_inbox == bare_inbox
    assert empty_summary == bare_summary
    assert empty_summary["dropped_messages"] == 0
    assert empty_summary["retransmissions"] == 0
    assert empty_summary["crashed_node_rounds"] == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_empty_schedule_dissemination_is_identical(seed, arms):
    graph = path_graph(24)
    rng = random.Random(50 + seed)
    tokens = {}
    for index in range(12):
        tokens.setdefault(rng.randrange(24), []).append(("tok", index))

    def run(schedule):
        sim = HybridSimulator(
            graph, ModelConfig.hybrid0(), seed=seed, fault_schedule=schedule
        )
        result = KDissemination(sim, tokens).run()
        assert result.all_nodes_know_all_tokens()
        return sim.metrics.summary()

    assert run(FaultSchedule()) == run(None)


# ----------------------------------------------------------------------
# Crash, link-failure and degradation semantics
# ----------------------------------------------------------------------
def test_crash_window_silences_sends_and_receives(arms):
    graph = path_graph(8)
    schedule = FaultSchedule(
        crashes=(CrashEvent(node=3, crash_round=1, recover_round=3),)
    )
    sim = HybridSimulator(graph, ModelConfig.hybrid(), seed=0, fault_schedule=schedule)
    got_from3, got_to3 = [], []
    for _ in range(5):
        # Node 3 both sends and is addressed every round.
        transport.send_ids(sim, [3, 0], [5, 3], [("from3", sim.round), ("to3", sim.round)])
        sim.advance_round()
        inbox = sim.per_node_inbox(GLOBAL_MODE)
        got_from3.extend(p[1] for _, p, *_ in inbox.get(5, ()))
        got_to3.extend(p[1] for _, p, *_ in inbox.get(3, ()))
    # Rounds 1 and 2 are silenced in both directions; the rest deliver.
    assert got_from3 == [0, 3, 4]
    assert got_to3 == [0, 3, 4]
    assert sim.metrics.dropped_messages == 4
    assert sim.metrics.crashed_node_rounds == 2


def test_link_failure_drops_only_the_failed_edge(arms):
    graph = path_graph(5)
    schedule = FaultSchedule(link_failures=(LinkFailure(1, 2, end_round=2),))
    sim = HybridSimulator(graph, ModelConfig.hybrid(), seed=0, fault_schedule=schedule)
    got = {1: [], 2: [], 3: []}
    for _ in range(3):
        transport.send_batch(
            sim,
            [(1, 2, ("down", sim.round)), (2, 1, ("down-rev", sim.round)),
             (2, 3, ("up", sim.round))],
            mode=LOCAL_MODE,
        )
        sim.advance_round()
        inbox = sim.per_node_inbox(LOCAL_MODE)
        for node in got:
            got[node].extend(p[1] for _, p, *_ in inbox.get(node, ()))
    assert got[2] == [2]       # only round 2 survives
    assert got[1] == [2]       # symmetric failure
    assert got[3] == [0, 1, 2]  # untouched edge
    assert sim.metrics.dropped_messages == 4


def test_degradation_window_shrinks_and_restores_the_budget(arms):
    graph = path_graph(10)
    schedule = FaultSchedule(
        degradations=(CapacityDegradation(0.5, start_round=2, end_round=4),)
    )
    sim = HybridSimulator(graph, ModelConfig.hybrid(), seed=0, fault_schedule=schedule)
    healthy = HybridSimulator(graph, ModelConfig.hybrid(), seed=0)
    full = healthy.global_budget_words()
    observed = []
    for _ in range(5):
        observed.append(sim.global_budget_words())
        sim.advance_round()
    assert observed == [full, full, full // 2, full // 2, full]


def test_exchange_planned_inside_degraded_window_stays_capacity_clean(arms):
    """Degraded budgets feed the scheduler: more rounds, zero violations."""
    from repro.simulator.engine import batched_global_exchange

    graph = path_graph(12)
    triples = [(i % 6, 6 + (i % 6), ("d", i)) for i in range(90)]

    def run(schedule):
        sim = HybridSimulator(graph, ModelConfig.hybrid(), seed=1, fault_schedule=schedule)
        delivered = batched_global_exchange(sim, list(triples), tag="deg")
        assert sim.metrics.capacity_violations == 0
        return delivered, sim.metrics.measured_rounds

    fault_free_delivered, fault_free_rounds = run(None)
    degraded_delivered, degraded_rounds = run(
        FaultSchedule(degradations=(CapacityDegradation(0.5),))
    )
    assert degraded_delivered == fault_free_delivered
    assert degraded_rounds > fault_free_rounds


def test_node_scoped_degradation_tightens_only_that_node(arms):
    graph = path_graph(10)
    schedule = FaultSchedule(
        degradations=(CapacityDegradation(0.25, node=0),)
    )
    sim = HybridSimulator(
        graph, ModelConfig.hybrid(strict=False), seed=0, fault_schedule=schedule
    )
    budget = sim.global_budget_words()  # node-wide budget is undegraded
    degraded = max(1, int(budget * 0.25))
    per_node = degraded + 1  # over node 0's budget, under everyone else's
    transport.send_ids(
        sim,
        [0] * per_node + [1] * per_node,
        [2 + (i % 7) for i in range(per_node)] + [2 + (i % 7) for i in range(per_node)],
        ["x"] * (2 * per_node),
    )
    sim.advance_round()
    assert sim.metrics.capacity_violations == 1  # node 0 only


# ----------------------------------------------------------------------
# Replay: deterministic across reruns
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_drop_trajectory_replays_identically(seed, arms):
    graph = erdos_renyi_graph(20, 0.25, seed=seed)
    schedule = FaultSchedule(seed=seed, global_drop_rate=0.35, local_drop_rate=0.2)

    def run():
        sim = HybridSimulator(graph, ModelConfig.hybrid(), seed=seed, fault_schedule=schedule)
        inboxes = _mixed_traffic(sim, random.Random(7000 + seed))
        assert sim.metrics.dropped_messages > 0
        return inboxes, sim.metrics.summary()

    assert run() == run(), f"seed={seed}: rerun diverged"


# ----------------------------------------------------------------------
# Self-healing exchange
# ----------------------------------------------------------------------
def _resilient_run(graph, triples, schedule, *, seed=1, max_attempts=16):
    sim = HybridSimulator(graph, ModelConfig.hybrid(), seed=seed, fault_schedule=schedule)
    algo = BatchAlgorithm(sim)
    result = algo.resilient_exchange(list(triples), "rex", max_attempts=max_attempts)
    return result, sim


@pytest.mark.parametrize("seed", SEEDS)
def test_resilient_exchange_completes_under_heavy_drops(seed, arms):
    graph = path_graph(14)
    rng = random.Random(300 + seed)
    triples = [
        (rng.randrange(14), rng.randrange(14), ("r", seed, i)) for i in range(40)
    ]
    schedule = FaultSchedule(seed=seed, global_drop_rate=0.5)
    result, sim = _resilient_run(graph, triples, schedule)
    assert result.complete
    assert result.retransmissions > 0
    assert sim.metrics.retransmissions == result.retransmissions
    assert sim.metrics.dropped_messages > 0
    expected = {}
    for _, receiver, payload in triples:
        expected.setdefault(receiver, []).append(payload)
    delivered = {node: sorted(p, key=str) for node, p in result.delivered.items()}
    assert delivered == {node: sorted(p, key=str) for node, p in expected.items()}
    # Byte-identical rerun from the same (seed, schedule).
    rerun, rerun_sim = _resilient_run(graph, triples, schedule)
    assert rerun.delivered == result.delivered
    assert rerun_sim.metrics.summary() == sim.metrics.summary()


def test_resilient_exchange_waits_out_a_crash_window(arms):
    graph = path_graph(6)
    schedule = FaultSchedule(
        crashes=(CrashEvent(node=4, crash_round=0, recover_round=5),)
    )
    result, sim = _resilient_run(graph, [(1, 4, "late")], schedule)
    assert result.complete
    assert result.delivered == {4: ["late"]}
    assert sim.round >= 5  # delivery had to wait for the recovery


def test_resilient_exchange_reports_dead_receivers(arms):
    graph = path_graph(6)
    schedule = FaultSchedule(crashes=(CrashEvent(node=4, crash_round=0),))
    result, sim = _resilient_run(
        graph, [(1, 4, "never"), (1, 3, "fine")], schedule, max_attempts=4
    )
    assert not result.complete
    assert result.undelivered_positions == [0]
    assert result.delivered == {3: ["fine"]}


# ----------------------------------------------------------------------
# ResilientDissemination: the 6-family x 3-seed acceptance grid
# ----------------------------------------------------------------------
FAMILIES = {
    "path": lambda seed: path_graph(18),
    "cycle": lambda seed: cycle_graph(18),
    "grid": lambda seed: grid_graph(4, 2),
    "barbell": lambda seed: barbell_graph(5, 6),
    "star": lambda seed: star_graph(16),
    "erdos-renyi": lambda seed: erdos_renyi_graph(18, 0.25, seed=seed),
}


def _dissemination_fingerprint(result, sim):
    return (
        result.epochs,
        result.complete,
        sorted(
            (node, tuple(sorted(known, key=str)))
            for node, known in result.known_tokens.items()
        ),
        sim.metrics.summary(),
    )


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("seed", SEEDS)
def test_resilient_dissemination_reaches_all_live_nodes(family, seed):
    graph = FAMILIES[family](seed)
    n = graph.number_of_nodes()
    holders = (0, n // 2)
    tokens = {
        holders[0]: [("a", family, i) for i in range(5)],
        holders[1]: [("b", family, i) for i in range(4)],
    }
    schedule = crash_fraction_schedule(
        n, 0.25, seed=seed, crash_round=1, drop_rate=0.25, exclude=holders
    )

    def run():
        sim = HybridSimulator(
            graph, ModelConfig.hybrid(), seed=seed, fault_schedule=schedule
        )
        result = ResilientDissemination(sim, tokens).run()
        return result, sim

    result, sim = run()
    assert result.complete, f"{family}/seed={seed}: did not converge"
    assert result.all_live_nodes_know_all_tokens(), (
        f"{family}/seed={seed}: a live node is missing tokens"
    )
    live = {sim.node_indexer()[node] for node in result.live_nodes}
    assert live == set(range(n)) - {c.node for c in schedule.crashes}
    rerun_result, rerun_sim = run()
    assert _dissemination_fingerprint(rerun_result, rerun_sim) == (
        _dissemination_fingerprint(result, sim)
    ), f"{family}/seed={seed}: rerun diverged"


def test_resilient_dissemination_replays_identically(arms):
    graph = cycle_graph(16)
    tokens = {0: [("t", i) for i in range(6)]}
    schedule = crash_fraction_schedule(
        16, 0.25, seed=4, crash_round=1, drop_rate=0.3, exclude=(0,)
    )

    def run():
        sim = HybridSimulator(graph, ModelConfig.hybrid(), seed=2, fault_schedule=schedule)
        result = ResilientDissemination(sim, tokens).run()
        assert result.complete and result.all_live_nodes_know_all_tokens()
        return _dissemination_fingerprint(result, sim)

    assert run() == run()


def test_resilient_dissemination_survives_crash_recovery_churn(arms):
    graph = path_graph(14)
    tokens = {2: [("c", i) for i in range(4)]}
    schedule = FaultSchedule(
        seed=8,
        crashes=(
            CrashEvent(node=5, crash_round=0, recover_round=6),
            CrashEvent(node=9, crash_round=3, recover_round=10),
            CrashEvent(node=0, crash_round=2, recover_round=8),
        ),
        global_drop_rate=0.2,
    )
    sim = HybridSimulator(graph, ModelConfig.hybrid(), seed=6, fault_schedule=schedule)
    result = ResilientDissemination(sim, tokens).run()
    assert result.complete
    # Everyone recovered, so "live" is everybody and all must know everything.
    assert len(result.live_nodes) == 14
    assert result.all_live_nodes_know_all_tokens()
