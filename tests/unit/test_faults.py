"""Unit tests for the declarative fault-injection layer.

Covers the schedule/event value objects (window semantics, validation), the
:class:`FaultState` oracle (caching, range checks, deterministic drop RNG),
the ``crash_fraction_schedule`` convenience builder, the simulator wiring
(empty schedule installs no state at all), and the
``HybridSimulator.invalidate_index`` regression: invalidation must also reset
the pair memos and cached identifier/member-index arrays, not just the edge
keys.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.graphs.generators import path_graph
from repro.simulator.config import ModelConfig
from repro.simulator.errors import UnknownIdentifierError
from repro.simulator.faults import (
    CapacityDegradation,
    CrashEvent,
    FaultSchedule,
    FaultState,
    LinkFailure,
    crash_fraction_schedule,
)
from repro.simulator.messages import GLOBAL_MODE, LOCAL_MODE
from repro.simulator.network import HybridSimulator

from oracles import transport


# ----------------------------------------------------------------------
# Event window semantics
# ----------------------------------------------------------------------
def test_crash_event_window_is_half_open():
    crash = CrashEvent(node=3, crash_round=2, recover_round=5)
    assert [crash.crashed_at(r) for r in range(7)] == [
        False, False, True, True, True, False, False,
    ]


def test_crash_event_without_recovery_is_permanent():
    crash = CrashEvent(node=0, crash_round=4)
    assert not crash.crashed_at(3)
    assert crash.crashed_at(4)
    assert crash.crashed_at(10_000)


def test_link_failure_window_is_half_open_and_symmetric():
    failure = LinkFailure(1, 2, start_round=1, end_round=3)
    assert [failure.active_at(r) for r in range(4)] == [False, True, True, False]
    state = FaultState(FaultSchedule(link_failures=(failure,)), n=5)
    assert state.failed_edge_keys(1) == frozenset({1 * 5 + 2, 2 * 5 + 1})
    assert state.failed_edge_keys(3) == frozenset()


def test_degradation_window_semantics():
    degradation = CapacityDegradation(0.5, start_round=2, end_round=4)
    assert [degradation.active_at(r) for r in range(5)] == [
        False, False, True, True, False,
    ]


@pytest.mark.parametrize(
    "build",
    [
        lambda: CrashEvent(node=-1, crash_round=0),
        lambda: CrashEvent(node=0, crash_round=-1),
        lambda: CrashEvent(node=0, crash_round=5, recover_round=5),
        lambda: LinkFailure(0, 0),
        lambda: LinkFailure(-1, 2),
        lambda: LinkFailure(0, 1, start_round=3, end_round=2),
        lambda: CapacityDegradation(0.0),
        lambda: CapacityDegradation(1.5),
        lambda: CapacityDegradation(0.5, node=-2),
        lambda: FaultSchedule(global_drop_rate=1.0),
        lambda: FaultSchedule(local_drop_rate=-0.1),
    ],
)
def test_invalid_events_are_rejected(build):
    with pytest.raises(ValueError):
        build()


def test_schedule_rejects_mistyped_events_and_normalises_lists():
    with pytest.raises(TypeError):
        FaultSchedule(crashes=(LinkFailure(0, 1),))
    schedule = FaultSchedule(crashes=[CrashEvent(node=1, crash_round=0)])
    assert isinstance(schedule.crashes, tuple)


# ----------------------------------------------------------------------
# Schedule-level queries
# ----------------------------------------------------------------------
def test_default_schedule_is_empty_and_any_fault_is_not():
    assert FaultSchedule().is_empty()
    assert not FaultSchedule(crashes=(CrashEvent(node=0, crash_round=0),)).is_empty()
    assert not FaultSchedule(link_failures=(LinkFailure(0, 1),)).is_empty()
    assert not FaultSchedule(degradations=(CapacityDegradation(0.5),)).is_empty()
    assert not FaultSchedule(global_drop_rate=0.1).is_empty()
    assert not FaultSchedule(local_drop_rate=0.1).is_empty()
    # A bare seed changes nothing: the schedule stays empty.
    assert FaultSchedule(seed=99).is_empty()


def test_horizon_is_the_last_finite_window_boundary():
    schedule = FaultSchedule(
        crashes=(
            CrashEvent(node=0, crash_round=1, recover_round=7),
            CrashEvent(node=1, crash_round=10),  # open-ended: contributes 10
        ),
        link_failures=(LinkFailure(0, 1, start_round=2, end_round=5),),
        degradations=(CapacityDegradation(0.5, start_round=3, end_round=12),),
        global_drop_rate=0.2,  # rates have no horizon
    )
    assert schedule.horizon() == 12
    assert FaultSchedule(global_drop_rate=0.5).horizon() == 0


def test_forever_crashed_reports_only_unrecovered_nodes():
    schedule = FaultSchedule(
        crashes=(
            CrashEvent(node=2, crash_round=0),
            CrashEvent(node=5, crash_round=1, recover_round=4),
        )
    )
    assert schedule.forever_crashed() == frozenset({2})


# ----------------------------------------------------------------------
# crash_fraction_schedule
# ----------------------------------------------------------------------
def test_crash_fraction_schedule_is_deterministic_and_respects_exclude():
    first = crash_fraction_schedule(40, 0.25, seed=7, exclude=(0, 1, 2))
    second = crash_fraction_schedule(40, 0.25, seed=7, exclude=(0, 1, 2))
    assert first == second
    picked = {crash.node for crash in first.crashes}
    assert len(picked) == 10
    assert picked.isdisjoint({0, 1, 2})
    assert all(0 <= node < 40 for node in picked)
    other = crash_fraction_schedule(40, 0.25, seed=8, exclude=(0, 1, 2))
    assert {crash.node for crash in other.crashes} != picked


def test_crash_fraction_schedule_carries_windows_and_drops():
    schedule = crash_fraction_schedule(
        10, 0.2, seed=3, crash_round=2, recover_round=6, drop_rate=0.3
    )
    assert schedule.seed == 3
    assert schedule.global_drop_rate == 0.3
    assert all(crash.crash_round == 2 for crash in schedule.crashes)
    assert all(crash.recover_round == 6 for crash in schedule.crashes)
    assert crash_fraction_schedule(10, 0.0, seed=1).crashes == ()
    with pytest.raises(ValueError):
        crash_fraction_schedule(10, 1.0)


# ----------------------------------------------------------------------
# FaultState oracle
# ----------------------------------------------------------------------
def test_fault_state_refuses_empty_schedules():
    with pytest.raises(ValueError):
        FaultState(FaultSchedule(), n=5)


@pytest.mark.parametrize(
    "schedule",
    [
        FaultSchedule(crashes=(CrashEvent(node=5, crash_round=0),)),
        FaultSchedule(link_failures=(LinkFailure(0, 5),)),
        FaultSchedule(degradations=(CapacityDegradation(0.5, node=5),)),
    ],
)
def test_fault_state_checks_node_index_range(schedule):
    with pytest.raises(ValueError):
        FaultState(schedule, n=5)
    FaultState(schedule, n=6)  # index 5 is fine in a 6-node network


def test_crashed_indices_are_cached_per_round():
    state = FaultState(
        FaultSchedule(crashes=(CrashEvent(node=1, crash_round=0, recover_round=2),)),
        n=4,
    )
    assert state.crashed_indices(0) == frozenset({1})
    # One cached object per window: rounds 0 and 1 share the [0, 2) slot.
    assert state.crashed_indices(0) is state.crashed_indices(1)
    assert state.crashed_indices(2) == frozenset()
    assert state.is_crashed(1, 1)
    assert not state.is_crashed(1, 2)


def _random_schedule(rng, n):
    """Crashes with and without recovery, overlapping link windows, and
    node-wide plus node-scoped degradations."""

    def window(open_ended):
        start = rng.randrange(0, 30)
        return start, (None if rng.random() < open_ended else start + rng.randrange(1, 15))

    crashes = []
    for _ in range(rng.randrange(1, 6)):
        start, end = window(0.3)
        crashes.append(CrashEvent(rng.randrange(n), start, end))
    links = []
    for _ in range(rng.randrange(1, 5)):
        u, v = rng.sample(range(n), 2)
        start, end = window(0.2)
        links.append(LinkFailure(u, v, start, end))
        # A second window on the same edge that overlaps the first.
        links.append(LinkFailure(v, u, start + rng.randrange(0, 3), start + rng.randrange(3, 20)))
    degradations = []
    for _ in range(rng.randrange(1, 6)):
        start, end = window(0.2)
        node = None if rng.random() < 0.5 else rng.randrange(n)
        degradations.append(CapacityDegradation(rng.choice([0.25, 0.5, 0.75, 1.0]), start, end, node))
    return FaultSchedule(
        seed=rng.randrange(100),
        crashes=crashes,
        link_failures=links,
        degradations=degradations,
        global_drop_rate=0.1,
    )


def _scan(schedule, n, r):
    """Brute-force fault pattern of round ``r`` straight from the schedule."""
    crashed = frozenset(c.node for c in schedule.crashes if c.crashed_at(r))
    factor = math.prod(
        d.factor for d in schedule.degradations if d.node is None and d.active_at(r)
    )
    node_factors = {}
    for d in schedule.degradations:
        if d.node is not None and d.active_at(r):
            node_factors[d.node] = node_factors.get(d.node, 1.0) * d.factor
    keys = frozenset(
        key
        for f in schedule.link_failures
        if f.active_at(r)
        for key in (f.u * n + f.v, f.v * n + f.u)
    )
    return crashed, factor, node_factors, keys


def _boundary_count(schedule):
    edges = set()
    for c in schedule.crashes:
        edges.update((c.crash_round, c.recover_round))
    for w in (*schedule.link_failures, *schedule.degradations):
        edges.update((w.start_round, w.end_round))
    edges.discard(None)
    return len(edges)


@pytest.mark.parametrize("seed", range(8))
def test_window_keyed_lookups_equal_a_per_round_scan(seed):
    rng = random.Random(seed)
    n = 9
    schedule = _random_schedule(rng, n)
    state = FaultState(schedule, n)
    for r in range(schedule.horizon() + 6):
        crashed, factor, node_factors, keys = _scan(schedule, n, r)
        assert state.crashed_indices(r) == crashed
        assert all(state.is_crashed(v, r) == (v in crashed) for v in range(n))
        assert state.global_capacity_factor(r) == factor
        assert state.node_capacity_factors(r) == node_factors
        assert state.failed_edge_keys(r) == keys
        assert state.crashed_index_array(r).tolist() == sorted(crashed)
        assert state.failed_edge_key_array(r).tolist() == sorted(keys)


def test_fault_caches_grow_with_boundaries_not_rounds():
    rng = random.Random(42)
    n = 8
    schedule = _random_schedule(rng, n)
    sim = HybridSimulator(path_graph(n), ModelConfig.hybrid(), fault_schedule=schedule)
    state = sim.fault_state
    sim.advance_rounds(10_000)
    for r in range(sim.round + 1):
        state.crashed_indices(r)
        state.global_capacity_factor(r)
        state.node_capacity_factors(r)
        state.failed_edge_keys(r)
        state.crashed_index_array(r)
        state.failed_edge_key_array(r)
    limit = _boundary_count(schedule) + 1
    caches = (
        state._crash_cache,
        state._crash_arr_cache,
        state._factor_cache,
        state._node_factor_cache,
        state._link_cache,
        state._link_arr_cache,
    )
    assert all(len(cache) <= limit for cache in caches)
    assert len(state._crash_cache) > 1  # the windows really were crossed


def test_degradation_factors_multiply_and_floor_at_one_word():
    state = FaultState(
        FaultSchedule(
            degradations=(
                CapacityDegradation(0.5, start_round=0, end_round=10),
                CapacityDegradation(0.5, start_round=5, end_round=10),
                CapacityDegradation(0.25, start_round=0, end_round=10, node=2),
            )
        ),
        n=4,
    )
    assert state.global_capacity_factor(0) == 0.5
    assert state.global_capacity_factor(5) == 0.25  # overlapping windows multiply
    assert state.global_capacity_factor(10) == 1.0
    assert state.degraded_budget(40, 0) == 20
    assert state.degraded_budget(40, 10) == 40
    assert state.degraded_budget(1, 5) == 1  # never below one word
    # Node-scoped factors are reported separately, node-wide ones are not.
    assert state.node_capacity_factors(0) == {2: 0.25}
    assert state.node_capacity_factors(10) == {}


def test_drop_rate_lookup_and_unknown_mode():
    state = FaultState(
        FaultSchedule(global_drop_rate=0.2, local_drop_rate=0.1), n=3
    )
    assert state.drop_rate(GLOBAL_MODE) == 0.2
    assert state.drop_rate(LOCAL_MODE) == 0.1
    with pytest.raises(ValueError):
        state.drop_rate("carrier-pigeon")


def test_round_rng_is_deterministic_per_round_and_mode():
    state = FaultState(FaultSchedule(seed=9, global_drop_rate=0.5), n=3)

    def draws(round_index, mode):
        rng = state.round_rng(round_index, mode)
        return [rng.random() for _ in range(8)]

    assert draws(4, GLOBAL_MODE) == draws(4, GLOBAL_MODE)
    assert draws(4, GLOBAL_MODE) != draws(5, GLOBAL_MODE)
    assert draws(4, GLOBAL_MODE) != draws(4, LOCAL_MODE)
    other = FaultState(FaultSchedule(seed=10, global_drop_rate=0.5), n=3)
    assert draws(4, GLOBAL_MODE) != [
        other.round_rng(4, GLOBAL_MODE).random() for _ in range(8)
    ]


# ----------------------------------------------------------------------
# Simulator wiring
# ----------------------------------------------------------------------
def test_empty_schedule_installs_no_fault_state():
    graph = path_graph(6)
    bare = HybridSimulator(graph, ModelConfig.hybrid())
    empty = HybridSimulator(graph, ModelConfig.hybrid(), fault_schedule=FaultSchedule())
    assert bare.fault_state is None
    assert empty.fault_state is None
    faulty = HybridSimulator(
        graph,
        ModelConfig.hybrid(),
        fault_schedule=FaultSchedule(global_drop_rate=0.1),
    )
    assert isinstance(faulty.fault_state, FaultState)
    assert faulty.fault_state.n == 6


def test_fault_schedule_range_errors_surface_at_construction():
    with pytest.raises(ValueError):
        HybridSimulator(
            path_graph(4),
            ModelConfig.hybrid(),
            fault_schedule=FaultSchedule(crashes=(CrashEvent(node=9, crash_round=0),)),
        )


# ----------------------------------------------------------------------
# Permanent link failures: committed topology churn
# ----------------------------------------------------------------------
def test_permanent_link_failure_requires_finite_window():
    LinkFailure(0, 1, start_round=0, end_round=3, permanent=True)  # fine
    with pytest.raises(ValueError, match="finite end_round"):
        LinkFailure(0, 1, permanent=True)  # open-ended: nothing to commit


def test_take_permanent_closures_drains_each_failure_exactly_once():
    schedule = FaultSchedule(
        link_failures=(
            LinkFailure(2, 3, start_round=0, end_round=3, permanent=True),
            LinkFailure(0, 1, start_round=0, end_round=2, permanent=True),
            LinkFailure(4, 5, start_round=0, end_round=2),  # window-scoped
        )
    )
    state = FaultState(schedule, n=6)
    assert state.take_permanent_closures(1) == []
    assert state.take_permanent_closures(2) == [(0, 1)]
    assert state.take_permanent_closures(2) == []  # handed out once
    assert state.take_permanent_closures(10) == [(2, 3)]
    assert state.take_permanent_closures(10) == []


def test_permanent_failure_commits_edge_deletion_at_window_close():
    from repro.graphs.index import get_index, graph_version
    from repro.graphs.generators import cycle_graph

    graph = cycle_graph(6)
    index = get_index(graph)
    schedule = FaultSchedule(
        link_failures=(
            LinkFailure(0, 1, start_round=0, end_round=2, permanent=True),
            LinkFailure(3, 4, start_round=0, end_round=2),  # not permanent
        )
    )
    sim = HybridSimulator(graph, ModelConfig.hybrid(), fault_schedule=schedule)
    sim.advance_round()  # round 0 -> 1: window still open
    assert graph.has_edge(0, 1)
    assert sim.committed_link_removals == []
    sim.advance_round()  # round 1 -> 2: window closed, deletion committed
    assert not graph.has_edge(0, 1)
    assert graph.has_edge(3, 4)  # the window-scoped outage left no trace
    assert sim.committed_link_removals == [(0, 1)]
    assert graph_version(graph) == 1
    # The analytics index was patched in place, not rebuilt.
    assert get_index(graph) is index
    assert index.m == 5
    # Committing exactly once: further rounds change nothing.
    sim.advance_round()
    assert sim.committed_link_removals == [(0, 1)]
    # The simulator resynchronised itself: plane sends work on the new graph.
    transport.send_ids(sim, [2], [5], ["post-churn"])
    sim.advance_round()


def test_permanent_failures_closing_together_commit_as_one_batch():
    from repro.graphs.generators import cycle_graph
    from repro.graphs.index import GraphIndex, get_index, graph_version

    graph = cycle_graph(8)
    index = get_index(graph)
    index.sssp_row(0, 0.5)  # memoise a rounded and a pair column
    schedule = FaultSchedule(
        link_failures=(
            LinkFailure(2, 3, start_round=0, end_round=1, permanent=True),
            LinkFailure(5, 6, start_round=0, end_round=1, permanent=True),
            LinkFailure(3, 2, start_round=0, end_round=1, permanent=True),  # named twice
        )
    )
    sim = HybridSimulator(graph, ModelConfig.hybrid(), fault_schedule=schedule)
    sim.advance_round()  # round 0 -> 1: all three windows close
    assert sim.committed_link_removals == [(2, 3), (5, 6)]
    assert graph_version(graph) == 1  # one bump for the round's batch
    assert get_index(graph) is index
    assert index.m == 6
    fresh = GraphIndex(graph)
    for source in graph.nodes:
        assert index.hop_distance_row(source) == fresh.hop_distance_row(source)
        assert index.sssp_row(source, 0.5) == fresh.sssp_row(source, 0.5)


def test_initial_knowledge_survives_a_committed_edge_deletion(arms):
    # HYBRID_0 knowledge is a copy of the construction-time adjacency: once
    # the fault layer deletes edge (0, 1) for good, both ends still know each
    # other's identifier, and a global send along the dead edge validates.
    from repro.graphs.generators import cycle_graph

    graph = cycle_graph(6)
    schedule = FaultSchedule(
        link_failures=(LinkFailure(0, 1, start_round=0, end_round=1, permanent=True),)
    )
    sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=2, fault_schedule=schedule)
    assert not sim.knows_id(0, sim.id_of(3))
    sim.advance_round()  # round 0 -> 1: window closed, deletion committed
    assert sim.committed_link_removals == [(0, 1)]
    assert not graph.has_edge(0, 1)
    assert sim.knows_id(0, sim.id_of(1)) and sim.knows_id(1, sim.id_of(0))
    assert not sim.knows_id(0, sim.id_of(3))
    transport.send_ids(sim, [0, 1], [1, 0], ["over", "back"])
    sim.advance_round()
    inbox = sim.per_node_inbox(GLOBAL_MODE)
    assert [record[1] for record in inbox[1]] == ["over"]
    assert [record[1] for record in inbox[0]] == ["back"]
    with pytest.raises(UnknownIdentifierError):
        transport.send_ids(sim, [0], [3], ["stranger"])


def test_resilient_dissemination_submits_per_token_payload_words(monkeypatch):
    from repro.core.resilience import ResilientDissemination
    from repro.graphs.generators import cycle_graph
    from repro.simulator.engine import TokenPlane
    from repro.simulator.messages import payload_words

    build = TokenPlane.from_triples.__func__
    planes = []

    def spy(cls, simulator, triples):
        plane = build(cls, simulator, triples)
        planes.append(plane)
        return plane

    monkeypatch.setattr(TokenPlane, "from_triples", classmethod(spy))
    tokens = {0: ["a", ("pair", 1)], 3: ["a" * 40, ("nested", ("x" * 9, 2))], 5: [7]}
    schedule = crash_fraction_schedule(10, 0.2, seed=2, exclude=(0, 3, 5), drop_rate=0.2)
    sim = HybridSimulator(cycle_graph(10), ModelConfig.hybrid(), seed=2, fault_schedule=schedule)
    result = ResilientDissemination(sim, tokens).run()
    assert result.complete
    assert planes
    for plane in planes:
        assert [int(w) for w in plane.words] == [payload_words(p) for p in plane.payloads]


def test_resilient_dissemination_reports_removed_edges():
    from repro.core.resilience import ResilientDissemination
    from repro.graphs.generators import cycle_graph

    graph = cycle_graph(8)
    schedule = FaultSchedule(
        link_failures=(LinkFailure(2, 3, start_round=0, end_round=2, permanent=True),)
    )
    sim = HybridSimulator(
        graph, ModelConfig.hybrid(), seed=5, fault_schedule=schedule
    )
    result = ResilientDissemination(sim, {0: ["alpha", "beta"]}).run()
    assert result.complete
    assert result.all_live_nodes_know_all_tokens()
    assert result.removed_edges == [(2, 3)]
    assert not graph.has_edge(2, 3)


def test_resilient_dissemination_that_cannot_equalise_reports_incomplete():
    # 99% drops with one attempt per exchange: two epochs cannot spread the
    # tokens, and the run says so instead of claiming completion.
    from repro.core.resilience import ResilientDissemination
    from repro.graphs.generators import cycle_graph

    schedule = FaultSchedule(seed=3, global_drop_rate=0.99)
    sim = HybridSimulator(cycle_graph(6), ModelConfig.hybrid(), fault_schedule=schedule)
    result = ResilientDissemination(
        sim, {0: ["a"], 3: ["b"]}, max_epochs=2, max_attempts=1
    ).run()
    assert result.complete is False
    assert result.epochs == 2
    assert not result.all_live_nodes_know_all_tokens()


def test_batched_exchange_returns_scheduled_payloads_under_faults():
    # The plain exchange reports what it scheduled, not what arrived: the
    # payload for a crashed receiver is in the result although the fault
    # layer dropped it (resilient_batched_global_exchange reports delivery).
    from repro.simulator.engine import batched_global_exchange

    schedule = FaultSchedule(crashes=(CrashEvent(node=2, crash_round=0, recover_round=5),))
    sim = HybridSimulator(path_graph(4), ModelConfig.hybrid(), fault_schedule=schedule)
    result = batched_global_exchange(sim, [(0, 2, "lost"), (0, 1, "kept")], tag="x")
    assert result == {2: ["lost"], 1: ["kept"]}
    assert sim.metrics.dropped_messages == 1


# ----------------------------------------------------------------------
# invalidate_index regression: cached arrays reset, knowledge survives
# ----------------------------------------------------------------------
def test_invalidate_index_resets_arrays_and_keeps_knowledge():
    sim = HybridSimulator(path_graph(8), ModelConfig.hybrid0(), seed=1)
    indexer = sim.node_indexer()
    # Populate every cache the plane paths maintain: the edge keys via a
    # local plane send, the knowledge pair store via a global send between
    # neighbors (validation + sender-id learning), and a learned
    # non-neighbor identifier via a relayed send.
    sim.declare_learned_ids(2, [sim.id_of(6)])
    transport.send_ids(sim, [indexer[0]], [indexer[1]], ["l"], mode=LOCAL_MODE)
    transport.send_ids(sim, [indexer[2], indexer[2]], [indexer[3], indexer[6]], ["g", "h"])
    sim.advance_round()
    assert sim._edge_keys is not None
    assert sim.knows_id(6, sim.id_of(2))
    known_before = {node: sim.known_ids(node) for node in sim.nodes}

    sim.invalidate_index()

    assert sim._edge_keys is None
    # Knowledge is monotone and keyed by the fixed node order: what was
    # learned before the call is still reported after it.
    assert sim.knows_id(6, sim.id_of(2))
    assert {node: sim.known_ids(node) for node in sim.nodes} == known_before
    # Unknown identifiers are still refused.
    assert not sim.knows_id(6, sim.id_of(0))
    with pytest.raises(UnknownIdentifierError):
        transport.send_ids(sim, [indexer[6]], [indexer[0]], ["x"])
    # The simulator still works after invalidation: caches rebuild lazily.
    transport.send_ids(sim, [indexer[2]], [indexer[3]], ["g2"])
    sim.advance_round()
    assert ("g2" in [record[1] for record in sim.per_node_inbox(GLOBAL_MODE)[3]])
