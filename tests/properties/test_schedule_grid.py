"""Greedy-reference identity of the round planner across graph families.

:func:`~repro.simulator.engine.plan_token_rounds` must be **token-for-token
schedule-identical** to ``oracles.scheduler.shard_transfers`` on congested
workloads drawn from the node sets of six graph families, for one to seven
node-disjoint congested groups (independent components of the sender/receiver
counters) and three seeds.  The same identity is pinned
for workloads that force individually-oversized tokens through, for a single
global hot receiver, and for small hand-built planes whose schedules are
known in closed form.
"""

from __future__ import annotations

import random

import pytest

from repro.graphs.generators import (
    barbell_graph,
    broom_graph,
    cycle_graph,
    erdos_renyi_graph,
    grid_graph,
    path_graph,
)
from repro.simulator.engine import TokenPlane, _plan_rounds_python, plan_token_rounds

from oracles.scheduler import shard_transfers

SEEDS = [0, 1, 2]
GROUP_COUNTS = [1, 2, 4, 7]

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
# Workload generators (node indices in [0, n); words >= 1)
# ----------------------------------------------------------------------
def _grouped_congested(rng, n, budget, groups):
    """``groups`` node-disjoint groups, each hammering one hot member with at
    least ``1.5 * budget`` words, so every group needs several rounds."""
    nodes = list(range(n))
    rng.shuffle(nodes)
    size = n // groups
    senders, receivers, words = [], [], []
    for g in range(groups):
        members = nodes[g * size : (g + 1) * size]
        hot = members[0]
        count = 2 * budget + rng.randrange(5, 20)
        for i in range(count):
            senders.append(rng.choice(members))
            receivers.append(hot if i % 4 else rng.choice(members))
            words.append(rng.choice([1, 2, 3]))
    return senders, receivers, words


def _reference_schedule(senders, receivers, words, budget, tag_words):
    tokens = [
        (senders[i], receivers[i], ("payload", i), words[i])
        for i in range(len(words))
    ]
    return [
        [token[2][1] for token in shard]
        for shard in shard_transfers(tokens, budget, tag_words)
    ]


def _plane(senders, receivers, words):
    return TokenPlane(
        senders, receivers, words, [("payload", i) for i in range(len(words))]
    )


def _as_lists(shards):
    return [[int(position) for position in shard] for shard in shards]


# ----------------------------------------------------------------------
# The grid: families x seeds x group counts
# ----------------------------------------------------------------------
@pytest.mark.parametrize("groups", GROUP_COUNTS)
@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_schedule_is_token_identical(case, groups, arms):
    family, seed = case
    graph = GRAPH_FAMILIES[family](seed)
    n = graph.number_of_nodes()
    rng = random.Random(f"schedule-{family}-{seed}-{groups}")
    budget = rng.choice([8, 13, 24, 57])
    tag_words = rng.choice([0, 1, 2])
    senders, receivers, words = _grouped_congested(rng, n, budget, groups)

    actual = _as_lists(plan_token_rounds(_plane(senders, receivers, words), budget, tag_words))
    expected = _reference_schedule(senders, receivers, words, budget, tag_words)
    assert actual == expected, (
        f"{family} seed={seed} groups={groups}: "
        f"schedule diverged from the greedy reference"
    )
    # Congested by construction: every group needs more than one round.
    assert len(actual) > 1
    # Every token scheduled exactly once.
    flat = sorted(position for shard in actual for position in shard)
    assert flat == list(range(len(words)))


@pytest.mark.parametrize("budget", [8, 24])
@pytest.mark.parametrize("case", CASES[::3], ids=_ids)
def test_oversized_tokens_are_forced_through_in_order(case, budget, arms):
    """Tokens larger than the budget interleave with congested groups: each
    is forced through alone once nothing else fits, as in the reference."""
    family, seed = case
    graph = GRAPH_FAMILIES[family](seed)
    n = graph.number_of_nodes()
    rng = random.Random(f"oversize-{family}-{seed}-{budget}")
    senders, receivers, words = _grouped_congested(rng, n, budget, 2)
    oversized = rng.randrange(1, 4)
    for _ in range(oversized):
        position = rng.randrange(len(words) + 1)
        senders.insert(position, rng.randrange(n))
        receivers.insert(position, rng.randrange(n))
        words.insert(position, 10_000)

    actual = _as_lists(plan_token_rounds(_plane(senders, receivers, words), budget, 1))
    assert actual == _reference_schedule(senders, receivers, words, budget, 1)
    big = [position for position, size in enumerate(words) if size == 10_000]
    assert [shard for shard in actual if shard[0] in big] == [[p] for p in big]


@pytest.mark.parametrize("tag_words", [0, 1])
@pytest.mark.parametrize("seed", SEEDS)
def test_hot_receiver_schedule_is_token_identical(seed, tag_words, arms):
    """One global hot receiver couples every token into one component."""
    rng = random.Random(4100 + seed)
    n = 40
    count = 150
    target = rng.randrange(n)
    senders = [rng.randrange(n) for _ in range(count)]
    receivers = [target] * count
    words = [rng.choice([1, 2, 4]) for _ in range(count)]

    actual = _as_lists(plan_token_rounds(_plane(senders, receivers, words), 13, tag_words))
    assert actual == _reference_schedule(senders, receivers, words, 13, tag_words)
    # The hot receiver takes at most ``budget`` words per round.
    for shard in actual:
        assert sum(words[p] + tag_words for p in shard) <= 13 or len(shard) == 1


# ----------------------------------------------------------------------
# Closed-form schedules
# ----------------------------------------------------------------------
def test_empty_plane_plans_no_rounds(arms):
    assert _as_lists(plan_token_rounds(_plane([], [], []), 8)) == []


def test_uncongested_plane_is_one_shard(arms):
    plane = _plane([0, 2, 4, 6], [1, 3, 5, 7], [2, 2, 2, 2])
    assert _as_lists(plan_token_rounds(plane, 8, 1)) == [[0, 1, 2, 3]]


def test_single_congested_pair_is_fifo(arms):
    # 5 + 1 tag word per token: one token per round on a budget of 8.
    plane = _plane([0] * 4, [1] * 4, [5] * 4)
    assert _as_lists(plan_token_rounds(plane, 8, 1)) == [[0], [1], [2], [3]]


def test_sender_and_receiver_budgets_are_independent(arms):
    # Node 1 receives token 0 and sends token 1; its sent and received
    # counters are separate, so both full-budget tokens fit in one round.
    plane = _plane([0, 1], [1, 2], [8, 8])
    assert _as_lists(plan_token_rounds(plane, 8)) == [[0, 1]]
    # A 2-cycle shares no counter either.
    plane = _plane([0, 1], [1, 0], [8, 8])
    assert _as_lists(plan_token_rounds(plane, 8)) == [[0, 1]]


def test_shared_counters_defer_tokens(arms):
    # (0->1) and (2->1) share receiver 1; (2->3) shares sender 2 with (2->1).
    # (5->6) shares nothing and rides in round 0.
    plane = _plane([0, 2, 2, 5], [1, 1, 3, 6], [5, 5, 5, 5])
    assert _as_lists(plan_token_rounds(plane, 8)) == [[0, 2, 3], [1]]


def test_plans_agree_across_the_size_arms():
    """A bulk workload planned by the vectorised arm and by the scalar arm
    that small workloads take: one schedule, the reference one."""
    rng = random.Random(11)
    senders = [rng.randrange(20) for _ in range(400)]
    receivers = [rng.randrange(20) for _ in range(400)]
    words = [rng.choice([1, 2, 3, 30]) for _ in range(400)]
    vectorised = _as_lists(plan_token_rounds(_plane(senders, receivers, words), 24, 1))
    scalar = _plan_rounds_python(senders, receivers, [w + 1 for w in words], 24)
    assert _as_lists(scalar) == vectorised
    assert vectorised == _reference_schedule(senders, receivers, words, 24, 1)
