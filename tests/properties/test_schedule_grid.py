"""Greedy-reference identity of the round planner across graph families.

:func:`~repro.simulator.engine.plan_token_rounds` must be **token-for-token
schedule-identical** to ``oracles.scheduler.shard_transfers`` on congested
workloads drawn from the node sets of six graph families, for one to seven
node-disjoint congested groups (independent components of the sender/receiver
counters) and three seeds.  The same identity is pinned
for workloads that force individually-oversized tokens through, for a single
global hot receiver, and for small hand-built planes whose schedules are
known in closed form.  Uniform-word planes built to reach each branch of
the component decomposition (every sender clean, sender-exclusive hot
receivers, clean senders beside an entangled residue, all entangled), with
narrow and wide node indices, pin the same identity.
"""

from __future__ import annotations

import random
from collections import defaultdict

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
# Uniform-word planes, one per branch of the component decomposition
# ----------------------------------------------------------------------
def _clean_tokens(rng, count, senders, first_receiver):
    """Tokens of ``senders`` to receivers of their own (four each)."""
    tokens = []
    for _ in range(count):
        sender = rng.choice(senders)
        tokens.append((sender, first_receiver + 4 * sender + rng.randrange(4)))
    return tokens


def _entangled_tokens(rng, count, groups, first_sender, first_receiver):
    """``groups`` disjoint groups of three senders sharing two receivers."""
    tokens = []
    for _ in range(count):
        group = rng.randrange(groups)
        tokens.append(
            (
                first_sender + 3 * group + rng.randrange(3),
                first_receiver + 2 * group + rng.randrange(2),
            )
        )
    return tokens


def _uniform_plane(branch, rng):
    """``(tokens, words, tokens per round)`` of a congested uniform plane."""
    if branch == "all-clean":
        return _clean_tokens(rng, 150, range(12), 100), 2, 3
    if branch == "sender-exclusive":
        hot = {sender: 100 + sender % 4 for sender in range(30)}
        senders = [rng.randrange(30) for _ in range(150)]
        return [(sender, hot[sender]) for sender in senders], 1, 5
    if branch == "clean-and-entangled":
        tokens = _clean_tokens(rng, 120, range(12), 100) + _entangled_tokens(
            rng, 90, 3, 20, 200
        )
        rng.shuffle(tokens)
        return tokens, 3, 3
    if branch == "all-entangled":
        return _entangled_tokens(rng, 160, 4, 0, 20), 2, 2
    # One sender with ``budget == words``: a round per token, past the
    # 1-byte round key.
    return [(0, 1 + rng.randrange(50)) for _ in range(200)], 3, 1


def _branch_of(tokens):
    """Which decomposition branch ``tokens`` reaches, from sender/receiver sets."""
    senders_of = defaultdict(set)
    receivers_of = defaultdict(set)
    for sender, receiver in tokens:
        senders_of[receiver].add(sender)
        receivers_of[sender].add(receiver)
    shared = {receiver for receiver, senders in senders_of.items() if len(senders) > 1}
    if not shared:
        return "all-clean"
    if all(len(receivers) == 1 for receivers in receivers_of.values()):
        return "sender-exclusive"
    entangled = {sender for receiver in shared for sender in senders_of[receiver]}
    return "all-entangled" if entangled == set(receivers_of) else "clean-and-entangled"


UNIFORM_BRANCHES = [
    "all-clean",
    "sender-exclusive",
    "clean-and-entangled",
    "all-entangled",
    "many-rounds",
]


@pytest.mark.parametrize("offset", [0, 40_000], ids=["narrow", "wide"])
@pytest.mark.parametrize("tag_words", [0, 1])
@pytest.mark.parametrize("branch", UNIFORM_BRANCHES)
def test_uniform_branches_are_token_identical(branch, tag_words, offset, arms):
    """Every branch of the uniform-word planner matches the greedy reference,
    with node indices below and above the ``int16`` sort-key range."""
    rng = random.Random(f"uniform-{branch}")
    tokens, size, per_round = _uniform_plane(branch, rng)
    expected_branch = "all-clean" if branch == "many-rounds" else branch
    assert _branch_of(tokens) == expected_branch
    senders = [sender + offset for sender, _ in tokens]
    receivers = [receiver + offset for _, receiver in tokens]
    words = [size] * len(tokens)
    budget = per_round * (size + tag_words)

    actual = _as_lists(
        plan_token_rounds(_plane(senders, receivers, words), budget, tag_words)
    )
    assert actual == _reference_schedule(senders, receivers, words, budget, tag_words)
    assert len(actual) > 1
    if branch == "many-rounds":
        assert len(actual) == len(tokens) > 127


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
