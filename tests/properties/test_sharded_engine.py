"""Deterministic-merge property grid for the sharded round planner.

The :class:`~repro.simulator.sharding.ShardedPlanner` must be
**token-for-token schedule-identical** to the single-process planner (and
hence to ``oracles.scheduler.shard_transfers``, the repo's standing oracle) for
every shard count, on every workload shape, under both array backends —
including the branches where sharding declines to engage (oversized tokens,
single-component traffic) and the branch where buckets execute on a real
``multiprocessing`` pool over shared memory.

The grid crosses shard counts 1/2/4/7 with the six graph families and three
seeds; workloads are derived from each family's node set as node-disjoint
congested groups, which guarantees multiple bipartite components so the
partition path genuinely engages (a fully connected workload would delegate
— still identical, but vacuously).  Exchange- and algorithm-level tests pin
that an *installed* planner leaves delivered payloads, metrics and round
counts bit-identical end to end.
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
from repro.simulator import _accel
from repro.simulator import engine as engine_module
from repro.simulator.config import ModelConfig
from repro.simulator.engine import (
    TokenPlane,
    batched_global_exchange,
    install_planner,
    installed_planner,
    plan_token_rounds,
)
from repro.simulator.network import HybridSimulator
from repro.simulator.sharding import ShardedPlanner

from oracles.scheduler import shard_transfers

SEEDS = [0, 1, 2]
WORKER_COUNTS = [1, 2, 4, 7]

requires_numpy = pytest.mark.skipif(
    _accel.np is None, reason="NumPy not available; vectorised leg is inactive"
)

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


@pytest.fixture(params=["numpy", "python"])
def backend(request, monkeypatch):
    """Run the test body under both array backends."""
    if request.param == "python":
        monkeypatch.setattr(_accel, "np", None)
    elif _accel.np is None:
        pytest.skip("NumPy not available; vectorised leg is inactive")
    return request.param


@pytest.fixture
def planner_state(monkeypatch):
    """Snapshot/restore the engine's process-wide planner hook."""
    monkeypatch.setattr(
        engine_module, "_active_planner", engine_module._active_planner
    )
    monkeypatch.setattr(
        engine_module, "_env_planner_resolved", engine_module._env_planner_resolved
    )
    return engine_module


# ----------------------------------------------------------------------
# Workload generators (node indices in [0, n); words >= 1)
# ----------------------------------------------------------------------
def _grouped_congested(rng, n, budget):
    """Node-disjoint congested groups: guaranteed >= 2 bipartite components.

    Each group hammers one hot member with at least ``1.5 * budget`` words,
    so the plan is always multi-round and the partition path must engage.
    """
    groups = max(2, min(4, n // 6))
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
# The grid: shard counts x families x seeds x backends
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_sharded_schedule_is_token_identical(case, workers, backend):
    family, seed = case
    graph = GRAPH_FAMILIES[family](seed)
    n = graph.number_of_nodes()
    rng = random.Random(f"shard-{family}-{seed}-{workers}")
    budget = rng.choice([8, 13, 24, 57])
    tag_words = rng.choice([0, 1, 2])
    senders, receivers, words = _grouped_congested(rng, n, budget)

    planner = ShardedPlanner(workers, use_processes=False, min_tokens=1)
    actual = _as_lists(planner.plan(_plane(senders, receivers, words), budget, tag_words))
    expected = _reference_schedule(senders, receivers, words, budget, tag_words)
    assert actual == expected, (
        f"{family} seed={seed} workers={workers} backend={backend}: "
        f"sharded schedule diverged from the greedy reference"
    )
    # The workload is congested and multi-component by construction, so the
    # partition machinery must actually have run for every workers >= 2.
    assert planner.sharded_plans == (1 if workers > 1 else 0)
    assert planner.process_plans == 0
    # Every token scheduled exactly once.
    flat = sorted(position for shard in actual for position in shard)
    assert flat == list(range(len(words)))


@pytest.mark.parametrize("workers", [2, 7])
@pytest.mark.parametrize("case", CASES[::3], ids=_ids)
def test_oversized_tokens_take_the_exact_fallback(case, workers, backend):
    """Any individually-oversized token couples components: the planner must
    delegate to the single-process planner, never approximate."""
    family, seed = case
    graph = GRAPH_FAMILIES[family](seed)
    n = graph.number_of_nodes()
    rng = random.Random(f"oversize-{family}-{seed}")
    budget = rng.choice([8, 13, 24])
    senders, receivers, words = _grouped_congested(rng, n, budget)
    for _ in range(rng.randrange(1, 4)):
        position = rng.randrange(len(words) + 1)
        senders.insert(position, rng.randrange(n))
        receivers.insert(position, rng.randrange(n))
        words.insert(position, 10_000)

    planner = ShardedPlanner(workers, use_processes=False, min_tokens=1)
    actual = _as_lists(planner.plan(_plane(senders, receivers, words), budget, 1))
    assert actual == _reference_schedule(senders, receivers, words, budget, 1)
    assert planner.sharded_plans == 0  # fallback, not partition


@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("seed", SEEDS)
def test_hot_receiver_collapses_to_one_bucket_and_delegates(seed, workers, backend):
    """A global hot receiver makes one giant component: sharding cannot help,
    so the planner stays serial — and stays identical."""
    rng = random.Random(4100 + seed)
    n = 40
    count = 150
    target = rng.randrange(n)
    senders = [rng.randrange(n) for _ in range(count)]
    receivers = [target for _ in range(count)]
    words = [rng.choice([1, 2, 4]) for _ in range(count)]

    planner = ShardedPlanner(workers, use_processes=False, min_tokens=1)
    actual = _as_lists(planner.plan(_plane(senders, receivers, words), 13, 1))
    assert actual == _reference_schedule(senders, receivers, words, 13, 1)
    assert planner.sharded_plans == 0  # single component => delegation


# ----------------------------------------------------------------------
# Process-pool execution (shared-memory roundtrip)
# ----------------------------------------------------------------------
@requires_numpy
@pytest.mark.parametrize("seed", SEEDS)
def test_process_pool_schedules_are_identical(seed):
    rng = random.Random(5200 + seed)
    budget = 24
    senders, receivers, words = _grouped_congested(rng, 48, budget)
    plane = _plane(senders, receivers, words)
    expected = _reference_schedule(senders, receivers, words, budget, 1)

    with ShardedPlanner(2, use_processes=True, min_tokens=1) as planner:
        first = _as_lists(planner.plan(plane, budget, 1))
        if planner._pool_broken:
            pytest.skip("multiprocessing pool unavailable in this environment")
        assert first == expected
        assert planner.process_plans == 1
        # The pool is persistent: a second plan reuses it.
        second = _as_lists(planner.plan(plane, budget, 1))
        assert second == expected
        assert planner.process_plans == 2
        assert planner.sharded_plans == 2


# ----------------------------------------------------------------------
# Installed planner: exchange- and algorithm-level identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_installed_planner_exchange_is_bit_identical(seed, backend, planner_state):
    graph = erdos_renyi_graph(36, 0.15, seed=seed)
    rng = random.Random(6300 + seed)
    budget = HybridSimulator(graph, ModelConfig.hybrid()).global_budget_words()
    senders, receivers, words = _grouped_congested(rng, 36, min(budget, 24))
    triples = [
        (senders[i], receivers[i], ("m", i, "x" * max(0, words[i] * 8 - 8)))
        for i in range(len(words))
    ]

    def run(planner):
        install_planner(planner)
        sim = HybridSimulator(graph, ModelConfig(strict=False), seed=seed)
        delivered = batched_global_exchange(sim, list(triples), tag="sp")
        return delivered, sim.metrics.summary()

    baseline = run(None)
    with ShardedPlanner(4, use_processes=False, min_tokens=1) as planner:
        sharded = run(planner)
    assert sharded[0] == baseline[0]
    assert sharded[1] == baseline[1]


@pytest.mark.parametrize("seed", SEEDS)
def test_installed_planner_dissemination_is_bit_identical(seed, backend, planner_state):
    graph = GRAPH_FAMILIES["barbell"](seed)
    rng = random.Random(7400 + seed)
    tokens = {}
    for index in range(14):
        tokens.setdefault(rng.randrange(graph.number_of_nodes()), []).append(
            ("tok", index)
        )

    def run(planner):
        install_planner(planner)
        sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=seed)
        result = KDissemination(sim, tokens).run()
        assert result.all_nodes_know_all_tokens()
        return result.metrics.summary()

    baseline = run(None)
    with ShardedPlanner(4, use_processes=False, min_tokens=1) as planner:
        sharded = run(planner)
    assert sharded == baseline


def test_env_variable_installs_and_uninstalls_the_planner(monkeypatch, planner_state):
    monkeypatch.setenv("REPRO_SHARD_WORKERS", "3")
    engine_module._active_planner = None
    engine_module._env_planner_resolved = False
    planner = installed_planner()
    try:
        assert isinstance(planner, ShardedPlanner)
        assert planner.workers == 3
        # Resolution is sticky until explicitly reinstalled.
        assert installed_planner() is planner
    finally:
        if planner is not None:
            planner.close()
    install_planner(None)
    assert installed_planner() is None

    monkeypatch.delenv("REPRO_SHARD_WORKERS", raising=False)
    engine_module._active_planner = None
    engine_module._env_planner_resolved = False
    assert installed_planner() is None


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_planned_rounds_routes_through_installed_planner(seed, backend, planner_state):
    """The engine's scheduling seam really consults the installed planner."""
    rng = random.Random(8500 + seed)
    senders, receivers, words = _grouped_congested(rng, 30, 13)
    plane = _plane(senders, receivers, words)

    class CountingPlanner(ShardedPlanner):
        def __init__(self):
            super().__init__(2, use_processes=False, min_tokens=1)
            self.calls = 0

        def plan(self, plane, budget, tag_words=0):
            self.calls += 1
            return super().plan(plane, budget, tag_words)

    counting = CountingPlanner()
    install_planner(counting)
    planned = _as_lists(engine_module._planned_rounds(plane, 13, 1))
    assert counting.calls == 1
    assert planned == _as_lists(plan_token_rounds(plane, 13, 1))
    install_planner(None)
    assert _as_lists(engine_module._planned_rounds(plane, 13, 1)) == planned
