"""Round-count regression pins for the batch-migrated algorithms.

The batch messaging engine must not change algorithm *behavior* — only how
fast the simulation executes.  These tests pin the exact round counts of
``KDissemination`` and ``ApproxSSSP`` on fixed seeded instances, for both the
plane path and the legacy oracle engine (``oracles.engines.exchange_via``),
so any scheduling drift in a future refactor fails loudly instead of
silently shifting the paper's reproduced numbers.

If a change *intentionally* alters round counts (e.g. a different cluster-tree
shape), update the pinned constants and say so in the commit message.
"""

import random

import pytest

from repro.core.bcc import BCCBroadcast
from repro.core.dissemination import KDissemination
from repro.core.ksp import KSourceShortestPaths
from repro.core.neighborhood_quality import DistributedNQComputation
from repro.core.shortest_paths import KLShortestPaths, UnweightedApproxAPSP
from repro.core.sssp import ApproxSSSP
from repro.graphs.generators import grid_graph, path_graph
from repro.simulator.config import ModelConfig
from repro.simulator.network import HybridSimulator

from oracles.engines import exchange_via

# (label, graph builder, k, seed) -> (measured_rounds, total_rounds, global_messages)
DISSEMINATION_PINS = {
    ("path48", 24, 11): (18, 2381, 262),
    ("grid7", 16, 5): (14, 1175, 192),
}

# (label, k, seed) -> (nq, measured_rounds, total_rounds, local_messages).
# nq/measured/total are pinned for BOTH engines — the frontier rewrite must
# not move them.  local_messages coincide here because no node's ball
# saturates before the global termination on these instances; on saturating
# instances the frontier engine sends strictly fewer (see
# test_distributed_nq_engines_agree_exactly).
NQ_PINS = {
    ("path48", 24, 11): (5, 5, 101, 470),
    ("grid7", 16, 5): (3, 3, 75, 504),
}

# A saturating instance: k >> n forces exploration to the diameter, so
# interior nodes exhaust their balls early and the frontier engine goes
# quiet on them while the legacy engine keeps re-broadcasting.
NQ_EQUIVALENCE_CASES = sorted(NQ_PINS) + [("path9", 1000, 0)]

# (label, epsilon, seed) -> (measured_rounds, total_rounds)
SSSP_PINS = {
    ("path48", 0.25, 11): (0, 576),
    ("grid7", 0.5, 5): (0, 144),
}

# The shortest-paths stack (PR 3): the schedule-identical guarantee of the
# batch migration.  Each pin is (measured_rounds, total_rounds,
# global_messages) and must hold for BOTH engines — the Theorem 1 broadcasts
# inside these algorithms are physically simulated KDissemination instances,
# so any scheduling drift in the batch engine shows up here first.
#
# (label, epsilon, seed) -> pin
APSP_PINS = {
    ("path48", 0.5, 11): (35, 6116, 668),
    ("grid7", 0.5, 11): (24, 2736, 388),
}

# (label, sources_in_skeleton, seed) -> pin.  The skeleton case moves no
# global traffic (everything is charged); the arbitrary-sources case
# physically broadcasts the proxy offsets via Theorem 1.
KSP_PINS = {
    ("path48", True, 11): (0, 612, 0),
    ("grid7", True, 11): (0, 612, 0),
    ("path48", False, 11): (14, 1618, 139),
    ("grid7", False, 11): (19, 1815, 181),
}

# (label, rounds, seed) -> pin for the pipelined BCC bridge.
BCC_PINS = {
    ("path48", 2, 11): (42, 4916, 668),
    ("grid7", 2, 11): (26, 2110, 388),
}

# (label, epsilon, seed) -> pin for the Theorem 5 reversal pipeline.
KLSP_PINS = {
    ("path48", 0.25, 11): (9, 985, 144),
    ("grid7", 0.25, 11): (7, 983, 144),
}

GRAPHS = {
    "path48": lambda: path_graph(48),
    "grid7": lambda: grid_graph(7, 2),
    "path9": lambda: path_graph(9),
}


def _scatter(graph, k, seed):
    rng = random.Random(seed)
    nodes = sorted(graph.nodes)
    tokens = {}
    for index in range(k):
        tokens.setdefault(rng.choice(nodes), []).append(("tok", index))
    return tokens


@pytest.mark.parametrize("engine", ["batch", "legacy"])
@pytest.mark.parametrize("pin", sorted(DISSEMINATION_PINS), ids=lambda p: f"{p[0]}-k{p[1]}")
def test_dissemination_round_counts_are_pinned(pin, engine):
    label, k, seed = pin
    graph = GRAPHS[label]()
    tokens = _scatter(graph, k, seed)
    sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=seed)
    with exchange_via(engine):
        result = KDissemination(sim, tokens).run()
    expected = DISSEMINATION_PINS[pin]
    actual = (
        result.metrics.measured_rounds,
        result.metrics.total_rounds,
        result.metrics.global_messages,
    )
    assert actual == expected, (
        f"{label} k={k} seed={seed} engine={engine}: rounds/messages {actual} "
        f"drifted from the pinned {expected}"
    )
    assert result.metrics.capacity_violations == 0
    assert result.all_nodes_know_all_tokens()


@pytest.mark.parametrize("engine", ["batch", "legacy"])
@pytest.mark.parametrize("pin", sorted(SSSP_PINS), ids=lambda p: f"{p[0]}-eps{p[1]}")
def test_sssp_round_counts_are_pinned(pin, engine):
    label, epsilon, seed = pin
    graph = GRAPHS[label]()
    sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=seed)
    with exchange_via(engine):
        result = ApproxSSSP(sim, 0, epsilon=epsilon).run()
    expected = SSSP_PINS[pin]
    actual = (result.metrics.measured_rounds, result.metrics.total_rounds)
    assert actual == expected


@pytest.mark.parametrize("engine", ["batch", "legacy"])
@pytest.mark.parametrize("pin", sorted(NQ_PINS), ids=lambda p: f"{p[0]}-k{p[1]}")
def test_distributed_nq_round_counts_are_pinned(pin, engine):
    label, k, seed = pin
    graph = GRAPHS[label]()
    sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=seed)
    with exchange_via(engine):
        result = DistributedNQComputation(sim, k).run()
    expected = NQ_PINS[pin]
    actual = (
        result.nq,
        result.metrics.measured_rounds,
        result.metrics.total_rounds,
        result.metrics.local_messages,
    )
    assert actual == expected, (
        f"{label} k={k} seed={seed} engine={engine}: NQ rounds/messages {actual} "
        f"drifted from the pinned {expected}"
    )


@pytest.mark.parametrize("pin", NQ_EQUIVALENCE_CASES, ids=lambda p: f"{p[0]}-k{p[1]}")
def test_distributed_nq_engines_agree_exactly(pin):
    """Frontier and whole-ball flooding produce identical results and rounds."""
    label, k, seed = pin
    graph = GRAPHS[label]()

    def run(engine):
        sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=seed)
        with exchange_via(engine):
            return DistributedNQComputation(sim, k).run()

    batch, legacy = run("batch"), run("legacy")
    assert batch.nq == legacy.nq
    assert batch.per_node == legacy.per_node
    batch_summary = batch.metrics.summary()
    legacy_summary = legacy.metrics.summary()
    # Traffic volume may only shrink: the frontier engine never re-broadcasts
    # known ball members (fewer words) and skips saturated nodes entirely
    # (fewer messages).  Everything else — rounds, charges, global traffic —
    # must coincide exactly.
    assert batch_summary.pop("local_words") <= legacy_summary.pop("local_words")
    assert batch_summary.pop("local_messages") <= legacy_summary.pop("local_messages")
    assert batch_summary == legacy_summary


@pytest.mark.parametrize("pin", sorted(DISSEMINATION_PINS), ids=lambda p: f"{p[0]}-k{p[1]}")
def test_batch_and_legacy_engines_agree_exactly(pin):
    """Beyond the pins: the two engines agree on the full metrics summary."""
    label, k, seed = pin
    graph = GRAPHS[label]()
    tokens = _scatter(graph, k, seed)

    def run(engine):
        sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=seed)
        with exchange_via(engine):
            return KDissemination(sim, tokens).run()

    batch, legacy = run("batch"), run("legacy")
    assert batch.metrics.summary() == legacy.metrics.summary()
    assert batch.known_tokens == legacy.known_tokens


# ----------------------------------------------------------------------
# PR 3: the shortest-paths stack (APSP / k-SP / BCC)
# ----------------------------------------------------------------------
def _metrics_triple(sim):
    return (
        sim.metrics.measured_rounds,
        sim.metrics.total_rounds,
        sim.metrics.global_messages,
    )


@pytest.mark.parametrize("engine", ["batch", "legacy"])
@pytest.mark.parametrize("pin", sorted(APSP_PINS), ids=lambda p: f"{p[0]}-eps{p[1]}")
def test_apsp_round_counts_are_pinned(pin, engine):
    label, epsilon, seed = pin
    graph = GRAPHS[label]()
    sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=seed)
    with exchange_via(engine):
        UnweightedApproxAPSP(sim, epsilon=epsilon).run()
    assert _metrics_triple(sim) == APSP_PINS[pin], (
        f"{label} eps={epsilon} engine={engine}: APSP rounds/messages "
        f"{_metrics_triple(sim)} drifted from the pinned {APSP_PINS[pin]}"
    )
    assert sim.metrics.capacity_violations == 0


@pytest.mark.parametrize("engine", ["batch", "legacy"])
@pytest.mark.parametrize(
    "pin", sorted(KSP_PINS), ids=lambda p: f"{p[0]}-{'skel' if p[1] else 'arb'}"
)
def test_ksp_round_counts_are_pinned(pin, engine):
    label, in_skeleton, seed = pin
    graph = GRAPHS[label]()
    nodes = sorted(graph.nodes)
    sources = nodes[::7] if in_skeleton else nodes[:5]
    sim = HybridSimulator(graph, ModelConfig.hybrid(), seed=seed)
    with exchange_via(engine):
        KSourceShortestPaths(
            sim,
            sources,
            epsilon=0.25,
            sources_in_skeleton=in_skeleton,
            seed=seed,
        ).run()
    assert _metrics_triple(sim) == KSP_PINS[pin], (
        f"{label} in_skeleton={in_skeleton} engine={engine}: k-SP rounds "
        f"{_metrics_triple(sim)} drifted from the pinned {KSP_PINS[pin]}"
    )
    assert sim.metrics.capacity_violations == 0


@pytest.mark.parametrize("engine", ["batch", "legacy"])
@pytest.mark.parametrize("pin", sorted(BCC_PINS), ids=lambda p: f"{p[0]}-r{p[1]}")
def test_bcc_broadcast_round_counts_are_pinned(pin, engine):
    label, bcc_rounds, seed = pin
    graph = GRAPHS[label]()
    schedule = [
        {v: (f"round{i}", v) for v in graph.nodes} for i in range(bcc_rounds)
    ]
    sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=seed)
    with exchange_via(engine):
        result = BCCBroadcast(sim, schedule).run()
    assert result.all_rounds_complete()
    assert _metrics_triple(sim) == BCC_PINS[pin], (
        f"{label} rounds={bcc_rounds} engine={engine}: BCC rounds "
        f"{_metrics_triple(sim)} drifted from the pinned {BCC_PINS[pin]}"
    )


@pytest.mark.parametrize("engine", ["batch", "legacy"])
@pytest.mark.parametrize("pin", sorted(KLSP_PINS), ids=lambda p: f"{p[0]}-eps{p[1]}")
def test_klsp_round_counts_are_pinned(pin, engine):
    label, epsilon, seed = pin
    graph = GRAPHS[label]()
    nodes = sorted(graph.nodes)
    sim = HybridSimulator(graph, ModelConfig.hybrid(), seed=seed)
    with exchange_via(engine):
        KLShortestPaths(sim, nodes[:6], nodes[-8:], epsilon=epsilon, seed=seed).run()
    assert _metrics_triple(sim) == KLSP_PINS[pin], (
        f"{label} eps={epsilon} engine={engine}: (k,l)-SP rounds "
        f"{_metrics_triple(sim)} drifted from the pinned {KLSP_PINS[pin]}"
    )
    assert sim.metrics.capacity_violations == 0


@pytest.mark.parametrize("pin", sorted(APSP_PINS), ids=lambda p: f"{p[0]}-eps{p[1]}")
def test_apsp_engines_agree_exactly(pin):
    """Beyond the pins: both engines agree on the full metrics summary and on
    every materialised estimate."""
    label, epsilon, seed = pin
    graph = GRAPHS[label]()

    def run(engine):
        sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=seed)
        with exchange_via(engine):
            return UnweightedApproxAPSP(sim, epsilon=epsilon).run()

    batch, legacy = run("batch"), run("legacy")
    assert batch.metrics.summary() == legacy.metrics.summary()
    assert batch.estimates == legacy.estimates
