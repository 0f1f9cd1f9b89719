"""Phase accounting and lazy-table invariants.

Two families of properties:

* **Phase-log conservation** — :attr:`BatchAlgorithm.phase_log` records
  per-phase *deltas*; summed over a whole run they must reproduce the
  simulator's final :class:`RoundMetrics` totals exactly, on the plane path
  and on both oracle engines (``batch-reference``, ``legacy``), so no round,
  charge, or message is ever accounted outside a named phase.
* **Lazy all-pairs tables** — the lazy ``SkeletonAPSP`` /
  ``SqrtNSkeletonAPSP`` / ``KSourceShortestPaths`` assemblies moved only the
  table *construction* to first use: round/charge totals are pinned to the
  values the eager dict-of-dicts implementations produced, reading rows moves
  no metrics, and row-factory call counting proves no eager n^2 table is
  built behind the consumer's back.
"""

import math
from array import array

import pytest

from repro.baselines.naive import SqrtNSkeletonAPSP
from repro.core.dissemination import KDissemination
from repro.core.ksp import KSourceShortestPaths
from repro.core.shortest_paths import SkeletonAPSP
from repro.graphs.generators import (
    broom_graph,
    erdos_renyi_graph,
    grid_graph,
    path_graph,
)
from repro.graphs.weighted import assign_random_weights
from repro.simulator.config import ModelConfig
from repro.simulator.network import HybridSimulator

from oracles.engines import ENGINES, exchange_via

GRAPH_FAMILIES = {
    "path": lambda seed: path_graph(24),
    "grid": lambda seed: grid_graph(5, 2),
    "broom": lambda seed: broom_graph(14, 8),
    "erdos_renyi": lambda seed: erdos_renyi_graph(24, 0.15, seed=seed),
}

CASES = [(family, seed) for family in sorted(GRAPH_FAMILIES) for seed in (0, 1)]


def _ids(case):
    family, seed = case
    return f"{family}-s{seed}"


def _assert_log_matches_totals(algorithm, metrics):
    log = algorithm.phase_log
    assert [record.name for record in log] == [
        name for name, _ in algorithm.phases()
    ]
    assert sum(r.measured_rounds for r in log) == metrics.measured_rounds
    assert sum(r.charged_rounds for r in log) == metrics.charged_rounds
    assert sum(r.global_messages for r in log) == metrics.global_messages
    assert sum(r.local_messages for r in log) == metrics.local_messages


# ----------------------------------------------------------------------
# phase_log deltas sum to the RoundMetrics totals, on all three engines
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_dissemination_phase_log_sums_to_totals(case, engine):
    family, seed = case
    graph = GRAPH_FAMILIES[family](seed)
    sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=seed)
    tokens = {v: [("acct", sim.id_of(v))] for v in sim.nodes}
    algorithm = KDissemination(sim, tokens)
    with exchange_via(engine):
        algorithm.run()
    _assert_log_matches_totals(algorithm, sim.metrics)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", CASES[:4], ids=_ids)
def test_skeleton_apsp_phase_log_sums_to_totals(case, engine):
    """Nested KDissemination runs inside phases stay within the phase delta."""
    family, seed = case
    graph = assign_random_weights(GRAPH_FAMILIES[family](seed), max_weight=7, seed=seed)
    sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=seed)
    algorithm = SkeletonAPSP(sim, alpha=1, seed=seed)
    with exchange_via(engine):
        algorithm.run()
    _assert_log_matches_totals(algorithm, sim.metrics)


# ----------------------------------------------------------------------
# Lazy tables: pinned rounds/charges, metrics-free reads, lazy row factories
# ----------------------------------------------------------------------
def _count_factory_calls(table):
    calls = {"count": 0}
    inner = table._row_factory

    def wrapped(target):
        calls["count"] += 1
        return inner(target)

    table._row_factory = wrapped
    return calls


def test_skeleton_apsp_rounds_pinned_and_rows_lazy():
    graph = assign_random_weights(grid_graph(5, 2), max_weight=7, seed=3)
    sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=3)
    algorithm = SkeletonAPSP(sim, alpha=1, seed=3)
    table = algorithm.run()
    # Laziness moved no rounds and no charges (eager-era pin).
    assert sim.metrics.measured_rounds == 40
    assert sim.metrics.charged_rounds == 2790

    calls = _count_factory_calls(table)
    assert table._rows == {} and calls["count"] == 0  # nothing built eagerly
    assert algorithm._skeleton_rows.rows_computed == 0  # no Dijkstra yet

    nodes = table.targets()
    before = sim.metrics.summary()
    first = table.estimate(nodes[0], nodes[1])
    table.estimate(nodes[0], nodes[2])
    assert calls["count"] == 1  # one row serves both queries
    assert algorithm._skeleton_rows.rows_computed == 1
    assert math.isfinite(first)

    _ = table.estimates  # full materialisation: one factory call per new row
    assert calls["count"] == len(nodes)
    assert sim.metrics.summary() == before  # reading rows moves no metrics


def test_sqrtn_skeleton_apsp_rounds_pinned_and_rows_lazy():
    graph = assign_random_weights(grid_graph(4, 2), max_weight=4, seed=1)
    sim = HybridSimulator(graph, ModelConfig.hybrid(), seed=1)
    table = SqrtNSkeletonAPSP(sim, seed=1).run()
    assert sim.metrics.measured_rounds == 0
    assert sim.metrics.charged_rounds == 72

    calls = _count_factory_calls(table)
    assert table._rows == {} and calls["count"] == 0
    target = table.targets()[0]
    row = table.row(target)
    assert table.row(target) is row  # packed and cached, not rebuilt
    assert isinstance(row, array)
    assert calls["count"] == 1


def test_ksp_rounds_pinned_and_skeleton_rows_cover_only_proxies():
    graph = assign_random_weights(grid_graph(5, 2), max_weight=9, seed=4)
    sim = HybridSimulator(graph, ModelConfig.hybrid(), seed=4)
    sources = sorted(graph.nodes)[:3]
    algorithm = KSourceShortestPaths(
        sim, sources, epsilon=0.25, sources_in_skeleton=False, seed=4
    )
    result = algorithm.run()
    assert sim.metrics.measured_rounds == 11
    assert sim.metrics.charged_rounds == 786

    # One flat Dijkstra row per *distinct proxy* — never an all-skeleton
    # dict-of-dicts — and the output is k-wide per node, not n-wide.
    proxies = set(algorithm._proxy_of.values())
    assert algorithm._skeleton_rows.rows_computed == len(proxies)
    assert all(
        set(per_source) == set(result.sources)
        for per_source in result.distances.values()
    )


# ----------------------------------------------------------------------
# Materialise-then-clear regression: never two n^2 copies at once
# ----------------------------------------------------------------------
def test_dense_table_materialisation_drops_row_cache():
    graph = assign_random_weights(grid_graph(5, 2), max_weight=7, seed=3)
    sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=3)
    table = SkeletonAPSP(sim, alpha=1, seed=3).run()
    nodes = table.targets()

    # A consumer iterates row() first, fully warming the dense cache ...
    warmed = {target: table.row(target) for target in nodes}
    assert len(table._rows) == len(nodes)

    # ... then materialises the dict view.  The dense cache and the factory
    # must be dropped at that moment — holding both representations would
    # double the n^2 footprint.
    estimates = table.estimates
    assert table._rows == {}
    assert table._row_factory is None

    # The views agree entry for entry, and post-materialisation row() reads
    # are re-packed into cached C-double rows (not fresh boxed lists per
    # call) without resurrecting the factory.
    for target in nodes:
        assert list(warmed[target]) == [
            estimates[target][column] for column in table.columns()
        ]
    reread = table.row(nodes[0])
    assert isinstance(reread, array)
    assert table.row(nodes[0]) is reread
    assert table._row_factory is None
