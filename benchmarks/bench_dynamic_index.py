"""Dynamic-index benchmark: the GraphMutator CSR splice vs invalidate+rebuild.

Acceptance check for the versioned mutation layer (PR: frozen-graph
staleness fix): an edit/re-query loop — delete an edge, run a local
re-query, re-insert the edge with a fresh weight, re-query — over six
graph families at ``n ~ 2000``, driven two ways on identically seeded
graphs and edit scripts:

* **incremental** — :class:`~repro.graphs.mutation.GraphMutator` splices
  each edit into the cached :class:`~repro.graphs.index.GraphIndex` in
  place (CSR adjacency, weight arrays, memoised rounded/pair derivatives;
  only the caches the edit class can change are dropped);
* **rebuild** — the historical path: mutate the graph directly, retire the
  index via :func:`~repro.graphs.index.invalidate_index`, and let
  ``get_index`` rebuild from scratch before the re-query.

Both variants must produce bit-identical query results at every step (and
the final incremental index must agree with a from-scratch oracle), and
the incremental path must be at least ``DYNAMIC_INDEX_MIN_SPEEDUP`` times
faster per family (default 5x; CI may relax on noisy runners — the
identity checks are the hard gate, the floor guards the optimisation).

Each run writes a ``BENCH_dynamic_index.json`` trajectory artifact and
refreshes the committed ``results/TRAJECTORY.md`` summary row.

Run directly (``python benchmarks/bench_dynamic_index.py``) or through
pytest (``pytest benchmarks/bench_dynamic_index.py``).
"""

from __future__ import annotations

import math
import os
import random
import time
from typing import Any, Callable, Dict, List, Tuple

from _artifacts import environment, update_trajectory, write_bench_artifact
from repro.graphs.generators import (
    barbell_graph,
    broom_graph,
    cycle_graph,
    erdos_renyi_graph,
    grid_graph,
    path_graph,
)
from repro.graphs.index import GraphIndex, get_index, invalidate_index
from repro.graphs.mutation import GraphMutator
from repro.graphs.weighted import assign_random_weights
from suite.harness import usable_cores

#: Every family is built at roughly this size (the acceptance point).
N_TARGET = 2000
#: Edit/re-query iterations per family; each iteration performs one edge
#: deletion and one re-insertion, with a 2-hop local re-query after each.
EDITS = int(os.environ.get("DYNAMIC_INDEX_EDITS", "12"))
SEED = 7
#: Perf floor for the incremental path.  Machine-shared CI runners add
#: timing variance, so CI may relax it via DYNAMIC_INDEX_MIN_SPEEDUP (the
#: value-identity checks stay unconditional).
REQUIRED_SPEEDUP = float(os.environ.get("DYNAMIC_INDEX_MIN_SPEEDUP", "5.0"))

FAMILIES: Dict[str, Callable[[], Any]] = {
    "path": lambda: path_graph(N_TARGET),
    "cycle": lambda: cycle_graph(N_TARGET),
    "grid": lambda: grid_graph(45, 2),  # 2025 nodes
    "barbell": lambda: barbell_graph(30, N_TARGET - 60),
    "broom": lambda: broom_graph(N_TARGET // 2, N_TARGET // 2),
    "erdos_renyi": lambda: erdos_renyi_graph(N_TARGET, 0.002, seed=SEED),
}


def _build(family: str):
    return assign_random_weights(FAMILIES[family](), max_weight=9, seed=SEED)


def _edit_script(graph, family: str) -> List[Tuple[Any, Any, int]]:
    """A deterministic list of (u, v, reinsert_weight) edit targets."""
    rng = random.Random(f"dynamic-index-{family}-{SEED}")
    edges = sorted(graph.edges())
    return [
        (*rng.choice(edges), rng.randint(1, 9))
        for _ in range(EDITS)
    ]


def _checksum(limited: Dict[Any, float]) -> Tuple[int, float]:
    return len(limited), sum(d for d in limited.values() if d != math.inf)


def _run_incremental(graph, script) -> Tuple[float, List[Any]]:
    index = get_index(graph)
    index.h_hop_limited_distances(script[0][0], 2)  # warm the scratch arrays
    mutator = GraphMutator(graph)
    checks: List[Any] = []
    start = time.perf_counter()
    for u, v, weight in script:
        mutator.remove_edge(u, v)
        checks.append(_checksum(get_index(graph).h_hop_limited_distances(u, 2)))
        mutator.add_edge(u, v, weight=weight)
        checks.append(_checksum(get_index(graph).h_hop_limited_distances(u, 2)))
    elapsed = time.perf_counter() - start
    assert get_index(graph) is index, "incremental run silently rebuilt the index"
    return elapsed, checks


def _run_rebuild(graph, script) -> Tuple[float, List[Any]]:
    get_index(graph).h_hop_limited_distances(script[0][0], 2)
    checks: List[Any] = []
    start = time.perf_counter()
    for u, v, weight in script:
        graph.remove_edge(u, v)
        invalidate_index(graph)
        checks.append(_checksum(get_index(graph).h_hop_limited_distances(u, 2)))
        graph.add_edge(u, v, weight=weight)
        invalidate_index(graph)
        checks.append(_checksum(get_index(graph).h_hop_limited_distances(u, 2)))
    elapsed = time.perf_counter() - start
    return elapsed, checks


def _oracle_agrees(graph) -> bool:
    """The spliced index equals a from-scratch rebuild on spot queries."""
    spliced = get_index(graph)
    oracle = GraphIndex(graph)
    if (spliced.n, spliced.m) != (oracle.n, oracle.m):
        return False
    probes = [spliced.nodes[0], spliced.nodes[spliced.n // 2], spliced.nodes[-1]]
    return all(
        spliced.hop_distance_row(node) == oracle.hop_distance_row(node)
        and spliced.sssp_row(node) == oracle.sssp_row(node)
        for node in probes
    )


def run_dynamic_index_comparison() -> List[Dict[str, Any]]:
    env = environment()
    rows: List[Dict[str, Any]] = []
    for family in sorted(FAMILIES):
        incremental_graph = _build(family)
        rebuild_graph = _build(family)
        script = _edit_script(incremental_graph, family)
        incremental_seconds, incremental_checks = _run_incremental(
            incremental_graph, script
        )
        rebuild_seconds, rebuild_checks = _run_rebuild(rebuild_graph, script)
        rows.append(
            {
                "family": family,
                "n": incremental_graph.number_of_nodes(),
                "m": incremental_graph.number_of_edges(),
                "edits": 2 * EDITS,
                "incremental seconds": round(incremental_seconds, 4),
                "rebuild seconds": round(rebuild_seconds, 4),
                "speedup": round(rebuild_seconds / incremental_seconds, 2),
                "identical queries": incremental_checks == rebuild_checks,
                "oracle agrees": _oracle_agrees(incremental_graph),
                "cores": usable_cores(),
                "python": env["python"],
                "numpy": env["numpy"],
            }
        )
    return rows


def _check(rows: List[Dict[str, Any]]) -> None:
    for row in rows:
        label = row["family"]
        assert row["identical queries"], (
            f"{label}: incremental and rebuild re-queries diverged"
        )
        assert row["oracle agrees"], (
            f"{label}: spliced index disagrees with a from-scratch rebuild"
        )
        assert row["speedup"] >= REQUIRED_SPEEDUP, (
            f"{label}: incremental edit+re-query speedup {row['speedup']}x "
            f"below the required {REQUIRED_SPEEDUP}x"
        )


def _write_artifact(rows: List[Dict[str, Any]]) -> None:
    write_bench_artifact(
        "dynamic_index",
        rows,
        n_target=N_TARGET,
        edits=EDITS,
        seed=SEED,
        required_speedup=REQUIRED_SPEEDUP,
    )
    speedups = ", ".join(f"{row['family']} {row['speedup']}x" for row in rows)
    update_trajectory(
        "dynamic_index",
        f"incremental edit+re-query vs invalidate+rebuild at n~{N_TARGET}: "
        f"{speedups} on {rows[0]['cores']} cores, Python {rows[0]['python']}, "
        f"NumPy {rows[0]['numpy']} (floor {REQUIRED_SPEEDUP}x)",
    )


def test_dynamic_index_speedup(save_table):
    rows = run_dynamic_index_comparison()
    save_table(
        "dynamic_index_speedup",
        rows,
        f"Dynamic index - single-edge edits + 2-hop re-queries at n~{N_TARGET}, "
        "GraphMutator splice vs invalidate+rebuild",
    )
    _write_artifact(rows)
    _check(rows)


def main() -> None:
    rows = run_dynamic_index_comparison()
    for row in rows:
        width = max(len(key) for key in row)
        for key, value in row.items():
            print(f"{key:<{width}}  {value}")
        print()
    _write_artifact(rows)
    _check(rows)
    print(f"OK: dynamic index meets the >= {REQUIRED_SPEEDUP}x bar on all families.")


if __name__ == "__main__":
    main()
