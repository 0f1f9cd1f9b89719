"""Theorems 15-17 / Appendix B reproduction: NQ_k on special graph families.

Paper claims:

* Theorem 15: on paths and cycles, NQ_k = Theta(min(sqrt k, D)).
* Theorem 16: on d-dimensional grids, NQ_k = Theta(min(k^{1/(d+1)}, D)).
* Lemma 3.6: on every graph, sqrt(Dk/3n) < NQ_k <= min(D, sqrt k).
* Lemma 3.7: NQ_{alpha k} <= 6 sqrt(alpha) NQ_k.

The benchmark measures NQ_k across the families and k sweeps, prints measured
vs. predicted, fits the growth exponent of NQ_k in k on each family, and
asserts the exponents land near the predicted 1/2 (paths/cycles), 1/3 (2-d
grids) and 1/4 (3-d grids/tori).

It additionally guards the frontier-based analytics engine
(:mod:`repro.graphs.index`):

* ``test_nq_engine_speedup`` — the fast ``NQ_k`` path must beat the Theta(n*m)
  reference implementation (``oracles.nq``) by >= 10x (relaxable on noisy CI
  runners via ``NQ_MIN_SPEEDUP``) while agreeing exactly, on an n = 2000 path
  (one ball growth) and a random 6-regular graph with k = n (no ball
  certifies another, so the priced dense blocks grow them); each row reports
  the per-source growths and dense-block sources of one scan;
* ``test_nq_large_scale`` — full NQ_k profiles on n ~ 10^5 path / tree / ring
  instances, infeasible before the engine, must complete inside the harness;
* ``test_nq_large_tier`` — the ``default_benchmark_specs("large")`` grid
  (n >= 2000), run by the scheduled CI job (``BENCH_SCALE=large``);
* ``test_nq_value_large_tier`` — graph-level ``NQ_k`` on a 10^6-node path and
  a 1000 x 1000 grid, with the number of balls the pruned scan grew (same
  scheduled job).
"""

from __future__ import annotations

import math
import os
import pathlib
import sys
import time

import pytest

if __name__ == "__main__":
    # pytest gets tests/ on sys.path from conftest.py; a script run does not.
    sys.path.append(str(pathlib.Path(__file__).resolve().parents[1] / "tests"))

from _artifacts import environment, update_trajectory, write_bench_artifact
from oracles.nq import _reference_neighborhood_quality
from repro.analysis.comparison import fit_power_law_exponent
from repro.analysis.experiments import (
    default_benchmark_specs,
    run_nq_family_point,
    run_nq_scale_point,
)
from repro.core.neighborhood_quality import neighborhood_quality
from repro.graphs.generators import GraphSpec, generate_graph
from repro.graphs.index import GraphIndex, get_index
from suite.harness import usable_cores

K_VALUES = [16, 64, 256, 1024]

FAMILIES = {
    "path": (GraphSpec.of("path", n=400), 0.5),
    "cycle": (GraphSpec.of("cycle", n=400), 0.5),
    "grid-2d": (GraphSpec.of("grid", side=20, dim=2), 1.0 / 3.0),
    "torus-3d": (GraphSpec.of("torus", side=8, dim=3), 0.25),
}


def _family_rows():
    rows = []
    for name, (spec, _) in FAMILIES.items():
        for k in K_VALUES:
            row = run_nq_family_point(spec, k)
            row["family"] = name
            rows.append(row)
    return rows


def test_nq_special_families(benchmark, save_table):
    rows = benchmark.pedantic(_family_rows, rounds=1, iterations=1)
    save_table("nq_families", rows, "Theorems 15/16 - NQ_k on special families")
    # Lemma 3.6 bounds hold on every row.
    for row in rows:
        assert row["NQ_k measured"] <= row["upper bound min(D, sqrt k)"] + 1
        assert row["NQ_k measured"] > row["lower bound sqrt(Dk/3n)"] - 1
    # Growth exponents match the predictions (within a generous band that still
    # separates 1/2 from 1/3 from 1/4).
    for name, (spec, predicted_exponent) in FAMILIES.items():
        subset = [row for row in rows if row["family"] == name]
        # Only fit over the k range where the diameter cap is not active.
        active = [row for row in subset if row["NQ_k measured"] < row["D"]]
        if len(active) < 2:
            continue
        exponent, _ = fit_power_law_exponent(
            [row["k"] for row in active], [row["NQ_k measured"] for row in active]
        )
        assert abs(exponent - predicted_exponent) < 0.15, (
            f"{name}: fitted {exponent:.3f}, predicted {predicted_exponent:.3f}"
        )


# ----------------------------------------------------------------------
# Analytics engine guards
# ----------------------------------------------------------------------
#: name -> (graph, k).  The regular graph is sized so that its reference
#: takes about 1.5 s on a 2-core host, against about 5 s for the path.
SPEEDUP_CASES = {
    "path": (GraphSpec.of("path", n=2000), 1024),
    "random-regular": (GraphSpec.of("random_regular", n=1000, degree=6, seed=1), 1000),
}
SPEEDUP_REPEATS = 3
#: The acceptance bar on a quiet machine.  Shared CI runners have wall-clock
#: variance, so CI may relax the floor via NQ_MIN_SPEEDUP (exact agreement
#: between the two implementations is never relaxed).
REQUIRED_NQ_SPEEDUP = float(os.environ.get("NQ_MIN_SPEEDUP", "10.0"))


def _scan_arms(graph, k: int) -> dict:
    """The per-source growths and dense-block sources of one fresh scan."""
    index = GraphIndex(graph)
    counts = {"per-source growths": 0, "dense-block sources": 0}
    grow, block = index._nq_grow, index._nq_block

    def counting_grow(*args):
        counts["per-source growths"] += 1
        return grow(*args)

    def counting_block(csr, sources, *args):
        counts["dense-block sources"] += len(sources)
        return block(csr, sources, *args)

    index._nq_grow, index._nq_block = counting_grow, counting_block
    index.nq_value(k)
    return counts


def run_nq_speedup_comparison() -> list:
    """Time fast vs. reference NQ_k on every speedup case, fresh caches each run."""
    return [_speedup_row(name, spec, k) for name, (spec, k) in SPEEDUP_CASES.items()]


def _speedup_row(name: str, spec: GraphSpec, k: int) -> dict:
    reference_graph = generate_graph(spec)
    start = time.perf_counter()
    reference_value = _reference_neighborhood_quality(reference_graph, k)
    reference_seconds = time.perf_counter() - start

    fast_times = []
    fast_value = None
    for _ in range(SPEEDUP_REPEATS):
        # A fresh graph instance per repeat defeats the per-graph index and
        # NQ memo caches, so the timing includes the CSR build — the honest
        # cold-start cost a caller pays.
        graph = generate_graph(spec)
        start = time.perf_counter()
        fast_value = neighborhood_quality(graph, k)
        fast_times.append(time.perf_counter() - start)

    fast_best = min(fast_times)
    env = environment()
    return {
        "graph": name,
        "n": reference_graph.number_of_nodes(),
        "k": k,
        "NQ_k (fast)": fast_value,
        "NQ_k (reference)": reference_value,
        "fast seconds (best of 3, cold cache)": round(fast_best, 4),
        "reference seconds": round(reference_seconds, 4),
        "speedup": round(reference_seconds / fast_best, 1),
        "identical": fast_value == reference_value,
        **_scan_arms(generate_graph(spec), k),
        "cores": usable_cores(),
        "python": env["python"],
        "numpy": env["numpy"],
    }


def _check_speedup(rows: list) -> None:
    for row in rows:
        assert row["identical"], f"fast NQ_k disagrees with the reference on {row['graph']}"
        assert row["speedup"] >= REQUIRED_NQ_SPEEDUP, (
            f"NQ engine speedup {row['speedup']}x on {row['graph']} below the "
            f"required {REQUIRED_NQ_SPEEDUP}x"
        )


def _write_speedup_artifact(rows: list) -> None:
    write_bench_artifact(
        "nq_engine",
        rows,
        repeats=SPEEDUP_REPEATS,
        required_speedup=REQUIRED_NQ_SPEEDUP,
    )
    cases = ", ".join(
        f"{row['speedup']}x on {row['graph']} (n={row['n']}, k={row['k']})" for row in rows
    )
    update_trajectory(
        "nq_engine",
        f"pruned NQ_k scan faster than the Theta(n*m) reference (floor "
        f"{REQUIRED_NQ_SPEEDUP}x): {cases} on {rows[0]['cores']} cores, Python "
        f"{rows[0]['python']}, NumPy {rows[0]['numpy']}",
    )


def test_nq_engine_speedup(save_table):
    rows = run_nq_speedup_comparison()
    save_table(
        "nq_speedup",
        rows,
        "NQ analytics engine - pruned graph-level scan vs Theta(n*m) reference",
    )
    _write_speedup_artifact(rows)
    _check_speedup(rows)


LARGE_SCALE_KS = [16, 256, 4096]
LARGE_SCALE_FAMILIES = {
    # with_diameter: exact D via iFUB is cheap on paths and trees; the ring's
    # antipodal symmetry defeats eccentricity pruning, so skip it there.
    "path": (GraphSpec.of("path", n=100_000), True),
    "tree": (GraphSpec.of("tree", branching=2, height=16), True),
    "ring": (GraphSpec.of("cycle", n=100_000), False),
}


def test_nq_large_scale(save_table):
    """n ~ 10^5 NQ_k profiles — the workload the engine was built to unlock."""
    rows = []
    for name, (spec, with_diameter) in LARGE_SCALE_FAMILIES.items():
        row = run_nq_scale_point(spec, LARGE_SCALE_KS, with_diameter=with_diameter)
        row["family"] = name
        rows.append(row)
    save_table("nq_large_scale", rows, "NQ_k profiles at n ~ 10^5 (Theorem 15)")
    for row in rows:
        values = [row[f"NQ_{k}"] for k in LARGE_SCALE_KS]
        # Lemma 3.6 upper bound (the diameter cap is far away at this scale)
        # and monotonicity in k.
        for k, value in zip(LARGE_SCALE_KS, values):
            assert 1 <= value <= math.ceil(math.sqrt(k)) + 1
        assert values == sorted(values)
    by_family = {row["family"]: row for row in rows}
    # Theorem 15: paths and rings are Theta(sqrt k); the tree's exponential
    # ball growth keeps NQ_k near k^(1/3)-ish territory, far below sqrt k.
    assert by_family["path"][f"NQ_{4096}"] >= 0.5 * math.sqrt(4096)
    assert by_family["tree"][f"NQ_{4096}"] < 0.5 * math.sqrt(4096)


def test_nq_large_tier(save_table):
    """The full n >= 2000 benchmark grid; runs in the scheduled CI job."""
    if os.environ.get("BENCH_SCALE") != "large":
        pytest.skip("large tier runs in the scheduled CI job (BENCH_SCALE=large)")
    rows = []
    for spec in default_benchmark_specs("large"):
        for k in (256, 1024):
            rows.append(run_nq_family_point(spec, k))
    save_table("nq_large_tier", rows, "NQ_k on the large (n >= 2000) benchmark grid")
    for row in rows:
        assert row["NQ_k measured"] <= row["upper bound min(D, sqrt k)"] + 1
        assert row["NQ_k measured"] > row["lower bound sqrt(Dk/3n)"] - 1


NQ_VALUE_LARGE_FAMILIES = {
    "path": (GraphSpec.of("path", n=1_000_000), 4096),
    "grid-2d": (GraphSpec.of("grid", side=1000, dim=2), 10**4),
}


def test_nq_value_large_tier(save_table, monkeypatch):
    """Graph-level NQ_k at n = 10^6, with the ball growths the scan needed."""
    if os.environ.get("BENCH_SCALE") != "large":
        pytest.skip("large tier runs in the scheduled CI job (BENCH_SCALE=large)")
    growths = [0]
    grow = GraphIndex._nq_grow

    def counting(self, *args, **kwargs):
        growths[0] += 1
        return grow(self, *args, **kwargs)

    monkeypatch.setattr(GraphIndex, "_nq_grow", counting)
    rows = []
    for name, (spec, k) in NQ_VALUE_LARGE_FAMILIES.items():
        graph = generate_graph(spec)
        start = time.perf_counter()
        index = get_index(graph)
        built = time.perf_counter()
        growths[0] = 0
        value = index.nq_value(k)
        done = time.perf_counter()
        rows.append(
            {
                "family": name,
                "n": index.n,
                "k": k,
                "NQ_k": value,
                "index build seconds": round(built - start, 2),
                "NQ_k seconds": round(done - built, 2),
                "ball growths": growths[0],
                "cores": usable_cores(),
            }
        )
        del graph, index
    save_table(
        "nq_value_large_tier", rows, "Graph-level NQ_k at n = 10^6 (pruned scan)"
    )
    for row in rows:
        # Lemma 3.6: NQ_k <= sqrt(k) rounded up; the diameter is far larger.
        assert 1 <= row["NQ_k"] <= math.isqrt(row["k"] - 1) + 1
        assert row["ball growths"] <= 0.05 * row["n"]


def main() -> None:
    rows = run_nq_speedup_comparison()
    for row in rows:
        width = max(len(key) for key in row)
        for key, value in row.items():
            print(f"{key:<{width}}  {value}")
        print()
    _write_speedup_artifact(rows)
    _check_speedup(rows)
    print(f"\nOK: NQ analytics engine meets the >= {REQUIRED_NQ_SPEEDUP}x bar.")


if __name__ == "__main__":
    main()
