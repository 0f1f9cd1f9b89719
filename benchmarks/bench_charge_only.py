"""Charge-only simulation benchmark.

Charge-only mode (``HybridSimulator(charge_only=True)``) runs an algorithm on
the words columns alone: schedules, round counts and ``RoundMetrics`` are
exact, but no payload is materialised.  Two tiers:

* **Smoke** — ``KDissemination`` k=4096 on an n=10^4 path in payload mode vs
  charge-only mode.  Metric summaries and round counts must be
  **bit-identical** (the point of charge-only mode: exact accounting, no
  payloads); the speedup is reported, with a lenient sanity floor
  (``CHARGE_ONLY_MIN_SPEEDUP``, default 0.9) because eliding payloads must
  never make the run meaningfully slower.

* **Large** (``BENCH_SCALE=large``, the scheduled CI job) — charge-only
  ``KDissemination`` k=4096 on an n=10^6 **star** and, as a separate test, on
  an n=10^7 star: the simulator's construction seconds and the process
  peak RSS after it; then rounds, global words, ``run()`` wall-clock, peak
  RSS and the generation-0/1/2 garbage collections ``run()`` triggered.
  The star keeps NQ_k at 2 (the center's radius-1 ball is the whole graph),
  which yields few, large clusters and a down-cast volume that fits in
  memory — a payload run at this scale would materialise ~10^7 token
  objects.  NQ is passed as a hint (``nq=2`` by inspection) because the
  centralized NQ computation is Theta(n^2) on a star and is not what this
  benchmark measures.  The n=10^6 run peaks near 1.2 GB of memory; the
  n=10^7 run needs about ten times that.

Every row records the host's usable core count.  Each run writes
``BENCH_charge_only.json`` next to the ASCII tables (see ``_artifacts.py``).

Run directly (``python benchmarks/bench_charge_only.py``; add
``BENCH_SCALE=large`` for the large tier) or through pytest
(``pytest benchmarks/bench_charge_only.py``).
"""

from __future__ import annotations

import gc
import os
import platform
import random
import resource
import time
from typing import Any, Dict, List

import numpy as np
import pytest

from _artifacts import update_trajectory, write_bench_artifact
from repro.core.dissemination import KDissemination
from repro.core.neighborhood_quality import neighborhood_quality
from repro.graphs.generators import path_graph, star_graph
from repro.simulator.config import ModelConfig
from repro.simulator.network import HybridSimulator
from suite.harness import usable_cores

N_DISSEMINATION = 10_000
K_DISSEMINATION = 4096
N_LARGE = 1_000_000
N_XL = 10_000_000
SEED = 11
REPEATS = 3
#: Charge-only mode elides work, so it must never be meaningfully slower
#: than the payload run; the real acceptance criterion is metric identity.
CHARGE_ONLY_FLOOR = float(os.environ.get("CHARGE_ONLY_MIN_SPEEDUP", "0.9"))


def _tokens(n: int) -> Dict[int, List[Any]]:
    rng = random.Random(SEED)
    tokens: Dict[int, List[Any]] = {}
    for index in range(K_DISSEMINATION):
        tokens.setdefault(rng.randrange(n), []).append(("tok", index))
    return tokens


def run_charge_only_comparison() -> Dict[str, Any]:
    graph = path_graph(N_DISSEMINATION)
    tokens = _tokens(N_DISSEMINATION)
    nq = max(1, neighborhood_quality(graph, K_DISSEMINATION))

    def run(charge_only: bool):
        simulator = HybridSimulator(
            graph, ModelConfig.hybrid0(), seed=3, charge_only=charge_only
        )
        algorithm = KDissemination(
            simulator, tokens, nq=nq, charge_only=charge_only
        )
        start = time.perf_counter()
        result = algorithm.run()
        return time.perf_counter() - start, result, simulator

    times = {False: float("inf"), True: float("inf")}
    outcomes = {}
    for _ in range(REPEATS):
        for charge_only in (False, True):
            elapsed, result, simulator = run(charge_only)
            times[charge_only] = min(times[charge_only], elapsed)
            outcomes[charge_only] = (result, simulator)
    payload_result, payload_sim = outcomes[False]
    charged_result, charged_sim = outcomes[True]
    return {
        "workload": f"charge-only KDissemination k={K_DISSEMINATION} (path)",
        "n": N_DISSEMINATION,
        "cores": usable_cores(),
        "payload seconds (best)": round(times[False], 4),
        "charge-only seconds (best)": round(times[True], 4),
        "speedup": round(times[False] / times[True], 2),
        "identical metrics": payload_sim.metrics.diff(charged_sim.metrics) == {},
        "measured rounds": charged_sim.metrics.measured_rounds,
        "total rounds": charged_sim.metrics.total_rounds,
        "capacity violations": charged_sim.metrics.capacity_violations,
        "complete": payload_result.all_nodes_know_all_tokens()
        and charged_result.all_nodes_know_all_tokens(),
    }


def _counting_collections(call):
    """``(call(), collections)``: the garbage collections of each generation
    that ``call`` triggered, read through ``gc.callbacks`` (no threshold is
    changed)."""
    collections = [0, 0, 0]

    def on_gc(phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            collections[info["generation"]] += 1

    gc.callbacks.append(on_gc)
    try:
        return call(), collections
    finally:
        gc.callbacks.remove(on_gc)


def _peak_rss_mb() -> float:
    """The process's peak resident set so far, in MB (Linux ``ru_maxrss``)."""
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def run_charge_only_star(n: int) -> Dict[str, Any]:
    """One end-to-end charge-only star dissemination at ``n`` nodes.

    The simulator's construction (HYBRID_0 identifier draw, adjacency keys,
    pair-store seed) is timed on its own, apart from ``run()``.
    """
    graph = star_graph(n)
    gc.collect()
    start = time.perf_counter()
    simulator = HybridSimulator(graph, ModelConfig.hybrid0(), seed=3, charge_only=True)
    construction = time.perf_counter() - start
    construction_peak = _peak_rss_mb()
    # NQ_k(star) = 2 by inspection (the center's radius-1 ball is the whole
    # graph); the centralized NQ computation is Theta(n^2) here.
    algorithm = KDissemination(simulator, _tokens(n), nq=2, charge_only=True)
    gc.collect()
    start = time.perf_counter()
    result, collections = _counting_collections(algorithm.run)
    elapsed = time.perf_counter() - start
    return {
        "workload": f"charge-only KDissemination k={K_DISSEMINATION} (star)",
        "n": n,
        "cores": usable_cores(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "construction seconds": round(construction, 2),
        # Process peaks so far (the graph included): after construction, and
        # after the run -- the run's own peak unless an earlier row in the
        # same process went higher.
        "peak rss MB after construction": construction_peak,
        "seconds": round(elapsed, 2),
        "peak rss MB": _peak_rss_mb(),
        "gc collections gen0/1/2": "/".join(map(str, collections)),
        "total rounds": result.metrics.total_rounds,
        "global words": result.metrics.global_words,
        "capacity violations": result.metrics.capacity_violations,
        "complete": result.all_nodes_know_all_tokens(),
    }


def _check_smoke(row: Dict[str, Any]) -> None:
    assert row["complete"], "charge-only dissemination failed to deliver"
    assert row["identical metrics"], (
        "charge-only metrics diverged from the payload run"
    )
    assert row["capacity violations"] == 0
    assert row["speedup"] >= CHARGE_ONLY_FLOOR, (
        f"charge-only run {row['speedup']}x vs payload — below the "
        f"{CHARGE_ONLY_FLOOR}x sanity floor"
    )


def _check_star(row: Dict[str, Any]) -> None:
    assert row["complete"], f"charge-only star dissemination incomplete at n={row['n']}"
    assert row["capacity violations"] == 0


def _write_artifact(row: Dict[str, Any]) -> None:
    write_bench_artifact(
        "charge_only",
        [row],
        cores=usable_cores(),
        n_dissemination=N_DISSEMINATION,
        k_dissemination=K_DISSEMINATION,
        repeats=REPEATS,
        charge_only_floor=CHARGE_ONLY_FLOOR,
    )
    update_trajectory(
        "charge_only",
        f"charge-only dissemination {row['speedup']}x vs payload with "
        f"bit-identical metrics at n={N_DISSEMINATION} on {row['cores']} cores, "
        f"Python {platform.python_version()}, NumPy {np.__version__} "
        f"(floor {CHARGE_ONLY_FLOOR}x)",
    )


def test_charge_only(save_table):
    row = run_charge_only_comparison()
    save_table(
        "charge_only",
        [row],
        f"Charge-only vs payload dissemination at n={N_DISSEMINATION} (path)",
    )
    _write_artifact(row)
    _check_smoke(row)


def test_charge_only_large_tier(save_table):
    """The n=10^6 charge-only star point; runs in the scheduled CI job."""
    if os.environ.get("BENCH_SCALE") != "large":
        pytest.skip("large tier runs in the scheduled CI job (BENCH_SCALE=large)")
    row = run_charge_only_star(N_LARGE)
    save_table(
        "charge_only_large_tier",
        [row],
        f"Charge-only dissemination at n={N_LARGE} (star)",
    )
    _check_star(row)


def test_charge_only_xl_tier(save_table):
    """The n=10^7 charge-only star point; runs in the scheduled CI job."""
    if os.environ.get("BENCH_SCALE") != "large":
        pytest.skip("xl tier runs in the scheduled CI job (BENCH_SCALE=large)")
    row = run_charge_only_star(N_XL)
    save_table(
        "charge_only_xl_tier",
        [row],
        f"Charge-only dissemination at n={N_XL} (star)",
    )
    _check_star(row)


def main() -> None:
    rows = [run_charge_only_comparison()]
    if os.environ.get("BENCH_SCALE") == "large":
        rows.append(run_charge_only_star(N_LARGE))
        rows.append(run_charge_only_star(N_XL))
    for row in rows:
        print(row)
    _write_artifact(rows[0])
    _check_smoke(rows[0])
    for row in rows[1:]:
        _check_star(row)


if __name__ == "__main__":
    main()
