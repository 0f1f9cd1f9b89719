"""Weighted analytics engine acceptance (flat Dijkstra + one-sweep clustering).

PR 4 moved every centralized weighted computation onto the
:class:`~repro.graphs.index.GraphIndex` weighted layer:

* ``approx_sssp_distances`` / ``exact_sssp_distances`` run a flat-array
  Dijkstra over the cached CSR, with the power-of-``(1 + eps)`` weight
  rounding applied once per ``(graph, epsilon)`` instead of once per edge
  relaxation per query;
* ``nq_clustering`` (Lemma 3.5) replaces its two dict-BFS passes per ruler
  (closest-ruler assignment + member BFS order) with a single flat
  multi-source sweep, and ``greedy_ruling_set`` grows from flat frontiers.

This benchmark guards both migrations at n = 2000:

* ``test_weighted_engine_speedup`` — the index paths must beat the historical
  dict+heapq ``_reference_*`` implementations by >= 5x (relaxable on noisy CI
  runners via ``WEIGHTED_ENGINE_MIN_SPEEDUP``) while agreeing **exactly**
  (all SSSP distances, and the full clustering structure byte for byte);
* ``test_weighted_large_tier`` — n >= 10^4 Lemma 3.5 clustering points
  (the Table 2/3 prerequisite), run by the scheduled CI job
  (``BENCH_SCALE=large``);
* ``test_hhop_batch_rows`` — batched ``h``-hop limited rows
  (``GraphIndex.h_hop_limited_rows``) against the per-source loop of
  ``h_hop_limited_distances`` calls they replace, on 6-regular graphs
  (n = 200, 2000), a weighted path (n = 3000, h = 40 and 200) and a 60 x 60
  grid.  Every row must agree exactly, and on the path the crossover must keep
  the per-source loop (no dense block); neither check is ever relaxed.  There
  the batch call must also not be slower (ratio >= 0.9 on a quiet machine;
  CI relaxes this timing floor via ``HHOP_PATH_MIN_RATIO``).

Fast-path timings regenerate the graph each repeat, so they include the CSR
build and weight rounding — the honest cold-start cost a caller pays.
"""

from __future__ import annotations

import math
import os
import pathlib
import random
import sys
import time

import networkx as nx
import pytest

if __name__ == "__main__":
    # pytest gets tests/ on sys.path from conftest.py; a script run does not.
    sys.path.append(str(pathlib.Path(__file__).resolve().parents[1] / "tests"))

from _artifacts import environment, update_trajectory, write_bench_artifact
from oracles.clustering import _reference_nq_clustering
from oracles.weighted import _reference_approx_sssp_distances
from repro.analysis.experiments import run_clustering_scale_point
from repro.core.clustering import nq_clustering
from repro.core.neighborhood_quality import neighborhood_quality
from repro.graphs.generators import GraphSpec, generate_graph
from repro.graphs.index import get_index
from repro.graphs.weighted import assign_random_weights
from suite.harness import usable_cores

N = 2000
SSSP_SOURCES = 32
EPSILON = 0.25
CLUSTER_K = 64
REPEATS = 3
#: The acceptance bar on a quiet machine.  Shared CI runners have wall-clock
#: variance, so CI may relax the floor via WEIGHTED_ENGINE_MIN_SPEEDUP (exact
#: agreement between the implementations is never relaxed).
REQUIRED_SPEEDUP = float(os.environ.get("WEIGHTED_ENGINE_MIN_SPEEDUP", "5.0"))


def _fresh_sssp_graph():
    # The Table 2/3 weighted workloads are relaxation-heavy; the large-tier
    # Erdos-Renyi instance (avg degree ~16) is where the per-edge costs the
    # migration removed — nx adjacency traversal, per-relaxation
    # ``round_weight_up`` — actually dominate.
    return assign_random_weights(
        generate_graph(GraphSpec.of("erdos_renyi", n=N, p=0.008, seed=7)),
        max_weight=16,
        seed=7,
    )


def _fresh_clustering_graph():
    # The Lemma 3.5 construction is hop-based; the n = 2000 path maximises the
    # ruler count (~n / alpha), i.e. the number of per-ruler BFS passes the
    # one-sweep construction replaces.
    return assign_random_weights(
        generate_graph(GraphSpec.of("path", n=N)), max_weight=16, seed=7
    )


def _sssp_sources(graph):
    nodes = sorted(graph.nodes)
    step = max(1, len(nodes) // SSSP_SOURCES)
    return nodes[::step][:SSSP_SOURCES]


def run_sssp_speedup_comparison() -> dict:
    """Batched (1+eps)-SSSP rows: index engine vs the dict+heapq reference."""
    graph = _fresh_sssp_graph()
    sources = _sssp_sources(graph)

    start = time.perf_counter()
    reference = {
        s: _reference_approx_sssp_distances(graph, s, EPSILON) for s in sources
    }
    reference_seconds = time.perf_counter() - start

    fast_times = []
    fast = None
    for _ in range(REPEATS):
        # A fresh graph instance per repeat defeats the per-graph index (and
        # rounded-CSR) caches: the timing includes the one-off CSR build and
        # weight rounding the first query on a graph pays.
        graph = _fresh_sssp_graph()
        start = time.perf_counter()
        fast = get_index(graph).sssp_dicts(sources, EPSILON)
        fast_times.append(time.perf_counter() - start)

    identical = fast == reference
    fast_best = min(fast_times)
    return {
        "workload": f"{SSSP_SOURCES} x (1+{EPSILON})-SSSP rows",
        "n": N,
        "fast seconds (best of 3, cold cache)": round(fast_best, 4),
        "reference seconds": round(reference_seconds, 4),
        "speedup": round(reference_seconds / fast_best, 1),
        "identical": identical,
    }


def run_clustering_speedup_comparison() -> dict:
    """Lemma 3.5 clustering: one-sweep construction vs per-ruler dict BFS."""
    graph = _fresh_clustering_graph()
    nq = max(1, neighborhood_quality(graph, CLUSTER_K))

    start = time.perf_counter()
    reference = _reference_nq_clustering(graph, CLUSTER_K, nq=nq)
    reference_seconds = time.perf_counter() - start

    fast_times = []
    fast = None
    for _ in range(REPEATS):
        graph = _fresh_clustering_graph()
        start = time.perf_counter()
        fast = nq_clustering(graph, CLUSTER_K, nq=nq)
        fast_times.append(time.perf_counter() - start)

    identical = (
        fast.nq == reference.nq
        and len(fast.clusters) == len(reference.clusters)
        and all(
            f.leader == r.leader and f.members == r.members and f.index == r.index
            for f, r in zip(fast.clusters, reference.clusters)
        )
        and fast.cluster_of == reference.cluster_of
    )
    fast_best = min(fast_times)
    return {
        "workload": f"NQ_k clustering (k={CLUSTER_K}, NQ_k={nq})",
        "n": N,
        "fast seconds (best of 3, cold cache)": round(fast_best, 4),
        "reference seconds": round(reference_seconds, 4),
        "speedup": round(reference_seconds / fast_best, 1),
        "identical": identical,
    }


def _check_rows(rows) -> None:
    for row in rows:
        assert row["identical"], f"{row['workload']}: fast path diverged"
        assert row["speedup"] >= REQUIRED_SPEEDUP, (
            f"{row['workload']}: speedup {row['speedup']}x below the required "
            f"{REQUIRED_SPEEDUP}x"
        )


def _write_artifact(rows) -> None:
    write_bench_artifact(
        "weighted_engine",
        rows,
        n=N,
        sssp_sources=SSSP_SOURCES,
        epsilon=EPSILON,
        cluster_k=CLUSTER_K,
        repeats=REPEATS,
        required_speedup=REQUIRED_SPEEDUP,
    )
    speedups = sorted(row["speedup"] for row in rows)
    update_trajectory(
        "weighted_engine",
        f"flat-index analytics {speedups[0]}x-{speedups[-1]}x faster than the "
        f"dict+heapq references (floor {REQUIRED_SPEEDUP}x) at n={N}",
    )


def test_weighted_engine_speedup(save_table):
    rows = [run_sssp_speedup_comparison(), run_clustering_speedup_comparison()]
    save_table(
        "weighted_engine_speedup",
        rows,
        "Weighted analytics engine - flat index paths vs dict+heapq references",
    )
    _write_artifact(rows)
    _check_rows(rows)


#: The path rows, where the crossover keeps the per-source loop, must read at
#: least this ratio (per-source seconds / batch seconds) on a quiet machine.
#: There both sides run the same per-source loop, so the ratio is mostly
#: host noise; shared CI runners relax it via HHOP_PATH_MIN_RATIO.  Exact
#: agreement and the arm choice are never relaxed.
HHOP_PATH_MIN_RATIO = float(os.environ.get("HHOP_PATH_MIN_RATIO", "0.9"))
#: Best of five alternating repeats, so a burst of host load rarely lands on
#: every repeat of one side.
HHOP_REPEATS = 5


def _integer_weights(graph, seed):
    rng = random.Random(seed)
    for u, v in sorted(graph.edges()):
        graph[u][v]["weight"] = rng.randint(1, 100)
    return graph


def _float_weights(graph, seed):
    rng = random.Random(seed)
    for u, v in sorted(graph.edges()):
        graph[u][v]["weight"] = rng.uniform(0.5, 10.0)
    return graph


#: ``(label, graph factory, h, sources)``; ``None`` sources means all nodes.
HHOP_POINTS = [
    ("6-regular", lambda: _integer_weights(nx.random_regular_graph(6, 200, seed=1), 1), 112, None),
    ("6-regular", lambda: _integer_weights(nx.random_regular_graph(6, 2000, seed=1), 1), 20, 256),
    ("path", lambda: _integer_weights(nx.path_graph(3000), 1), 40, None),
    ("path", lambda: _integer_weights(nx.path_graph(3000), 1), 200, None),
    ("grid 60x60", lambda: _float_weights(nx.grid_2d_graph(60, 60), 1), 40, 512),
]


def run_hhop_batch_comparison(label, make_graph, h, count) -> dict:
    """Batched h-hop rows vs one ``h_hop_limited_distances`` call per source."""
    graph = make_graph()
    index = get_index(graph)
    index.h_hop_limited_distances(index.nodes[0], 1)  # shared pair array, built once
    sources = index.nodes if count is None else index.nodes[:count]
    # Both sides consume their results one source at a time, as the
    # all-sources callers do; neither keeps all |sources| results alive.
    per_source_times, batch_times = [], []
    for _ in range(HHOP_REPEATS):  # alternate the two so drift hits both alike
        start = time.perf_counter()
        for s in sources:
            index.h_hop_limited_distances(s, h)
        per_source_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        for _row in index.h_hop_limited_rows(sources, h):
            pass
        batch_times.append(time.perf_counter() - start)
    # The agreement pass also records which arm ran: sources per dense block.
    dense_blocks = []
    dense_rows = index._dense_rows

    def counted(csr, block, *rest):
        dense_blocks.append(len(block))
        return dense_rows(csr, block, *rest)

    index._dense_rows = counted
    nodes = index.nodes
    identical = all(
        {nodes[i]: d for i, d in enumerate(row) if d != math.inf}
        == index.h_hop_limited_distances(s, h)
        for s, row in zip(sources, index.h_hop_limited_rows(sources, h))
    )
    del index._dense_rows
    env = environment()
    return {
        "graph": label,
        "n": index.n,
        "h": h,
        "sources": len(sources),
        "per-source seconds (best of 5)": round(min(per_source_times), 4),
        "batch seconds (best of 5)": round(min(batch_times), 4),
        "ratio": round(min(per_source_times) / min(batch_times), 2),
        "dense sources": sum(dense_blocks),
        "identical": identical,
        "cores": usable_cores(),
        "python": env["python"],
        "numpy": env["numpy"],
    }


def _check_hhop_rows(rows) -> None:
    for row in rows:
        assert row["identical"], f"{row['graph']} h={row['h']}: batch rows diverged"
        if row["graph"] == "path":
            assert row["dense sources"] == 0, f"path h={row['h']}: a block ran dense"
            assert row["ratio"] >= HHOP_PATH_MIN_RATIO, (
                f"path h={row['h']}: batch call {row['ratio']}x the per-source "
                f"speed, below {HHOP_PATH_MIN_RATIO}x"
            )


def _hhop_rows():
    return [run_hhop_batch_comparison(*point) for point in HHOP_POINTS]


def _write_hhop_artifact(rows) -> None:
    write_bench_artifact(
        "hhop_batch", rows, repeats=HHOP_REPEATS, path_min_ratio=HHOP_PATH_MIN_RATIO
    )
    ratios = ", ".join(f"{row['graph']} h={row['h']} {row['ratio']}x" for row in rows)
    update_trajectory(
        "hhop_batch",
        f"batched h-hop rows vs the per-source loop: {ratios} on "
        f"{rows[0]['cores']} cores, Python {rows[0]['python']}, NumPy "
        f"{rows[0]['numpy']} (path floor {HHOP_PATH_MIN_RATIO}x)",
    )


def test_hhop_batch_rows(save_table):
    rows = _hhop_rows()
    save_table(
        "hhop_batch",
        rows,
        "Batched h-hop limited rows - one batch call vs one call per source",
    )
    _write_hhop_artifact(rows)
    _check_hhop_rows(rows)


LARGE_CLUSTERING_POINTS = [
    # n >= 10^4 Lemma 3.5 clustering, incl. the weak-diameter verification
    # (one shared-index early-exit BFS per member).
    (GraphSpec.of("path", n=20_000), 4096, True),
    # A 2-d grid point of the same magnitude; bounds are skipped there (the
    # per-member weak-diameter sweep is the dominant cost, not construction).
    (GraphSpec.of("grid", side=110, dim=2), 1024, False),
]


def test_weighted_large_tier(save_table):
    """The n >= 10^4 clustering points; runs in the scheduled CI job."""
    if os.environ.get("BENCH_SCALE") != "large":
        pytest.skip("large tier runs in the scheduled CI job (BENCH_SCALE=large)")
    rows = []
    for spec, k, check_bounds in LARGE_CLUSTERING_POINTS:
        rows.append(run_clustering_scale_point(spec, k, check_bounds=check_bounds))
    save_table(
        "weighted_engine_large",
        rows,
        "Lemma 3.5 clustering at n >= 10^4 (weighted engine scheduled tier)",
    )
    for row in rows:
        assert row["clusters"] >= 1
        if "max weak diameter" in row:
            assert row["max weak diameter"] <= row["weak diameter bound"]


def main() -> None:
    rows = [run_sssp_speedup_comparison(), run_clustering_speedup_comparison()]
    for row in rows:
        width = max(len(key) for key in row)
        for key, value in row.items():
            print(f"{key:<{width}}  {value}")
        print()
    _write_artifact(rows)
    _check_rows(rows)
    print(f"OK: weighted analytics engine meets the >= {REQUIRED_SPEEDUP}x bar.")
    hhop = _hhop_rows()
    for row in hhop:
        print("  ".join(f"{key}={value}" for key, value in row.items()))
    _write_hhop_artifact(hhop)
    _check_hhop_rows(hhop)
    print("OK: batched h-hop rows agree exactly; path rows stay per-source.")


if __name__ == "__main__":
    main()
