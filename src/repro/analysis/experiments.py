"""The experiment harness behind the benchmarks.

Each ``run_*`` function reproduces one of the paper's tables or figures on a
single graph instance and returns plain dictionaries (one per table row) so the
pytest-benchmark targets under ``benchmarks/`` stay thin: they pick the graph
grid, call these functions, assert the paper's qualitative claims ("who wins,
by roughly what factor"), and print the rendered tables into
``bench_output.txt``.  The examples under ``examples/`` reuse the same
functions, so the numbers a user sees in the quickstart are produced by exactly
the same code path as the benchmark results recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import math
import random
import time
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

import networkx as nx

from repro.analysis.comparison import fit_power_law_exponent
from repro.analysis.tables import ExperimentRow
from repro.analysis.theory import TheoryPredictions
from repro.baselines.centralized import exact_apsp, exact_hop_apsp, max_stretch_of_table
from repro.baselines.existential import ExistentialBounds
from repro.core.aggregation import KAggregation
from repro.core.clustering import nq_clustering
from repro.core.dissemination import KDissemination
from repro.core.ksp import KSourceShortestPaths
from repro.core.neighborhood_quality import neighborhood_quality
from repro.core.routing import KLRouting, RoutingScenario
from repro.core.shortest_paths import (
    KLShortestPaths,
    SkeletonAPSP,
    SpannerAPSP,
    UnweightedApproxAPSP,
)
from repro.core.sssp import ApproxSSSP, sssp_round_cost
from repro.graphs.generators import GraphSpec, generate_graph
from repro.graphs.properties import diameter, weak_diameter, weighted_distances_from
from repro.graphs.weighted import assign_random_weights, unit_weights
from repro.lowerbounds.universal import (
    dissemination_lower_bound,
    shortest_paths_lower_bound,
)
from repro.simulator.config import ModelConfig, log2_ceil
from repro.simulator.network import HybridSimulator

Node = Hashable

__all__ = [
    "default_benchmark_specs",
    "scatter_tokens",
    "run_table1_dissemination",
    "run_table1_aggregation",
    "run_table1_unicast",
    "run_table2_apsp",
    "run_table3_klsp",
    "run_table4_sssp",
    "run_fig1_ksp_point",
    "fit_fig1_exponent",
    "run_fig2_broadcast_structure",
    "run_nq_family_point",
    "run_nq_scale_point",
    "run_clustering_scale_point",
]


# ----------------------------------------------------------------------
# Shared setup helpers
# ----------------------------------------------------------------------
def default_benchmark_specs(scale: str = "small") -> List[GraphSpec]:
    """The graph grid the benchmark tables sweep over.

    ``scale`` picks between a fast grid ("small", used by default so the
    benchmark suite stays minutes-long), a larger one ("medium"), and a
    production-scale one ("large", n >= 2000, feasible only through the batch
    messaging engine).
    """
    if scale == "small":
        return [
            GraphSpec.of("path", n=96),
            GraphSpec.of("cycle", n=96),
            GraphSpec.of("grid", side=10, dim=2),
            GraphSpec.of("erdos_renyi", n=96, p=0.08, seed=7),
            GraphSpec.of("barbell", clique_size=24, path_length=48),
        ]
    if scale == "medium":
        return [
            GraphSpec.of("path", n=256),
            GraphSpec.of("cycle", n=256),
            GraphSpec.of("grid", side=16, dim=2),
            GraphSpec.of("torus", side=6, dim=3),
            GraphSpec.of("erdos_renyi", n=256, p=0.04, seed=7),
            GraphSpec.of("random_regular", n=256, degree=4, seed=7),
            GraphSpec.of("barbell", clique_size=64, path_length=128),
        ]
    if scale == "large":
        return [
            GraphSpec.of("path", n=2000),
            GraphSpec.of("cycle", n=2000),
            GraphSpec.of("grid", side=45, dim=2),
            GraphSpec.of("erdos_renyi", n=2000, p=0.005, seed=7),
            GraphSpec.of("random_regular", n=2048, degree=4, seed=7),
            GraphSpec.of("barbell", clique_size=500, path_length=1000),
        ]
    raise ValueError(f"unknown scale {scale!r}")


def scatter_tokens(
    graph: nx.Graph, k: int, *, seed: Optional[int] = None, concentrated: bool = False
) -> Dict[Node, List[Any]]:
    """Place ``k`` distinct tokens on the graph.

    With ``concentrated=True`` all tokens start at a single node (the paper's
    point that the complexity of k-dissemination does not depend on the initial
    distribution); otherwise holders are sampled uniformly.
    """
    rng = random.Random(seed)
    nodes = sorted(graph.nodes, key=str)
    tokens_by_node: Dict[Node, List[Any]] = {}
    if concentrated:
        holder = nodes[0]
        tokens_by_node[holder] = [("token", index) for index in range(k)]
        return tokens_by_node
    for index in range(k):
        holder = rng.choice(nodes)
        tokens_by_node.setdefault(holder, []).append(("token", index))
    return tokens_by_node


def _fresh_simulator(
    graph: nx.Graph, *, hybrid0: bool = False, seed: Optional[int] = 0
) -> HybridSimulator:
    config = ModelConfig.hybrid0() if hybrid0 else ModelConfig.hybrid()
    return HybridSimulator(graph, config, seed=seed)


# ----------------------------------------------------------------------
# Table 1: information dissemination
# ----------------------------------------------------------------------
def run_table1_dissemination(
    spec: GraphSpec,
    k: int,
    *,
    seed: int = 0,
    concentrated: bool = False,
) -> Dict[str, Any]:
    """One Table 1 row: k-dissemination, measured vs. prior bound vs. lower bound."""
    graph = generate_graph(spec)
    n = graph.number_of_nodes()
    d = diameter(graph)
    tokens = scatter_tokens(graph, k, seed=seed, concentrated=concentrated)

    sim = _fresh_simulator(graph, hybrid0=True, seed=seed)
    result = KDissemination(sim, tokens).run()
    if not result.all_nodes_know_all_tokens():
        raise AssertionError("k-dissemination failed to deliver all tokens")

    lower = dissemination_lower_bound(graph, k)
    log_n = log2_ceil(max(n, 2))
    return {
        "graph": spec.label(),
        "n": n,
        "D": d,
        "k": k,
        "NQ_k": result.nq,
        "rounds (Thm 1, total)": result.metrics.total_rounds,
        "rounds (Thm 1, measured)": result.metrics.measured_rounds,
        "prior sqrt(k) [AHK+20]": round(ExistentialBounds.broadcast_ahk20(n, k), 1),
        "prior incl. polylog": round(
            ExistentialBounds.broadcast_ahk20(n, k) * log_n * log_n, 1
        ),
        "universal LB (Thm 4)": round(lower.rounds, 2),
        "capacity violations": result.metrics.capacity_violations,
    }


def run_table1_aggregation(spec: GraphSpec, k: int, *, seed: int = 0) -> Dict[str, Any]:
    """One Table 1 row: k-aggregation (component-wise minimum)."""
    graph = generate_graph(spec)
    n = graph.number_of_nodes()
    rng = random.Random(seed)
    values_by_node = {
        node: [rng.randint(0, 10_000) for _ in range(k)] for node in graph.nodes
    }
    sim = _fresh_simulator(graph, hybrid0=True, seed=seed)
    result = KAggregation(sim, values_by_node, min).run()
    expected = [
        min(values_by_node[node][index] for node in graph.nodes) for index in range(k)
    ]
    if result.aggregates != expected:
        raise AssertionError("k-aggregation computed incorrect aggregates")
    lower = dissemination_lower_bound(graph, k)
    log_n = log2_ceil(max(n, 2))
    return {
        "graph": spec.label(),
        "n": n,
        "k": k,
        "NQ_k": result.nq,
        "rounds (Thm 2, total)": result.metrics.total_rounds,
        "prior sqrt(k) [AHK+20]": round(ExistentialBounds.broadcast_ahk20(n, k), 1),
        "prior incl. polylog": round(
            ExistentialBounds.broadcast_ahk20(n, k) * log_n * log_n, 1
        ),
        "universal LB (Thm 4)": round(lower.rounds, 2),
    }


def run_table1_unicast(
    spec: GraphSpec, k: int, l: int, *, seed: int = 0
) -> Dict[str, Any]:
    """One Table 1 row: (k, l)-routing (arbitrary sources, random targets)."""
    graph = generate_graph(spec)
    n = graph.number_of_nodes()
    rng = random.Random(seed)
    nodes = sorted(graph.nodes, key=str)
    sources = rng.sample(nodes, min(k, n))
    targets = rng.sample(nodes, min(l, n))
    messages = {
        (s, t): index for index, (s, t) in enumerate((s, t) for s in sources for t in targets)
    }
    sim = _fresh_simulator(graph, hybrid0=False, seed=seed)
    routing = KLRouting(
        sim,
        messages,
        scenario=RoutingScenario.ARBITRARY_SOURCES_RANDOM_TARGETS,
        seed=seed,
    )
    result = routing.run()
    if not result.all_delivered(messages):
        raise AssertionError("(k,l)-routing failed to deliver all messages")
    lower = dissemination_lower_bound(graph, len(sources))
    log_n = log2_ceil(max(n, 2))
    return {
        "graph": spec.label(),
        "n": n,
        "k": len(sources),
        "l": len(targets),
        "NQ_k": result.nq,
        "rounds (Thm 3, total)": result.metrics.total_rounds,
        "prior sqrt(k)+kl/n [KS20]": round(
            ExistentialBounds.unicast_ks20(n, len(sources), len(targets)), 1
        ),
        "prior incl. polylog": round(
            ExistentialBounds.unicast_ks20(n, len(sources), len(targets)) * log_n * log_n, 1
        ),
        "universal LB (Thm 4)": round(lower.rounds, 2),
    }


# ----------------------------------------------------------------------
# Table 2: APSP
# ----------------------------------------------------------------------
def run_table2_apsp(
    spec: GraphSpec, *, epsilon: float = 0.5, alpha: int = 1, seed: int = 0
) -> List[Dict[str, Any]]:
    """Table 2 rows for one graph: Theorems 6, 7, 8 vs. the sqrt(n) baseline."""
    rows: List[Dict[str, Any]] = []
    base_graph = generate_graph(spec)
    n = base_graph.number_of_nodes()
    nq_n = neighborhood_quality(base_graph, n)
    lower = shortest_paths_lower_bound(base_graph, n)
    sqrt_n_bound = ExistentialBounds.apsp_sqrt_n(n)

    # Theorem 6: unweighted APSP.
    unweighted = unit_weights(generate_graph(spec))
    hop_truth = exact_hop_apsp(unweighted)
    sim = _fresh_simulator(unweighted, hybrid0=True, seed=seed)
    table6 = UnweightedApproxAPSP(sim, epsilon=epsilon).run()
    stretch6 = max_stretch_of_table(
        {v: {w: float(d) for w, d in row.items()} for v, row in hop_truth.items()},
        table6.estimates,
    )
    rows.append(
        {
            "graph": spec.label(),
            "algorithm": "Thm 6: (1+eps) unweighted APSP",
            "n": n,
            "NQ_n": nq_n,
            "rounds (total)": table6.metrics.total_rounds,
            "stretch bound": round(table6.stretch_bound, 3),
            "stretch measured": round(stretch6, 3),
            "prior eO(sqrt n)": round(sqrt_n_bound, 1),
            "universal LB": round(lower.rounds, 2),
        }
    )

    # Theorem 7: weighted APSP via spanner broadcast.
    weighted = assign_random_weights(generate_graph(spec), max_weight=16, seed=seed)
    weighted_truth = exact_apsp(weighted)
    sim = _fresh_simulator(weighted, hybrid0=True, seed=seed)
    table7 = SpannerAPSP(sim, epsilon=epsilon).run()
    stretch7 = max_stretch_of_table(weighted_truth, table7.estimates)
    rows.append(
        {
            "graph": spec.label(),
            "algorithm": "Thm 7: (1+eps log n) weighted APSP",
            "n": n,
            "NQ_n": nq_n,
            "rounds (total)": table7.metrics.total_rounds,
            "stretch bound": round(table7.stretch_bound, 3),
            "stretch measured": round(stretch7, 3),
            "prior eO(sqrt n)": round(sqrt_n_bound, 1),
            "universal LB": round(lower.rounds, 2),
        }
    )

    # Theorem 8: weighted APSP via skeleton + spanner.
    sim = _fresh_simulator(weighted, hybrid0=True, seed=seed)
    table8 = SkeletonAPSP(sim, alpha=alpha, seed=seed).run()
    stretch8 = max_stretch_of_table(weighted_truth, table8.estimates)
    rows.append(
        {
            "graph": spec.label(),
            "algorithm": f"Thm 8: ({4 * alpha - 1})-approx weighted APSP",
            "n": n,
            "NQ_n": nq_n,
            "rounds (total)": table8.metrics.total_rounds,
            "stretch bound": round(table8.stretch_bound, 3),
            "stretch measured": round(stretch8, 3),
            "prior eO(sqrt n)": round(sqrt_n_bound, 1),
            "universal LB": round(lower.rounds, 2),
        }
    )
    return rows


# ----------------------------------------------------------------------
# Table 3: (k, l)-SP
# ----------------------------------------------------------------------
def run_table3_klsp(
    spec: GraphSpec, k: int, l: int, *, epsilon: float = 0.25, seed: int = 0
) -> Dict[str, Any]:
    """One Table 3 row: (1+eps)-approximate (k, l)-SP."""
    graph = assign_random_weights(generate_graph(spec), max_weight=8, seed=seed)
    n = graph.number_of_nodes()
    rng = random.Random(seed)
    nodes = sorted(graph.nodes, key=str)
    sources = rng.sample(nodes, min(k, n))
    targets = rng.sample(nodes, min(l, n))

    sim = _fresh_simulator(graph, hybrid0=False, seed=seed)
    table = KLShortestPaths(sim, sources, targets, epsilon=epsilon, seed=seed).run()

    truth = {t: weighted_distances_from(graph, t) for t in targets}
    pairs = [(t, s) for t in targets for s in sources]
    stretch = max_stretch_of_table(truth, table.estimates, pairs=pairs)

    lower = shortest_paths_lower_bound(graph, len(sources))
    return {
        "graph": spec.label(),
        "n": n,
        "k": len(sources),
        "l": len(targets),
        "NQ_k": table.nq,
        "rounds (Thm 5, total)": table.metrics.total_rounds,
        "stretch bound": round(1.0 + epsilon, 3),
        "stretch measured": round(stretch, 3),
        "existential eOmega(sqrt k)": round(
            ExistentialBounds.ksp_lower_bound(len(sources)), 1
        ),
        "universal LB (Thm 11)": round(lower.rounds, 2),
    }


# ----------------------------------------------------------------------
# Table 4: SSSP
# ----------------------------------------------------------------------
def run_table4_sssp(
    spec: GraphSpec, *, epsilon: float = 0.25, seed: int = 0
) -> Dict[str, Any]:
    """One Table 4 row: Theorem 13 SSSP vs. the prior-work bounds."""
    graph = assign_random_weights(generate_graph(spec), max_weight=16, seed=seed)
    n = graph.number_of_nodes()
    source = sorted(graph.nodes, key=str)[0]
    sim = _fresh_simulator(graph, hybrid0=True, seed=seed)
    result = ApproxSSSP(sim, source, epsilon=epsilon).run()
    truth = weighted_distances_from(graph, source)
    worst = 1.0
    for node, true_distance in truth.items():
        if true_distance == 0:
            continue
        worst = max(worst, result.distances[node] / true_distance)
    return {
        "graph": spec.label(),
        "n": n,
        "rounds (Thm 13, total)": result.metrics.total_rounds,
        "stretch bound": round(1.0 + epsilon, 3),
        "stretch measured": round(worst, 3),
        "prior eO(n^{1/2}) [AG21a]": round(ExistentialBounds.sssp_ag21(n), 1),
        "prior eO(n^{5/17}) [CHLP21b]": round(ExistentialBounds.sssp_chlp21(n), 1),
        "prior eO(n^{1/3}) [AHK+20]": round(ExistentialBounds.sssp_ahk20(n), 1),
    }


# ----------------------------------------------------------------------
# Figure 1: k-SSP complexity landscape
# ----------------------------------------------------------------------
def run_fig1_ksp_point(
    spec: GraphSpec, beta: float, *, epsilon: float = 0.25, seed: int = 0
) -> Dict[str, Any]:
    """One Figure 1 point: k = ceil(n^beta) sources, constant-stretch k-SSP."""
    graph = assign_random_weights(generate_graph(spec), max_weight=8, seed=seed)
    n = graph.number_of_nodes()
    k = max(1, min(n, int(math.ceil(n**beta))))
    rng = random.Random(seed)
    sources = rng.sample(sorted(graph.nodes, key=str), k)

    sim = _fresh_simulator(graph, hybrid0=False, seed=seed)
    result = KSourceShortestPaths(
        sim, sources, epsilon=epsilon, sources_in_skeleton=True, seed=seed
    ).run()

    truth = {s: weighted_distances_from(graph, s) for s in sources}
    worst = 1.0
    for node in graph.nodes:
        for s in sources:
            true_distance = truth[s].get(node, math.inf)
            if true_distance in (0, math.inf):
                continue
            worst = max(worst, result.estimate(node, s) / true_distance)
    return {
        "graph": spec.label(),
        "n": n,
        "beta": round(beta, 3),
        "k": k,
        "rounds (Thm 14, total)": result.metrics.total_rounds,
        "stretch measured": round(worst, 3),
        "predicted exponent (beta/2)": round(
            TheoryPredictions.fig1_expected_exponent_const_approx(beta), 3
        ),
        "prior exact [CHLP21a]": round(ExistentialBounds.ksp_chlp21(n, k), 1),
        "lower bound sqrt(k)": round(ExistentialBounds.ksp_lower_bound(k), 1),
    }


def fit_fig1_exponent(points: Sequence[Dict[str, Any]]) -> float:
    """Fit the rounds-vs-k exponent across a sweep of Figure 1 points."""
    ks = [float(point["k"]) for point in points]
    rounds = [float(point["rounds (Thm 14, total)"]) for point in points]
    exponent, _ = fit_power_law_exponent(ks, rounds)
    return exponent


# ----------------------------------------------------------------------
# Figure 2: broadcast structure
# ----------------------------------------------------------------------
def run_fig2_broadcast_structure(spec: GraphSpec, k: int, *, seed: int = 0) -> Dict[str, Any]:
    """Figure 2 / Lemma 3.5 structural check: cluster sizes and weak diameters."""
    graph = generate_graph(spec)
    n = graph.number_of_nodes()
    log_n = log2_ceil(max(n, 2))
    nq = max(1, neighborhood_quality(graph, k))
    clustering = nq_clustering(graph, k, nq=nq)
    sizes = [len(cluster) for cluster in clustering.clusters]
    weak_diameters = [
        weak_diameter(graph, cluster.members) for cluster in clustering.clusters
    ]
    return {
        "graph": spec.label(),
        "n": n,
        "k": k,
        "NQ_k": nq,
        "clusters": len(clustering.clusters),
        "min size": min(sizes),
        "max size": max(sizes),
        "size bound [k/NQ, 2k/NQ]": f"[{k / nq:.1f}, {2 * k / nq:.1f}]",
        "max weak diameter": max(weak_diameters),
        "weak diameter bound": 4 * nq * log_n,
    }


# ----------------------------------------------------------------------
# NQ_k on special graph families (Theorems 15 - 17)
# ----------------------------------------------------------------------
def run_nq_family_point(spec: GraphSpec, k: int) -> Dict[str, Any]:
    """One NQ-vs-theory point for Theorems 15/16."""
    graph = generate_graph(spec)
    n = graph.number_of_nodes()
    d = diameter(graph)
    measured = neighborhood_quality(graph, k)
    if spec.family in ("path", "cycle"):
        predicted = TheoryPredictions.nq_path_or_cycle(k, d)
        reference = "Thm 15: min(sqrt k, D)"
    elif spec.family in ("grid", "torus"):
        dim = spec.kwargs.get("dim", 2)
        predicted = TheoryPredictions.nq_grid(k, int(dim), d)
        reference = f"Thm 16: min(k^(1/{int(dim) + 1}), D)"
    else:
        predicted = TheoryPredictions.nq_upper_bound(k, d)
        reference = "Lemma 3.6: min(sqrt k, D)"
    return {
        "graph": spec.label(),
        "n": n,
        "D": d,
        "k": k,
        "NQ_k measured": measured,
        "NQ_k predicted": round(predicted, 2),
        "reference": reference,
        "upper bound min(D, sqrt k)": round(TheoryPredictions.nq_upper_bound(k, d), 2),
        "lower bound sqrt(Dk/3n)": round(TheoryPredictions.nq_lower_bound(k, d, n), 2),
    }


def run_clustering_scale_point(
    spec: GraphSpec, k: float, *, check_bounds: bool = True
) -> Dict[str, Any]:
    """One large-scale Lemma 3.5 clustering row: construction timed end to end.

    Exercises the weighted analytics engine at production scale: the NQ_k
    evaluation, the flat ruling-set growth, and the single closest-ruler
    sweep of :func:`~repro.core.clustering.nq_clustering` all run on one
    shared :class:`~repro.graphs.index.GraphIndex`.  With ``check_bounds``
    the row also verifies the Lemma 3.5 size bounds and reports the maximum
    weak cluster diameter (one shared-index BFS per cluster member).
    """
    graph = generate_graph(spec)
    n = graph.number_of_nodes()
    nq = max(1, neighborhood_quality(graph, k))
    start = time.perf_counter()
    clustering = nq_clustering(graph, k, nq=nq)
    elapsed = time.perf_counter() - start
    sizes = [len(cluster) for cluster in clustering.clusters]
    row: Dict[str, Any] = {
        "graph": spec.label(),
        "n": n,
        "k": k,
        "NQ_k": nq,
        "clusters": len(clustering.clusters),
        "min size": min(sizes),
        "max size": max(sizes),
        "clustering seconds": round(elapsed, 3),
    }
    if check_bounds:
        log_n = log2_ceil(max(n, 2))
        row["max weak diameter"] = clustering.max_weak_diameter(graph)
        row["weak diameter bound"] = 4 * nq * log_n
        row["size bound [k/NQ, 2k/NQ]"] = f"[{k / nq:.1f}, {2 * k / nq:.1f}]"
    return row


def run_nq_scale_point(
    spec: GraphSpec, ks: Sequence[float], *, with_diameter: bool = False
) -> Dict[str, Any]:
    """One large-scale NQ row: the full ``NQ_k`` profile of one graph, timed.

    Exercises the frontier-based analytics engine (:mod:`repro.graphs.index`)
    at production scale: each workload in ``ks`` runs the pruned graph-level
    scan, which grows balls only from nodes no earlier ball certified.
    ``with_diameter`` additionally reports
    the exact hop diameter (cheap through the index's iFUB search on path- and
    tree-like families; leave it off for cycles, whose antipodal symmetry
    defeats eccentricity pruning).
    """
    graph = generate_graph(spec)
    n = graph.number_of_nodes()
    start = time.perf_counter()
    profile = {k: neighborhood_quality(graph, k) for k in ks}
    elapsed = time.perf_counter() - start
    row: Dict[str, Any] = {
        "graph": spec.label(),
        "n": n,
        "NQ profile seconds": round(elapsed, 2),
    }
    if with_diameter:
        start = time.perf_counter()
        row["D"] = diameter(graph)
        row["D seconds"] = round(time.perf_counter() - start, 2)
    for k in ks:
        row[f"NQ_{k}"] = profile[k]
    return row
