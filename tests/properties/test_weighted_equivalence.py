"""Equivalence harness for the weighted analytics engine (PR 4).

Three layers of cross-validation over six graph families x three seeds:

* **Dijkstra equivalence** — the :class:`~repro.graphs.index.GraphIndex`
  flat-array Dijkstra (``sssp_row`` / ``sssp_dict`` and the thin wrappers
  ``exact_sssp_distances`` / ``weighted_distances_from`` / ``exact_sssp``)
  equals ``networkx.single_source_dijkstra_path_length`` *and* the historical
  dict+heapq ``_reference_*`` implementation exactly, on original weights and
  on the cached power-of-``(1 + eps)`` rounded weights;
* **clustering equivalence** — :func:`~repro.core.clustering.nq_clustering`'s
  single closest-ruler sweep produces byte-identical output (cluster order,
  leaders, member BFS order, ``cluster_of``) to the per-ruler
  ``_reference_nq_clustering`` formulation, and the flat ruling-set growth
  equals its set-based reference;
* **sweep semantics** — ``closest_sources`` tie-breaking matches the
  brute-force "closest source, ties by minimum rank" definition, and the
  rounded-weight CSR is built once per ``(graph, epsilon)``.
"""

import math
import random

import networkx as nx
import pytest

from repro.baselines.centralized import exact_sssp
from repro.core.clustering import nq_clustering
from repro.core.ruling_sets import greedy_ruling_set, verify_ruling_set
from repro.core.sssp import approx_sssp_distances, exact_sssp_distances
from repro.graphs.generators import (
    barbell_graph,
    broom_graph,
    cycle_graph,
    erdos_renyi_graph,
    grid_graph,
    path_graph,
)
from repro.graphs.index import get_index
from repro.graphs.properties import weighted_distances_from
from repro.graphs.weighted import assign_random_weights

from oracles.clustering import _reference_greedy_ruling_set, _reference_nq_clustering
from oracles.weighted import (
    _reference_approx_sssp_distances,
    _reference_exact_sssp_distances,
    _reference_weighted_distances_from,
)

SEEDS = [0, 1, 2]

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


def _weighted(case):
    family, seed = case
    return assign_random_weights(GRAPH_FAMILIES[family](seed), max_weight=9, seed=seed)


# ----------------------------------------------------------------------
# Index Dijkstra == networkx == the dict+heapq reference, exactly
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_exact_dijkstra_equals_networkx_and_reference(case):
    graph = _weighted(case)
    rng = random.Random(100 + case[1])
    sources = rng.sample(sorted(graph.nodes), 5)
    for source in sources:
        fast = exact_sssp_distances(graph, source)
        assert fast == _reference_exact_sssp_distances(graph, source)
        assert fast == dict(
            nx.single_source_dijkstra_path_length(graph, source, weight="weight")
        )
        assert fast == weighted_distances_from(graph, source)
        assert fast == _reference_weighted_distances_from(graph, source)
        assert fast == exact_sssp(graph, source)


@pytest.mark.parametrize("epsilon", [0.1, 0.25, 0.5])
@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_rounded_dijkstra_equals_reference(case, epsilon):
    graph = _weighted(case)
    rng = random.Random(200 + case[1])
    sources = rng.sample(sorted(graph.nodes), 3)
    for source in sources:
        assert approx_sssp_distances(
            graph, source, epsilon
        ) == _reference_approx_sssp_distances(graph, source, epsilon)


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_dense_rows_match_sparse_dicts(case):
    graph = _weighted(case)
    index = get_index(graph)
    rng = random.Random(300 + case[1])
    sources = rng.sample(sorted(graph.nodes), 4)
    for epsilon in (0.0, 0.25):
        rows = index.sssp_rows(sources, epsilon)
        for source in sources:
            row = rows[source]
            assert len(row) == index.n
            sparse = index.sssp_dict(source, epsilon)
            for i, node in enumerate(index.nodes):
                if node in sparse:
                    assert row[i] == sparse[node]
                else:
                    assert math.isinf(row[i])
            assert row[index.index_of[source]] == 0.0


def test_rounded_csr_is_cached_per_epsilon():
    graph = assign_random_weights(grid_graph(5, 2), max_weight=7, seed=1)
    index = get_index(graph)
    index.sssp_row(0, 0.25)
    first = index._rounded_weights[0.25]
    index.sssp_row(5, 0.25)
    assert index._rounded_weights[0.25] is first  # rounded once per epsilon
    index.sssp_row(0, 0.5)
    assert set(index._rounded_weights) == {0.25, 0.5}
    # epsilon = 0 must not populate the rounded cache (it is the exact path).
    index.sssp_row(0, 0.0)
    assert set(index._rounded_weights) == {0.25, 0.5}


def test_sssp_missing_source_raises_keyerror():
    graph = path_graph(6)
    index = get_index(graph)
    with pytest.raises(KeyError):
        index.sssp_row("missing")
    with pytest.raises(KeyError):
        weighted_distances_from(graph, "missing")
    with pytest.raises(KeyError):
        index.closest_sources([0, "missing"])


def test_nonpositive_weight_rejected_on_rounded_path():
    graph = path_graph(4)
    graph[1][2]["weight"] = 0
    from repro.graphs.index import invalidate_index

    invalidate_index(graph)
    with pytest.raises(ValueError):
        approx_sssp_distances(graph, 0, 0.25)


# ----------------------------------------------------------------------
# Closest-source sweep: exact min-rank tie-breaking
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_closest_sources_matches_bruteforce(case):
    family, seed = case
    graph = GRAPH_FAMILIES[family](seed)
    index = get_index(graph)
    rng = random.Random(400 + seed)
    nodes = sorted(graph.nodes)
    for count in (1, 3, max(4, len(nodes) // 5)):
        sources = rng.sample(nodes, count)
        dist, owner = index.closest_sources(sources)
        tables = [
            nx.single_source_shortest_path_length(graph, source)
            for source in sources
        ]
        for i, node in enumerate(index.nodes):
            best = min(
                (
                    (table.get(node, math.inf), rank)
                    for rank, table in enumerate(tables)
                ),
            )
            if math.isinf(best[0]):
                assert dist[i] == -1 and owner[i] == -1
            else:
                assert dist[i] == best[0], (node, sources)
                assert owner[i] == best[1], (node, sources)


def test_closest_sources_duplicate_sources_keep_first_rank():
    graph = path_graph(5)
    index = get_index(graph)
    dist, owner = index.closest_sources([4, 0, 4])
    assert owner[index.index_of[4]] == 0
    assert dist[index.index_of[4]] == 0


def test_tie_ranks_follow_python_str_order_on_awkward_labels():
    # Labels whose str forms collide (1 and "1"), non-ASCII ones, and strs
    # that differ only in trailing NULs (which NumPy's U dtype would drop):
    # ranks must reproduce sorted(key=str) exactly, stable on collisions.
    labels = ["b", 1, "é", "a\x00", "1", "a", "\x00", "Ω", 10, "a\x00\x00", ""]
    graph = nx.Graph()
    graph.add_nodes_from(labels)
    graph.add_edges_from(zip(labels, labels[1:]))
    index = get_index(graph)
    ranks, by_rank = index._tie_rank_arrays()
    nodes = index.nodes
    expected = sorted(range(len(nodes)), key=lambda i: str(nodes[i]))
    assert by_rank == expected
    assert [ranks[i] for i in expected] == list(range(len(nodes)))
    assert [nodes[i] for i in by_rank][:5] == ["", "\x00", 1, "1", 10]


# ----------------------------------------------------------------------
# Ruling sets and the Lemma 3.5 clustering: byte-identical pre/post
# ----------------------------------------------------------------------
@pytest.mark.parametrize("alpha", [1, 2, 3, 5, 9])
@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_flat_ruling_set_equals_reference(case, alpha):
    family, seed = case
    graph = GRAPH_FAMILIES[family](seed)
    fast = greedy_ruling_set(graph, alpha)
    assert fast == _reference_greedy_ruling_set(graph, alpha)
    assert verify_ruling_set(graph, fast, alpha, max(0, alpha - 1))


def test_flat_ruling_set_respects_custom_order():
    graph = path_graph(12)
    order = sorted(graph.nodes, reverse=True)
    assert greedy_ruling_set(graph, 3, order=order) == _reference_greedy_ruling_set(
        graph, 3, order=order
    )


@pytest.mark.parametrize("k", [5, 16, 64, 10_000])
@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_nq_clustering_byte_identical_to_reference(case, k):
    family, seed = case
    graph = GRAPH_FAMILIES[family](seed)
    fast = nq_clustering(graph, k)
    reference = _reference_nq_clustering(graph, k)
    assert fast.nq == reference.nq
    assert fast.k == reference.k
    assert len(fast.clusters) == len(reference.clusters)
    for fast_cluster, reference_cluster in zip(fast.clusters, reference.clusters):
        assert fast_cluster.leader == reference_cluster.leader
        assert fast_cluster.members == reference_cluster.members  # order included
        assert fast_cluster.index == reference_cluster.index
    assert fast.cluster_of == reference.cluster_of


def test_nq_clustering_identical_under_custom_identifiers():
    graph = grid_graph(5, 2)
    # A non-trivial identifier map flips every tie-break decision.
    id_of = lambda node: -node  # noqa: E731
    fast = nq_clustering(graph, 12, id_of=id_of)
    reference = _reference_nq_clustering(graph, 12, id_of=id_of)
    assert [c.members for c in fast.clusters] == [
        c.members for c in reference.clusters
    ]
    assert fast.cluster_of == reference.cluster_of
