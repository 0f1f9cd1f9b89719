"""Property harness for the versioned mutation API (dynamic GraphIndex).

The contract under test: after any sequence of :class:`GraphMutator` edits,
the *spliced* cached index served by :func:`get_index` answers every query
with values identical to a from-scratch ``GraphIndex(graph)`` rebuild — the
rebuild stays the oracle, the batch splice must never be observable through
query results.  Three layers over six graph families x three seeds:

* **edit-script equivalence** — a seeded script of single remove/add/
  re-weight edits and multi-edit ``apply_batch`` steps, checking after
  *every* step that (a) ``get_index`` still serves the same spliced object
  (no silent rebuild), (b) every CSR row holds the rebuild's entries and
  every memoised rounded/pair column lines up with the weights, and (c) a
  query battery (BFS rows, exact and rounded Dijkstra rows, h-hop limited
  tables, multi-source sweeps, ruling sets, connectivity/diameter/NQ when
  defined) matches the fresh oracle;
* **the (n, m)-preserving two-edge swap** — the staleness bug class the
  version stamp closes: a rewiring that keeps both counts unchanged used to
  slip past the count-only currency check and serve a dead CSR; under the
  version stamp it is reflected immediately;
* **out-of-band mutations** — direct ``networkx`` edits that change the
  counts are still caught by the (n, m) backstop.

Everything here is pure-Python CSR manipulation.
"""

import math
import random

import pytest

from repro.graphs.generators import (
    barbell_graph,
    broom_graph,
    cycle_graph,
    erdos_renyi_graph,
    grid_graph,
    path_graph,
)
from repro.graphs.index import GraphIndex, get_index, graph_version, round_weight_up
from repro.graphs.mutation import GraphMutator
from repro.graphs.weighted import assign_random_weights

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


def _rng(case, salt=0):
    family, seed = case
    # str seeds hash deterministically in random.Random (version-2 seeding).
    return random.Random(f"{family}-{seed}-{salt}")


def _battery(index):
    """Deterministic fingerprint of the full query surface of an index.

    Every query here is well-defined on disconnected graphs except diameter
    and NQ, which are gated on connectivity; ``closest_sources`` and the
    Dijkstra rows use ``inf``/``-1`` sentinels for unreachable nodes.
    """
    nodes = sorted(index.nodes, key=str)
    sources = [nodes[0], nodes[len(nodes) // 3], nodes[len(nodes) // 2], nodes[-1]]
    out = {}
    for source in sources:
        out["hop", source] = index.hop_distance_row(source)
        out["sssp", source] = index.sssp_row(source)
        out["sssp-0.5", source] = index.sssp_row(source, 0.5)
        out["h-hop", source] = index.h_hop_limited_distances(source, 2)
    out["closest"] = index.closest_sources(sources)
    out["ruling-2"] = index.ruling_set(2)
    out["connected"] = index.is_connected()
    if out["connected"]:
        out["diameter"] = index.diameter()
        out["nq-2"] = index.nq_value(2.0)
    return out


def _assert_matches_rebuild(graph, step):
    spliced = get_index(graph)
    oracle = GraphIndex(graph)
    assert spliced.nodes == oracle.nodes
    assert (spliced.n, spliced.m) == (oracle.n, oracle.m), step
    _assert_columns_match(spliced, oracle, step)
    got, want = _battery(spliced), _battery(oracle)
    assert set(got) == set(want), step
    for key in want:
        assert got[key] == want[key], (step, key)


def _assert_columns_match(spliced, oracle, step):
    """Every row holds the rebuild's entries (in any order), and every
    memoised rounded and pair column still lines up with the weights."""
    offsets = spliced._offsets
    for i in range(spliced.n):
        start, end = offsets[i], offsets[i + 1]
        o_start, o_end = oracle._offsets[i], oracle._offsets[i + 1]
        got = sorted(zip(spliced._targets[start:end], spliced._weights[start:end]))
        want = sorted(zip(oracle._targets[o_start:o_end], oracle._weights[o_start:o_end]))
        assert got == want, (step, "row", spliced.nodes[i])
    assert offsets[-1] == len(spliced._targets) == len(spliced._weights), step
    for eps, rounded in spliced._rounded_weights.items():
        assert rounded == [round_weight_up(w, eps) for w in spliced._weights], (step, eps)
    for eps, pairs in spliced._adjacency_pairs.items():
        weights = spliced._rounded_weights[eps] if eps > 0 else spliced._weights
        assert pairs == list(zip(spliced._targets, weights)), (step, eps)


# ----------------------------------------------------------------------
# Seeded edit scripts: spliced index == fresh rebuild after every step
# ----------------------------------------------------------------------
def _edit_script(graph, rng, steps=8):
    """Yield (description, thunk) edit steps for a seeded mutation script.

    Steps cycle through a single remove, add and re-weight, then one
    ``apply_batch`` that changes row lengths at several rows, removes and
    re-adds an edge, and re-weights an edge it added earlier.
    """
    mutator = GraphMutator(graph)
    nodes = sorted(graph.nodes)
    removed = []
    for step in range(steps):
        kind = step % 4
        if kind == 3:
            batch = _batch(graph, nodes, rng)
            yield f"step {step}: apply_batch({batch})", (
                lambda batch=batch: mutator.apply_batch(batch)
            )
            continue
        if kind == 0:  # remove an existing edge
            u, v = rng.choice(sorted(graph.edges()))
            removed.append((u, v))
            yield f"step {step}: remove_edge({u}, {v})", (
                lambda u=u, v=v: mutator.remove_edge(u, v)
            )
        elif kind == 1:  # add a fresh edge (re-add a removed one if possible)
            if removed:
                u, v = removed.pop()
            else:
                u, v = _pick_non_edge(graph, nodes, rng)
            w = rng.randint(1, 9)
            yield f"step {step}: add_edge({u}, {v}, weight={w})", (
                lambda u=u, v=v, w=w: mutator.add_edge(u, v, weight=w)
            )
        else:  # re-weight an existing edge
            u, v = rng.choice(sorted(graph.edges()))
            w = rng.randint(1, 9)
            yield f"step {step}: update_weight({u}, {v}, {w})", (
                lambda u=u, v=v, w=w: mutator.update_weight(u, v, w)
            )


def _batch(graph, nodes, rng):
    """Remove two edges, add a fresh one and re-weight it, and remove then
    re-add a third edge: rows change length at up to six nodes."""
    first, second, readded = rng.sample(sorted(graph.edges()), 3)
    a, b = _pick_non_edge(graph, nodes, rng)
    return [
        ("remove", *first),
        ("add", a, b, rng.randint(1, 9)),
        ("remove", *readded),
        ("remove", *second),
        ("add", *readded, rng.randint(1, 9)),
        ("update", a, b, rng.randint(1, 9)),
    ]


def _pick_non_edge(graph, nodes, rng):
    while True:
        u, v = rng.sample(nodes, 2)
        if not graph.has_edge(u, v):
            return u, v


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_edit_script_matches_rebuild_after_every_step(case):
    graph = _weighted(case)
    rng = _rng(case)
    baseline = get_index(graph)
    _battery(baseline)  # warm every memoised cache before the first edit
    baseline.sssp_row(sorted(graph.nodes)[0], 0.25)  # a second rounded CSR
    for step, apply_edit in _edit_script(graph, rng):
        version = apply_edit()
        assert graph_version(graph) == version, step
        # The cached index was spliced in place, not silently rebuilt.
        assert get_index(graph) is baseline, step
        assert baseline.version == version, step
        _assert_matches_rebuild(graph, step)


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_unweighted_edit_script_matches_rebuild(case):
    # No weight attributes anywhere: add_edge(weight=None) must index the
    # new edge at the default weight 1, exactly like a from-scratch build.
    family, seed = case
    graph = GRAPH_FAMILIES[family](seed)
    rng = _rng(case, salt=1)
    baseline = get_index(graph)
    _battery(baseline)
    mutator = GraphMutator(graph)
    u, v = rng.choice(sorted(graph.edges()))
    mutator.remove_edge(u, v)
    _assert_matches_rebuild(graph, "after remove")
    a, b = _pick_non_edge(graph, sorted(graph.nodes), rng)
    mutator.add_edge(a, b)  # unweighted add
    assert "weight" not in graph[a][b]
    assert get_index(graph) is baseline
    _assert_matches_rebuild(graph, "after unweighted add")


# ----------------------------------------------------------------------
# The bug-class pin: (n, m)-preserving rewiring is no longer invisible
# ----------------------------------------------------------------------
def _find_swap(graph):
    """A two-edge swap (a, b), (c, d) -> (a, c), (b, d) preserving (n, m)."""
    edges = sorted(graph.edges())
    for i, (a, b) in enumerate(edges):
        for c, d in edges[i + 1 :]:
            if len({a, b, c, d}) == 4 and not graph.has_edge(a, c) and not graph.has_edge(b, d):
                return (a, b), (c, d)
    return None


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_count_preserving_swap_is_reflected_immediately(case):
    graph = _weighted(case)
    swap = _find_swap(graph)
    if swap is None:
        pytest.skip("family admits no disjoint two-edge swap")
    (a, b), (c, d) = swap
    index = get_index(graph)
    n, m = index.n, index.m
    version_before = graph_version(graph)
    mutator = GraphMutator(graph)
    mutator.remove_edge(a, b)
    mutator.remove_edge(c, d)
    mutator.add_edge(a, c, weight=1)
    mutator.add_edge(b, d, weight=1)
    # The rewiring preserved both counts: the historical count-only currency
    # check would have served the pre-swap CSR here.  The version stamp moved.
    assert (graph.number_of_nodes(), graph.number_of_edges()) == (n, m)
    assert graph_version(graph) == version_before + 4
    served = get_index(graph)
    assert served is index and served.version == version_before + 4
    positions = {node: i for i, node in enumerate(served.nodes)}
    row_a = served.hop_distance_row(a)
    assert row_a[positions[c]] == 1  # new edge visible...
    assert row_a[positions[b]] != 1  # ...old edge gone (no multi-edges)
    _assert_matches_rebuild(graph, "after swap")


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_out_of_band_count_change_still_rebuilds(case):
    # Direct networkx edits never bump the version; the (n, m) backstop in
    # get_index still catches any edit that moves either count.
    graph = _weighted(case)
    stale = get_index(graph)
    u, v = sorted(graph.edges())[0]
    graph.remove_edge(u, v)  # behind the mutator's back
    fresh = get_index(graph)
    assert fresh is not stale
    assert fresh.m == stale.m - 1
    _assert_matches_rebuild(graph, "after out-of-band removal")
