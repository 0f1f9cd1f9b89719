"""Batched ``h``-hop rows: identical to the per-source path and the oracle.

:meth:`GraphIndex.h_hop_limited_rows` picks, per block of sources, the dense
NumPy Bellman-Ford or the per-source loop.  Every row must equal
:meth:`GraphIndex.h_hop_limited_distances` and the dict-based oracle
(:mod:`oracles.weighted`) exactly, whichever arm ran:

* with the per-source arm forced (a zero cell cap: no block ever fits);
* with the crossover as shipped;
* with the dense arm forced, with tiny blocks and a tiny cell cap as well, so
  block splitting and the memory fallback run too.

The hypothesis tests use a pinned, derandomized profile.  Edits through
:class:`GraphMutator` patch the index in place; rows read after them must
follow.  Spy pins show the crossover choosing the per-source loop on a long
path and the dense kernel on a 6-regular graph, and a traced all-sources call
on a 10^4-node graph stays within the block cap.
"""

from __future__ import annotations

import contextlib
import math
import random
import tracemalloc
from array import array

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import repro.graphs.index as graph_index
from repro.graphs.index import GraphIndex, get_index
from repro.graphs.mutation import GraphMutator

from oracles.weighted import _reference_h_hop_limited_distances

#: name -> overrides of the index's h-hop constants.
FORCE_DENSE = {"_HHOP_NUMPY_RATIO": math.inf, "_HHOP_CALL_COST": 0.0}
MODES = {
    "per-source": {"_HHOP_BLOCK_CELLS": 0},
    "shipped": {},
    "dense": FORCE_DENSE,
    "dense-small-blocks": dict(FORCE_DENSE, _HHOP_BLOCK_SOURCES=3, _HHOP_BLOCK_CELLS=24),
}
PROFILE = settings(max_examples=60, deadline=None, derandomize=True)


@contextlib.contextmanager
def arm(mode):
    overrides = MODES[mode]
    saved = {name: getattr(graph_index, name) for name in overrides}
    for name, value in overrides.items():
        setattr(graph_index, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(graph_index, name, value)


@st.composite
def weighted_graphs(draw, max_nodes=14):
    """Small graphs, often disconnected, with isolated nodes allowed."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    floats = draw(st.booleans())
    weights = (
        st.floats(min_value=0.01, max_value=100.0, allow_nan=False)
        if floats
        else st.integers(min_value=1, max_value=50)
    )
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for _ in range(draw(st.integers(min_value=0, max_value=3 * n))):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            graph.add_edge(u, v, weight=draw(weights))
    return graph


@st.composite
def rows_cases(draw):
    graph = draw(weighted_graphs())
    n = graph.number_of_nodes()
    h = draw(st.sampled_from([0, 1, 3, n, n + 7]))
    sources = draw(
        st.lists(st.integers(min_value=0, max_value=n - 1), max_size=2 * n)
    )
    return graph, sources, h


def _assert_rows_match(graph, sources, h):
    index = get_index(graph)
    rows = list(index.h_hop_limited_rows(sources, h))
    assert len(rows) == len(sources)
    for source, row in zip(sources, rows):
        assert isinstance(row, array) and len(row) == index.n
        expected = _reference_h_hop_limited_distances(graph, source, h)
        assert index.h_hop_limited_distances(source, h) == expected
        assert {
            index.nodes[i]: d for i, d in enumerate(row) if d != math.inf
        } == expected


@pytest.mark.parametrize("mode", MODES)
@PROFILE
@given(rows_cases())
def test_batch_rows_equal_per_source_and_oracle(mode, case):
    graph, sources, h = case
    with arm(mode):
        _assert_rows_match(graph, sources, h)


@st.composite
def edit_cases(draw):
    graph = draw(weighted_graphs(max_nodes=10))
    n = graph.number_of_nodes()
    edits = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        weight = draw(st.integers(min_value=1, max_value=50))
        edits.append((draw(st.sampled_from(["edge", "update"])), u, v, weight))
    return graph, edits, draw(st.sampled_from([1, 3, n + 1]))


@pytest.mark.parametrize("mode", MODES)
@PROFILE
@given(edit_cases())
def test_rows_follow_in_place_index_patches(mode, case):
    graph, edits, h = case
    nodes = list(graph.nodes)
    mutator = GraphMutator(graph)
    with arm(mode):
        index = get_index(graph)
        _assert_rows_match(graph, nodes, h)
        for op, u, v, weight in edits:
            if u == v:
                continue
            if op == "update" and graph.has_edge(u, v):
                mutator.update_weight(u, v, weight)
            elif graph.has_edge(u, v):
                mutator.remove_edge(u, v)
            else:
                mutator.add_edge(u, v, weight)
            assert get_index(graph) is index  # patched, not rebuilt
            _assert_rows_match(graph, nodes, h)


def test_rows_validate_at_call_time():
    index = GraphIndex(nx.path_graph(3))
    with pytest.raises(KeyError):
        index.h_hop_limited_rows([0, 7], 2)
    with pytest.raises(ValueError):
        index.h_hop_limited_rows([0], -1)
    assert list(index.h_hop_limited_rows([], 2)) == []


def _weighted(graph, seed):
    rng = random.Random(seed)
    for u, v in graph.edges():
        graph[u][v]["weight"] = rng.randint(1, 100)
    return graph


@pytest.fixture
def dense_blocks(monkeypatch):
    """Record ``(|U|, S)`` of every dense block the kernel runs."""
    blocks = []
    dense_rows = GraphIndex._dense_rows

    def spy(self, csr, block, union, degrees, h):
        blocks.append((len(union), len(block)))
        return dense_rows(self, csr, block, union, degrees, h)

    monkeypatch.setattr(GraphIndex, "_dense_rows", spy)
    return blocks


def test_crossover_picks_per_source_on_a_long_path(dense_blocks):
    graph = _weighted(nx.path_graph(3000), 0)
    index = GraphIndex(graph)
    rows = index.h_hop_limited_rows(graph.nodes, 40)
    assert sum(1 for _ in rows) == 3000
    assert dense_blocks == []


def test_crossover_picks_dense_on_a_regular_graph(dense_blocks):
    graph = _weighted(nx.random_regular_graph(6, 200, seed=1), 1)
    index = GraphIndex(graph)
    rows = list(index.h_hop_limited_rows(graph.nodes, 112))
    assert dense_blocks and sum(size for _, size in dense_blocks) == 199
    for node in (0, 57, 199):
        expected = index.h_hop_limited_distances(node, 112)
        assert list(rows[node]) == [expected.get(v, math.inf) for v in index.nodes]


def test_blocks_halve_to_fit_the_cell_cap(dense_blocks):
    # Sources 0, 1, 3 on a cycle with h = 2 cover 8 nodes: 9 x 3 cells do not
    # fit in 24, so the block halves to single sources.
    graph = _weighted(nx.cycle_graph(20), 3)
    sources = [0, 1, 3, 10, 11, 13]
    with arm("dense-small-blocks"):
        _assert_rows_match(graph, sources, 2)
    assert dense_blocks
    assert all((union + 1) * size <= 24 for union, size in dense_blocks)


def test_all_sources_on_10k_nodes_stays_within_the_block_cap(dense_blocks):
    graph = _weighted(nx.grid_2d_graph(100, 100), 2)
    index = GraphIndex(graph)
    index._pair_array(0.0)  # the index's own arrays are not the block's
    cap = graph_index._HHOP_BLOCK_CELLS
    with arm("dense"):
        tracemalloc.start()
        try:
            count = sum(1 for _ in index.h_hop_limited_rows(graph.nodes, 2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert count == 10_000
    assert sum(size for _, size in dense_blocks) > 9_000
    assert all((union + 1) * size <= cap for union, size in dense_blocks)
    # Three block matrices plus one output row, far below one n x n matrix.
    assert peak < 4 * 8 * cap < 8 * 10_000**2
