"""The BFS level kernel behind every hop primitive of ``GraphIndex``.

``GraphIndex._levels(sources, depth)`` yields the distinct sources, then the
nodes at hop distance 1, 2, ... up to ``depth``.  These tests pin its levels
against networkx BFS distances, pin that it stamps exactly the ball
``B_depth(sources)`` (a kernel that expands one level past ``depth`` without
yielding it returns the same levels but does the extra work), and bound the
BFS runs ``diameter()`` makes on a square grid, a barbell and a lollipop,
where every BFS of the diameter search goes through the kernel.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.graphs.index import GraphIndex

GRAPHS = {
    "grid": nx.grid_2d_graph(8, 8),
    "path": nx.path_graph(12),
    "two-paths": nx.disjoint_union(nx.path_graph(6), nx.path_graph(5)),
    "gnp": nx.gnp_random_graph(40, 0.08, seed=4),
}

#: Source picks by position in node order, with a repeat.
PICKS = [0, 5, 0, 9]


def _reference_levels(graph, sources, depth):
    dist = nx.multi_source_dijkstra_path_length(graph, set(sources), cutoff=depth)
    levels = [set() for _ in range(max(dist.values()) + 1)]
    for node, d in dist.items():
        levels[d].add(node)
    return levels


@pytest.mark.parametrize("depth", [0, 1, 3])
@pytest.mark.parametrize("name", GRAPHS)
def test_levels_are_the_bfs_levels_and_stamp_exactly_the_ball(name, depth):
    graph = GRAPHS[name]
    index = GraphIndex(graph)
    sources = [index.nodes[p] for p in PICKS]
    levels = list(index._levels([index.index_of[s] for s in sources], depth))

    assert [index.nodes[i] for i in levels[0]] == list(dict.fromkeys(sources))
    expected = _reference_levels(graph, sources, depth)
    assert [{index.nodes[i] for i in level} for level in levels] == expected
    ball = sum(map(len, expected))
    assert sum(stamp == index._epoch for stamp in index._visited) == ball


def test_levels_without_a_depth_exhaust_the_component():
    graph = GRAPHS["two-paths"]
    index = GraphIndex(graph)
    levels = list(index._levels([0]))
    assert [len(level) for level in levels] == [1] * 6
    assert sum(stamp == index._epoch for stamp in index._visited) == 6


@pytest.fixture
def kernel_runs(monkeypatch):
    """Count the level-kernel runs (every BFS of the diameter search)."""
    runs = [0]
    levels = GraphIndex._levels

    def counting(self, *args, **kwargs):
        runs[0] += 1
        return levels(self, *args, **kwargs)

    monkeypatch.setattr(GraphIndex, "_levels", counting)
    return runs


def test_square_grid_diameter_takes_a_few_bfs_runs(kernel_runs):
    # The midpoint of the double sweep's a-b path is a choice among a whole
    # anti-diagonal here; taking its first node (a corner) made the outward
    # level scan run 1,772 BFS sweeps.
    assert GraphIndex(nx.grid_2d_graph(60, 60)).diameter() == 118
    assert kernel_runs[0] <= 8


@pytest.mark.parametrize(
    "graph",
    [nx.barbell_graph(200, 400), nx.lollipop_graph(60, 120)],
    ids=["barbell", "lollipop"],
)
def test_clique_ended_diameter_takes_a_few_bfs_runs(graph, kernel_runs):
    # The outermost level around the midpoint holds a whole clique but its
    # attachment node: one true-twin class, so one sweep stands for all of
    # them (node by node, the barbell took 201 sweeps).  Open neighbourhoods
    # differ within a clique, so a scan keyed by them sweeps every node.
    assert GraphIndex(graph).diameter() == nx.diameter(graph, usebounds=True)
    assert kernel_runs[0] <= 8
