"""Unit tests for the versioned graph-mutation layer.

Covers :class:`~repro.graphs.mutation.GraphMutator` validation and cache
synchronisation, the :class:`~repro.graphs.index.GraphIndex` self-loop
rejection (via the public BFS and Dijkstra entry points), its rejection of
directed graphs and multigraphs, ``get_index``'s rejection of graph-likes
that are not ``networkx`` graphs, and the
staleness guards downstream of the version stamp: ``SSSPRowCache``,
``DenseDistanceTable`` and the simulator plane-send paths.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.graphs.generators import cycle_graph, path_graph
from repro.graphs.index import (
    GraphIndex,
    SSSPRowCache,
    StaleIndexError,
    get_index,
    graph_version,
    invalidate_index,
)
from repro.graphs.mutation import GraphMutator
from repro.graphs.properties import h_hop_limited_distances, weighted_distances_from
from repro.core.shortest_paths import DenseDistanceTable
from repro.simulator.config import ModelConfig
from repro.simulator.errors import StaleGraphError
from repro.simulator.messages import LOCAL_MODE
from repro.simulator.metrics import RoundMetrics
from repro.simulator.network import HybridSimulator

from oracles import transport


# ----------------------------------------------------------------------
# GraphMutator validation
# ----------------------------------------------------------------------
def test_mutator_rejects_invalid_edits():
    graph = path_graph(5)
    mutator = GraphMutator(graph)
    with pytest.raises(ValueError, match="self-loop"):
        mutator.add_edge(2, 2)
    with pytest.raises(ValueError, match="positive"):
        mutator.add_edge(0, 4, weight=0)
    with pytest.raises(ValueError, match="update_weight"):
        mutator.add_edge(0, 1)  # already present
    with pytest.raises(KeyError):
        mutator.remove_edge(0, 4)  # not an edge
    with pytest.raises(KeyError):
        mutator.update_weight(0, 4, 3)
    with pytest.raises(ValueError, match="positive"):
        mutator.update_weight(0, 1, -1)
    # None of the rejected edits advanced the version stamp.
    assert graph_version(graph) == 0


def test_mutator_returns_monotone_versions_and_syncs_index():
    graph = path_graph(6)
    index = get_index(graph)
    assert index.version == graph_version(graph) == 0
    mutator = GraphMutator(graph)
    v1 = mutator.add_edge(0, 5, weight=2)
    v2 = mutator.update_weight(0, 5, 7)
    v3 = mutator.remove_edge(0, 5)
    assert (v1, v2, v3) == (1, 2, 3)
    assert get_index(graph) is index
    assert index.version == graph_version(graph) == 3


def test_new_node_edge_takes_the_full_drop_path():
    graph = path_graph(4)
    stale = get_index(graph)
    version = GraphMutator(graph).add_edge(3, 99, weight=1)
    assert version == graph_version(graph)
    assert stale.retired
    fresh = get_index(graph)
    assert fresh is not stale
    assert fresh.n == 5 and 99 in fresh.nodes


def test_weight_only_edit_keeps_hop_caches_topology_edit_drops_them():
    graph = path_graph(8)
    nx.set_edge_attributes(graph, 1, "weight")
    index = get_index(graph)
    assert index.is_connected() and index.diameter() == 7
    tie_ranks = index._tie_ranks
    mutator = GraphMutator(graph)
    mutator.update_weight(3, 4, 9)
    # Hop-based caches survive a pure re-weighting untouched.
    assert index._connected is True and index._diameter == 7
    assert index._tie_ranks is tie_ranks
    mutator.add_edge(0, 7, weight=1)
    # A topology edit drops connectivity/diameter (recomputed on demand)...
    assert index._connected is None and index._diameter is None
    # ...but the node set did not change, so tie ranks are kept.
    assert index._tie_ranks is tie_ranks
    assert index.diameter() == 4  # the new chord shortened the path


# ----------------------------------------------------------------------
# Self-loop rejection (CSR double-write regression)
# ----------------------------------------------------------------------
def _looped_graph():
    graph = cycle_graph(6)
    graph.add_edge(2, 2, weight=1)
    return graph


def test_self_loop_rejected_on_bfs_entry_point():
    with pytest.raises(ValueError, match="self-loop"):
        h_hop_limited_distances(_looped_graph(), 0, 3)


def test_self_loop_rejected_on_dijkstra_entry_point():
    with pytest.raises(ValueError, match="self-loop"):
        weighted_distances_from(_looped_graph(), 0)


def test_self_loop_rejected_at_index_construction():
    with pytest.raises(ValueError, match="self-loop"):
        GraphIndex(_looped_graph())


def test_out_of_band_self_loop_is_caught_by_the_count_backstop():
    graph = cycle_graph(6)
    get_index(graph)
    graph.add_edge(2, 2)  # a hand edit: no version stamp moves
    with pytest.raises(ValueError, match="self-loop"):
        get_index(graph)


def test_directed_graph_rejected_at_index_construction():
    with pytest.raises(TypeError, match="DiGraph"):
        GraphIndex(nx.DiGraph([(0, 1), (1, 2)]))


def test_multigraph_rejected_at_index_construction():
    # A multigraph's adjacency maps each neighbour to a key dict, which the
    # CSR would read as edge data and charge weight 1.
    graph = nx.MultiGraph()
    graph.add_edge(0, 1, weight=5)
    graph.add_edge(0, 1, weight=7)
    with pytest.raises(TypeError, match="MultiGraph"):
        get_index(graph)


# ----------------------------------------------------------------------
# get_index accepts networkx graphs only
# ----------------------------------------------------------------------
class _UnhashableGraph:
    """A graph-like wrapper the weak-keyed index cache cannot hold."""

    __hash__ = None  # type: ignore[assignment]

    def __init__(self, graph):
        self._graph = graph

    def __getattr__(self, name):
        return getattr(self._graph, name)


def test_get_index_rejects_graph_likes_that_are_not_networkx_graphs():
    with pytest.raises(TypeError, match="requires a networkx Graph, got _UnhashableGraph"):
        get_index(_UnhashableGraph(path_graph(5)))


# ----------------------------------------------------------------------
# Staleness guards: SSSPRowCache, DenseDistanceTable, simulator planes
# ----------------------------------------------------------------------
def test_sssp_row_cache_raises_after_mutation():
    graph = path_graph(6)
    nx.set_edge_attributes(graph, 2, "weight")
    cache = SSSPRowCache(get_index(graph))
    assert cache.row(0)[5] == 10
    GraphMutator(graph).update_weight(0, 1, 5)
    with pytest.raises(StaleIndexError):
        cache.row(0)
    with pytest.raises(StaleIndexError):
        cache.position_of(3)
    # A cache built against the post-edit index works (and sees the edit).
    assert SSSPRowCache(get_index(graph)).row(0)[5] == 13


def test_sssp_row_cache_raises_after_invalidate():
    graph = path_graph(6)
    cache = SSSPRowCache(get_index(graph))
    cache.row(0)
    invalidate_index(graph)
    with pytest.raises(StaleIndexError):
        cache.row(0)


def test_dense_distance_table_guard_raises_after_mutation():
    graph = path_graph(6)
    nx.set_edge_attributes(graph, 1, "weight")
    index = get_index(graph)
    table = DenseDistanceTable(
        row_nodes=index.nodes,
        columns=index.nodes,
        row_factory=index.sssp_row,
        stretch_bound=1.0,
        metrics=RoundMetrics(),
        index=index,
    )
    assert table.estimate(0, 5) == 5
    GraphMutator(graph).remove_edge(2, 3)
    with pytest.raises(StaleIndexError):
        table.row(0)
    with pytest.raises(StaleIndexError):
        table.estimate(0, 5)
    with pytest.raises(StaleIndexError):
        table.estimates


def test_dense_distance_table_without_guard_is_unchecked():
    # Tables over graphs the caller promises not to mutate opt out by
    # omitting ``index=`` — exactly the historical behaviour.
    graph = path_graph(4)
    index = get_index(graph)
    table = DenseDistanceTable(
        row_nodes=index.nodes,
        columns=index.nodes,
        row_factory=index.hop_distance_row,
        stretch_bound=1.0,
        metrics=RoundMetrics(),
    )
    assert table.estimate(0, 3) == 3
    invalidate_index(graph)
    assert table.estimate(0, 3) == 3  # no guard, no raise


def test_simulator_plane_send_raises_until_invalidate_resync():
    graph = path_graph(6)
    sim = HybridSimulator(graph, ModelConfig.hybrid(), seed=3)
    transport.send_ids(sim, [0], [1], ["before"])
    sim.advance_round()
    GraphMutator(graph).remove_edge(4, 5)  # behind the simulator's back
    with pytest.raises(StaleGraphError, match="invalidate_index"):
        transport.send_ids(sim, [0], [1], ["stale"])
    with pytest.raises(StaleGraphError):
        transport.send_ids(sim, [0], [1], ["stale"], mode=LOCAL_MODE)
    sim.invalidate_index()  # acknowledge the mutation
    transport.send_ids(sim, [0], [1], ["after"])
    sim.advance_round()


# ----------------------------------------------------------------------
# apply_batch: k edits, one version bump, one splice
# ----------------------------------------------------------------------
def test_apply_batch_splices_in_place_with_one_bump():
    graph = path_graph(40)
    index = get_index(graph)
    version = GraphMutator(graph).apply_batch(
        [
            ("add", 0, 5, 2),
            ("update", 0, 1, 3),
            ("remove", 3, 4),
            ("add", 3, 7),
        ]
    )
    # One bump for the whole burst, and the same index object, spliced.
    assert version == graph_version(graph) == 1
    assert get_index(graph) is index
    assert index.version == version
    assert graph.has_edge(0, 5) and graph.has_edge(3, 7)
    assert not graph.has_edge(3, 4)
    # Value identity: the spliced index answers like a from-scratch build.
    fresh = GraphIndex(graph)
    for source in (0, 7, 39):
        assert index.sssp_dict(source) == fresh.sssp_dict(source)


def test_apply_batch_splices_a_batch_that_rewrites_most_rows():
    # Three adds on a 5-node path touch four of its five rows: still one
    # splice into the same index, never a rebuild.
    graph = path_graph(5)
    index = get_index(graph)
    version = GraphMutator(graph).apply_batch(
        [("add", 0, 2), ("add", 0, 3), ("add", 0, 4)]
    )
    assert version == graph_version(graph) == 1
    assert get_index(graph) is index and not index.retired
    assert index.m == 7
    fresh = GraphIndex(graph)
    for source in graph.nodes:
        assert index.sssp_dict(source) == fresh.sssp_dict(source)


def test_apply_batch_empty_is_a_noop():
    graph = path_graph(6)
    index = get_index(graph)
    mutator = GraphMutator(graph)
    assert mutator.apply_batch([]) == 0
    assert graph_version(graph) == 0
    assert get_index(graph) is index and not index.retired


def test_apply_batch_new_node_takes_the_full_drop_path():
    graph = path_graph(20)
    stale = get_index(graph)
    version = GraphMutator(graph).apply_batch([("add", 0, 99, 2)])
    assert version == graph_version(graph) == 1
    assert stale.retired
    assert 99 in get_index(graph).nodes


def test_apply_batch_applies_edits_sequentially():
    # An edge added earlier in the batch may be re-weighted later in it.
    graph = path_graph(30)
    index = get_index(graph)
    version = GraphMutator(graph).apply_batch(
        [("add", 0, 9), ("update", 0, 9, 7)]
    )
    assert version == 1
    assert get_index(graph) is index
    assert graph[0][9]["weight"] == 7
    assert index.sssp_dict(0) == GraphIndex(graph).sssp_dict(0)


def test_apply_batch_rejects_malformed_edits_before_mutating():
    graph = path_graph(6)
    index = get_index(graph)
    mutator = GraphMutator(graph)
    for bad in [("frobnicate", 1, 2), ("add",), ("remove", 1), "add-0-2", ()]:
        with pytest.raises(ValueError, match="batch edit|unsupported"):
            mutator.apply_batch([("add", 0, 2), bad])
        # Staging validates every edit before the first one touches the graph.
        assert not graph.has_edge(0, 2)
    assert graph_version(graph) == 0
    assert get_index(graph) is index and not index.retired


def test_apply_batch_midway_failure_commits_partial_burst_safely():
    graph = path_graph(6)
    stale = get_index(graph)
    with pytest.raises(KeyError):
        GraphMutator(graph).apply_batch([("add", 0, 2), ("remove", 0, 5)])
    # The first edit is on the graph; the burst was still committed as one
    # mutation, so the stale index can never be served.
    assert graph.has_edge(0, 2)
    assert stale.retired
    assert graph_version(graph) == 1
    assert get_index(graph).sssp_dict(0) == GraphIndex(graph).sssp_dict(0)
