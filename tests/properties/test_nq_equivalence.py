"""Exact-equivalence tests: fast NQ engine vs. the Theta(n*m) reference.

The frontier-based analytics engine (:mod:`repro.graphs.index`) must agree
*exactly* — not approximately — with the original reference formulations kept
as ``_reference_*`` in ``oracles.nq`` and ``oracles.hops``,
across six graph families x three seeds, for per-node values, graph-level
values, workload profiles, diameters, eccentricities and ball-size sequences.
Any divergence is a correctness bug in the engine, never an acceptable
approximation.

The graph-level scan skips the nodes a grown ball already certifies and stops
at the Lemma 3.6 bound, so it is also pinned against the per-node maximum on
random connected graphs, after every cache-filling call that can precede it,
and after edge edits; a spy on its ball grower pins that the pruning engages.
It grows the balls per source or, where the h-hop pricing says so, in dense
boolean blocks: the per-node, graph-level, profile and random-graph cases run
under each of ``test_hhop_rows.MODES`` (per-source and dense arms forced,
small blocks), and spies pin the arm the shipped pricing takes on a regular
graph, a long path and a grid.
"""

import math

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.neighborhood_quality import (
    DistributedNQComputation,
    neighborhood_quality,
    neighborhood_quality_of_node,
    neighborhood_quality_per_node,
)
from repro.graphs.generators import GraphSpec, generate_graph
from repro.graphs.index import GraphIndex, get_index
from repro.graphs.mutation import GraphMutator
from repro.graphs.properties import (
    ball_sizes_all_radii,
    diameter,
    eccentricity,
)
from repro.simulator.config import ModelConfig
from repro.simulator.network import HybridSimulator

from oracles.engines import ENGINES, exchange_via
from oracles.hops import (
    _reference_ball_sizes_all_radii,
    _reference_diameter,
    _reference_eccentricity,
)
from oracles.nq import (
    _reference_neighborhood_quality,
    _reference_neighborhood_quality_of_node,
    _reference_neighborhood_quality_per_node,
    _reference_nq_profile,
)
from test_hhop_rows import MODES, arm
from test_nq_properties import connected_graphs

SEEDS = [0, 1, 2]

#: Six graph families; seed-dependent generators consume the seed directly,
#: deterministic families vary their size with it so each seed still yields a
#: distinct instance.
FAMILY_SPECS = {
    "path": lambda seed: GraphSpec.of("path", n=50 + 7 * seed),
    "cycle": lambda seed: GraphSpec.of("cycle", n=48 + 5 * seed),
    "grid": lambda seed: GraphSpec.of("grid", side=6 + seed, dim=2),
    "erdos_renyi": lambda seed: GraphSpec.of("erdos_renyi", n=60, p=0.08, seed=seed),
    "random_regular": lambda seed: GraphSpec.of("random_regular", n=60, degree=4, seed=seed),
    "barbell": lambda seed: GraphSpec.of("barbell", clique_size=6 + seed, path_length=20),
}

CASES = [
    pytest.param(family, seed, id=f"{family}-s{seed}")
    for family in FAMILY_SPECS
    for seed in SEEDS
]


def _workloads(n):
    # Integer, fractional, sub-n, super-n and threshold-exhausting workloads;
    # the last ones drive nodes into the saturated (lazy-diameter) code path,
    # and k < 1 hits the Lemma 3.6 stop at t0 = 1.
    return [0.5, 1, 2, 2.5, 7, max(1, n // 2), n, 3 * n, 10**6, math.inf]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("family,seed", CASES)
def test_per_node_nq_matches_reference(family, seed, mode):
    graph = generate_graph(FAMILY_SPECS[family](seed))
    with arm(mode):
        for k in _workloads(graph.number_of_nodes()):
            assert neighborhood_quality_per_node(graph, k) == (
                _reference_neighborhood_quality_per_node(graph, k)
            ), f"{family} seed={seed} k={k}"


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("family,seed", CASES)
def test_graph_level_nq_matches_reference(family, seed, mode):
    graph = generate_graph(FAMILY_SPECS[family](seed))
    with arm(mode):
        for k in _workloads(graph.number_of_nodes()):
            assert neighborhood_quality(graph, k) == _reference_neighborhood_quality(
                graph, k
            ), f"{family} seed={seed} k={k}"


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("family,seed", CASES)
def test_nq_profile_matches_reference(family, seed, mode):
    graph = generate_graph(FAMILY_SPECS[family](seed))
    ks = _workloads(graph.number_of_nodes())
    with arm(mode):
        profile = {k: neighborhood_quality(graph, k) for k in ks}
    assert profile == _reference_nq_profile(graph, ks)


@pytest.mark.parametrize("family,seed", CASES)
def test_structural_queries_match_reference(family, seed):
    graph = generate_graph(FAMILY_SPECS[family](seed))
    assert diameter(graph) == _reference_diameter(graph)
    for node in graph.nodes:
        assert eccentricity(graph, node) == _reference_eccentricity(graph, node)
        assert ball_sizes_all_radii(graph, node) == (
            _reference_ball_sizes_all_radii(graph, node)
        )


@pytest.mark.parametrize("family,seed", CASES)
def test_single_node_nq_matches_reference(family, seed):
    graph = generate_graph(FAMILY_SPECS[family](seed))
    d = diameter(graph)
    nodes = sorted(graph.nodes)[:5]
    for k in (1, 2.5, graph.number_of_nodes(), 10**6):
        for node in nodes:
            assert neighborhood_quality_of_node(graph, k, node) == (
                _reference_neighborhood_quality_of_node(graph, k, node)
            )
            # An explicitly supplied diameter must short-circuit identically.
            assert neighborhood_quality_of_node(graph, k, node, d) == (
                _reference_neighborhood_quality_of_node(graph, k, node, d)
            )


def test_error_behaviour_matches_reference():
    import networkx as nx

    disconnected = nx.Graph()
    disconnected.add_nodes_from([0, 1, 2])
    disconnected.add_edge(0, 1)
    with pytest.raises(ValueError):
        neighborhood_quality(disconnected, 4)
    with pytest.raises(ValueError):
        diameter(disconnected)
    with pytest.raises(ValueError):
        neighborhood_quality(generate_graph(GraphSpec.of("path", n=5)), 0)
    # Single-node graphs report 0 without validating k (reference behaviour).
    single = generate_graph(GraphSpec.of("path", n=1))
    assert neighborhood_quality(single, 5) == 0
    assert neighborhood_quality_per_node(single, 5) == {0: 0}


def test_index_is_cached_and_invalidated():
    graph = generate_graph(GraphSpec.of("path", n=20))
    index = get_index(graph)
    assert get_index(graph) is index
    first = neighborhood_quality(graph, 12)
    # Scalar NQ values are memoised per (graph, k)...
    assert index._nq_cache[12] == first
    # ...and the whole index is rebuilt when the topology changes size.
    graph.add_edge(0, 19)
    rebuilt = get_index(graph)
    assert rebuilt is not index
    assert neighborhood_quality(graph, 12) == _reference_neighborhood_quality(graph, 12)


@pytest.mark.parametrize(
    "family,seed",
    [pytest.param("grid", 0, id="grid"), pytest.param("erdos_renyi", 1, id="er")],
)
def test_distributed_engines_agree_and_match_centralized(family, seed):
    """The plane frontier flood against both NQ flood oracles: the tuple
    frontier flood matches it in every metric, the whole-ball flood in
    values, rounds and charges while moving more local words."""
    graph = generate_graph(FAMILY_SPECS[family](seed))
    k = max(4, graph.number_of_nodes() // 3)
    results = {}
    for engine in ENGINES:
        sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=seed)
        with exchange_via(engine):
            results[engine] = DistributedNQComputation(sim, k).run()
    batch, tuples, legacy = (results[engine] for engine in ENGINES)
    assert batch.nq == tuples.nq == legacy.nq == neighborhood_quality(graph, k)
    assert batch.per_node == tuples.per_node == legacy.per_node
    assert batch.metrics.summary() == tuples.metrics.summary()
    assert batch.metrics.measured_rounds == legacy.metrics.measured_rounds
    assert batch.metrics.total_rounds == legacy.metrics.total_rounds
    assert batch.metrics.local_words < legacy.metrics.local_words


# ----------------------------------------------------------------------
# The pruned graph-level scan
# ----------------------------------------------------------------------
@st.composite
def _graph_and_workload(draw):
    graph = draw(connected_graphs())
    n = graph.number_of_nodes()
    k = draw(
        st.one_of(
            st.integers(min_value=1, max_value=3 * n),
            st.integers(min_value=1, max_value=12 * n).map(lambda q: q / 4),
            st.integers(min_value=n * n, max_value=10**6),
        )
    )
    return graph, k


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(_graph_and_workload())
def test_graph_level_nq_is_the_per_node_maximum(mode, data):
    graph, k = data
    with arm(mode):
        value = GraphIndex(graph).nq_value(k)
    assert value == max(GraphIndex(graph).nq_per_node(k).values())
    assert value == _reference_neighborhood_quality(graph, k)


def test_nq_value_after_earlier_workloads():
    graph = generate_graph(GraphSpec.of("barbell", clique_size=6, path_length=20))
    n = graph.number_of_nodes()
    profiled = [2, 7, n]
    index = GraphIndex(graph)
    for k in profiled:
        index.nq_value(k)
    for k in profiled + [2.5, 3 * n, 10**6]:
        assert index.nq_value(k) == _reference_neighborhood_quality(graph, k), k


def test_nq_value_after_a_saturated_nq_of_node():
    # Index 0 is the middle of the path, so the connectivity sweep sees
    # eccentricity 25; a saturated growth from an end raises the lower bound.
    graph = nx.Graph()
    graph.add_node(25)
    graph.add_edges_from(nx.path_graph(50).edges)
    index = GraphIndex(graph)
    index.is_connected()
    assert index._diam_lb == 25
    assert index.nq_of_node(0, 10**4) == _reference_neighborhood_quality_of_node(
        graph, 10**4, 0
    )
    # Its t1 exceeds its eccentricity, the new lower bound, so D is resolved.
    assert index._diam_lb == index._diameter == 49
    for k in _workloads(50):
        assert index.nq_value(k) == _reference_neighborhood_quality(graph, k), k


def test_nq_value_after_edge_edits():
    graph = nx.path_graph(40)
    index = get_index(graph)
    assert index.nq_value(20) == _reference_neighborhood_quality(graph, 20)
    assert index._periphery == 39
    mutator = GraphMutator(graph)
    edits = [
        (mutator.add_edge, 5, 30),
        (mutator.remove_edge, 5, 6),
        (mutator.add_edge, 0, 39),
    ]
    for edit, u, v in edits:
        edit(u, v)
        assert get_index(graph) is index and index._periphery is None
        for k in (2, 20, 160, 10**6):
            assert index.nq_value(k) == _reference_neighborhood_quality(graph, k)


@pytest.fixture
def growths(monkeypatch):
    """Count the ball growths of the graph-level scan."""
    calls = [0]
    grow = GraphIndex._nq_grow

    def counting(self, *args, **kwargs):
        calls[0] += 1
        return grow(self, *args, **kwargs)

    monkeypatch.setattr(GraphIndex, "_nq_grow", counting)
    return calls


@pytest.fixture
def nq_blocks(monkeypatch):
    """Record the sources of every dense NQ block the scan grows."""
    blocks = []
    nq_block = GraphIndex._nq_block

    def spy(self, csr, block, *args):
        blocks.append(list(block))
        return nq_block(self, csr, block, *args)

    monkeypatch.setattr(GraphIndex, "_nq_block", spy)
    return blocks


def test_pruning_engages_on_a_long_path(growths, nq_blocks, monkeypatch):
    # The end of the path reaches the Lemma 3.6 bound t0 = 64 at once: one
    # growth, and the scan never prices a block.
    priced = []
    monkeypatch.setattr(GraphIndex, "_dense_block", lambda *args: priced.append(1))
    assert GraphIndex(nx.path_graph(10_000)).nq_value(4096) == 64
    assert growths[0] == 1 and not nq_blocks and not priced


def test_pruning_engages_on_a_grid(growths):
    graph = nx.grid_2d_graph(100, 100)
    value = GraphIndex(graph).nq_value(10**4)
    assert growths[0] <= 0.05 * graph.number_of_nodes()
    # A corner has the smallest ball at every radius, so it attains the max.
    assert value == GraphIndex(graph).nq_of_node((0, 0), 10**4) == 27


def test_unprunable_regular_graph_still_matches(growths):
    graph = generate_graph(GraphSpec.of("random_regular", n=60, degree=6, seed=0))
    for k in (4, 60, 600):
        assert GraphIndex(graph).nq_value(k) == _reference_neighborhood_quality(
            graph, k
        )
    assert growths[0] > 0


def test_pricing_grows_a_regular_graph_in_dense_blocks(growths, nq_blocks):
    # Balls certify next to nothing here, so after the first growth that
    # certifies nothing, the pricing hands every remaining node to one block.
    graph = nx.random_regular_graph(4, 200, seed=1)
    assert GraphIndex(graph).nq_value(200) == _reference_neighborhood_quality(
        graph, 200
    )
    assert growths[0] <= 2
    assert len(nq_blocks) == 1 and len(nq_blocks[0]) > 190


def test_pricing_never_grows_a_grid_in_dense_blocks(nq_blocks):
    # Grid balls certify their neighbours; where one does not, the rest of
    # the scan still lives on certificates and the pricing keeps per-source.
    graph = nx.grid_2d_graph(60, 60)
    for k in (64, 1024, 3600):
        assert GraphIndex(graph).nq_value(k) == GraphIndex(graph).nq_of_node((0, 0), k)
    assert nq_blocks == []
