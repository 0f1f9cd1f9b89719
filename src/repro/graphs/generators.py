"""Graph family generators.

The paper analyses ``NQ_k`` on paths, cycles and d-dimensional grids
(Section 3.3, Theorems 15-17, Appendix B) and compares its universally optimal
algorithms against existentially optimal ones whose worst cases are path-like
graphs with attached dense clusters (barbells, lollipops, brooms).  The
generators here produce every family used by the benchmarks, all with nodes
labelled ``0..n-1`` so that they can be fed directly to the HYBRID simulator
(whose HYBRID-model identifier space is exactly ``[n]``).
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import networkx as nx

from repro.graphs.properties import is_connected

__all__ = [
    "GraphSpec",
    "generate_graph",
    "path_graph",
    "cycle_graph",
    "grid_graph",
    "torus_graph",
    "balanced_tree",
    "star_graph",
    "complete_graph",
    "erdos_renyi_graph",
    "random_regular_graph",
    "barbell_graph",
    "lollipop_graph",
    "caterpillar_graph",
    "broom_graph",
    "random_geometric_graph",
    "two_cluster_graph",
    "GRAPH_FAMILIES",
]


def _relabel_consecutive(graph: nx.Graph) -> nx.Graph:
    """Relabel nodes to ``0..n-1`` preserving edge data."""
    mapping = {node: index for index, node in enumerate(sorted(graph.nodes, key=str))}
    return nx.relabel_nodes(graph, mapping, copy=True)


def path_graph(n: int) -> nx.Graph:
    """Path ``P_n`` on ``n`` nodes; the canonical NQ_k = Theta(sqrt k) family."""
    if n < 1:
        raise ValueError("path needs at least one node")
    return nx.path_graph(n)


def cycle_graph(n: int) -> nx.Graph:
    """Cycle ``C_n`` on ``n`` nodes (n >= 3)."""
    if n < 3:
        raise ValueError("cycle needs at least three nodes")
    return nx.cycle_graph(n)


def grid_graph(side: int, dim: int = 2) -> nx.Graph:
    """d-dimensional grid graph with ``side**dim`` nodes (Definition 3.9).

    The d-fold Cartesian product of the ``side``-node path.  Theorem 16 predicts
    ``NQ_k = Theta(min(k^{1/(d+1)}, D))`` on these graphs.
    """
    if side < 1:
        raise ValueError("side must be positive")
    if dim < 1:
        raise ValueError("dim must be positive")
    grid = nx.grid_graph(dim=[side] * dim)
    return _relabel_consecutive(grid)


def torus_graph(side: int, dim: int = 2) -> nx.Graph:
    """d-dimensional torus (grid with wraparound); same NQ_k scaling as the grid."""
    if side < 3:
        raise ValueError("torus needs side >= 3")
    if dim < 1:
        raise ValueError("dim must be positive")
    torus = nx.grid_graph(dim=[side] * dim, periodic=True)
    return _relabel_consecutive(torus)


def balanced_tree(branching: int, height: int) -> nx.Graph:
    """Complete ``branching``-ary tree of the given height."""
    if branching < 1:
        raise ValueError("branching must be positive")
    if height < 0:
        raise ValueError("height must be non-negative")
    if branching == 1:
        return path_graph(height + 1)
    return nx.balanced_tree(branching, height)


def star_graph(n: int) -> nx.Graph:
    """Star on ``n`` nodes (one hub, n-1 leaves).  Diameter 2, NQ_k is O(1) for k <= n."""
    if n < 2:
        raise ValueError("star needs at least two nodes")
    return nx.star_graph(n - 1)


def complete_graph(n: int) -> nx.Graph:
    """Complete graph ``K_n``."""
    if n < 1:
        raise ValueError("complete graph needs at least one node")
    return nx.complete_graph(n)


def erdos_renyi_graph(n: int, p: float, seed: Optional[int] = None) -> nx.Graph:
    """Connected Erdos-Renyi ``G(n, p)``.

    Resamples (bounded number of times) and finally patches connectivity by
    joining components with single edges, so the result always satisfies the
    paper's connectivity assumption.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = random.Random(seed)
    graph = nx.gnp_random_graph(n, p, seed=rng.randrange(2**31))
    attempts = 0
    while not is_connected(graph) and attempts < 5:
        graph = nx.gnp_random_graph(n, p, seed=rng.randrange(2**31))
        attempts += 1
    if not is_connected(graph):
        components = [sorted(c) for c in nx.connected_components(graph)]
        for first, second in zip(components, components[1:]):
            graph.add_edge(first[0], second[0])
    return graph


def random_regular_graph(n: int, degree: int, seed: Optional[int] = None) -> nx.Graph:
    """Random ``degree``-regular graph; a stand-in for expanders (NQ_k = O(log))."""
    if degree >= n:
        raise ValueError("degree must be smaller than n")
    if (n * degree) % 2 != 0:
        raise ValueError("n * degree must be even")
    rng = random.Random(seed)
    graph = nx.random_regular_graph(degree, n, seed=rng.randrange(2**31))
    attempts = 0
    while not is_connected(graph) and attempts < 10:
        graph = nx.random_regular_graph(degree, n, seed=rng.randrange(2**31))
        attempts += 1
    if not is_connected(graph):
        raise RuntimeError("failed to sample a connected random regular graph")
    return graph


def barbell_graph(clique_size: int, path_length: int) -> nx.Graph:
    """Two cliques joined by a path: the classic existential worst case.

    Prior HYBRID lower bounds (AHK+20, KS20) rely on graphs featuring an
    isolated long path; the barbell realises that structure while keeping
    plenty of nodes at both ends.
    """
    if clique_size < 3:
        raise ValueError("clique_size must be at least 3")
    if path_length < 0:
        raise ValueError("path_length must be non-negative")
    return nx.barbell_graph(clique_size, path_length)


def lollipop_graph(clique_size: int, path_length: int) -> nx.Graph:
    """A clique with a path attached (the 'lollipop')."""
    if clique_size < 3:
        raise ValueError("clique_size must be at least 3")
    if path_length < 0:
        raise ValueError("path_length must be non-negative")
    return nx.lollipop_graph(clique_size, path_length)


def caterpillar_graph(spine_length: int, legs_per_node: int) -> nx.Graph:
    """A path ('spine') where every spine node has ``legs_per_node`` leaves."""
    if spine_length < 1:
        raise ValueError("spine_length must be positive")
    if legs_per_node < 0:
        raise ValueError("legs_per_node must be non-negative")
    graph = nx.Graph()
    next_id = 0
    spine: List[int] = []
    for _ in range(spine_length):
        spine.append(next_id)
        graph.add_node(next_id)
        next_id += 1
    for u, v in zip(spine, spine[1:]):
        graph.add_edge(u, v)
    for s in spine:
        for _ in range(legs_per_node):
            graph.add_edge(s, next_id)
            next_id += 1
    return graph


def broom_graph(path_length: int, bristle_count: int) -> nx.Graph:
    """A path with ``bristle_count`` leaves attached to one end.

    A node at the far end of the handle has tiny balls for many radii, which
    makes NQ_k large; the bristly end has huge balls.  Useful for exercising the
    max over nodes in the definition of NQ_k.
    """
    if path_length < 1:
        raise ValueError("path_length must be positive")
    if bristle_count < 0:
        raise ValueError("bristle_count must be non-negative")
    graph = nx.path_graph(path_length)
    next_id = path_length
    for _ in range(bristle_count):
        graph.add_edge(path_length - 1, next_id)
        next_id += 1
    return graph


def random_geometric_graph(
    n: int, radius: float, seed: Optional[int] = None
) -> nx.Graph:
    """Connected random geometric graph in the unit square.

    Geometric graphs satisfy polynomial ball growth (Theorem 17 with d = 2), so
    they are a natural family on which NQ_k beats sqrt(k).
    """
    if n < 1:
        raise ValueError("n must be positive")
    rng = random.Random(seed)
    graph = nx.random_geometric_graph(n, radius, seed=rng.randrange(2**31))
    attempts = 0
    while not is_connected(graph) and attempts < 5:
        graph = nx.random_geometric_graph(n, radius, seed=rng.randrange(2**31))
        attempts += 1
    if not is_connected(graph):
        nodes = sorted(graph.nodes)
        components = [sorted(c) for c in nx.connected_components(graph)]
        for first, second in zip(components, components[1:]):
            graph.add_edge(first[0], second[0])
        graph.add_nodes_from(nodes)
    for node in graph.nodes:
        graph.nodes[node].pop("pos", None)
    return graph


def two_cluster_graph(cluster_size: int, bridge_length: int) -> nx.Graph:
    """Two dense clusters connected by a single long bridge path.

    This is the shape used by the node-communication lower bound (Appendix C):
    information held in one cluster must cross the bridge, and the nodes near
    the bridge have small balls, pushing NQ_k up.
    """
    if cluster_size < 2:
        raise ValueError("cluster_size must be at least 2")
    if bridge_length < 1:
        raise ValueError("bridge_length must be positive")
    graph = nx.Graph()
    left = list(range(cluster_size))
    for i in left:
        for j in left:
            if i < j:
                graph.add_edge(i, j)
    bridge = list(range(cluster_size, cluster_size + bridge_length))
    prev = left[0]
    for b in bridge:
        graph.add_edge(prev, b)
        prev = b
    right = list(
        range(cluster_size + bridge_length, 2 * cluster_size + bridge_length)
    )
    for i in right:
        for j in right:
            if i < j:
                graph.add_edge(i, j)
    graph.add_edge(prev, right[0])
    return graph


@dataclasses.dataclass(frozen=True)
class GraphSpec:
    """A declarative description of a benchmark graph.

    ``family`` names one of the entries of :data:`GRAPH_FAMILIES`; ``params``
    are forwarded to the corresponding generator.  Specs are hashable so they
    can key result tables.
    """

    family: str
    params: Tuple[Tuple[str, object], ...] = ()

    @staticmethod
    def of(family: str, **params: object) -> "GraphSpec":
        """Convenience constructor: ``GraphSpec.of("grid", side=8, dim=2)``."""
        return GraphSpec(family=family, params=tuple(sorted(params.items())))

    @property
    def kwargs(self) -> Dict[str, object]:
        return dict(self.params)

    def build(self) -> nx.Graph:
        """Instantiate the graph described by this spec."""
        return generate_graph(self)

    def label(self) -> str:
        """Short human-readable label used in benchmark tables."""
        if not self.params:
            return self.family
        inner = ",".join(f"{key}={value}" for key, value in self.params)
        return f"{self.family}({inner})"


GRAPH_FAMILIES: Dict[str, Callable[..., nx.Graph]] = {
    "path": path_graph,
    "cycle": cycle_graph,
    "grid": grid_graph,
    "torus": torus_graph,
    "tree": balanced_tree,
    "star": star_graph,
    "complete": complete_graph,
    "erdos_renyi": erdos_renyi_graph,
    "random_regular": random_regular_graph,
    "barbell": barbell_graph,
    "lollipop": lollipop_graph,
    "caterpillar": caterpillar_graph,
    "broom": broom_graph,
    "geometric": random_geometric_graph,
    "two_cluster": two_cluster_graph,
}


def generate_graph(spec: GraphSpec) -> nx.Graph:
    """Instantiate a :class:`GraphSpec`.

    Raises ``KeyError`` for unknown families so typos surface immediately.
    """
    if spec.family not in GRAPH_FAMILIES:
        known = ", ".join(sorted(GRAPH_FAMILIES))
        raise KeyError(f"unknown graph family {spec.family!r}; known: {known}")
    generator = GRAPH_FAMILIES[spec.family]
    graph = generator(**spec.kwargs)
    graph.graph["spec"] = spec
    return graph
