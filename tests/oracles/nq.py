"""NQ oracles: the centralized reference formulations and the two floods.

The ``_reference_*`` functions are the original Theta(n * m) evaluations of
Definition 3.1 on index-free primitives (one full ball-size list per node);
:mod:`repro.graphs.index` must match them exactly.

The two exploration floods are what the plane frontier flood replaced.  Both
take a :class:`~repro.core.neighborhood_quality.DistributedNQComputation`
and run its ``explore`` phase, reusing the algorithm's own per-step
bookkeeping, so they can stand in for ``_phase_explore``:

* :func:`explore_frontier_tuples` floods the same frontiers as the plane path
  as one tuple batch per round (:func:`oracles.transport.send_batch` plus
  ``per_node_inbox``): identical rounds, balls, messages and words;
* :func:`explore_legacy` floods every node's whole known ball as a frozenset,
  one :func:`oracles.transport.broadcast` per node and one
  :func:`oracles.transport.inbox` read per node: identical balls, rounds and
  charges, but more local words (and messages once a ball saturates).
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Set

import networkx as nx

from repro.core.neighborhood_quality import DistributedNQComputation
from repro.simulator.messages import LOCAL_MODE, payload_words

from oracles import transport
from oracles.hops import _reference_ball_sizes_all_radii, _reference_diameter

Node = Hashable


def explore_frontier_tuples(algorithm: DistributedNQComputation) -> None:
    """Frontier flood over tuple workloads and the per-node inbox dict."""
    sim = algorithm.simulator
    known_balls: Dict[Node, Set[Node]] = {v: {v} for v in sim.nodes}
    frontiers: Dict[Node, frozenset] = {v: frozenset((v,)) for v in sim.nodes}
    neighbors = {v: sim.neighbors(v) for v in sim.nodes}

    t = 0
    nq_value: Optional[int] = None
    while t < sim.n:
        t += 1
        triples = []
        for v in sim.nodes:
            frontier = frontiers[v]
            if not frontier:
                continue
            words = payload_words(frontier)
            for u in neighbors[v]:
                triples.append((v, u, frontier, words))
        transport.send_batch(sim, triples, "nq-explore", mode=LOCAL_MODE)
        sim.advance_round()
        inbox = sim.per_node_inbox(LOCAL_MODE)
        next_frontiers: Dict[Node, frozenset] = {}
        for v in sim.nodes:
            ball = known_balls[v]
            fresh: Set[Node] = set()
            for _, payload, tag, _ in inbox.get(v, ()):
                if tag != "nq-explore":
                    continue
                for u in payload:
                    if u not in ball:
                        fresh.add(u)
            ball |= fresh
            next_frontiers[v] = frozenset(fresh)
        frontiers = next_frontiers

        nq_value = algorithm._step_bookkeeping(t, known_balls)
        if nq_value is not None:
            break

    algorithm._finalize(t if nq_value is None else nq_value, sim)


def explore_legacy(algorithm: DistributedNQComputation) -> None:
    """Whole-ball flood, one broadcast and one inbox read per node."""
    sim = algorithm.simulator
    known_balls: Dict[Node, Set[Node]] = {v: {v} for v in sim.nodes}

    t = 0
    nq_value: Optional[int] = None
    while t < sim.n:
        t += 1
        for v in sim.nodes:
            transport.broadcast(sim, v, frozenset(known_balls[v]), tag="nq-explore")
        sim.advance_round()
        new_balls: Dict[Node, Set[Node]] = {}
        for v in sim.nodes:
            merged = set(known_balls[v])
            for message in transport.inbox(sim, v, LOCAL_MODE):
                if message.tag == "nq-explore":
                    merged.update(message.payload)
            new_balls[v] = merged
        known_balls = new_balls

        nq_value = algorithm._step_bookkeeping(t, known_balls)
        if nq_value is not None:
            break

    algorithm._finalize(t if nq_value is None else nq_value, sim)


# ----------------------------------------------------------------------
# Centralized references: the original index-free formulations
# ----------------------------------------------------------------------
def _nq_from_ball_sizes(ball_sizes: list, k: float, graph_diameter: int) -> int:
    """Evaluate Definition 3.1 given ``[|B_0(v)|, |B_1(v)|, ...]``."""
    if k <= 0:
        raise ValueError("k must be positive")
    # t ranges over positive integers; the list index is the radius.
    max_radius = len(ball_sizes) - 1
    for t in range(1, graph_diameter + 1):
        size = ball_sizes[t] if t <= max_radius else ball_sizes[max_radius]
        if size >= k / t:
            return t
    return graph_diameter


def _reference_neighborhood_quality_of_node(
    graph: nx.Graph, k: float, node: Node, graph_diameter: Optional[int] = None
) -> int:
    """Original Theta(n * m) formulation of ``NQ_k(v)``."""
    if graph_diameter is None:
        graph_diameter = _reference_diameter(graph)
    if graph_diameter == 0:
        # Single-node graph: the ball of radius "D" is the node itself.
        return 0
    sizes = _reference_ball_sizes_all_radii(graph, node)
    return _nq_from_ball_sizes(sizes, k, graph_diameter)


def _reference_neighborhood_quality_per_node(
    graph: nx.Graph, k: float
) -> Dict[Node, int]:
    """Original Theta(n * m) formulation of the per-node map."""
    graph_diameter = _reference_diameter(graph)
    result: Dict[Node, int] = {}
    for node in graph.nodes:
        if graph_diameter == 0:
            result[node] = 0
            continue
        sizes = _reference_ball_sizes_all_radii(graph, node)
        result[node] = _nq_from_ball_sizes(sizes, k, graph_diameter)
    return result


def _reference_neighborhood_quality(graph: nx.Graph, k: float) -> int:
    """Original formulation of ``NQ_k(G)`` (also the speedup benchmark's baseline)."""
    per_node = _reference_neighborhood_quality_per_node(graph, k)
    return max(per_node.values())


def _reference_nq_profile(graph: nx.Graph, ks: list) -> Dict[float, int]:
    """Original formulation of the workload profile."""
    graph_diameter = _reference_diameter(graph)
    sizes_per_node = {
        node: _reference_ball_sizes_all_radii(graph, node) for node in graph.nodes
    }
    profile: Dict[float, int] = {}
    for k in ks:
        if graph_diameter == 0:
            profile[k] = 0
            continue
        profile[k] = max(
            _nq_from_ball_sizes(sizes, k, graph_diameter)
            for sizes in sizes_per_node.values()
        )
    return profile
