"""The two NQ exploration floods the plane frontier flood replaced.

Both take a :class:`~repro.core.neighborhood_quality.DistributedNQComputation`
and run its ``explore`` phase, reusing the algorithm's own per-step
bookkeeping, so they can stand in for ``_phase_explore``:

* :func:`explore_frontier_tuples` floods the same frontiers as the plane path
  over the tuple send API (``local_send_batch`` plus ``per_node_inbox``):
  identical rounds, balls, messages and words;
* :func:`explore_legacy` floods every node's whole known ball as a frozenset
  through the per-message API: identical balls, rounds and charges, but more
  local words (and messages once a ball saturates).
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Set

from repro.core.neighborhood_quality import DistributedNQComputation
from repro.simulator.messages import LOCAL_MODE, payload_words

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
        sim.local_send_batch(triples, "nq-explore")
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
    """Whole-ball flood over the per-message API."""
    sim = algorithm.simulator
    known_balls: Dict[Node, Set[Node]] = {v: {v} for v in sim.nodes}

    t = 0
    nq_value: Optional[int] = None
    while t < sim.n:
        t += 1
        for v in sim.nodes:
            sim.local_broadcast(v, frozenset(known_balls[v]), tag="nq-explore")
        sim.advance_round()
        new_balls: Dict[Node, Set[Node]] = {}
        for v in sim.nodes:
            merged = set(known_balls[v])
            for message in sim.local_inbox(v):
                if message.tag == "nq-explore":
                    merged.update(message.payload)
            new_balls[v] = merged
        known_balls = new_balls

        nq_value = algorithm._step_bookkeeping(t, known_balls)
        if nq_value is not None:
            break

    algorithm._finalize(t if nq_value is None else nq_value, sim)
