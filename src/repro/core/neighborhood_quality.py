"""The neighborhood-quality parameter ``NQ_k`` (Section 3).

Definition 3.1: for a graph ``G``, a workload ``k > 0`` and a node ``v``,

    ``NQ_k(v) = min({t : |B_t(v)| >= k / t} U {D})``    and
    ``NQ_k(G) = max_v NQ_k(v)``,

where ``B_t(v)`` is the hop-ball of radius ``t`` around ``v`` and ``D`` is the
hop diameter.  Intuitively ``NQ_k(v)`` is the smallest radius at which ``v``'s
neighborhood is large enough to pull in ``~k`` words of information through the
global network within ``O(t)`` rounds.

This module provides

* the centralized computation, delegated to the shared analytics engine
  (:mod:`repro.graphs.index`): incremental ball growers with early termination
  stop each node's BFS at the radius that certifies its answer, the diameter is
  resolved lazily (only for nodes whose exploration exhausts the graph unmet),
  graph-level ``NQ_k`` skips every node a grown ball already certifies and is
  memoised per ``(graph, k)``.  The original Theta(n * m) formulations are test
  oracles (``tests/oracles/nq.py``), pinned by
  ``tests/properties/test_nq_equivalence.py``;
* :class:`DistributedNQComputation`, the distributed computation of Lemma 3.3
  that runs on the :class:`~repro.simulator.network.HybridSimulator`:
  every node explores its neighborhood to increasing depth ``t`` (one local
  round per depth step) and after each step the global minimum ball size
  ``N_t = min_v |B_t(v)|`` is computed with the eO(1)-round aggregation of
  Lemma 4.4; the exploration stops at the first ``t`` with ``N_t >= k / t``.
  Each round floods *frontiers* (each node forwards only the ball members it
  discovered in the previous round) as one id-native token plane.  The
  original whole-ball flood over the per-message API is a test oracle
  (``tests/oracles/nq.py``): it computes identical balls, per-node values,
  round counts and charges (pinned by ``tests/unit/test_round_regression.py``),
  while the frontier flood moves strictly fewer local words, and also fewer
  local messages once a node's ball saturates before the global termination
  (an empty frontier is not sent).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Hashable, List, Optional, Set

import networkx as nx
import numpy as np

from repro.graphs.index import get_index
from repro.simulator.config import log2_ceil
from repro.simulator.engine import BatchAlgorithm, TokenPlane
from repro.simulator.messages import payload_words
from repro.simulator.metrics import RoundMetrics
from repro.simulator.network import HybridSimulator

Node = Hashable

__all__ = [
    "neighborhood_quality_of_node",
    "neighborhood_quality_per_node",
    "neighborhood_quality",
    "DistributedNQComputation",
    "NQResult",
]


def neighborhood_quality_of_node(
    graph: nx.Graph, k: float, node: Node, graph_diameter: Optional[int] = None
) -> int:
    """``NQ_k(v)`` for a single node (centralized, early-terminating)."""
    return get_index(graph).nq_of_node(node, k, graph_diameter)


def neighborhood_quality_per_node(graph: nx.Graph, k: float) -> Dict[Node, int]:
    """``NQ_k(v)`` for every node (centralized, early-terminating)."""
    return get_index(graph).nq_per_node(k)


def neighborhood_quality(graph: nx.Graph, k: float) -> int:
    """``NQ_k(G) = max_v NQ_k(v)`` (centralized; memoised per ``(graph, k)``)."""
    return get_index(graph).nq_value(k)


@dataclasses.dataclass
class NQResult:
    """Result of the distributed NQ_k computation (Lemma 3.3)."""

    nq: int
    per_node: Dict[Node, int]
    metrics: RoundMetrics


class DistributedNQComputation(BatchAlgorithm):
    """Distributed computation of ``NQ_k`` and ``NQ_k(v)`` (Lemma 3.3).

    The algorithm explores neighborhoods to increasing depth.  Depth step ``t``
    costs one round of local flooding, after which the global minimum
    ``N_t = min_v |B_t(v)|`` is obtained via the virtual-tree aggregation of
    Lemma 4.4, charged as ``O(log^2 n)`` rounds per step (the tree construction
    of [GHSS17] is charged once; see DESIGN.md substitution note 1).
    Exploration stops at the first ``t`` with ``N_t >= k / t``; if the entire
    graph is explored first, ``NQ_k = D``.

    Each round floods only the *newly discovered* ball members as one
    id-native token plane
    (:meth:`~repro.simulator.network.HybridSimulator.local_send_plane` over a
    precomputed edge plane).  A node ``u`` enters ``v``'s ball in round
    ``hop(u, v)``, exactly as in a whole-ball flood, so per-node values, the
    global value and all round counts and charges are those of the original
    algorithm; the frontier flood never re-broadcasts known members, and a
    node whose ball has saturated sends nothing at all.
    """

    def __init__(self, simulator: HybridSimulator, k: float) -> None:
        super().__init__(simulator)
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = k
        self._per_node_nq: Dict[Node, int] = {}
        self._nq_value: int = 0

    # ------------------------------------------------------------------
    def phases(self):
        return (
            ("overlay", self._phase_overlay),
            ("explore", self._phase_explore),
        )

    def _phase_overlay(self) -> None:
        """One-time overlay construction used by the Lemma 4.4 aggregations."""
        sim = self.simulator
        log_n = log2_ceil(max(sim.n, 2))
        sim.charge_rounds(
            log_n * log_n,
            "virtual-tree overlay construction for basic aggregation",
            "Lemma 4.3 [GHSS17]",
        )

    # ------------------------------------------------------------------
    def _step_bookkeeping(
        self, t: int, known_balls: Dict[Node, Set[Node]]
    ) -> Optional[int]:
        """Shared per-step accounting: per-node thresholds, the charged
        Lemma 4.4 min-aggregation and the two termination conditions.
        Returns the final ``NQ_k`` when exploration should stop."""
        sim = self.simulator
        n = sim.n
        log_n = log2_ceil(max(n, 2))

        # Record per-node NQ_k(v) the first time the node's own ball passes
        # the threshold.
        for v in sim.nodes:
            if v not in self._per_node_nq and len(known_balls[v]) >= self.k / t:
                self._per_node_nq[v] = t

        # Global min-aggregation of |B_t(v)| (Lemma 4.4), charged.
        sim.charge_rounds(
            2 * log_n,
            f"min-aggregation of ball sizes at depth {t}",
            "Lemma 4.4",
        )
        min_ball = min(len(known_balls[v]) for v in sim.nodes)
        if min_ball >= self.k / t:
            return t
        if all(len(known_balls[v]) == n for v in sim.nodes):
            # Entire graph explored: NQ_k = D and t is now >= D.
            return t
        return None

    def _phase_explore(self) -> None:
        """Frontier-only flooding over the id-native plane engine: each node
        forwards the ball members it learned in the previous round, never its
        whole ball.

        The directed flood edges are precomputed once as index columns; every
        round selects the rows whose sender still has a non-empty frontier and
        submits them as one :class:`~repro.simulator.engine.TokenPlane` via
        ``local_send_plane`` (adjacency validated per unique edge with one
        array sweep, no per-token record objects).  Deliveries are folded
        straight from the plane's columns — the round's record buckets are
        never materialised.
        """
        sim = self.simulator
        nodes = sim.nodes
        indexer = sim.node_indexer()
        known_balls: List[Set[Node]] = [None] * sim.n  # type: ignore[list-item]
        frontier_of: List[Optional[frozenset]] = [None] * sim.n
        for v in nodes:
            i = indexer[v]
            known_balls[i] = {v}
            frontier_of[i] = frozenset((v,))
        # Directed flood edges (v -> u), grouped by sender in node order.
        edge_senders: List[int] = []
        edge_receivers: List[int] = []
        for v in nodes:
            i = indexer[v]
            for u in sim.neighbors(v):
                edge_senders.append(i)
                edge_receivers.append(indexer[u])
        edge_senders = np.asarray(edge_senders, dtype=np.int64)
        edge_receivers = np.asarray(edge_receivers, dtype=np.int64)

        balls_by_node = {v: known_balls[indexer[v]] for v in nodes}
        t = 0
        nq_value: Optional[int] = None
        max_steps = sim.n  # exploration can never exceed n-1 depth
        while t < max_steps:
            t += 1
            # One local round: every node forwards its newest discoveries.
            active = np.fromiter(
                (frontier_of[i] is not None for i in range(sim.n)),
                dtype=bool,
                count=sim.n,
            )
            keep = active[edge_senders]
            senders = edge_senders[keep]
            receivers = edge_receivers[keep]
            sender_list = senders.tolist()
            receiver_list = receivers.tolist()
            words_of = [0] * sim.n
            for i, frontier in enumerate(frontier_of):
                if frontier is not None:
                    words_of[i] = payload_words(frontier)
            payloads = [frontier_of[i] for i in sender_list]
            words = [words_of[i] for i in sender_list]
            sim.local_send_plane(
                TokenPlane(senders, receivers, words, payloads), None, "nq-explore"
            )
            sim.advance_round()
            # Fold deliveries from the plane columns (receiver u gets the
            # frontier its neighbor v sent this round).
            fresh_of: Dict[int, Set[Node]] = {}
            for position, receiver in enumerate(receiver_list):
                ball = known_balls[receiver]
                fresh = fresh_of.get(receiver)
                for u in payloads[position]:
                    if u not in ball:
                        if fresh is None:
                            fresh = fresh_of[receiver] = set()
                        fresh.add(u)
            next_frontiers: List[Optional[frozenset]] = [None] * sim.n
            for receiver, fresh in fresh_of.items():
                known_balls[receiver] |= fresh
                next_frontiers[receiver] = frozenset(fresh)
            frontier_of = next_frontiers

            nq_value = self._step_bookkeeping(t, balls_by_node)
            if nq_value is not None:
                break

        self._finalize(t if nq_value is None else nq_value, sim)

    def _finalize(self, nq_value: int, sim: HybridSimulator) -> None:
        self._nq_value = nq_value
        # Nodes whose threshold was never reached have NQ_k(v) = D; at this
        # point the exploration depth equals (an upper bound on) it.
        for v in sim.nodes:
            self._per_node_nq.setdefault(v, nq_value)

    def finish(self) -> NQResult:
        return NQResult(
            nq=self._nq_value,
            per_node=dict(self._per_node_nq),
            metrics=self.simulator.metrics,
        )
