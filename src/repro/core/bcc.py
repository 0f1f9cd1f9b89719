"""Simulating the Broadcast Congested Clique in HYBRID (Corollary 2.1).

The Broadcast Congested Clique (BCC) is the distributed model in which, every
round, each node broadcasts one O(log n)-bit message to the entire network.
Corollary 2.1 of the paper: one BCC round can be simulated in eO(NQ_n) rounds
of HYBRID_0 (run Theorem 1 with the n per-node broadcast values as the tokens),
and this is universally optimal — eOmega(NQ_n) HYBRID rounds are necessary by
the Theorem 4 lower bound with k = n.

:class:`BCCSimulator` exposes exactly that: callers provide per-node O(log n)-
bit values round by round, each ``simulate_round`` call runs a k-dissemination
instance (physically simulated + charged, like Theorem 1 itself) and returns
the full message vector every node now knows.  This is the building block that
lets the many known BCC algorithms (Section 2.1 "Application") run unchanged on
a HYBRID network.

:class:`BCCBroadcast` is the batch-native pipeline for a whole *schedule* of
BCC rounds: a :class:`~repro.simulator.engine.BatchAlgorithm` that evaluates
``NQ_n`` and the Lemma 3.5 clustering once and reuses them across every
simulated round (one :class:`~repro.core.dissemination.KDissemination`
instance per round, all riding the batch messaging engine; round counts are
pinned by ``tests/unit/test_round_regression.py``).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Hashable, List, Optional, Sequence

from repro.core.clustering import Clustering, distributed_nq_clustering
from repro.core.dissemination import KDissemination
from repro.core.neighborhood_quality import neighborhood_quality
from repro.lowerbounds.universal import UniversalLowerBound, bcc_simulation_lower_bound
from repro.simulator.engine import BatchAlgorithm
from repro.simulator.metrics import RoundMetrics
from repro.simulator.network import HybridSimulator

Node = Hashable

__all__ = ["BCCRoundResult", "BCCSimulator", "BCCBroadcast", "BCCBroadcastResult"]


@dataclasses.dataclass
class BCCRoundResult:
    """Outcome of one simulated BCC round."""

    broadcasts: Dict[Node, Any]
    received: Dict[Node, Dict[Node, Any]]
    rounds_used: int

    def all_nodes_received_everything(self) -> bool:
        expected = dict(self.broadcasts)
        return all(view == expected for view in self.received.values())


def _run_bcc_round(
    simulator: HybridSimulator,
    broadcasts: Dict[Node, Any],
    *,
    nq: int,
    clustering: Optional[Clustering] = None,
) -> BCCRoundResult:
    """One Corollary 2.1 round: Theorem 1 with the n broadcast values as tokens."""
    node_set = set(simulator.nodes)
    if set(broadcasts) != node_set:
        raise ValueError("broadcasts must contain exactly one value per node")
    rounds_before = simulator.metrics.total_rounds
    tokens = {
        node: [("bcc", simulator.id_of(node), value)]
        for node, value in broadcasts.items()
    }
    result = KDissemination(simulator, tokens, nq=nq, clustering=clustering).run()
    node_of_id = {token[1]: node for node, (token,) in tokens.items()}
    received: Dict[Node, Dict[Node, Any]] = {}
    for node, known in result.known_tokens.items():
        view: Dict[Node, Any] = {}
        for token in known:
            if isinstance(token, tuple) and len(token) == 3 and token[0] == "bcc":
                view[node_of_id[token[1]]] = token[2]
        received[node] = view
    return BCCRoundResult(
        broadcasts=dict(broadcasts),
        received=received,
        rounds_used=simulator.metrics.total_rounds - rounds_before,
    )


class BCCSimulator:
    """Simulate Broadcast Congested Clique rounds on a HYBRID network.

    Parameters
    ----------
    simulator: the underlying HYBRID / HYBRID_0 network.
    nq_hint: ``NQ_n`` if already known (avoids recomputation per round).
    """

    def __init__(
        self,
        simulator: HybridSimulator,
        *,
        nq_hint: Optional[int] = None,
    ) -> None:
        self.simulator = simulator
        self.nq = nq_hint if nq_hint is not None else neighborhood_quality(
            simulator.graph, simulator.n
        )
        self.rounds_simulated = 0

    def lower_bound(self) -> UniversalLowerBound:
        """Corollary 2.1's eOmega(NQ_n) lower bound, evaluated on this graph."""
        return bcc_simulation_lower_bound(self.simulator.graph)

    def simulate_round(self, broadcasts: Dict[Node, Any]) -> BCCRoundResult:
        """Simulate one BCC round in which each node broadcasts one value.

        ``broadcasts`` must contain exactly one value per node.  Returns every
        node's received message vector; the cost appears on the underlying
        simulator's metrics (one Theorem 1 instance with ``k = n`` tokens).
        """
        result = _run_bcc_round(self.simulator, broadcasts, nq=self.nq)
        self.rounds_simulated += 1
        return result

    @property
    def metrics(self) -> RoundMetrics:
        return self.simulator.metrics


@dataclasses.dataclass
class BCCBroadcastResult:
    """Outcome of a pipelined multi-round BCC simulation."""

    rounds: List[BCCRoundResult]
    nq: int
    metrics: RoundMetrics

    def all_rounds_complete(self) -> bool:
        return all(r.all_nodes_received_everything() for r in self.rounds)


class BCCBroadcast(BatchAlgorithm):
    """Corollary 2.1, pipelined: simulate a whole schedule of BCC rounds.

    Unlike repeated :meth:`BCCSimulator.simulate_round` calls — which rebuild
    the Lemma 3.5 clustering inside every Theorem 1 instance — this driver
    evaluates ``NQ_n`` once, builds the clustering once (charged once), and
    reuses both across all rounds of the schedule.  ``schedule`` is a sequence
    of per-round broadcast mappings, each containing exactly one value per
    node.
    """

    def __init__(
        self,
        simulator: HybridSimulator,
        schedule: Sequence[Dict[Node, Any]],
        *,
        nq_hint: Optional[int] = None,
    ) -> None:
        super().__init__(simulator)
        if not schedule:
            raise ValueError("schedule must contain at least one BCC round")
        node_set = set(simulator.nodes)
        self.schedule = [dict(broadcasts) for broadcasts in schedule]
        for broadcasts in self.schedule:
            if set(broadcasts) != node_set:
                raise ValueError("broadcasts must contain exactly one value per node")
        self._nq_hint = nq_hint
        self.nq = 0
        self.clustering: Optional[Clustering] = None
        self._results: List[BCCRoundResult] = []

    def phases(self):
        rounds = tuple(
            (f"bcc-round-{i}", self._make_round_phase(i))
            for i in range(len(self.schedule))
        )
        return (("parameters", self._phase_parameters),) + rounds

    def _phase_parameters(self) -> None:
        sim = self.simulator
        self._results = []  # a re-run recomputes the schedule, not appends to it
        nq = self._nq_hint
        if nq is None:
            nq = neighborhood_quality(sim.graph, sim.n)
        self.nq = max(1, nq)
        self.clustering = distributed_nq_clustering(sim, sim.n, nq=self.nq)

    def _make_round_phase(self, position: int):
        def _run() -> None:
            self._results.append(
                _run_bcc_round(
                    self.simulator,
                    self.schedule[position],
                    nq=self.nq,
                    clustering=self.clustering,
                )
            )

        return _run

    def finish(self) -> BCCBroadcastResult:
        return BCCBroadcastResult(
            rounds=self._results, nq=self.nq, metrics=self.simulator.metrics
        )
