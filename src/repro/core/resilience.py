"""Fault-tolerant dissemination on top of the self-healing exchange.

:class:`~repro.core.dissemination.KDissemination` implements the paper's
Theorem 1 under its fault-free synchronous assumptions; this module provides
the robustness counterpart for the fault-injection layer
(:mod:`repro.simulator.faults`): :class:`ResilientDissemination` completes
token dissemination under any fault schedule that leaves the surviving nodes
connected (the global mode connects every live pair) and eventually stable
(no crash/recovery or degradation window opens after the schedule's
:meth:`~repro.simulator.faults.FaultSchedule.horizon`; persistent drop
*rates* are fine — retransmission outlasts them).

The protocol is a deliberately simple epoch loop — a robustness baseline, not
a round-optimal algorithm (faults void the NQ_k analysis Theorem 1 rests on):

1. **Collect** — every live holder sends its tokens to a coordinator (the
   lowest live node index) through the ack-tracked
   :meth:`~repro.simulator.engine.BatchAlgorithm.resilient_exchange`.
2. **Broadcast** — the coordinator sends every collected token each live node
   is still missing, again resiliently.
3. **Converge check** — once past the schedule horizon, the run is complete
   when every live node knows every token any live node knows *and* every
   live holder's tokens (a fixpoint: knowledge has equalised across the live
   set).  Before the horizon the loop keeps cycling — a node that crashes
   mid-epoch simply gets its missing tokens again in a later epoch, possibly
   from a different coordinator if the previous one died.

Tokens whose every holder is crashed for good before ever reaching a live
node are unreachable by any protocol; the fixpoint deliberately excludes dead
holders, so such runs still converge (``complete=True`` over the reachable
set) while :meth:`ResilientDisseminationResult.all_live_nodes_know_all_tokens`
reports the shortfall against the full workload.  Runs that cannot even
equalise — e.g. a drop rate too high for the attempt budget — exhaust
``max_epochs`` and come back ``complete=False``.  Everything is a
deterministic function of ``(simulator seed, fault schedule)`` — reruns are
byte-identical, which the fault property suite pins.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, FrozenSet, Hashable, List, Sequence, Set, Tuple

from repro.simulator.engine import BatchAlgorithm
from repro.simulator.messages import payload_words
from repro.simulator.metrics import RoundMetrics
from repro.simulator.network import HybridSimulator

Node = Hashable

__all__ = ["ResilientDisseminationResult", "ResilientDissemination"]


@dataclasses.dataclass
class ResilientDisseminationResult:
    """Outcome of a resilient dissemination run.

    ``known_tokens`` maps every node to the tokens it actually received
    (crashed nodes keep whatever they got before crashing); ``live_nodes``
    are the nodes not crashed in the final round.  ``complete`` reports the
    converged fixpoint described in the module docstring.  ``removed_edges``
    lists the edges that permanent link failures committed as real deletions
    during the run (in commit order; empty without ``permanent=True``
    failures) — the graph the caller passed in has genuinely churned, and
    follow-up dissemination/APSP runs on it see the committed topology.
    """

    tokens: Set[Any]
    known_tokens: Dict[Node, FrozenSet[Any]]
    live_nodes: List[Node]
    epochs: int
    complete: bool
    metrics: RoundMetrics
    removed_edges: List[Tuple[Node, Node]] = dataclasses.field(default_factory=list)

    def all_live_nodes_know_all_tokens(self) -> bool:
        """Whether every live node knows every token of the whole workload."""
        target = frozenset(self.tokens)
        return all(
            target <= self.known_tokens[node] for node in self.live_nodes
        )


class ResilientDissemination(BatchAlgorithm):
    """Epoch-looped collect/broadcast dissemination surviving a fault schedule.

    Designed for the dense identifier regime
    (``ModelConfig.hybrid()``), where any live pair can exchange global
    messages — under HYBRID_0 the coordinator would additionally need to
    learn identifiers, which the fault model does not currently replicate.
    """

    def __init__(
        self,
        simulator: HybridSimulator,
        tokens_by_node: Dict[Node, Sequence[Any]],
        *,
        max_epochs: int = 32,
        max_attempts: int = 16,
    ) -> None:
        super().__init__(simulator)
        if max_epochs < 1:
            raise ValueError("max_epochs must be at least 1")
        node_set = set(simulator.nodes)
        self.tokens_by_node: Dict[Node, List[Any]] = {
            node: list(tokens) for node, tokens in tokens_by_node.items() if tokens
        }
        for node in self.tokens_by_node:
            if node not in node_set:
                raise KeyError(f"token holder {node!r} is not a node of the network")
        self.max_epochs = max_epochs
        self.max_attempts = max_attempts
        self.all_tokens: Set[Any] = set()
        for tokens in self.tokens_by_node.values():
            self.all_tokens.update(tokens)
        self.epochs = 0
        self.complete = False
        self._known: List[Set[Any]] = []
        self._live: List[int] = []

    # ------------------------------------------------------------------
    def phases(self) -> Sequence[Tuple[str, Any]]:
        return (("resilient-dissemination", self._phase_disseminate),)

    # ------------------------------------------------------------------
    def _live_indices(self) -> List[int]:
        fault_state = self.simulator.fault_state
        if fault_state is None:
            return list(range(self.simulator.n))
        crashed = fault_state.crashed_indices(self.simulator.round)
        return [index for index in range(self.simulator.n) if index not in crashed]

    def _converged(self, live: List[int], holder_index: Dict[int, List[Any]]) -> bool:
        """The live-set knowledge fixpoint (see the module docstring)."""
        known = self._known
        needed: Set[Any] = set()
        for index in live:
            needed |= known[index]
            tokens = holder_index.get(index)
            if tokens:
                needed.update(tokens)
        return all(needed <= known[index] for index in live)

    def _phase_disseminate(self) -> None:
        sim = self.simulator
        nodes = sim.nodes
        indexer = sim.node_indexer()
        fault_state = sim.fault_state
        horizon = (
            sim.fault_schedule.horizon() if fault_state is not None else 0
        )
        known: List[Set[Any]] = [set() for _ in range(sim.n)]
        holder_index: Dict[int, List[Any]] = {}
        for node, tokens in self.tokens_by_node.items():
            index = indexer[node]
            holder_index[index] = tokens
            known[index].update(tokens)
        self._known = known
        if not self.all_tokens:
            self.complete = True
            self._live = self._live_indices()
            return
        # Each distinct token is sized once; the exchanges get 4-tuples.
        size = {token: payload_words(token) for token in self.all_tokens}
        while self.epochs < self.max_epochs:
            self.epochs += 1
            live = self._live_indices()
            if not live:
                # Everybody is down; wait a round for somebody to recover.
                sim.advance_round()
                continue
            coordinator = live[0]
            live_set = set(live)
            sent_anything = False
            # Collect: live holders push what the coordinator is missing.
            collect: List[Tuple[Node, Node, Any, int]] = []
            for index in live:
                if index == coordinator:
                    continue
                tokens = holder_index.get(index)
                if not tokens:
                    continue
                for token in tokens:
                    if token not in known[coordinator]:
                        collect.append(
                            (nodes[index], nodes[coordinator], token, size[token])
                        )
            if collect:
                sent_anything = True
                result = self.resilient_exchange(
                    collect, "rdis-collect", max_attempts=self.max_attempts
                )
                for payloads in result.delivered.values():
                    known[coordinator].update(payloads)
            # Broadcast: the coordinator fills every live node's gaps.
            broadcast: List[Tuple[Node, Node, Any, int]] = []
            coordinator_node = nodes[coordinator]
            for index in live:
                if index == coordinator:
                    continue
                missing = known[coordinator] - known[index]
                for token in sorted(missing, key=str):
                    broadcast.append(
                        (coordinator_node, nodes[index], token, size[token])
                    )
            if broadcast:
                sent_anything = True
                result = self.resilient_exchange(
                    broadcast, "rdis-bcast", max_attempts=self.max_attempts
                )
                for receiver, payloads in result.delivered.items():
                    known[indexer[receiver]].update(payloads)
            stable = fault_state is None or sim.round > horizon
            if stable:
                live = self._live_indices()
                if set(live) == live_set or not sent_anything:
                    if self._converged(live, holder_index):
                        self.complete = True
                        self._live = live
                        return
            if not sent_anything:
                # Nothing to move but not converged/stable yet: let the
                # schedule's remaining windows play out.
                sim.advance_round()
        self._live = self._live_indices()
        self.complete = self._converged(self._live, holder_index)

    # ------------------------------------------------------------------
    def finish(self) -> ResilientDisseminationResult:
        sim = self.simulator
        nodes = sim.nodes
        return ResilientDisseminationResult(
            tokens=set(self.all_tokens),
            known_tokens={
                nodes[index]: frozenset(self._known[index])
                for index in range(sim.n)
            }
            if self._known
            else {node: frozenset() for node in nodes},
            live_nodes=[nodes[index] for index in self._live],
            epochs=self.epochs,
            complete=self.complete,
            metrics=sim.metrics,
            removed_edges=list(sim.committed_link_removals),
        )
