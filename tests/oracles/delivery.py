"""A pure-Python model of the simulator's round, one record per token.

:class:`ReferenceNetwork` stands in for
:class:`~repro.simulator.network.HybridSimulator` wherever a test drives
traffic through ``global_send_plane`` / ``local_send_plane`` (directly or via
the :mod:`oracles.transport` adapter), ``advance_round`` and
``per_node_inbox``.  It keeps each queued token as a plain ``(sender,
receiver, payload, tag, words)`` record and runs the round the way the
simulator's per-message code used to, with none of the grouped counters,
array sweeps, keep-masks or pair-key stores the simulator uses:

* **capacity sweep** — per-node send and receive word totals against the
  budget of the round (node-wide degradation included) and each node's own
  degraded budget under a node-scoped window; overloads are counted, and in
  strict mode the error names the lowest-indexed offender (send side first);
* **fault filter** — per record: a crashed sender or receiver, then a failed
  link (local mode only), then one drop draw per record that survived both;
  global mode first, then local, records in submission order;
* **identifier learning** — in HYBRID_0 each receiver learns the identifier
  of every sender whose record reached it, kept as plain per-node sets.

Sends validate two things: the per-edge local limit, and, in HYBRID_0, that
each global sender already knows its receiver's identifier (its own set,
declared identifiers included).  A send that names an unknown identifier
raises :class:`~repro.simulator.errors.UnknownIdentifierError` at its
earliest offending token and queues nothing; every send is checked against
the sets alone, whatever was sent before.  Node membership and adjacency are
not validated: feed the model node indices and local pairs the simulator
accepts.  Permanent link-failure commits (graph mutations) are not modelled,
and payload-free planes are not supported.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Set, Tuple

import networkx as nx

from repro.simulator.config import IdentifierRegime, ModelConfig
from repro.simulator.errors import (
    CapacityExceededError,
    LocalBandwidthExceededError,
    RoundLifecycleError,
    UnknownIdentifierError,
)
from repro.simulator.faults import FaultSchedule, FaultState
from repro.simulator.messages import GLOBAL_MODE, LOCAL_MODE, payload_words
from repro.simulator.metrics import RoundMetrics
from repro.simulator.network import HybridSimulator

Node = Hashable

#: ``(sender index, receiver index, payload, tag, words with the tag)``.
Record = Tuple[int, int, Any, Optional[str], int]


class ReferenceNetwork:
    """Record-level model of a :class:`HybridSimulator` (same constructor).

    Static facts — the node order, identifiers, neighbours and the budget
    formula — come from a fault-free twin simulator built from the same
    arguments; everything that happens in a round is computed here.
    """

    def __init__(
        self,
        graph: nx.Graph,
        config: Optional[ModelConfig] = None,
        *,
        seed: Optional[int] = None,
        capacity_multiplier: int = 1,
        enforce_receive_capacity: bool = False,
        fault_schedule: Optional[FaultSchedule] = None,
    ) -> None:
        twin = HybridSimulator(graph, config, seed=seed)
        self.config = twin.config
        self.n = twin.n
        self.nodes = twin.nodes
        self.node_index = twin.node_index
        self.node_of_id = twin.node_of_id
        self.all_ids = twin.all_ids
        self.neighbors = twin.neighbors
        self.capacity_multiplier = capacity_multiplier
        self.enforce_receive_capacity = enforce_receive_capacity
        self.fault_state = (
            FaultState(fault_schedule, self.n)
            if fault_schedule is not None and not fault_schedule.is_empty()
            else None
        )
        self.metrics = RoundMetrics()
        self.round = 0
        self._ids = [twin.id_of(node) for node in self.nodes]
        if self.config.identifier_regime is IdentifierRegime.DENSE:
            self._known: Optional[List[Set[int]]] = None
        else:
            self._known = [
                {self._ids[i]} | {twin.id_of(u) for u in self.neighbors(node)}
                for i, node in enumerate(self.nodes)
            ]
        self._pending: Dict[str, List[Record]] = {GLOBAL_MODE: [], LOCAL_MODE: []}
        self._delivered: Optional[Dict[str, List[Record]]] = None

    # ------------------------------------------------------------------
    # Sends
    # ------------------------------------------------------------------
    def global_budget_words(self) -> int:
        base = self.config.resolve_global_word_budget(self.n) * self.capacity_multiplier
        if self.fault_state is not None:
            return self.fault_state.degraded_budget(base, self.round)
        return base

    def _queue(self, plane, positions, tag, mode) -> List[Record]:
        tag_words = payload_words(tag) if tag is not None else 0
        if positions is None:
            positions = range(len(plane.senders))
        records = [
            (
                int(plane.senders[p]),
                int(plane.receivers[p]),
                plane.payloads[p],
                tag,
                int(plane.words[p]) + tag_words,
            )
            for p in positions
        ]
        if mode == GLOBAL_MODE and self._known is not None:
            for sender, receiver, *_ in records:
                if self._ids[receiver] not in self._known[sender]:
                    raise UnknownIdentifierError(
                        f"node {self.nodes[sender]!r} does not know "
                        f"identifier {self._ids[receiver]!r}"
                    )
        return records

    def global_send_plane(self, plane, positions=None, tag=None) -> int:
        records = self._queue(plane, positions, tag, GLOBAL_MODE)
        self._pending[GLOBAL_MODE].extend(records)
        return len(records)

    def local_send_plane(self, plane, positions=None, tag=None) -> int:
        records = self._queue(plane, positions, tag, LOCAL_MODE)
        limit = self.config.resolve_local_word_limit()
        if limit is not None:
            oversized = [record for record in records if record[4] > limit]
            if oversized and self.config.strict:
                raise LocalBandwidthExceededError(
                    f"local message exceeds per-edge budget of {limit} words"
                )
            for _ in oversized:
                self.metrics.record_violation()
        self._pending[LOCAL_MODE].extend(records)
        return len(records)

    # ------------------------------------------------------------------
    # The round
    # ------------------------------------------------------------------
    def advance_round(self) -> None:
        pending = self._pending
        metrics = self.metrics
        if self.config.global_mode_enabled():
            try:
                self._sweep(pending[GLOBAL_MODE])
            except CapacityExceededError:
                # A strict error voids the round: its traffic is discarded.
                self._pending = {GLOBAL_MODE: [], LOCAL_MODE: []}
                raise
        for mode, record_bulk in (
            (LOCAL_MODE, metrics.record_local_bulk),
            (GLOBAL_MODE, metrics.record_global_bulk),
        ):
            records = pending[mode]
            record_bulk(len(records), sum(record[4] for record in records))
        if self.fault_state is not None:
            pending = self._filter(pending)
        if self._known is not None:
            for sender, receiver, *_ in pending[GLOBAL_MODE]:
                self._known[receiver].add(self._ids[sender])
        self._delivered = pending
        self._pending = {GLOBAL_MODE: [], LOCAL_MODE: []}
        self.round += 1
        metrics.record_round()

    def _sweep(self, records: List[Record]) -> None:
        budget = self.global_budget_words()
        factors = (
            self.fault_state.node_capacity_factors(self.round)
            if self.fault_state is not None
            else {}
        )
        sent: Dict[int, int] = {}
        received: Dict[int, int] = {}
        for sender, receiver, _, _, words in records:
            sent[sender] = sent.get(sender, 0) + words
            received[receiver] = received.get(receiver, 0) + words
        strict = self.config.strict
        for verb, totals, enforce in (
            ("sent", sent, strict),
            ("received", received, strict and self.enforce_receive_capacity),
        ):
            offenders = []
            for index in sorted(totals):
                words = totals[index]
                self.metrics.record_node_round_load(words)
                node_budget = budget
                if index in factors:
                    node_budget = max(1, int(budget * factors[index]))
                if words > node_budget:
                    offenders.append((index, words, node_budget))
            if offenders and enforce:
                self.metrics.record_violation()
                index, words, node_budget = offenders[0]
                raise CapacityExceededError(
                    f"node {self.nodes[index]!r} {verb} {words} global words in "
                    f"round {self.round}, budget is {node_budget}"
                )
            for _ in offenders:
                self.metrics.record_violation()

    def _filter(self, pending: Dict[str, List[Record]]) -> Dict[str, List[Record]]:
        state = self.fault_state
        crashed = state.crashed_indices(self.round)
        if crashed:
            self.metrics.record_crashed_nodes(len(crashed))
        failed = state.failed_edge_keys(self.round)
        kept: Dict[str, List[Record]] = {}
        dropped = 0
        for mode in (GLOBAL_MODE, LOCAL_MODE):
            rate = state.drop_rate(mode)
            rng = state.round_rng(self.round, mode) if rate > 0.0 else None
            kept[mode] = []
            for record in pending[mode]:
                sender, receiver = record[0], record[1]
                if (
                    sender in crashed
                    or receiver in crashed
                    or (mode == LOCAL_MODE and sender * self.n + receiver in failed)
                    or (rng is not None and rng.random() < rate)
                ):
                    dropped += 1
                else:
                    kept[mode].append(record)
        if dropped:
            self.metrics.record_dropped(dropped)
        return kept

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def per_node_inbox(self, mode: str = GLOBAL_MODE) -> Dict[Node, List[Tuple]]:
        """``receiver -> [(sender, payload, tag, words), ...]`` of the last round."""
        if self._delivered is None:
            raise RoundLifecycleError("no round has been delivered yet")
        inbox: Dict[Node, List[Tuple]] = {}
        nodes = self.nodes
        for sender, receiver, payload, tag, words in self._delivered[mode]:
            inbox.setdefault(nodes[receiver], []).append(
                (nodes[sender], payload, tag, words)
            )
        return inbox

    def declare_learned_ids(self, node: Node, identifiers) -> None:
        if self._known is not None:
            self._known[self.node_index(node)].update(identifiers)

    def known_ids(self, node: Node) -> Set[int]:
        if self._known is None:
            return set(self._ids)
        return set(self._known[self.node_index(node)])
