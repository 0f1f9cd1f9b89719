"""The per-message throttled exchange (one ``global_send_to_node`` per token).

:func:`throttled_global_exchange` schedules an arbitrary batch of
:class:`GlobalTransfer` objects over as many rounds as the per-node global
budget requires, with the same greedy-FIFO rule as
:func:`oracles.scheduler.shard_transfers`, and re-estimates every payload
size on every scheduling attempt.  It is the slowest and most literal
formulation of the exchange, kept as an oracle for the plane engine.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict, deque
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.simulator.messages import payload_words
from repro.simulator.network import HybridSimulator

Node = Hashable


@dataclasses.dataclass(frozen=True)
class GlobalTransfer:
    """One point-to-point global message awaiting scheduling."""

    sender: Node
    receiver: Node
    payload: Any
    tag: Optional[str] = None

    @property
    def words(self) -> int:
        size = payload_words(self.payload)
        if self.tag is not None:
            size += payload_words(self.tag)
        return size


def throttled_global_exchange(
    simulator: HybridSimulator,
    transfers: Sequence[GlobalTransfer],
    *,
    max_rounds: Optional[int] = None,
) -> Dict[Node, List[Any]]:
    """Deliver all ``transfers`` over the global mode without exceeding capacity.

    Returns a mapping ``receiver -> list of payloads`` in delivery order.
    Raises ``RuntimeError`` if ``max_rounds`` is given and the schedule would
    exceed it.
    """
    budget = simulator.global_budget_words()
    pending: deque = deque(transfers)
    delivered: Dict[Node, List[Any]] = defaultdict(list)
    rounds_used = 0

    while pending:
        if max_rounds is not None and rounds_used >= max_rounds:
            raise RuntimeError(
                f"throttled exchange exceeded the allowed {max_rounds} rounds "
                f"with {len(pending)} transfers left"
            )
        sent_words: Dict[Node, int] = defaultdict(int)
        received_words: Dict[Node, int] = defaultdict(int)
        deferred: deque = deque()
        receivers_this_round: List[Tuple[Node, Optional[str]]] = []
        scheduled_any = False

        while pending:
            transfer = pending.popleft()
            words = transfer.words
            if (
                sent_words[transfer.sender] + words <= budget
                and received_words[transfer.receiver] + words <= budget
            ):
                simulator.global_send_to_node(
                    transfer.sender, transfer.receiver, transfer.payload, transfer.tag
                )
                sent_words[transfer.sender] += words
                received_words[transfer.receiver] += words
                receivers_this_round.append((transfer.receiver, transfer.tag))
                scheduled_any = True
            else:
                deferred.append(transfer)

        if not scheduled_any and deferred:
            # Every remaining transfer is individually larger than the budget;
            # force one through (the simulator flags the overload).
            transfer = deferred.popleft()
            simulator.global_send_to_node(
                transfer.sender, transfer.receiver, transfer.payload, transfer.tag
            )
            receivers_this_round.append((transfer.receiver, transfer.tag))

        simulator.advance_round()
        rounds_used += 1
        seen_receivers = {receiver for receiver, _ in receivers_this_round}
        for receiver in seen_receivers:
            for message in simulator.global_inbox(receiver):
                delivered[receiver].append(message.payload)
        pending = deferred

    return dict(delivered)
