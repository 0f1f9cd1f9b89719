"""Label-addressed sends over the plane path, and the per-message exchange.

The simulator has one send path: token planes addressed by node index.  The
free functions here are the lowering adapter tests and oracles use instead:

* :func:`send` (one message), :func:`send_batch` (a list of ``(sender,
  receiver, payload)`` or ``(sender, receiver, payload, words)`` tuples,
  receivers given as identifiers with ``by_id=True``), :func:`broadcast`
  (one local message to every neighbour) and :func:`send_ids` (index
  columns).  Each call maps labels to node indices, sizes payloads with
  :func:`~repro.simulator.messages.payload_words` when no size is given, and
  queues **one** plane with ``global_send_plane`` / ``local_send_plane``.  A
  call therefore validates its whole workload before queueing anything.
* :func:`inbox` reads the last round back as :class:`Message` lists built
  from ``per_node_inbox`` (local messages first when no mode is given).

Any object with the simulator's plane sends, ``advance_round``,
``per_node_inbox``, ``round``, ``node_index``, ``node_of_id`` and
``neighbors`` can be driven this way; :class:`oracles.delivery.ReferenceNetwork`
is the other one.

:func:`throttled_global_exchange` schedules an arbitrary batch of
:class:`GlobalTransfer` objects over as many rounds as the per-node global
budget requires, with the same greedy-FIFO rule as
:func:`oracles.scheduler.shard_transfers`, sends one :func:`send` per token
and re-estimates every payload size on every scheduling attempt.  It is the
slowest and most literal formulation of the exchange, kept as an oracle for
the plane engine.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict, deque
from typing import Any, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.simulator.engine import TokenPlane
from repro.simulator.messages import GLOBAL_MODE, LOCAL_MODE, payload_words

Node = Hashable

_PLANE_SEND = {GLOBAL_MODE: "global_send_plane", LOCAL_MODE: "local_send_plane"}


@dataclasses.dataclass(frozen=True)
class Message:
    """One delivered message, as :func:`inbox` reports it.

    ``receiver`` is the node whose inbox holds the message, ``mode`` is
    ``"local"`` or ``"global"``, and ``round_sent`` is the round during which
    the message was submitted.
    """

    sender: Hashable
    receiver: Hashable
    payload: Any
    mode: str
    tag: Optional[str] = None
    round_sent: int = 0

    @property
    def words(self) -> int:
        """Size of the message in O(log n)-bit words (tag included)."""
        size = payload_words(self.payload)
        if self.tag is not None:
            size += payload_words(self.tag)
        return size


def send_ids(
    simulator,
    senders: Sequence[int],
    receivers: Sequence[int],
    payloads: Sequence[Any],
    words: Optional[Sequence[int]] = None,
    tag: Optional[str] = None,
    *,
    mode: str = GLOBAL_MODE,
) -> int:
    """Queue index-addressed columns as one plane; return the count queued."""
    if words is None:
        words = [payload_words(payload) for payload in payloads]
    plane = TokenPlane(senders, receivers, words, list(payloads))
    return getattr(simulator, _PLANE_SEND[mode])(plane, None, tag)


def send_batch(
    simulator,
    triples: Iterable[Tuple],
    tag: Optional[str] = None,
    *,
    mode: str = GLOBAL_MODE,
    by_id: bool = False,
) -> int:
    """Queue label-addressed tuples as one plane; return the count queued.

    An unknown sender or receiver raises
    :class:`~repro.simulator.errors.UnknownNodeError` (an unknown identifier
    too, with ``by_id``) before anything is queued.
    """
    senders: List[int] = []
    receivers: List[int] = []
    words: List[int] = []
    payloads: List[Any] = []
    for triple in triples:
        sender, receiver, payload = triple[:3]
        if by_id:
            receiver = simulator.node_of_id(receiver)
        senders.append(simulator.node_index(sender))
        receivers.append(simulator.node_index(receiver))
        words.append(triple[3] if len(triple) == 4 else payload_words(payload))
        payloads.append(payload)
    return send_ids(simulator, senders, receivers, payloads, words, tag, mode=mode)


def send(
    simulator,
    sender: Node,
    receiver: Node,
    payload: Any,
    tag: Optional[str] = None,
    *,
    mode: str = GLOBAL_MODE,
    by_id: bool = False,
) -> int:
    """Queue one message (a one-token plane)."""
    return send_batch(simulator, ((sender, receiver, payload),), tag, mode=mode, by_id=by_id)


def broadcast(simulator, sender: Node, payload: Any, tag: Optional[str] = None) -> int:
    """Queue ``payload`` from ``sender`` to every neighbour over the local mode."""
    words = payload_words(payload)
    return send_batch(
        simulator,
        [(sender, neighbor, payload, words) for neighbor in simulator.neighbors(sender)],
        tag,
        mode=LOCAL_MODE,
    )


def inbox(simulator, node: Node, mode: Optional[str] = None) -> List[Message]:
    """Messages delivered to ``node`` in the last round.

    ``mode=None`` returns the local messages, then the global ones.  Raises
    :class:`~repro.simulator.errors.RoundLifecycleError` before the first
    round and :class:`~repro.simulator.errors.UnknownNodeError` for a node
    outside the graph.
    """
    modes = (LOCAL_MODE, GLOBAL_MODE) if mode is None else (mode,)
    delivered = [(m, simulator.per_node_inbox(m)) for m in modes]
    simulator.node_index(node)
    round_sent = simulator.round - 1
    return [
        Message(sender, node, payload, m, tag, round_sent)
        for m, records in delivered
        for sender, payload, tag, _ in records.get(node, ())
    ]


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
    simulator,
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
                send(simulator, transfer.sender, transfer.receiver, transfer.payload, transfer.tag)
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
            send(simulator, transfer.sender, transfer.receiver, transfer.payload, transfer.tag)
            receivers_this_round.append((transfer.receiver, transfer.tag))

        simulator.advance_round()
        rounds_used += 1
        seen_receivers = {receiver for receiver, _ in receivers_this_round}
        for receiver in seen_receivers:
            for message in inbox(simulator, receiver, GLOBAL_MODE):
                delivered[receiver].append(message.payload)
        pending = deferred

    return dict(delivered)
