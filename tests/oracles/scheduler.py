"""Reference greedy scheduler and the tuple-based exchange built on it.

:func:`shard_transfers` is the plain greedy-FIFO scan the production
scheduler (:func:`repro.simulator.engine.plan_token_rounds`) must reproduce
shard for shard.  :func:`reference_batched_global_exchange`
is the tuple exchange the plane engine replaced: it shards with
:func:`shard_transfers`, submits each shard with
:func:`oracles.transport.send_batch` and harvests by rebuilding the round's
inbox dict.  It runs on a simulator or on an
:class:`oracles.delivery.ReferenceNetwork`.  :func:`iter_triples` lowers a
:class:`~repro.simulator.engine.TokenPlane` into the tuple workload these
oracles consume, and :func:`rank_matched_triples` is the reference token
order of a rank-matched cluster-tree edge: the level planes of Theorem 1
(``KDissemination``) and Theorem 2 (``KAggregation``) must lower to it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.simulator.engine import TokenPlane
from repro.simulator.errors import ChargeOnlyError
from repro.simulator.messages import GLOBAL_MODE, payload_words
from repro.simulator.network import HybridSimulator

from oracles import transport

Node = Hashable

#: ``(sender, receiver, payload, payload_words)``.
Token = Tuple[Node, Node, Any, int]


def shard_transfers(
    tokens: Sequence[Token], budget: int, tag_words: int = 0
) -> Iterable[List[Token]]:
    """Yield per-round shards of ``tokens`` respecting the per-node ``budget``.

    Greedy FIFO: each round scans the remaining tokens in order and admits a
    token iff its sender and receiver both still have budget left (counting
    ``tag_words`` on top of each token's payload words).  If nothing fits —
    every remaining token is individually larger than the budget — exactly one
    oversized token is forced through.
    """
    pending: List[Token] = list(tokens)
    while pending:
        sent: Dict[Node, int] = defaultdict(int)
        received: Dict[Node, int] = defaultdict(int)
        shard: List[Token] = []
        deferred: List[Token] = []
        for token in pending:
            sender, receiver, _, words = token
            total = words + tag_words
            if sent[sender] + total <= budget and received[receiver] + total <= budget:
                shard.append(token)
                sent[sender] += total
                received[receiver] += total
            else:
                deferred.append(token)
        if not shard and deferred:
            shard.append(deferred.pop(0))
        yield shard
        pending = deferred


def rank_matched_triples(
    source_members: Sequence[Node],
    target_members: Sequence[Node],
    payloads: Sequence[Any],
    words_map: Optional[Dict[Any, int]] = None,
) -> List[Tuple]:
    """(sender, receiver, payload) triples between rank-matched cluster members.

    ``source_members`` / ``target_members`` are the id-sorted member lists of
    the two clusters.  Payloads are spread round-robin over the source members
    (mirroring the load-balanced state) and each source member sends only to
    its fixed rank-matched counterpart in the target cluster, exactly the pairs
    taught by :func:`match_cluster_tree_ids`.  When ``words_map`` (payload ->
    precomputed word count) is given, 4-tuples ``(sender, receiver, payload,
    words)`` are produced so the exchange skips re-estimating payload sizes.
    """
    if not payloads:
        return []
    n_source = len(source_members)
    n_target = len(target_members)
    triples: List[Tuple] = []
    for position, payload in enumerate(payloads):
        sender_rank = position % n_source
        sender = source_members[sender_rank]
        receiver = target_members[sender_rank % n_target]
        if words_map is None:
            triples.append((sender, receiver, payload))
        else:
            triples.append((sender, receiver, payload, words_map[payload]))
    return triples


def iter_triples(plane: TokenPlane, simulator: HybridSimulator) -> Iterable[Token]:
    """``plane`` as ``(sender, receiver, payload, words)`` tuples, in order.

    Payload-free (charge-only) planes cannot be lowered and raise
    :class:`~repro.simulator.errors.ChargeOnlyError`.
    """
    if plane.payloads is None:
        raise ChargeOnlyError(
            "charge-only planes carry no payloads and cannot be lowered "
            "to tuples; use the plane engine, or rebuild with payloads"
        )
    nodes = simulator.nodes
    for sender, receiver, payload, size in zip(
        plane.senders, plane.receivers, plane.payloads, plane.words
    ):
        yield (nodes[int(sender)], nodes[int(receiver)], payload, int(size))


def reference_batched_global_exchange(
    simulator: HybridSimulator,
    triples: Iterable[Tuple],
    *,
    tag: Optional[str] = None,
) -> Dict[Node, List[Any]]:
    """The tuple exchange: :func:`shard_transfers` plus inbox-dict harvest.

    ``triples`` mixes ``(sender, receiver, payload)`` and ``(sender, receiver,
    payload, words)`` entries.  Foreign traffic sharing both the tag and a
    receiver with a shard is indistinguishable from the exchange's own.
    """
    tokens: List[Token] = [
        triple
        if len(triple) == 4
        else (triple[0], triple[1], triple[2], payload_words(triple[2]))
        for triple in triples
    ]
    if not tokens:
        return {}
    tag_words = payload_words(tag) if tag is not None else 0
    budget = simulator.global_budget_words()
    delivered: Dict[Node, List[Any]] = defaultdict(list)
    for shard in shard_transfers(tokens, budget, tag_words):
        transport.send_batch(simulator, shard, tag)
        simulator.advance_round()
        inbox = simulator.per_node_inbox(GLOBAL_MODE)
        for receiver in {token[1] for token in shard}:
            payloads = [record[1] for record in inbox.get(receiver, ()) if record[2] == tag]
            if payloads:
                delivered[receiver].extend(payloads)
    return dict(delivered)
