"""Vectorised round engine: id-native token planes, the scheduler, and the phase driver.

Every algorithm moves its global-mode traffic through one congestion-limited
exchange, and this module is that exchange.  It strips the per-token Python
work out of the schedule/send/harvest cycle:

* :class:`TokenPlane` — the id-native workload representation.  A workload is
  parallel arrays of integer **node indices** (positions in the simulator's
  deterministic node order) and word counts, as ``int64`` vectors; payloads
  live in a side list that the scheduler never touches.
* :func:`plan_token_rounds` — the two-tier scheduler.  The **uncongested fast
  path** applies one grouped reduction per side (sent/received words per node);
  when every node fits the per-round budget the whole workload is a single
  shard — no greedy scanning at all, which is the common case for most phases.
  Congested workloads fall to a **vectorised greedy-FIFO** that resolves each
  round with a few whole-array *waves* (upper/lower prefix-sum bounds, see
  ``_admit_round_numpy``) and is schedule-identical, token for token, to the plain
  greedy scan kept as a test oracle (``tests/oracles/scheduler.py``;
  ``tests/properties/test_round_engine.py`` pins the equivalence and the round
  pins in ``tests/unit/test_round_regression.py`` hold bit-for-bit).
* :func:`batched_global_exchange` — runs the shards through the simulator's
  bulk id-native send path
  (:meth:`~repro.simulator.network.HybridSimulator.global_send_plane`) and
  harvests deliveries **directly from the per-shard buckets** — the full inbox
  dict is never rebuilt and never tag-filtered.  Each exchange stamps its
  records with a unique :class:`ExchangeTag` (the caller's documented ``tag``
  as the user-visible prefix plus an internal serial), so concurrent protocols
  sharing a receiver can no longer collide even for observers that read the
  raw inboxes.
* :class:`BatchAlgorithm` — the phase driver; :meth:`BatchAlgorithm.exchange`
  is the single exchange path of every algorithm.  The tuple and per-message
  exchanges it replaced live on as test oracles under ``tests/oracles/``.

Like the analytics index, the engine treats the simulated graph as **frozen**:
the simulator caches its node-index maps and adjacency id arrays on first use,
so mutating the graph mid-simulation is not detected — call
:meth:`~repro.simulator.network.HybridSimulator.invalidate_index` after a
deliberate mutation (mirroring :func:`repro.graphs.index.invalidate_index`).
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import defaultdict
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.simulator.errors import ChargeOnlyError, UnknownNodeError
from repro.simulator.messages import payload_words
from repro.simulator.network import HybridSimulator

Node = Hashable

__all__ = [
    "GlobalTriple",
    "TokenPlane",
    "ExchangeTag",
    "plan_token_rounds",
    "batched_global_exchange",
    "resilient_batched_global_exchange",
    "ResilientExchangeResult",
    "PhaseRecord",
    "BatchAlgorithm",
]

#: One unit of batch work: ``(sender, receiver, payload)``.
GlobalTriple = Tuple[Node, Node, Any]


# ----------------------------------------------------------------------
# Token planes
# ----------------------------------------------------------------------
class TokenPlane:
    """An id-native workload: parallel id arrays plus a payload column.

    ``senders[i]`` / ``receivers[i]`` are integer **node indices** — positions
    in the simulator's deterministic node order (see
    :meth:`HybridSimulator.node_indexer`) — and ``words[i]`` is the token's
    payload size in words (excluding any shared tag).  ``payloads[i]`` is the
    application object; the scheduler and the capacity accounting never touch
    it.  The three id/word columns are ``int64`` arrays.  ``payloads`` is a
    sequence — a list or a 1-D object ndarray — that is indexed and iterated
    but never truth-tested.

    ``payloads`` may be ``None``: a **charge-only** plane carries only the
    three columns.  Scheduling, capacity accounting, round counts and
    HYBRID_0 identifier learning are exact (none of them ever read a
    payload), but content-level operations — ``collect=True`` exchanges,
    inbox reads of the delivered traffic — raise
    :class:`~repro.simulator.errors.ChargeOnlyError`.

    The private ``_sender_rank``, if set, is each token's rank among its
    sender's tokens, read by the planner instead of a sender sort.  It is
    trusted: only Theorem 1's level builder sets it; no derived plane copies it.
    """

    __slots__ = ("senders", "receivers", "words", "payloads", "_sender_rank")

    def __init__(
        self, senders, receivers, words, payloads: Optional[Sequence[Any]] = None
    ) -> None:
        self.senders = np.asarray(senders, dtype=np.int64)
        self.receivers = np.asarray(receivers, dtype=np.int64)
        self.words = np.asarray(words, dtype=np.int64)
        self.payloads = payloads
        self._sender_rank = None

    def __len__(self) -> int:
        return len(self.senders)

    @classmethod
    def from_triples(
        cls, simulator: HybridSimulator, triples: Iterable[Tuple]
    ) -> "TokenPlane":
        """Resolve a tuple workload into a plane (nodes -> indices, sizes once).

        ``triples`` may mix ``(sender, receiver, payload)`` with
        ``(sender, receiver, payload, words)`` entries whose payload size the
        caller already knows.  Unknown nodes raise
        :class:`~repro.simulator.errors.UnknownNodeError` (before anything is
        queued — the plane path validates whole workloads up front).
        """
        index_of = simulator.node_indexer()
        senders: List[int] = []
        receivers: List[int] = []
        words: List[int] = []
        payloads: List[Any] = []
        try:
            for triple in triples:
                if len(triple) == 4:
                    sender, receiver, payload, size = triple
                else:
                    sender, receiver, payload = triple
                    size = payload_words(payload)
                senders.append(index_of[sender])
                receivers.append(index_of[receiver])
                words.append(size)
                payloads.append(payload)
        except KeyError as exc:
            raise UnknownNodeError(exc.args[0]) from None
        return cls(senders, receivers, words, payloads)


# ----------------------------------------------------------------------
# Two-tier scheduler
# ----------------------------------------------------------------------
#: Wave cap for the vectorised admitter: each wave is guaranteed to decide at
#: least the first undecided token, so the cap only bounds adversarial
#: workloads — the sequential tail resolver keeps the schedule exact beyond it.
_MAX_WAVES = 24

#: Below this many tokens the fixed cost of the NumPy machinery exceeds the
#: per-token cost of the plain greedy scan; tiny workloads (ubiquitous in
#: tests and per-level tree traffic) take :func:`_plan_rounds_python`.  Both
#: sides of the cutoff produce identical schedules.
_SMALL_WORKLOAD = 64


def _group_starts(group, order):
    """Boolean mask (in sorted order) marking the first token of each group."""
    sorted_group = group[order]
    starts = np.empty(order.size, dtype=bool)
    starts[0] = True
    starts[1:] = sorted_group[1:] != sorted_group[:-1]
    return starts


def _grouped_prefix(order, starts, weights):
    """Per-group inclusive prefix sums of ``weights``, in token order.

    ``order`` is a stable argsort of the group column and ``starts`` its
    :func:`_group_starts` mask; one cumulative sum plus a per-group offset
    (propagated with ``maximum.accumulate`` — the offsets are nondecreasing in
    sorted order) yields every token's running within-group total in a few C
    passes.
    """
    ws = weights[order]
    cs = np.cumsum(ws)
    base = np.where(starts, cs - ws, 0)
    np.maximum.accumulate(base, out=base)
    out = np.empty(order.size, dtype=np.int64)
    out[order] = cs - base
    return out


def _grouped_rank(order, starts):
    """Per-group 0-based FIFO ranks, in token order: a token's position in
    the stable ``order`` minus its group start (``starts`` is the group-start
    mask; ``maximum.accumulate`` propagates the nondecreasing starts)."""
    position = np.arange(order.size, dtype=np.int64)
    first = np.where(starts, position, 0)
    np.maximum.accumulate(first, out=first)
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = position - first
    return rank


def _column_rank(column):
    """:func:`_grouped_rank` grouped by ``column``, from one stable sort."""
    order = np.argsort(_narrow_sort_key(column), kind="stable")
    return _grouped_rank(order, _group_starts(column, order))


def _compress_order(order, keep):
    """Restrict a stable sorted-order array to the kept positions.

    ``order`` holds local indices in group-sorted order; ``keep`` is a boolean
    mask over local indices.  Filtering preserves both the grouping and the
    FIFO tie order, so the surviving subset never needs re-sorting — one of
    the two tricks (with the grouped prefix sums) that keeps the whole
    schedule at a handful of C passes per round instead of a sort per wave.
    """
    renumber = np.cumsum(keep) - 1
    return renumber[order[keep[order]]]


def _narrow_sort_key(arr):
    """An ``int16`` copy of a non-negative key column when its values fit.

    NumPy's stable argsort is a radix sort for 16-bit integers but a
    comparison sort for wider ones — an order of magnitude apart on the
    key sizes the planner sorts every round.  The returned array is only
    ever used as an argsort key; the caller keeps indexing the original.
    """
    if arr.size and int(arr.max()) < 32767:
        return arr.astype(np.int16)
    return arr


def _pair_order(senders, receivers):
    """Stable (sender, receiver) argsort as two narrow-key passes.

    Equivalent to ``np.argsort(senders * stride + receivers, kind="stable")``
    but sorts the two columns separately — receiver first, then sender on the
    receiver-sorted view; stability makes the composition the lexicographic
    order.  Each pass is an int16 radix sort whenever the column fits
    (:func:`_narrow_sort_key`), where the single wide-key sort is always a
    comparison sort.
    """
    first = np.argsort(_narrow_sort_key(receivers), kind="stable")
    second = np.argsort(_narrow_sort_key(senders[first]), kind="stable")
    return first[second]


def _pair_starts(senders, receivers, order):
    """:func:`_group_starts` for the (sender, receiver) pair key columns."""
    ps = senders[order]
    pr = receivers[order]
    starts = np.empty(order.size, dtype=bool)
    starts[0] = True
    starts[1:] = (ps[1:] != ps[:-1]) | (pr[1:] != pr[:-1])
    return starts


def _admit_round_numpy(sa, ra, wa, order_s, order_r, budget: int):
    """One greedy-FIFO round, resolved with compressed bound waves (exact).

    ``sa`` / ``ra`` / ``wa`` are the pending tokens of this round in FIFO
    order (tag words already folded into ``wa``) and ``order_s`` / ``order_r``
    their precomputed stable sorted orders.  Returns a boolean admission mask
    identical to the sequential greedy scan.  Each wave brackets every
    still-undecided token between two whole-array bounds:

    * *upper*: base (words of already-admitted earlier same-group tokens)
      plus the grouped prefix sum over the undecided tokens — an overcount of
      the greedy counters, so fitting under it proves admission;
    * *lower*: base plus the token's own words — an undercount, so
      overflowing it proves rejection.

    Decided tokens are then *compressed out*: their admitted words fold into
    the per-position bases and the next wave runs on the (much smaller)
    undecided residue only.  The first undecided token's bounds always
    coincide, so every wave decides at least one token and the loop
    terminates; ``_MAX_WAVES`` merely caps adversarial workloads before the
    sequential tail resolver finishes the residue exactly.
    """
    m = sa.size
    admitted = np.zeros(m, dtype=bool)
    active = np.arange(m, dtype=np.int64)
    base_s = np.zeros(m, dtype=np.int64)
    base_r = np.zeros(m, dtype=np.int64)
    for _ in range(_MAX_WAVES):
        starts_s = _group_starts(sa, order_s)
        starts_r = _group_starts(ra, order_r)
        upper_s = base_s + _grouped_prefix(order_s, starts_s, wa)
        upper_r = base_r + _grouped_prefix(order_r, starts_r, wa)
        ok = (upper_s <= budget) & (upper_r <= budget)
        if ok.all():
            admitted[active] = True
            return admitted
        admitted[active[ok]] = True
        # Fold this wave's admissions, then reject against the folded bases:
        # a token whose admitted-prefix alone overflows can never be admitted,
        # so the genuine flip candidates (rejected by the overcount, fitting
        # under the undercount) are all that survives into the next wave.
        ok_w = np.where(ok, wa, 0)
        adm_s = base_s + _grouped_prefix(order_s, starts_s, ok_w)
        adm_r = base_r + _grouped_prefix(order_r, starts_r, ok_w)
        undecided = ~ok & (adm_s + wa <= budget) & (adm_r + wa <= budget)
        if not undecided.any():
            return admitted
        base_s = adm_s[undecided]
        base_r = adm_r[undecided]
        order_s = _compress_order(order_s, undecided)
        order_r = _compress_order(order_r, undecided)
        active = active[undecided]
        sa = sa[undecided]
        ra = ra[undecided]
        wa = wa[undecided]

    # Sequential tail: exact greedy over the (rare) undecided residue, seeded
    # with the admitted-prefix bases the waves already established.
    extra_s: Dict[int, int] = {}
    extra_r: Dict[int, int] = {}
    for k in range(active.size):
        si = int(sa[k])
        ri = int(ra[k])
        wi = int(wa[k])
        if (
            int(base_s[k]) + extra_s.get(si, 0) + wi <= budget
            and int(base_r[k]) + extra_r.get(ri, 0) + wi <= budget
        ):
            admitted[int(active[k])] = True
            extra_s[si] = extra_s.get(si, 0) + wi
            extra_r[ri] = extra_r.get(ri, 0) + wi
    return admitted


def _pair_round_bounds(senders, receivers, per_round: int):
    """Static per-token lower bounds on the round a token can be admitted in.

    Within one (sender, receiver) pair of a uniform-word workload, tokens are
    admitted in FIFO order (identical constraints, equal words) and at most
    ``c = per_round = budget // words`` of them fit any single round (the
    sender's cap), so the token with static pair-rank ``q`` cannot move
    before round ``q // c`` — *whatever* the rest of the schedule does.  The
    round loop uses this to scan only the handful of currently-admissible
    tokens per round instead of the whole pending backlog.
    """
    order = _pair_order(senders, receivers)
    return _grouped_rank(order, _pair_starts(senders, receivers, order)) // per_round


def _split_rounds(rounds):
    """Round indices -> per-round position shards, FIFO within each round.

    ``rounds`` must occupy a gap-free ``0..max`` range (component schedules
    are each gap-free and share round 0, so their union is too).  Edges come
    from one count per round; the key is 1 byte while the last round is < 127.
    """
    counts = np.bincount(rounds)
    edges = [0, *np.cumsum(counts).tolist()]
    key = rounds.astype(np.int8) if counts.size <= 127 else _narrow_sort_key(rounds)
    by_round = np.argsort(key, kind="stable")
    return [by_round[edges[i] : edges[i + 1]] for i in range(counts.size)]


def _plan_rounds_uniform(senders, receivers, wt, budget: int, sender_rank=None):
    """Exact component decomposition for uniform-word workloads.

    Greedy-FIFO admission reads only a token's own sender and receiver
    counters, so sender/receiver-disjoint components schedule independently
    and the global schedule is their round-wise union.  Two components have
    closed forms:

    * a *clean* sender — sharing no receiver with any other sender — owns an
      isolated component in which no exclusive receiver's counter (a subset
      of the sender's own) can ever bind first, so the greedy scan admits
      exactly its first ``c = budget // words`` remaining tokens per round:
      round = ``sender_rank // c``;
    * when every sender talks to a single receiver (hot receivers), the
      mirror argument gives round = ``receiver_rank // c``.

    The residue — senders entangled through shared receivers — is planned by
    the bucketed round loop over its (typically tiny) token subset, and all
    component schedules interleave back in FIFO order per round.  A plane
    costs one stable sort of its senders (receivers when sender-exclusive),
    O(m) scatter/gather passes and the round split; ``sender_rank``, a
    plane's supplied rank column (see :class:`TokenPlane`), replaces the
    sender sort.  The caller guarantees uniform words with ``c >= 1``.
    """
    per_round = budget // int(wt[0])
    # ``owner[r]`` keeps the sender of *some* token to ``r``, whichever write
    # NumPy keeps: a receiver with one distinct sender matches on every token,
    # one with several mismatches on all but the kept sender's tokens.  So a
    # receiver is shared iff a token of it mismatches; ``target`` tests
    # sender-exclusivity the same way.
    owner = np.empty(int(receivers.max()) + 1, dtype=np.int64)
    owner[receivers] = senders
    mismatch = owner[receivers] != senders
    if not mismatch.any():
        # Every sender is clean: the whole workload is in closed form.
        rank = _column_rank(senders) if sender_rank is None else sender_rank
        return _split_rounds(rank // per_round)
    target = np.empty(int(senders.max()) + 1, dtype=np.int64)
    target[senders] = receivers
    if (target[senders] == receivers).all():
        # Sender-exclusive: only the receiver caps can bind.
        return _split_rounds(_column_rank(receivers) // per_round)
    shared = np.zeros(owner.size, dtype=bool)
    shared[receivers[mismatch]] = True
    entangled = np.zeros(target.size, dtype=bool)
    entangled[senders[shared[receivers]]] = True
    dirty = entangled[senders]
    if dirty.all():
        return _plan_rounds_bucketed(senders, receivers, wt, budget)
    # A sender is wholly clean or wholly entangled, so its rank over the
    # plane is its rank among the clean tokens: one sort ranks them all.
    rank = _column_rank(senders) if sender_rank is None else sender_rank
    rounds = rank // per_round
    didx = np.flatnonzero(dirty)
    sub = _plan_rounds_bucketed(senders[didx], receivers[didx], wt[didx], budget)
    for index, shard in enumerate(sub):
        rounds[didx[shard]] = index
    return _split_rounds(rounds)


def _plan_rounds_bucketed(senders, receivers, wt, budget: int):
    """Greedy-FIFO planning for uniform-word workloads, bucketed by bound.

    The static :func:`_pair_round_bounds` lower bounds, computed over the
    given tokens only, partition them into per-round admission buckets.  On
    the entangled residue of :func:`_plan_rounds_uniform` they equal the
    whole plane's bounds: a pair's tokens share one sender, so a pair is
    wholly in the residue or wholly out of it.  Deferred tokens are
    *re*-bucketed with a dynamic bound: a token left behind with ``j``
    same-pair tokens still ahead of it needs ``j + 1 <= c * (rounds
    elapsed)`` pair slots before it can move, so it cannot be admitted before
    round ``current + 1 + j // c`` — and in every earlier round the greedy
    scan provably rejects it (its unadmitted same-pair predecessor faces
    identical counters first, and rejections leave the counters untouched),
    so omitting it from those scans is exact.  Per-round work therefore
    scales with the tokens that can actually move this round instead of the
    whole eligible backlog, while the shard boundaries stay identical to the
    reference greedy scan.
    Every unadmitted token sits in a bucket no later than its true admission
    round (the bounds are valid), so the pending set always contains this
    round's reference admissions and in particular never runs dry.
    """
    per_round = budget // int(wt[0])
    min_round = _pair_round_bounds(senders, receivers, per_round)
    order = np.argsort(_narrow_sort_key(min_round), kind="stable")
    bounds_sorted = min_round[order]
    last_bound = int(bounds_sorted[-1])
    bucket_edges = np.searchsorted(bounds_sorted, np.arange(last_bound + 2))
    narrow = int(receivers.max()) < 32767 and int(senders.max()) < 32767
    key_type = np.int16 if narrow else np.int64
    buckets: Dict[int, list] = {}
    shards = []
    remaining = senders.size
    round_index = 0
    while remaining:
        chunks = buckets.pop(round_index, [])
        if round_index <= last_bound:
            fresh = order[bucket_edges[round_index] : bucket_edges[round_index + 1]]
            if fresh.size:
                chunks.append(fresh)
        if not chunks:
            # Unreachable (see docstring), kept as a liveness backstop: fold
            # every deferred bucket back in rather than spin on empty rounds.
            for deferred in buckets.values():
                chunks.extend(deferred)
            buckets.clear()
        if len(chunks) == 1:
            pending = chunks[0]
        else:
            pending = np.concatenate(chunks)
            pending.sort()
        es = senders[pending]
        er = receivers[pending]
        ew = wt[pending]
        order_s = np.argsort(es.astype(key_type, copy=False), kind="stable")
        order_r = np.argsort(er.astype(key_type, copy=False), kind="stable")
        admitted = _admit_round_numpy(es, er, ew, order_s, order_r, budget)
        if admitted.all():
            shards.append(pending)
            remaining -= pending.size
        else:
            # The forced-oversized branch of the reference scheduler is
            # unreachable here — one uniform token always fits a round, so the
            # FIFO-first pending token is always admitted (admitted.any()).
            shards.append(pending[admitted])
            remaining -= int(admitted.sum())
            rejected = ~admitted
            deferred = pending[rejected]
            ds = es[rejected]
            dr = er[rejected]
            porder = _pair_order(ds, dr)
            ahead = _grouped_rank(porder, _pair_starts(ds, dr, porder))
            extra = ahead // per_round
            depth = int(extra.max())
            if depth == 0:
                buckets.setdefault(round_index + 1, []).append(deferred)
            else:
                for gap in range(depth + 1):
                    chunk = deferred[extra == gap]
                    if chunk.size:
                        buckets.setdefault(round_index + 1 + gap, []).append(chunk)
        round_index += 1
    return shards


def _plan_rounds_numpy(senders, receivers, wt, budget: int, sender_rank=None):
    """Vectorised :func:`plan_token_rounds` body (``_SMALL_WORKLOAD`` tokens
    or more): one shard when every node's sent and received totals fit the
    budget (one grouped reduction per side, no greedy state); otherwise
    uniform-word workloads go to :func:`_plan_rounds_uniform`, with the
    plane's ``sender_rank`` if it has one, and mixed sizes to the dense
    compression loop below.
    """
    sent = np.bincount(senders, weights=wt, minlength=1)
    if sent.max() <= budget:
        recv = np.bincount(receivers, weights=wt, minlength=1)
        if recv.max() <= budget:
            return [np.arange(senders.size, dtype=np.int64)]
    w0 = int(wt[0])
    if int(wt.max()) == w0 == int(wt.min()) and budget // w0 > 0:
        return _plan_rounds_uniform(senders, receivers, wt, budget, sender_rank)
    shards = []
    positions = np.arange(senders.size, dtype=np.int64)
    s = senders
    r = receivers
    w = wt
    # The only sorts of the whole schedule: the pending orders are maintained
    # by order-preserving boolean compression from here on.
    order_s = np.argsort(s, kind="stable")
    order_r = np.argsort(r, kind="stable")
    while positions.size:
        admitted = _admit_round_numpy(s, r, w, order_s, order_r, budget)
        if admitted.any():
            shards.append(positions[admitted])
            deferred = ~admitted
        else:
            # Forced-oversized branch: exactly one token pushed through (the
            # first pending token; a single oversized message is the sender's
            # problem, and the simulator will flag it).
            shards.append(positions[:1])
            deferred = np.ones(positions.size, dtype=bool)
            deferred[0] = False
        if not deferred.any():
            break
        positions = positions[deferred]
        s = s[deferred]
        r = r[deferred]
        w = w[deferred]
        order_s = _compress_order(order_s, deferred)
        order_r = _compress_order(order_r, deferred)
    return shards


def _plan_rounds_python(senders, receivers, wt, budget: int):
    """Scalar :func:`plan_token_rounds` body (below ``_SMALL_WORKLOAD`` tokens).

    The same greedy-FIFO as the reference scan in ``tests/oracles/scheduler.py``,
    over flat int arrays and integer-keyed counters instead of token tuples
    and node-keyed defaultdicts.
    """
    shards = []
    pending = list(range(len(wt)))
    while pending:
        sent: Dict[int, int] = {}
        received: Dict[int, int] = {}
        shard: List[int] = []
        deferred: List[int] = []
        for i in pending:
            si = senders[i]
            w = wt[i]
            new_sent = sent.get(si, 0) + w
            if new_sent <= budget:
                ri = receivers[i]
                new_recv = received.get(ri, 0) + w
                if new_recv <= budget:
                    shard.append(i)
                    sent[si] = new_sent
                    received[ri] = new_recv
                    continue
            deferred.append(i)
        if not shard and deferred:
            shard.append(deferred.pop(0))
        shards.append(shard)
        pending = deferred
    return shards


def plan_token_rounds(
    plane: TokenPlane, budget: int, tag_words: int = 0
) -> List[Sequence[int]]:
    """Schedule ``plane`` into per-round shards of token *positions*.

    Two-tier: a workload whose per-node sent/received totals all fit ``budget``
    is one shard resolved by a single grouped reduction; congested workloads
    run the vectorised greedy-FIFO.  The shard boundaries are identical to
    reference greedy scan on the same token sequence (including
    the forced-oversized branch), so round counts never depend on which
    scheduler executed the workload.
    """
    m = len(plane)
    if m == 0:
        return []
    wt = plane.words + tag_words if tag_words else plane.words
    if m >= _SMALL_WORKLOAD:
        rank = plane._sender_rank
        return _plan_rounds_numpy(plane.senders, plane.receivers, wt, budget, rank)
    return _plan_rounds_python(
        plane.senders.tolist(), plane.receivers.tolist(), wt.tolist(), budget
    )


# ----------------------------------------------------------------------
# Exchange tags
# ----------------------------------------------------------------------
_EXCHANGE_SERIAL = itertools.count(1)


class ExchangeTag(str):
    """A collision-proof routing tag: user prefix plus a unique serial.

    Every :func:`batched_global_exchange` stamps its records with one of
    these, so two concurrent protocols that share both a receiver and a
    documented ``tag`` remain distinguishable in the raw inboxes (the
    historical foreign-traffic caveat).  The string value is
    ``"<prefix>#<serial>"`` (``"#<serial>"`` for ``tag=None``); equality and
    hashing are the full unique string.  The *charged* size is that of the
    user-visible prefix alone — the serial is engine bookkeeping, not protocol
    payload — via the ``payload_words_override`` hook in
    :func:`repro.simulator.messages.payload_words`, which keeps every round
    pin and word count identical to the tuple and per-message oracles.
    """

    prefix: Optional[str]
    payload_words_override: int

    def __new__(cls, prefix: Optional[str], serial: Optional[int] = None) -> "ExchangeTag":
        if serial is None:
            serial = next(_EXCHANGE_SERIAL)
        text = f"{prefix}#{serial}" if prefix is not None else f"#{serial}"
        tag = super().__new__(cls, text)
        tag.prefix = prefix
        tag.payload_words_override = payload_words(prefix) if prefix is not None else 0
        return tag


# ----------------------------------------------------------------------
# Exchanges
# ----------------------------------------------------------------------
def batched_global_exchange(
    simulator: HybridSimulator,
    triples: Union[TokenPlane, Iterable[Tuple]],
    *,
    tag: Optional[str] = None,
    collect: bool = True,
) -> Dict[Node, List[Any]]:
    """Deliver a workload over the global mode without exceeding capacity.

    The workload — a :class:`TokenPlane`, or any iterable of ``(sender, receiver, payload[,
    words])`` tuples, which is resolved into a plane once up front — is
    scheduled by :func:`plan_token_rounds` and each shard is submitted with one
    :meth:`~repro.simulator.network.HybridSimulator.global_send_plane` call and
    one ``advance_round``; a single-shard schedule sends the plane's own
    columns, with no position selection.  Deliveries are harvested **directly
    from the shard buckets** (receiver indices and payload positions the
    scheduler already holds) — the per-round inbox dict is never rebuilt and
    never tag-filtered, so unrelated traffic queued by the caller in the same
    rounds can never leak into the result, whatever tag it carries.  Records
    are stamped with a unique :class:`ExchangeTag` derived from ``tag``.
    Returns ``receiver -> [payloads in delivery order]`` — or ``{}`` without
    assembling anything when ``collect=False`` (several broadcast algorithms
    track delivery state themselves and ignore the result).

    A payload-free (charge-only) plane schedules, sends and accounts exactly
    like its payload twin, since the scheduler and the accounting read only
    the id/word columns; ``collect=True`` on one raises
    :class:`~repro.simulator.errors.ChargeOnlyError` rather than silently
    returning nothing.

    Under a fault schedule the result is what was *scheduled*: payloads the
    fault layer dropped are included.  Callers that need delivery use
    :func:`resilient_batched_global_exchange` or
    :meth:`~repro.simulator.network.HybridSimulator.delivered_plane_positions`.
    """
    plane = (
        triples
        if isinstance(triples, TokenPlane)
        else TokenPlane.from_triples(simulator, triples)
    )
    if collect and plane.payloads is None:
        raise ChargeOnlyError(
            "collect=True requires payloads; charge-only exchanges must pass "
            "collect=False (delivery state, if needed, is tracked by the caller)"
        )
    if not len(plane):
        return {}
    exchange_tag = ExchangeTag(tag)
    budget = simulator.global_budget_words()
    shards = plan_token_rounds(plane, budget, exchange_tag.payload_words_override)
    if len(shards) == 1 and len(shards[0]) == len(plane):
        # Uncongested: send the plane's own columns, with no position gather.
        shards = [None]
    nodes = simulator.nodes
    receivers = plane.receivers
    payloads = plane.payloads
    delivered: Dict[Node, List[Any]] = defaultdict(list)
    for shard in shards:
        simulator.global_send_plane(plane, shard, exchange_tag)
        simulator.advance_round()
        if collect:
            positions = range(len(plane)) if shard is None else np.asarray(shard).tolist()
            for position in positions:
                delivered[nodes[receivers[position]]].append(payloads[position])
    return dict(delivered)


# ----------------------------------------------------------------------
# Self-healing exchange (fault-tolerant delivery, see repro.simulator.faults)
# ----------------------------------------------------------------------
#: Most idle rounds the resilient exchange waits between attempts that made
#: no progress (the backoff doubles from 1 up to this cap).
_BACKOFF_CAP = 8


@dataclasses.dataclass
class ResilientExchangeResult:
    """Outcome of one :func:`resilient_batched_global_exchange`.

    ``delivered`` maps receivers to payloads in delivery order (first
    successful delivery only — retransmitted duplicates that both survive are
    deduplicated by plane position).  ``undelivered_positions`` are positions
    into the submitted plane whose tokens never got through within the attempt
    budget (e.g. endpoints crashed for the whole run); ``complete`` is true
    when everything was delivered.
    """

    delivered: Dict[Node, List[Any]]
    undelivered_positions: List[int]
    attempts: int
    retransmissions: int

    @property
    def complete(self) -> bool:
        return not self.undelivered_positions


def resilient_batched_global_exchange(
    simulator: HybridSimulator,
    triples: Union[TokenPlane, Iterable[Tuple]],
    *,
    tag: Optional[str] = None,
    max_attempts: int = 16,
    collect: bool = True,
) -> ResilientExchangeResult:
    """Ack-tracked delivery with retransmission under a fault schedule.

    The self-healing counterpart of :func:`batched_global_exchange`: the
    workload is scheduled and sent the same way, but after every round the
    positions actually delivered (the fault layer's survivors, read back via
    :meth:`~repro.simulator.network.HybridSimulator.delivered_plane_positions`)
    are treated as acks, and undelivered tokens are re-scheduled in the next
    *attempt*.  Each attempt

    * masks crashed endpoints out of the send/receive columns **before** the
      scheduler runs (a token to or from a currently-crashed node is deferred,
      not submitted — dead endpoints never waste budget), and
    * re-reads :meth:`~repro.simulator.network.HybridSimulator.
      global_budget_words`, so capacity-degradation windows are re-planned
      with the budget they impose.

    Attempts that make no progress idle-wait with **bounded exponential
    backoff in rounds** (1, 2, 4, ... up to ``_BACKOFF_CAP`` idle rounds
    between attempts), letting crash/degradation windows expire without
    hammering a dead network.  Every token submitted a second or later time is
    counted in :attr:`~repro.simulator.metrics.RoundMetrics.retransmissions`.

    Without a fault schedule every token is acked on its first attempt and the
    traffic pattern is identical to :func:`batched_global_exchange` (same
    scheduler, same budget, same shard submissions).  With one, delivery is
    guaranteed for every token whose endpoints are live-and-reachable often
    enough within ``max_attempts`` — tokens addressed to forever-crashed nodes
    come back in ``undelivered_positions`` instead of looping forever.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")
    plane = (
        triples
        if isinstance(triples, TokenPlane)
        else TokenPlane.from_triples(simulator, triples)
    )
    if collect and plane.payloads is None:
        # The ack channel (delivered_plane_positions) is position-based and
        # fully charge-only compatible; only payload harvest is impossible.
        raise ChargeOnlyError(
            "collect=True requires payloads; charge-only resilient exchanges "
            "must pass collect=False (acks and undelivered positions are "
            "still tracked exactly)"
        )
    total = len(plane)
    if not total:
        return ResilientExchangeResult({}, [], 0, 0)
    senders = plane.senders.tolist()
    receivers = plane.receivers.tolist()
    words = plane.words.tolist()
    payloads = plane.payloads
    nodes = simulator.nodes
    fault_state = simulator.fault_state
    metrics = simulator.metrics
    delivered: Dict[Node, List[Any]] = defaultdict(list)
    pending: List[int] = list(range(total))
    submitted_once: set = set()
    retransmitted = 0
    attempts = 0
    backoff = 1
    while pending and attempts < max_attempts:
        attempts += 1
        if fault_state is not None:
            crashed = fault_state.crashed_indices(simulator.round)
            sendable = [
                p
                for p in pending
                if senders[p] not in crashed and receivers[p] not in crashed
            ]
        else:
            sendable = pending
        progressed = False
        if sendable:
            resent = sum(1 for p in sendable if p in submitted_once)
            if resent:
                retransmitted += resent
                metrics.record_retransmissions(resent)
            submitted_once.update(sendable)
            attempt_plane = TokenPlane(
                [senders[p] for p in sendable],
                [receivers[p] for p in sendable],
                [words[p] for p in sendable],
                None if payloads is None else [payloads[p] for p in sendable],
            )
            attempt_tag = ExchangeTag(tag)
            budget = simulator.global_budget_words()
            shards = plan_token_rounds(
                attempt_plane, budget, attempt_tag.payload_words_override
            )
            acked: set = set()
            for shard in shards:
                simulator.global_send_plane(attempt_plane, shard, attempt_tag)
                simulator.advance_round()
                for sub_position in simulator.delivered_plane_positions(attempt_tag):
                    position = sendable[sub_position]
                    if position in acked:
                        continue
                    acked.add(position)
                    if collect:
                        delivered[nodes[receivers[position]]].append(
                            payloads[position]
                        )
            if acked:
                progressed = True
                pending = [p for p in pending if p not in acked]
        if not pending:
            break
        if progressed:
            backoff = 1
        elif attempts < max_attempts:
            simulator.advance_rounds(backoff)
            backoff = min(backoff * 2, _BACKOFF_CAP)
    return ResilientExchangeResult(
        delivered=dict(delivered),
        undelivered_positions=pending,
        attempts=attempts,
        retransmissions=retransmitted,
    )


@dataclasses.dataclass(frozen=True)
class PhaseRecord:
    """Round/message accounting of one driver phase (deltas, not totals).

    The three fault counters default to zero so fault-free phase logs (and
    expected records constructed in tests) are unchanged by the fault layer.
    """

    name: str
    measured_rounds: int
    charged_rounds: int
    global_messages: int
    local_messages: int
    dropped_messages: int = 0
    retransmissions: int = 0
    crashed_node_rounds: int = 0


class BatchAlgorithm:
    """Base class for algorithms driven as a sequence of batch phases.

    Subclasses implement :meth:`phases` — an ordered sequence of
    ``(name, callable)`` pairs, each moving whole rounds of traffic through
    :meth:`exchange` — and :meth:`finish`, which assembles the result object.
    :meth:`run` executes the phases in order and records a
    :class:`PhaseRecord` delta for each in :attr:`phase_log`.
    """

    def __init__(self, simulator: HybridSimulator) -> None:
        self.simulator = simulator
        self.phase_log: List[PhaseRecord] = []

    # ------------------------------------------------------------------
    def phases(self) -> Sequence[Tuple[str, Callable[[], None]]]:
        """Ordered (name, callable) pairs; override in subclasses."""
        raise NotImplementedError

    def finish(self) -> Any:
        """Assemble the algorithm's result after all phases ran; override."""
        raise NotImplementedError

    def run(self) -> Any:
        metrics = self.simulator.metrics
        for name, phase in self.phases():
            measured = metrics.measured_rounds
            charged = metrics.charged_rounds
            global_msgs = metrics.global_messages
            local_msgs = metrics.local_messages
            dropped = metrics.dropped_messages
            retransmitted = metrics.retransmissions
            crashed = metrics.crashed_node_rounds
            phase()
            self.phase_log.append(
                PhaseRecord(
                    name=name,
                    measured_rounds=metrics.measured_rounds - measured,
                    charged_rounds=metrics.charged_rounds - charged,
                    global_messages=metrics.global_messages - global_msgs,
                    local_messages=metrics.local_messages - local_msgs,
                    dropped_messages=metrics.dropped_messages - dropped,
                    retransmissions=metrics.retransmissions - retransmitted,
                    crashed_node_rounds=metrics.crashed_node_rounds - crashed,
                )
            )
        return self.finish()

    # ------------------------------------------------------------------
    def exchange(
        self,
        triples: Union[TokenPlane, Sequence[Tuple]],
        tag: Optional[str] = None,
        *,
        collect: bool = True,
    ) -> Dict[Node, List[Any]]:
        """Move a workload of tokens (a plane, or triples) over the global mode.

        Token-shards the workload over as many rounds as the per-node budget
        requires through :func:`batched_global_exchange`; the token order is
        the schedule order.  Algorithms that already hold id arrays should
        pass a :class:`TokenPlane`; tuple workloads are resolved into one
        internally.  Pass ``collect=False`` when the caller tracks deliveries
        itself and would discard the result dict — the harvest is then
        skipped entirely.  Under a fault schedule the result includes dropped
        payloads (see :func:`batched_global_exchange`); use
        :meth:`resilient_exchange` for delivery.
        """
        if not len(triples):
            return {}
        return batched_global_exchange(
            self.simulator, triples, tag=tag, collect=collect
        )

    def resilient_exchange(
        self,
        triples: Union[TokenPlane, Sequence[Tuple]],
        tag: Optional[str] = None,
        *,
        max_attempts: int = 16,
        collect: bool = True,
    ) -> ResilientExchangeResult:
        """Self-healing variant of :meth:`exchange`.

        Routes the workload through
        :func:`resilient_batched_global_exchange`: ack-tracked delivery with
        crashed-endpoint masking, per-attempt re-planning against the degraded
        budget, and bounded exponential backoff in idle rounds.
        """
        if not len(triples):
            return ResilientExchangeResult({}, [], 0, 0)
        return resilient_batched_global_exchange(
            self.simulator,
            triples,
            tag=tag,
            max_attempts=max_attempts,
            collect=collect,
        )
