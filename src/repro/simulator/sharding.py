"""Sharded multi-core round scheduling with a deterministic merge.

The single-process two-tier scheduler (:func:`repro.simulator.engine.
plan_token_rounds`) is exact but serial: every congested exchange plans its
whole token plane on one core.  This module partitions a plane into
**node-disjoint** position buckets, plans each bucket independently — on a
persistent ``multiprocessing`` pool over shared-memory NumPy columns when
available, sequentially in-process otherwise — and merges the per-bucket
schedules back into one schedule that is **token-for-token identical** to the
single-process reference (and hence to the greedy scan in
``tests/oracles/scheduler.py``, the repo's standing oracle).

Why per-bucket planning is exact
--------------------------------
The greedy-FIFO admits a token iff its sender's sent-counter and its
receiver's received-counter still fit the budget.  Sent- and received-
counters are *separate* per node, so the conflict structure is the bipartite
graph with one vertex per sender role and one per receiver role and one edge
per distinct (sender, receiver) pair.  Partitioning tokens by the connected
components of that graph (union-find over the distinct pairs) means no two
buckets ever touch the same counter: the greedy's admission decision for a
token depends only on tokens of its own component.

Rounds also stay aligned across buckets: at the start of every round all
counters are zero, so the first pending token of every component is always
admitted — **provided no token is individually oversized** (``words +
tag_words > budget``).  Each component therefore admits at least one token
per round until it drains, which makes "bucket-local round r" equal "global
round r restricted to the bucket".  Because the greedy preserves submission
order, every global shard lists its tokens in ascending plane position — so
merging the buckets' round-``r`` shards in ascending position order
reconstructs the global shard exactly.  Workloads containing *any*
individually-oversized token fall back to the single-process planner (the
forced-oversized branch is a global condition that can couple components);
the oversized property tests pass through that fallback unchanged.

Determinism
-----------
Every choice is a pure function of the plane and the worker count: components
are keyed by their smallest bipartite vertex, ordered by (descending token
count, ascending first position), and assigned to the least-loaded bucket
(ties to the lowest bucket index) via a heap.  Worker processes only compute
— the merge order is fixed by plane positions, so scheduling is bit-identical
whether buckets ran in-process, on 2 workers, or on 7.

Process execution
-----------------
The process path lays the (senders, receivers, words-with-tag, positions)
columns into one shared-memory ``int64`` block per plan call; workers attach
read-only, plan their bucket with the engine's own ``_plan_rounds_numpy``,
and return position arrays.  The pool is persistent (created lazily, reused
across plan calls, ``close()``/context-manager to dispose) and any pool
failure degrades permanently to in-process planning for the planner's
lifetime — never to a different schedule.  Under ``REPRO_NO_NUMPY=1`` (or a
monkeypatched ``_accel.np``) the whole path is sequential pure Python over
the same partition, preserving identity on the fallback backend.

``REPRO_SHARD_WORKERS=k`` (k >= 2) installs a planner process-wide for every
exchange via :func:`planner_from_env` (resolved lazily by
:func:`repro.simulator.engine.installed_planner`).

Shared worker-pool service
--------------------------
Planners do not own pools.  :class:`WorkerPoolService` holds the one
persistent process pool of the whole simulator process; planners (and the
delivery engine, below) acquire refcounted leases from
:func:`shared_pool_service` and release them on ``close()`` or garbage
collection, so re-installing planners never stacks up idle pools, and an
``atexit`` hook disposes whatever is still alive at interpreter exit.  The
shared-memory blocks themselves stay per-call, parent-owned and unlinked in
a ``finally`` — a leaked planner can never leak a block.

Sharded delivery
----------------
:class:`ShardedDelivery` extends the same machinery from planning to
``advance_round``'s delivery stages: fault keep-masks over the plane
columns, grouped per-node capacity reductions, the round capacity sweep,
and the sparse-regime learning-key filter.  Unlike scheduling — which needs
the component partition — every delivery stage is either token-elementwise
or an exact reduce-then-merge (integer word weights summed in float64 are
exact below 2^53), so ascending contiguous spans partition the work and the
span-order merge reproduces the serial arrays **bit-identically** for every
worker count, with or without the process pool (see DESIGN.md, "Sharded
delivery").
"""

from __future__ import annotations

import atexit
import heapq
import weakref
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.simulator import _accel
from repro.simulator.config import resolve_shard_workers

__all__ = [
    "ShardedPlanner",
    "ShardedDelivery",
    "WorkerPoolService",
    "planner_from_env",
    "shared_pool_service",
    "token_components",
    "assign_buckets",
    "merge_round_schedules",
]

#: Pool dispatch failures that demote a planner to in-process execution.
_POOL_ERRORS = (OSError, ImportError, ValueError)


# ----------------------------------------------------------------------
# The shared worker-pool service
# ----------------------------------------------------------------------
class WorkerPoolService:
    """One persistent process pool, leased to planners and delivery engines.

    The pool is created lazily on the first dispatch (``fork`` start method
    when available) and disposed when the last lease is released — or at
    interpreter exit via the ``atexit`` hook registered by
    :func:`shared_pool_service`.  ``close()`` is idempotent and never breaks
    the service: a later dispatch simply re-creates the pool.  The service
    keeps no per-call state; shared-memory blocks are owned by the caller.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = int(workers)
        self._pool: Optional[Any] = None
        self._refs = 0

    # -- leases --------------------------------------------------------
    @property
    def refs(self) -> int:
        return self._refs

    @property
    def pool_alive(self) -> bool:
        return self._pool is not None

    def acquire(self) -> "WorkerPoolService":
        self._refs += 1
        return self

    def release(self) -> None:
        """Drop one lease; the last release disposes the pool (the service
        object itself stays reusable)."""
        self._refs -= 1
        if self._refs <= 0:
            self._refs = 0
            self.close()

    def grow(self, workers: int) -> None:
        """Raise the pool size (disposing a smaller live pool, if any)."""
        if workers > self.workers:
            self.workers = int(workers)
            self.close()

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Dispose of the pool processes (idempotent)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()

    # -- dispatch ------------------------------------------------------
    def _ensure_pool(self):
        pool = self._pool
        if pool is None:
            import multiprocessing

            methods = multiprocessing.get_all_start_methods()
            method = "fork" if "fork" in methods else None
            context = multiprocessing.get_context(method)
            # Forked workers inherit the parent's resource tracker: their
            # block attachments must NOT be unregistered child-side (the
            # parent's unlink dedupes the one shared cache entry).  Spawned
            # workers have private trackers and must unregister, or each
            # worker exit would try to unlink the parent-owned block.
            pool = self._pool = context.Pool(
                processes=self.workers,
                initializer=_set_tracker_shared,
                initargs=(method == "fork",),
            )
        return pool

    def apply_async(self, func, args):
        return self._ensure_pool().apply_async(func, args)


_shared_service: Optional[WorkerPoolService] = None
_atexit_registered = False


def _shutdown_shared_service() -> None:  # pragma: no cover - exit hook
    service = _shared_service
    if service is not None:
        service.close()


def shared_pool_service(workers: int) -> WorkerPoolService:
    """Acquire a lease on the process-wide pool service (creating or growing
    it as needed).  Callers must :meth:`~WorkerPoolService.release` the
    returned lease exactly once."""
    global _shared_service, _atexit_registered
    service = _shared_service
    if service is None:
        service = _shared_service = WorkerPoolService(workers)
        if not _atexit_registered:
            atexit.register(_shutdown_shared_service)
            _atexit_registered = True
    else:
        service.grow(workers)
    return service.acquire()


class _ServiceLease:
    """A release-once handle on a :class:`WorkerPoolService` reference.

    Both an explicit ``close()`` and the holder's ``weakref.finalize`` route
    through :meth:`release`, which forwards to the service exactly once —
    so close-then-GC never double-releases the refcount.
    """

    __slots__ = ("service",)

    def __init__(self, service: WorkerPoolService) -> None:
        self.service: Optional[WorkerPoolService] = service

    def release(self) -> None:
        service, self.service = self.service, None
        if service is not None:
            service.release()


# ----------------------------------------------------------------------
# Partition: bipartite components -> deterministic buckets
# ----------------------------------------------------------------------
def token_components(senders, receivers) -> List[int]:
    """Component label per token (a plain list; labels are root vertex keys).

    Union-find over the distinct (sender, receiver) pairs of the bipartite
    role graph: sender node ``s`` is vertex ``2 * s``, receiver node ``r`` is
    vertex ``2 * r + 1`` (a node's sender and receiver counters are
    independent, so the two roles must not be conflated).  Tokens sharing a
    component share at least one greedy counter transitively; tokens in
    different components provably never interact.
    """
    np = _accel.np
    if np is not None and isinstance(senders, np.ndarray):
        span = int(max(int(senders.max()), int(receivers.max()))) + 1
        pair_keys = np.unique(senders * span + receivers)
        pair_list = [(int(key) // span, int(key) % span) for key in pair_keys]
        sender_column = senders.tolist()
    else:
        pair_list = sorted(set(zip(senders, receivers)))
        sender_column = senders
    parent: Dict[int, int] = {}

    def find(vertex: int) -> int:
        root = vertex
        while parent[root] != root:
            root = parent[root]
        while parent[vertex] != root:  # path compression
            parent[vertex], vertex = root, parent[vertex]
        return root

    for s, r in pair_list:
        a, b = 2 * s, 2 * r + 1
        if a not in parent:
            parent[a] = a
        if b not in parent:
            parent[b] = b
        ra, rb = find(a), find(b)
        if ra != rb:
            if ra < rb:  # smallest vertex key wins: deterministic labels
                parent[rb] = ra
            else:
                parent[ra] = rb
    return [find(2 * s) for s in sender_column]


def assign_buckets(labels: Sequence[int], workers: int) -> List[List[int]]:
    """Group component labels into at most ``workers`` position buckets.

    Components are ordered by (descending size, ascending first position) and
    greedily placed on the least-loaded bucket, ties to the lowest bucket
    index — the classic LPT balance, made deterministic.  Each bucket's
    positions are returned in ascending order (the order the per-bucket
    planners and the merge both rely on).  Buckets that received nothing are
    dropped.
    """
    positions_by_label: Dict[int, List[int]] = {}
    for position, label in enumerate(labels):
        positions_by_label.setdefault(label, []).append(position)
    components = sorted(
        positions_by_label.values(), key=lambda ps: (-len(ps), ps[0])
    )
    heap = [(0, index) for index in range(max(1, workers))]
    buckets: List[List[int]] = [[] for _ in range(max(1, workers))]
    for positions in components:
        load, index = heapq.heappop(heap)
        buckets[index].extend(positions)
        heapq.heappush(heap, (load + len(positions), index))
    return [sorted(bucket) for bucket in buckets if bucket]


def merge_round_schedules(schedules: List[List[Any]]) -> List[Any]:
    """Merge per-bucket schedules round-by-round in ascending position order.

    ``schedules[b][r]`` holds bucket ``b``'s global plane positions admitted
    in round ``r``.  Because buckets are node-disjoint and gap-free (every
    bucket admits at least one token per round until it drains), the global
    round-``r`` shard is exactly the ascending-position union of the buckets'
    round-``r`` shards.
    """
    np = _accel.np
    depth = max((len(schedule) for schedule in schedules), default=0)
    merged: List[Any] = []
    for r in range(depth):
        chunks = [
            schedule[r]
            for schedule in schedules
            if r < len(schedule) and len(schedule[r])
        ]
        if np is not None and chunks and isinstance(chunks[0], np.ndarray):
            shard = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
            merged.append(np.sort(shard))
        else:
            flat: List[int] = []
            for chunk in chunks:
                flat.extend(chunk)
            flat.sort()
            merged.append(flat)
    return merged


# ----------------------------------------------------------------------
# Worker-side tasks (top level: picklable by reference)
# ----------------------------------------------------------------------
#: Set by the pool initializer in workers: ``True`` when this worker shares
#: the parent's resource tracker (fork start method).
_tracker_shared = False


def _set_tracker_shared(flag: bool) -> None:
    global _tracker_shared
    _tracker_shared = bool(flag)


def _attach_block(shm_name: str):
    """Attach a parent-owned shared-memory block (workers never unlink)."""
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=shm_name)
    if not _tracker_shared:
        try:
            # A private (spawn-style) resource tracker would unlink the
            # parent-owned block when this worker exits; drop the
            # registration the attach just made.
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:
            pass
    return shm


def _plan_bucket_worker(
    shm_name: str, total: int, offset: int, length: int, budget: int
):
    """Plan one bucket from the shared-memory columns (runs in a worker).

    The block layout is ``[senders | receivers | wt | positions...]`` with
    the three column segments ``total`` long and this bucket's positions at
    ``[offset, offset + length)``.  Returned shards are position arrays
    copied out of the (parent-owned, parent-unlinked) block.
    """
    from repro.simulator.engine import _plan_rounds_numpy

    np = _accel.np
    shm = _attach_block(shm_name)
    try:
        block = np.ndarray((shm.size // 8,), dtype=np.int64, buffer=shm.buf)
        positions = block[offset : offset + length].copy()
        senders = block[0:total][positions]
        receivers = block[total : 2 * total][positions]
        wt = block[2 * total : 3 * total][positions]
        del block
        shards = _plan_rounds_numpy(np, senders, receivers, wt, budget)
        return [positions[shard] for shard in shards]
    finally:
        shm.close()


def isin_sorted(np, values, table):
    """Vectorised membership of ``values`` in a **sorted** int64 ``table``."""
    if not len(table):
        return np.zeros(len(values), dtype=bool)
    slots = np.searchsorted(table, values)
    slots[slots == len(table)] = 0
    return table[slots] == values


def span_keep_mask(np, senders, receivers, crashed, failed, n: int):
    """Crash/edge keep-mask over one span of plane tokens.

    ``crashed`` / ``failed`` are sorted int64 arrays (crashed node indices,
    directed ``u * n + v`` failed-edge keys).  Pure elementwise — the mask of
    a span equals the span of the whole-column mask, so any contiguous
    partition concatenates back bit-identically.  Drop draws are *not* taken
    here: the RNG consumes one draw per crash/edge survivor in ascending
    token order, which the caller applies serially after the merge.
    """
    keep = np.ones(len(senders), dtype=bool)
    if len(crashed):
        keep &= ~isin_sorted(np, senders, crashed)
        keep &= ~isin_sorted(np, receivers, crashed)
    if len(failed):
        keep &= ~isin_sorted(np, senders * n + receivers, failed)
    return keep


def _keep_mask_worker(shm_name: str, m: int, c: int, f: int, lo: int, hi: int, n: int):
    """Keep-mask for the token span ``[lo, hi)`` (runs in a worker).

    Block layout: ``[senders(m) | receivers(m) | crashed(c) | failed(f)]``.
    """
    np = _accel.np
    shm = _attach_block(shm_name)
    try:
        block = np.ndarray((2 * m + c + f,), dtype=np.int64, buffer=shm.buf)
        return span_keep_mask(
            np,
            block[lo:hi],
            block[m + lo : m + hi],
            block[2 * m : 2 * m + c],
            block[2 * m + c :],
            n,
        )
    finally:
        shm.close()


def span_counters(np, senders, receivers, wt):
    """Grouped per-node word sums of one span, compressed.

    Returns ``(sent_nodes, sent_sums, recv_nodes, recv_sums)`` — the distinct
    node indices of each role with their word totals.  Scatter-adding the
    spans into the round's counter arrays in any order equals one whole-shard
    ``bincount``: word weights are integers, so every partial sum is an
    exactly-representable float64 and addition is exact.
    """
    sent_nodes, sent_inverse = np.unique(senders, return_inverse=True)
    sent_sums = np.bincount(sent_inverse, weights=wt)
    recv_nodes, recv_inverse = np.unique(receivers, return_inverse=True)
    recv_sums = np.bincount(recv_inverse, weights=wt)
    return sent_nodes, sent_sums, recv_nodes, recv_sums


def _counter_span_worker(shm_name: str, m: int, lo: int, hi: int):
    """Grouped counters for the token span ``[lo, hi)`` (runs in a worker).

    Block layout: ``[senders(m) | receivers(m) | wt(m)]``.
    """
    np = _accel.np
    shm = _attach_block(shm_name)
    try:
        block = np.ndarray((3 * m,), dtype=np.int64, buffer=shm.buf)
        return span_counters(
            np, block[lo:hi], block[m + lo : m + hi], block[2 * m + lo : 2 * m + hi]
        )
    finally:
        shm.close()


def _sweep_range_worker(shm_name: str, n: int, lo: int, hi: int, budget: int):
    """Capacity-sweep summary of the node range ``[lo, hi)`` (in a worker).

    Block layout: ``[sent(n) | recv(n)]`` as float64.  Returns, per
    direction, ``(range_max, over_budget_count, first_over_index or -1)`` —
    everything the serial sweep derives from the whole arrays, merged by
    max / sum / min respectively.
    """
    np = _accel.np
    shm = _attach_block(shm_name)
    try:
        block = np.ndarray((2 * n,), dtype=np.float64, buffer=shm.buf)
        summary = []
        for base in (0, n):
            span = block[base + lo : base + hi]
            over = np.flatnonzero(span > budget)
            summary.append(
                (
                    float(span.max()) if span.size else 0.0,
                    int(over.size),
                    int(over[0]) + lo if over.size else -1,
                )
            )
        return summary
    finally:
        shm.close()


def filter_fresh_keys(np, keys, levels):
    """Order-preserving filter of ``keys`` against sorted ``levels``.

    The span-parallel twin of the knowledge store's filter
    (``KnowledgeTracker.pairs.unknown``, the ``a * n + b`` pair keys of
    learned identifiers): filtering a span equals the span of the
    whole-column filter, so concatenating span results in ascending span
    order reproduces the serial candidate stream exactly.
    """
    filtered = False
    for level in levels:
        if len(level) and len(keys):
            slots = np.searchsorted(level, keys)
            slots[slots == len(level)] = 0
            keys = keys[level[slots] != keys]
            filtered = True
    return keys if filtered else np.array(keys, dtype=np.int64)


def _fresh_keys_worker(shm_name: str, k: int, l1: int, l2: int, lo: int, hi: int):
    """Store-filter the key span ``[lo, hi)`` (runs in a worker).

    Block layout: ``[keys(k) | level1(l1) | level2(l2)]``.
    """
    np = _accel.np
    shm = _attach_block(shm_name)
    try:
        block = np.ndarray((k + l1 + l2,), dtype=np.int64, buffer=shm.buf)
        return filter_fresh_keys(
            np,
            block[lo:hi],
            (block[k : k + l1], block[k + l1 : k + l1 + l2]),
        )
    finally:
        shm.close()


# ----------------------------------------------------------------------
# The planner
# ----------------------------------------------------------------------
class ShardedPlanner:
    """Plan token planes over node-disjoint buckets, optionally on a pool.

    Drop-in for :func:`~repro.simulator.engine.plan_token_rounds` — install
    process-wide with :func:`repro.simulator.engine.install_planner` (or
    ``REPRO_SHARD_WORKERS``) or call :meth:`plan` directly.  Schedules are
    bit-identical to the single-process planner for every worker count (see
    the module docstring for the argument and
    ``tests/properties/test_sharded_engine.py`` for the pins).

    Parameters
    ----------
    workers: bucket / pool size; ``None`` reads ``REPRO_SHARD_WORKERS``.
    use_processes: ``True`` forces the pool for every sharded plan, ``False``
        keeps all planning in-process (the property grids use this), and
        ``None`` (default) uses the pool only for workloads of at least
        ``process_min_tokens`` tokens — below that the fork/IPC overhead
        dwarfs the planning itself.
    min_tokens: workloads smaller than this skip partitioning entirely and
        delegate to the single-process planner.
    pool_service: an explicit :class:`WorkerPoolService` to lease from;
        ``None`` (default) leases the process-wide shared service on first
        pool use.  The planner never owns the pool — ``close()`` (or garbage
        collection) releases the lease, and the pool survives as long as any
        other planner or delivery engine still holds one.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        use_processes: Optional[bool] = None,
        min_tokens: int = 256,
        process_min_tokens: int = 4096,
        pool_service: Optional[WorkerPoolService] = None,
    ) -> None:
        self.workers = resolve_shard_workers() if workers is None else int(workers)
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        self.use_processes = use_processes
        self.min_tokens = int(min_tokens)
        self.process_min_tokens = int(process_min_tokens)
        self._pool_service = pool_service
        self._lease: Optional[_ServiceLease] = None
        self._finalizer = None
        self._pool_broken = False
        self._delivery: Optional["ShardedDelivery"] = None
        #: Introspection counters: plans that went through the partition
        #: machinery, and the subset executed on the process pool.
        self.sharded_plans = 0
        self.process_plans = 0

    # -- lifecycle -----------------------------------------------------
    def _service(self) -> WorkerPoolService:
        """The leased pool service (acquired lazily, released by close/GC)."""
        lease = self._lease
        if lease is None:
            if self._pool_service is not None:
                service = self._pool_service.acquire()
            else:
                service = shared_pool_service(self.workers)
            lease = self._lease = _ServiceLease(service)
            # GC of an un-closed planner must release its lease, or a
            # re-install over a live pool would pin the pool forever.
            self._finalizer = weakref.finalize(self, lease.release)
        return lease.service

    def close(self) -> None:
        """Release the worker-pool lease (idempotent; the planner stays
        usable — in-process, or re-leasing the pool on the next plan)."""
        lease, self._lease = self._lease, None
        self._finalizer = None
        if lease is not None:
            lease.release()

    def __enter__(self) -> "ShardedPlanner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def delivery(self) -> "ShardedDelivery":
        """The delivery-stage engine riding this planner's pool lease."""
        engine = self._delivery
        if engine is None:
            engine = self._delivery = ShardedDelivery(self)
        return engine

    # -- planning ------------------------------------------------------
    def plan(self, plane, budget: int, tag_words: int = 0) -> List[Any]:
        """Schedule ``plane`` into per-round position shards (see
        :func:`~repro.simulator.engine.plan_token_rounds` for the contract)."""
        from repro.simulator.engine import plan_token_rounds

        m = len(plane)
        if m == 0:
            return []
        if self.workers <= 1 or m < self.min_tokens:
            return plan_token_rounds(plane, budget, tag_words)
        np = _accel.np
        senders = plane.senders
        if np is not None and isinstance(senders, np.ndarray):
            return self._plan_numpy(np, plane, budget, tag_words)
        return self._plan_python(plane, budget, tag_words)

    def _plan_numpy(self, np, plane, budget: int, tag_words: int) -> List[Any]:
        from repro.simulator.engine import _plan_rounds_numpy, plan_token_rounds

        senders = plane.senders
        receivers = plane.receivers
        wt = plane.words + tag_words if tag_words else plane.words
        if int(wt.max()) > budget:
            # Oversized tokens couple components through the global
            # forced-oversized branch: fall back rather than approximate.
            return plan_token_rounds(plane, budget, tag_words)
        sent = np.bincount(senders, weights=wt, minlength=1)
        if sent.max() <= budget:
            recv = np.bincount(receivers, weights=wt, minlength=1)
            if recv.max() <= budget:
                # Uncongested: one shard, nothing to shard or merge.
                return [np.arange(senders.size, dtype=np.int64)]
        labels = token_components(senders, receivers)
        buckets = assign_buckets(labels, self.workers)
        if len(buckets) <= 1:
            # One connected component: sharding cannot help; stay serial.
            return plan_token_rounds(plane, budget, tag_words)
        self.sharded_plans += 1
        position_arrays = [
            np.asarray(bucket, dtype=np.int64) for bucket in buckets
        ]
        schedules = None
        if self._want_processes(senders.size):
            try:
                schedules = self._plan_buckets_pool(
                    np, senders, receivers, wt, position_arrays, budget
                )
            except _POOL_ERRORS:
                self._pool_broken = True
                self.close()
        if schedules is None:
            schedules = [
                [
                    positions[shard]
                    for shard in _plan_rounds_numpy(
                        np,
                        senders[positions],
                        receivers[positions],
                        wt[positions],
                        budget,
                    )
                ]
                for positions in position_arrays
            ]
        return merge_round_schedules(schedules)

    def _plan_python(self, plane, budget: int, tag_words: int) -> List[Any]:
        from repro.simulator.engine import _plan_rounds_python, plan_token_rounds

        senders = plane.senders
        receivers = plane.receivers
        words = plane.words
        if hasattr(senders, "tolist"):  # numpy columns, gate forced off
            senders = senders.tolist()
            receivers = receivers.tolist()
            words = words.tolist()
        wt = [w + tag_words for w in words] if tag_words else words
        if max(wt) > budget:
            return plan_token_rounds(plane, budget, tag_words)
        labels = token_components(senders, receivers)
        buckets = assign_buckets(labels, self.workers)
        if len(buckets) <= 1:
            return plan_token_rounds(plane, budget, tag_words)
        self.sharded_plans += 1
        schedules = []
        for positions in buckets:
            shards = _plan_rounds_python(
                [senders[p] for p in positions],
                [receivers[p] for p in positions],
                [wt[p] for p in positions],
                budget,
            )
            schedules.append(
                [[positions[i] for i in shard] for shard in shards]
            )
        return merge_round_schedules(schedules)

    # -- process pool --------------------------------------------------
    def _want_processes(self, total: int) -> bool:
        if self._pool_broken or self.use_processes is False:
            return False
        if self.use_processes:
            return True
        return total >= self.process_min_tokens

    def _plan_buckets_pool(
        self, np, senders, receivers, wt, position_arrays, budget: int
    ) -> List[List[Any]]:
        from multiprocessing import shared_memory

        service = self._service()
        total = int(senders.size)
        positions_total = sum(int(p.size) for p in position_arrays)
        shm = shared_memory.SharedMemory(
            create=True, size=8 * (3 * total + positions_total)
        )
        try:
            block = np.ndarray(
                (3 * total + positions_total,), dtype=np.int64, buffer=shm.buf
            )
            block[0:total] = senders
            block[total : 2 * total] = receivers
            block[2 * total : 3 * total] = wt.astype(np.int64, copy=False)
            offset = 3 * total
            tasks = []
            for positions in position_arrays:
                block[offset : offset + positions.size] = positions
                tasks.append(
                    service.apply_async(
                        _plan_bucket_worker,
                        (shm.name, total, offset, int(positions.size), budget),
                    )
                )
                offset += positions.size
            schedules = [task.get() for task in tasks]
            del block
        finally:
            shm.close()
            try:
                shm.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover
                pass
        self.process_plans += 1
        return schedules


class ShardedDelivery:
    """Span-parallel execution of ``advance_round``'s delivery stages.

    Rides the owning :class:`ShardedPlanner`'s pool lease and degrade state:
    a pool failure in either layer permanently degrades both to in-process
    execution.  Unlike planning — where components matter because the greedy
    counters couple tokens — every delivery stage is either token-elementwise
    (fault masks, knowledge-store filtering) or an exact reduction of integer word
    weights (per-node counters, capacity sweep), so *any* contiguous
    partition merged in ascending span order is bit-identical to the serial
    whole-array computation.  The in-process fallback of each stage therefore
    IS the serial twin — identity is structural, not probabilistic (see
    DESIGN.md "Sharded delivery" and ``tests/properties/test_sharded_delivery.py``).

    Thresholds mirror the planner's: stages engage the pool only when the
    operand is at least ``min_tokens`` long *and* the planner's process
    policy wants the pool (``use_processes=True`` forces it, ``None`` needs
    ``process_min_tokens``; delivery's default is higher than planning's
    because one shared-memory round-trip must beat a single vectorised
    sweep, not a greedy planning loop).  The capacity sweep additionally
    needs ``sweep_min_nodes`` nodes: below that the two counter arrays are
    cheaper to scan serially than to copy into shared memory.
    """

    def __init__(
        self,
        planner: ShardedPlanner,
        *,
        min_tokens: int = 256,
        process_min_tokens: int = 1 << 16,
        sweep_min_nodes: int = 1 << 22,
    ) -> None:
        self.planner = planner
        self.min_tokens = int(min_tokens)
        self.process_min_tokens = int(process_min_tokens)
        self.sweep_min_nodes = int(sweep_min_nodes)
        #: Introspection counter: stages executed on the worker pool.
        self.pool_stages = 0

    @property
    def workers(self) -> int:
        return self.planner.workers

    def _bounds(self, total: int) -> List[int]:
        """Deterministic contiguous span boundaries (ascending)."""
        spans = min(self.workers, total)
        return [total * i // spans for i in range(spans + 1)]

    def _want_pool(self, total: int) -> bool:
        planner = self.planner
        if (
            self.workers <= 1
            or total < self.min_tokens
            or planner._pool_broken
            or planner.use_processes is False
        ):
            return False
        if planner.use_processes:
            return True
        return total >= self.process_min_tokens

    def _pool_spans(self, np, block_values, dtype, worker, task_args):
        """Run ``worker`` over one shared block, one task per span.

        ``block_values`` are concatenated into a fresh shared-memory block
        (parent-owned: created and unlinked here, workers only attach);
        ``task_args(shm_name)`` yields each task's argument tuple in
        ascending span order, which is also the order results are returned
        in.  Returns ``None`` when the pool path failed — the planner (and
        with it this engine) degrades permanently to in-process execution.
        """
        planner = self.planner
        try:
            from multiprocessing import shared_memory

            service = planner._service()
            size = sum(len(values) for values in block_values)
            shm = shared_memory.SharedMemory(
                create=True, size=max(1, dtype().itemsize * size)
            )
            try:
                block = np.ndarray((size,), dtype=dtype, buffer=shm.buf)
                offset = 0
                for values in block_values:
                    block[offset : offset + len(values)] = values
                    offset += len(values)
                tasks = [
                    service.apply_async(worker, args)
                    for args in task_args(shm.name)
                ]
                results = [task.get() for task in tasks]
                del block
            finally:
                shm.close()
                try:
                    shm.unlink()
                except (FileNotFoundError, OSError):  # pragma: no cover
                    pass
        except _POOL_ERRORS:
            planner._pool_broken = True
            planner.close()
            return None
        self.pool_stages += 1
        return results

    # -- stages --------------------------------------------------------
    def keep_mask(self, np, senders, receivers, crashed, failed, n: int):
        """Crash/edge keep-mask over a plane's token columns.

        ``crashed`` / ``failed`` are the fault state's sorted index/edge-key
        arrays.  Elementwise, so the span concatenation is bit-identical to
        the serial :func:`span_keep_mask` over the whole columns.
        """
        m = len(senders)
        if self._want_pool(m):
            bounds = self._bounds(m)
            crashed_len, failed_len = len(crashed), len(failed)
            parts = self._pool_spans(
                np,
                (senders, receivers, crashed, failed),
                np.int64,
                _keep_mask_worker,
                lambda name: [
                    (name, m, crashed_len, failed_len, lo, hi, n)
                    for lo, hi in zip(bounds, bounds[1:])
                ],
            )
            if parts is not None:
                return np.concatenate(parts)
        return span_keep_mask(np, senders, receivers, crashed, failed, n)

    def apply_counters(self, np, senders, receivers, wt, sent_arr, recv_arr) -> None:
        """Accumulate a shard's grouped per-node word sums into the round's
        counter arrays.

        Pool path: each span returns compressed ``(nodes, sums)`` pairs that
        the parent scatter-adds.  Word weights are integers, so every
        partial sum is an exactly-representable float64 and the result
        equals the serial whole-shard ``bincount`` bit for bit, in any
        span order.
        """
        m = len(senders)
        if self._want_pool(m):
            bounds = self._bounds(m)
            parts = self._pool_spans(
                np,
                (senders, receivers, wt),
                np.int64,
                _counter_span_worker,
                lambda name: [
                    (name, m, lo, hi) for lo, hi in zip(bounds, bounds[1:])
                ],
            )
            if parts is not None:
                for sent_nodes, sent_sums, recv_nodes, recv_sums in parts:
                    sent_arr[sent_nodes] += sent_sums
                    recv_arr[recv_nodes] += recv_sums
                return
        sent_arr += np.bincount(senders, weights=wt, minlength=len(sent_arr))
        recv_arr += np.bincount(receivers, weights=wt, minlength=len(recv_arr))

    def sweep(self, np, sent_arr, recv_arr, budget: int):
        """Pool-parallel capacity sweep of the round's counter arrays.

        Returns ``[(max, over_count, first_over), ...]`` for the sent and
        received directions (``first_over`` is ``-1`` when nothing exceeds
        ``budget``), merged from per-range summaries by max / sum / min —
        exactly what the serial sweep derives from the whole arrays.
        Returns ``None`` when not engaged; the caller sweeps serially.
        """
        n = len(sent_arr)
        if not self._want_pool(n):
            return None
        if self.planner.use_processes is not True and n < self.sweep_min_nodes:
            return None
        bounds = self._bounds(n)
        parts = self._pool_spans(
            np,
            (sent_arr, recv_arr),
            np.float64,
            _sweep_range_worker,
            lambda name: [
                (name, n, lo, hi, budget) for lo, hi in zip(bounds, bounds[1:])
            ],
        )
        if parts is None:
            return None
        merged = []
        for direction in (0, 1):
            ranges = [part[direction] for part in parts]
            merged.append(
                (
                    max(entry[0] for entry in ranges),
                    sum(entry[1] for entry in ranges),
                    min(
                        (entry[2] for entry in ranges if entry[2] >= 0),
                        default=-1,
                    ),
                )
            )
        return merged

    def fresh_keys(self, np, keys, levels):
        """Order-preserving knowledge-store filter of a plane's pair keys.

        ``levels`` are the store's sorted arrays (at most two).  Elementwise
        and order-preserving, so ascending-span concatenation equals the
        serial :func:`filter_fresh_keys` over the whole key column.
        """
        k = len(keys)
        if self._want_pool(k):
            levels = [level for level in levels if len(level)][:2]
            while len(levels) < 2:
                levels.append(keys[:0])
            bounds = self._bounds(k)
            level_sizes = (len(levels[0]), len(levels[1]))
            parts = self._pool_spans(
                np,
                (keys, levels[0], levels[1]),
                np.int64,
                _fresh_keys_worker,
                lambda name: [
                    (name, k, level_sizes[0], level_sizes[1], lo, hi)
                    for lo, hi in zip(bounds, bounds[1:])
                ],
            )
            if parts is not None:
                return np.concatenate(parts)
        return filter_fresh_keys(np, keys, levels)


def planner_from_env() -> Optional[ShardedPlanner]:
    """The process-wide default planner: a :class:`ShardedPlanner` when
    ``REPRO_SHARD_WORKERS`` asks for 2+ workers, else ``None`` (single-process
    planning).  Called lazily by
    :func:`repro.simulator.engine.installed_planner` on the first exchange."""
    workers = resolve_shard_workers()
    if workers <= 1:
        return None
    return ShardedPlanner(workers=workers)
