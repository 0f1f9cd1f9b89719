"""Declarative fault injection for the round engine.

The paper's HYBRID-model algorithms assume a fault-free synchronous network;
this module opens the crash/recovery and lossy-network scenario space on top
of the same engine.  Faults are described *declaratively* by a seeded
:class:`FaultSchedule` — crash/recovery windows per node, per-mode message
drop probabilities, global- and per-node capacity degradation windows, and
link-failure windows — and enacted by a :class:`FaultState` that
:meth:`~repro.simulator.network.HybridSimulator.advance_round` consults:

* **Crashes** — a crashed node neither sends nor receives: every record whose
  sender or receiver is crashed in the delivery round is dropped (and counted
  in :attr:`~repro.simulator.metrics.RoundMetrics.dropped_messages`).  The
  round engine additionally masks crashed endpoints out of the send/receive
  columns *before* the scheduler runs (see
  :func:`repro.simulator.engine.resilient_batched_global_exchange`), so
  retransmittable traffic never wastes budget on dead endpoints.
* **Message drops** — each record surviving the crash filter is dropped
  independently with the per-mode probability, decided by a :class:`random.
  Random` derived deterministically from ``(schedule.seed, round, mode)``.
  Fault runs are therefore replayable bit-for-bit from ``(seed, schedule)``
  alone.
* **Capacity degradation** — active windows multiply the per-node global
  budget.  The *global* factor flows through
  :meth:`~repro.simulator.network.HybridSimulator.global_budget_words` and
  hence feeds the two-tier scheduler directly (degraded rounds are planned
  with the degraded budget); *per-node* factors tighten the capacity sweep of
  ``advance_round`` for the affected nodes only.
* **Link failures** — local-mode records crossing a failed edge during the
  window are dropped like lossy messages.

The hard invariant of the whole layer: an **empty** schedule installs no
:class:`FaultState` at all (``HybridSimulator.fault_state is None``), so the
engine remains token-for-token schedule-identical to the reference greedy
scan in ``tests/oracles/scheduler.py`` — the identity property suites pin this.

Capacity accounting under faults is *attempt-based*: a dropped message still
charged its sender's (and the addressed receiver's) budget in the round it was
submitted — losing a message does not refund the bandwidth spent sending it.
Analytic round charges (the DESIGN.md substitution policy) are likewise not
scaled by fault windows; faults only act on physically simulated traffic.
"""

from __future__ import annotations

import dataclasses
import random
from bisect import bisect_right
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "CrashEvent",
    "LinkFailure",
    "CapacityDegradation",
    "FaultSchedule",
    "FaultState",
]

#: Sentinel for "until the end of the simulation" in window end fields.
_FOREVER: Optional[int] = None


def _check_window(start: int, end: Optional[int], what: str) -> None:
    if start < 0:
        raise ValueError(f"{what}: start round must be non-negative, got {start}")
    if end is not None and end <= start:
        raise ValueError(
            f"{what}: end round {end} must be after start round {start} "
            f"(use None for an open-ended window)"
        )


@dataclasses.dataclass(frozen=True)
class CrashEvent:
    """Node ``node`` is crashed during rounds ``[crash_round, recover_round)``.

    ``recover_round=None`` means the node never recovers.  ``node`` is
    addressed as a simulator **node index** (a position in the deterministic
    :attr:`~repro.simulator.network.HybridSimulator.nodes` order), matching
    the id-native plane representation the engine schedules in.
    """

    node: int
    crash_round: int
    recover_round: Optional[int] = _FOREVER

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ValueError(f"crash event: node index must be non-negative, got {self.node}")
        _check_window(self.crash_round, self.recover_round, "crash event")

    def crashed_at(self, round_index: int) -> bool:
        if round_index < self.crash_round:
            return False
        return self.recover_round is None or round_index < self.recover_round


@dataclasses.dataclass(frozen=True)
class LinkFailure:
    """The local edge ``{u, v}`` is down during ``[start_round, end_round)``.

    Endpoints are node indices; the failure is symmetric (both directions of
    the edge drop their records while the window is active).

    ``permanent=True`` upgrades the window-scoped outage to a real topology
    edit: when the window closes, the simulator *commits* the failure as an
    edge deletion through :class:`repro.graphs.mutation.GraphMutator`, one
    batch per round — the edge is gone from the graph itself (version stamp
    bumped, the round's deletions spliced into the analytics index,
    simulator adjacency caches resynchronised), and
    later dissemination/APSP runs see the churned topology.  A permanent
    failure therefore requires a *finite* ``end_round`` (an open-ended window
    already drops everything forever and has no close to commit at); see
    ``HybridSimulator.advance_round`` / ``committed_link_removals``.
    """

    u: int
    v: int
    start_round: int = 0
    end_round: Optional[int] = _FOREVER
    permanent: bool = False

    def __post_init__(self) -> None:
        if self.u < 0 or self.v < 0:
            raise ValueError("link failure: node indices must be non-negative")
        if self.u == self.v:
            raise ValueError("link failure: endpoints must differ")
        _check_window(self.start_round, self.end_round, "link failure")
        if self.permanent and self.end_round is None:
            raise ValueError(
                "link failure: permanent=True requires a finite end_round "
                "(the deletion is committed when the window closes; an "
                "open-ended window already drops the edge forever)"
            )

    def active_at(self, round_index: int) -> bool:
        if round_index < self.start_round:
            return False
        return self.end_round is None or round_index < self.end_round


@dataclasses.dataclass(frozen=True)
class CapacityDegradation:
    """The global budget is multiplied by ``factor`` during the window.

    ``node=None`` degrades every node (the factor reaches the scheduler
    through :meth:`HybridSimulator.global_budget_words`); a specific node
    index degrades only that node's capacity sweep.  Factors multiply when
    windows overlap; the effective per-round budget never drops below one
    word.
    """

    factor: float
    start_round: int = 0
    end_round: Optional[int] = _FOREVER
    node: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.factor <= 1.0:
            raise ValueError(
                f"capacity degradation: factor must lie in (0, 1], got {self.factor}"
            )
        if self.node is not None and self.node < 0:
            raise ValueError("capacity degradation: node index must be non-negative")
        _check_window(self.start_round, self.end_round, "capacity degradation")

    def active_at(self, round_index: int) -> bool:
        if round_index < self.start_round:
            return False
        return self.end_round is None or round_index < self.end_round


@dataclasses.dataclass(frozen=True)
class FaultSchedule:
    """A declarative, seeded description of every fault a run should suffer.

    The default-constructed schedule is **empty** (:meth:`is_empty` is true):
    installing it on a simulator is exactly equivalent to installing no
    schedule at all — no fault state is created and every schedule stays
    bit-identical to the fault-free reference.  ``seed`` drives only the
    message-drop randomness; two runs with the same ``(seed, schedule)``
    replay identically.
    """

    seed: int = 0
    crashes: Tuple[CrashEvent, ...] = ()
    link_failures: Tuple[LinkFailure, ...] = ()
    degradations: Tuple[CapacityDegradation, ...] = ()
    global_drop_rate: float = 0.0
    local_drop_rate: float = 0.0

    def __post_init__(self) -> None:
        for rate, what in (
            (self.global_drop_rate, "global_drop_rate"),
            (self.local_drop_rate, "local_drop_rate"),
        ):
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{what} must lie in [0, 1), got {rate}")
        # Accept (and normalise) lists for ergonomic construction.
        for field, cls in (
            ("crashes", CrashEvent),
            ("link_failures", LinkFailure),
            ("degradations", CapacityDegradation),
        ):
            value = getattr(self, field)
            if not isinstance(value, tuple):
                object.__setattr__(self, field, tuple(value))
            for event in getattr(self, field):
                if not isinstance(event, cls):
                    raise TypeError(
                        f"{field} entries must be {cls.__name__}, got {type(event).__name__}"
                    )

    def is_empty(self) -> bool:
        """Whether this schedule injects no faults at all."""
        return (
            not self.crashes
            and not self.link_failures
            and not self.degradations
            and self.global_drop_rate == 0.0
            and self.local_drop_rate == 0.0
        )

    def horizon(self) -> int:
        """First round from which the fault pattern is stable.

        The maximum finite window boundary over all events: from this round
        on, no node crashes or recovers, no link changes state and no
        degradation window opens or closes (persistent drop *rates* have no
        horizon — they act identically in every round).  Open-ended windows
        contribute their start round: the state they establish is already
        stable once entered.
        """
        horizon = 0
        for crash in self.crashes:
            horizon = max(
                horizon,
                crash.recover_round if crash.recover_round is not None else crash.crash_round,
            )
        for failure in self.link_failures:
            horizon = max(
                horizon,
                failure.end_round if failure.end_round is not None else failure.start_round,
            )
        for degradation in self.degradations:
            horizon = max(
                horizon,
                degradation.end_round
                if degradation.end_round is not None
                else degradation.start_round,
            )
        return horizon

    def forever_crashed(self) -> FrozenSet[int]:
        """Node indices with an open-ended crash and no later recovery."""
        # Crash windows union over events, so a single open-ended window makes
        # the node crashed in every later round whatever other windows exist.
        return frozenset(
            crash.node for crash in self.crashes if crash.recover_round is None
        )


class FaultState:
    """Runtime fault oracle consulted by the simulator each round.

    Built by the simulator from a non-empty :class:`FaultSchedule`; all
    queries are by simulator node index and round number.  The fault pattern
    only changes at window boundaries, so crash sets, degradation factors and
    failed-edge keys are cached per *window slot* — the gap between two
    consecutive boundaries, found by a ``bisect`` into the sorted union of
    every window's start and end round.  A lookup costs O(log boundaries)
    and the caches hold at most one entry per slot however many rounds run.
    """

    __slots__ = (
        "schedule",
        "n",
        "_boundaries",
        "_crash_cache",
        "_crash_arr_cache",
        "_factor_cache",
        "_node_factor_cache",
        "_link_cache",
        "_link_arr_cache",
        "_has_node_degradations",
        "_pending_permanent",
    )

    def __init__(self, schedule: FaultSchedule, n: int) -> None:
        if schedule.is_empty():
            raise ValueError(
                "FaultState is only built for non-empty schedules; an empty "
                "schedule must install no fault state at all"
            )
        for crash in schedule.crashes:
            if crash.node >= n:
                raise ValueError(
                    f"crash event addresses node index {crash.node} but the "
                    f"network has only {n} nodes"
                )
        for failure in schedule.link_failures:
            if failure.u >= n or failure.v >= n:
                raise ValueError("link failure addresses a node index out of range")
        for degradation in schedule.degradations:
            if degradation.node is not None and degradation.node >= n:
                raise ValueError("capacity degradation addresses a node index out of range")
        self.schedule = schedule
        self.n = n
        # Built on the first lookup (see _slot), keeping construction cheap.
        self._boundaries: Optional[List[int]] = None
        self._crash_cache: Dict[int, FrozenSet[int]] = {}
        self._crash_arr_cache: Dict[int, object] = {}
        self._factor_cache: Dict[int, float] = {}
        self._node_factor_cache: Dict[int, Dict[int, float]] = {}
        self._link_cache: Dict[int, FrozenSet[int]] = {}
        self._link_arr_cache: Dict[int, object] = {}
        self._has_node_degradations = any(
            degradation.node is not None for degradation in schedule.degradations
        )
        # Permanent link failures awaiting their window close, ordered by
        # closing round (ties by endpoints for determinism).  The simulator
        # drains this via take_permanent_closures after each advanced round;
        # the state is per-FaultState, so one frozen schedule shared by many
        # simulators commits independently in each.
        self._pending_permanent: List[LinkFailure] = sorted(
            (f for f in schedule.link_failures if f.permanent),
            key=lambda f: (f.end_round, f.u, f.v),
        )

    def _slot(self, round_index: int) -> int:
        """The window slot of ``round_index``: the cache key of every lookup."""
        boundaries = self._boundaries
        if boundaries is None:
            schedule = self.schedule
            edges = {crash.crash_round for crash in schedule.crashes}
            edges.update(crash.recover_round for crash in schedule.crashes)
            for window in (*schedule.link_failures, *schedule.degradations):
                edges.update((window.start_round, window.end_round))
            edges.discard(None)
            boundaries = self._boundaries = sorted(edges)
        return bisect_right(boundaries, round_index)

    # ------------------------------------------------------------------
    # Crashes
    # ------------------------------------------------------------------
    def crashed_indices(self, round_index: int) -> FrozenSet[int]:
        """Node indices crashed during ``round_index`` (cached per window slot)."""
        slot = self._slot(round_index)
        cached = self._crash_cache.get(slot)
        if cached is None:
            cached = frozenset(
                crash.node
                for crash in self.schedule.crashes
                if crash.crashed_at(round_index)
            )
            self._crash_cache[slot] = cached
        return cached

    def is_crashed(self, node_index: int, round_index: int) -> bool:
        return node_index in self.crashed_indices(round_index)

    def crashed_index_array(self, round_index: int):
        """:meth:`crashed_indices` as a **sorted** int64 array (cached).

        The vectorised plane fault filter probes crash membership with one
        ``searchsorted`` sweep per token column; building (and sorting) the
        array once per window slot keeps that probe allocation-free across
        rounds.
        """
        slot = self._slot(round_index)
        cached = self._crash_arr_cache.get(slot)
        if cached is None:
            crashed = self.crashed_indices(round_index)
            cached = np.fromiter(crashed, dtype=np.int64, count=len(crashed))
            cached.sort()
            self._crash_arr_cache[slot] = cached
        return cached

    # ------------------------------------------------------------------
    # Capacity degradation
    # ------------------------------------------------------------------
    def global_capacity_factor(self, round_index: int) -> float:
        """Product of all node-wide degradation factors active this round."""
        slot = self._slot(round_index)
        cached = self._factor_cache.get(slot)
        if cached is None:
            cached = 1.0
            for degradation in self.schedule.degradations:
                if degradation.node is None and degradation.active_at(round_index):
                    cached *= degradation.factor
            self._factor_cache[slot] = cached
        return cached

    def degraded_budget(self, base_budget: int, round_index: int) -> int:
        """The node-wide budget after degradation (never below one word)."""
        factor = self.global_capacity_factor(round_index)
        if factor >= 1.0:
            return base_budget
        return max(1, int(base_budget * factor))

    def node_capacity_factors(self, round_index: int) -> Dict[int, float]:
        """Per-node degradation factors active this round (may be empty).

        Only *node-scoped* windows appear here; the node-wide factor is
        already folded into :meth:`degraded_budget`.
        """
        if not self._has_node_degradations:
            return {}
        slot = self._slot(round_index)
        cached = self._node_factor_cache.get(slot)
        if cached is None:
            cached = {}
            for degradation in self.schedule.degradations:
                if degradation.node is not None and degradation.active_at(round_index):
                    cached[degradation.node] = (
                        cached.get(degradation.node, 1.0) * degradation.factor
                    )
            self._node_factor_cache[slot] = cached
        return cached

    # ------------------------------------------------------------------
    # Link failures
    # ------------------------------------------------------------------
    def failed_edge_keys(self, round_index: int) -> FrozenSet[int]:
        """Directed flat ``u * n + v`` keys of edges down this round (cached)."""
        slot = self._slot(round_index)
        cached = self._link_cache.get(slot)
        if cached is None:
            n = self.n
            keys = set()
            for failure in self.schedule.link_failures:
                if failure.active_at(round_index):
                    keys.add(failure.u * n + failure.v)
                    keys.add(failure.v * n + failure.u)
            cached = frozenset(keys)
            self._link_cache[slot] = cached
        return cached

    def failed_edge_key_array(self, round_index: int):
        """:meth:`failed_edge_keys` as a **sorted** int64 array (cached).

        The directed ``u * n + v`` twin of :meth:`crashed_index_array`, for
        the vectorised plane fault filter's edge probe.
        """
        slot = self._slot(round_index)
        cached = self._link_arr_cache.get(slot)
        if cached is None:
            keys = self.failed_edge_keys(round_index)
            cached = np.fromiter(keys, dtype=np.int64, count=len(keys))
            cached.sort()
            self._link_arr_cache[slot] = cached
        return cached

    def take_permanent_closures(self, round_index: int) -> List[Tuple[int, int]]:
        """Drain permanent failures whose window has closed by ``round_index``.

        Returns the ``(u, v)`` index pairs of every ``permanent=True`` failure
        with ``end_round <= round_index`` that has not been returned before,
        in deterministic ``(end_round, u, v)`` order — each closure is handed
        out exactly once, so the simulator commits each deletion exactly once
        however many rounds it advances past the window.
        """
        pending = self._pending_permanent
        if not pending or pending[0].end_round > round_index:
            return []
        cut = 0
        while cut < len(pending) and pending[cut].end_round <= round_index:
            cut += 1
        closed = pending[:cut]
        del pending[:cut]
        return [(failure.u, failure.v) for failure in closed]

    # ------------------------------------------------------------------
    # Message drops
    # ------------------------------------------------------------------
    def drop_rate(self, mode: str) -> float:
        if mode == "global":
            return self.schedule.global_drop_rate
        if mode == "local":
            return self.schedule.local_drop_rate
        raise ValueError(f"unknown mode {mode!r}")

    def round_rng(self, round_index: int, mode: str) -> random.Random:
        """The drop-decision RNG for ``(round, mode)``.

        Derived deterministically from the schedule seed alone, so fault runs
        replay bit-for-bit from ``(seed, schedule)`` — independent of the
        wall clock, shard sizes, or anything else in the process.  One
        fresh generator per (round, mode) keeps the draw sequence aligned
        with delivery order even when a round carries traffic in both modes.
        """
        mode_salt = 0 if mode == "global" else 1
        return random.Random(
            (self.schedule.seed * 2_654_435_761 + round_index * 40_503 + mode_salt)
            & 0xFFFFFFFFFFFF
        )


def crash_fraction_schedule(
    n: int,
    fraction: float,
    *,
    seed: int = 0,
    crash_round: int = 0,
    recover_round: Optional[int] = None,
    drop_rate: float = 0.0,
    exclude: Sequence[int] = (),
) -> FaultSchedule:
    """Convenience builder: crash a seeded random ``fraction`` of the nodes.

    ``exclude`` protects specific node indices (e.g. the holders of unique
    tokens) from being picked.  The picked set is a deterministic function of
    ``(n, fraction, seed, exclude)``; the same seed also drives the message
    drops, so one ``(seed, schedule)`` pair pins the entire fault trajectory.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"fraction must lie in [0, 1), got {fraction}")
    eligible = [index for index in range(n) if index not in set(exclude)]
    count = min(len(eligible), int(round(n * fraction)))
    rng = random.Random(seed * 1_000_003 + n)
    picked = sorted(rng.sample(eligible, count)) if count else []
    crashes: List[CrashEvent] = [
        CrashEvent(node=node, crash_round=crash_round, recover_round=recover_round)
        for node in picked
    ]
    return FaultSchedule(
        seed=seed,
        crashes=tuple(crashes),
        global_drop_rate=drop_rate,
    )


__all__.append("crash_fraction_schedule")
