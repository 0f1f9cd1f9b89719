"""Outside-in span tracer for the benchmark's per-layer metrics.

The program has no tracing of its own, so this module wraps public
functions of ``repro`` by ``(module, qualname)`` for the length of one
traced repetition and restores the originals afterwards.  A module-level
function is also replaced wherever another ``repro`` module imported it by
name, so ``from repro.graphs.index import get_index`` call sites are seen.

Each wrapped call opens a span with the span that caused it as its parent.
Self time is a span's duration minus the time its child spans cover, so the
self times of all probes plus the root's own self time add up to the root's
duration.  A probe saves the open span's state on entry and restores it on
exit instead of pushing a frame, so a hot call allocates nothing.  Calls
and token counts are counted once per entry into a group from outside it,
so a public method that calls another one of its group is not counted
twice.  Hot probes (``hot=True``) are aggregated as calls and time only,
without a span record each: identifier learning alone runs about
1.4*10^5 times per repetition of the star workload.

Targets that do not exist (renamed or deleted by a later change) are listed
in :attr:`Tracer.absent` instead of raising.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import sys
import time
import types
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclasses.dataclass(frozen=True)
class Probe:
    """One traced function: ``target`` is ``"module:Qualified.name"``."""

    group: str
    target: str
    hot: bool = False
    #: ``tally(args, result)`` adds to the group's token count per entry.
    tally: Optional[Callable[[tuple, Any], int]] = None
    #: Keep every call's duration (for round-time percentiles).
    samples: bool = False


class Tally:
    """Accumulated calls, self time, tokens and durations of one group."""

    __slots__ = ("calls", "self_s", "tokens", "durations")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.tokens = 0
        self.durations: List[float] = []


def _plane_tokens(args: tuple, result: Any) -> int:
    return len(args[0])


def _queued(args: tuple, result: Any) -> int:
    return result if isinstance(result, int) else 1


_GI = "repro.graphs.index:GraphIndex."
_SIM = "repro.simulator.network:HybridSimulator."
_KT = "repro.simulator.knowledge:KnowledgeTracker."
_FS = "repro.simulator.faults:FaultState."

#: Layer -> probes.  The group name is the metric prefix: group ``g`` yields
#: ``g_s`` (self time), ``g_calls`` and ``g_tokens``.
LAYERS: Tuple[Probe, ...] = (
    Probe("graphs.index.build", _GI + "__init__"),
    Probe("graphs.index.get_index", "repro.graphs.index:get_index", hot=True),
    *(Probe("graphs.index.nq", _GI + m) for m in ("nq_value", "nq_per_node", "nq_profile")),
    Probe("graphs.index.nq", _GI + "nq_of_node", hot=True),
    Probe("graphs.index.hhop", _GI + "h_hop_limited_distances", hot=True),
    *(
        Probe("graphs.index.sssp_row", _GI + m, hot=True)
        for m in ("sssp_row", "sssp_rows", "sssp_dict", "sssp_dicts")
    ),
    Probe("graphs.index.sssp_row", "repro.graphs.index:SSSPRowCache.row", hot=True),
    Probe("graphs.mutation.apply_batch", "repro.graphs.mutation:GraphMutator.apply_batch"),
    *(
        Probe("core.spanner", "repro.core.spanner:" + f)
        for f in ("greedy_spanner", "baswana_sen_spanner", "distributed_spanner")
    ),
    *(
        Probe("core.clustering", "repro.core.clustering:" + f)
        for f in ("nq_clustering", "distributed_nq_clustering")
    ),
    *(
        Probe("core.skeleton", "repro.core.skeleton:" + f)
        for f in ("build_skeleton", "distributed_skeleton")
    ),
    *(
        Probe("core.table.estimate", "repro.core.shortest_paths:" + m, hot=True)
        for m in ("DenseDistanceTable.estimate", "DenseDistanceTable.row", "DistanceTable.estimate")
    ),
    Probe("simulator.engine.plan", "repro.simulator.engine:plan_token_rounds", tally=_plane_tokens),
    *(
        Probe("simulator.engine.exchange_self", "repro.simulator.engine:" + f)
        for f in (
            "batched_global_exchange",
            "resilient_batched_global_exchange",
            "BatchAlgorithm.exchange",
            "BatchAlgorithm.resilient_exchange",
        )
    ),
    *(
        Probe("simulator.network.send", _SIM + m, hot=True, tally=_queued)
        for m in (
            "global_send_plane",
            "local_send_plane",
            "global_send_batch",
            "local_send_batch",
            "global_send_batch_ids",
            "local_send_batch_ids",
            "global_send",
            "local_send",
            "local_broadcast",
            "global_send_to_node",
        )
    ),
    Probe("simulator.network.advance_round", _SIM + "advance_round", hot=True, samples=True),
    *(
        Probe("simulator.knowledge.learn", _KT + m, hot=True)
        for m in ("learn", "learn_known", "learn_known_array", "learn_shared")
    ),
    *(
        Probe("simulator.faults.lookup", _FS + m, hot=True)
        for m in (
            "crashed_indices",
            "crashed_index_array",
            "is_crashed",
            "global_capacity_factor",
            "degraded_budget",
            "node_capacity_factors",
            "failed_edge_keys",
            "failed_edge_key_array",
            "take_permanent_closures",
            "drop_rate",
            "round_rng",
        )
    ),
    Probe("simulator.sharding.plan", "repro.simulator.sharding:ShardedPlanner.plan"),
    *(
        Probe("simulator.sharding.stage", "repro.simulator.sharding:ShardedDelivery." + m)
        for m in ("keep_mask", "apply_counters", "sweep", "fresh_keys")
    ),
)

#: ``phases()`` of every subclass of this class is wrapped so that each
#: phase callable becomes a span ``core.phase.<name>``: the algorithm's own
#: Python work between the layer calls above.
PHASE_BASE = "repro.simulator.engine:BatchAlgorithm"


def _resolve(target: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, raw function)``; raises LookupError if absent."""
    module_name, _, qualname = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(str(exc)) from None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"{module_name}.{part} is gone")
    raw = vars(owner).get(attr)
    if not isinstance(raw, types.FunctionType):
        raise LookupError(f"{target} is not a function")
    return owner, attr, raw


def _subclasses(cls: type) -> List[type]:
    found, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


class Tracer:
    """Wraps :data:`LAYERS` while active; ``with Tracer() as t:`` is the root span.

    After the ``with`` block every wrapped attribute is the original object
    again, and :attr:`groups`, :attr:`spans`, :attr:`root_s` and
    :attr:`root_self_s` hold the measurements.  Spans are tuples
    ``(span_id, parent_id, group, start, end, self_s)``; the root has id 0.
    """

    def __init__(self) -> None:
        self.groups: Dict[str, Tally] = {}
        self.spans: List[Tuple[int, int, str, float, float, float]] = []
        self.absent: List[str] = []
        self.patched: List[Tuple[Any, str, Any]] = []
        self.root_s = 0.0
        self.root_self_s = 0.0
        self._ids = itertools.count(1)
        # The open span's [time its finished children covered, span id,
        # tally]: each probe saves it on entry and restores it on exit.
        self._state: list = [0.0, 0, None]
        self._start = 0.0

    # -- lifetime ------------------------------------------------------
    def __enter__(self) -> "Tracer":
        self.install()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.root_s = time.perf_counter() - self._start
        self.root_self_s = self.root_s - self._state[0]
        self.uninstall()

    def install(self) -> None:
        for probe in LAYERS:
            try:
                owner, attr, raw = _resolve(probe.target)
            except LookupError:
                self.absent.append(probe.target)
                continue
            self._patch(owner, attr, raw, self._wrap(raw, probe))
        try:
            base = _resolve(PHASE_BASE + ".phases")[0]
        except LookupError:
            self.absent.append(PHASE_BASE)
            return
        for cls in [base, *_subclasses(base)]:
            raw = vars(cls).get("phases")
            if isinstance(raw, types.FunctionType):
                self._patch(cls, "phases", raw, self._wrap_phases(raw))

    def uninstall(self) -> None:
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: Any, attr: str, raw: Any, wrapper: Any) -> None:
        self.patched.append((owner, attr, raw))
        setattr(owner, attr, wrapper)
        if isinstance(owner, types.ModuleType):
            # Rebind every ``from owner import attr`` alias in the package.
            for name, module in list(sys.modules.items()):
                if module is owner or not (name == "repro" or name.startswith("repro.")):
                    continue
                for alias, value in list(vars(module).items()):
                    if value is raw:
                        self.patched.append((module, alias, raw))
                        setattr(module, alias, wrapper)

    # -- probes --------------------------------------------------------
    def _wrap(self, fn: Callable, probe: Probe) -> Callable:
        state = self._state
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter
        cell = self.groups.setdefault(probe.group, Tally())
        group, hot, tally, samples = probe.group, probe.hot, probe.tally, probe.samples

        @functools.wraps(fn)
        def probe_call(*args, **kwargs):
            covered, parent, enclosing = state
            state[0] = 0.0
            state[2] = cell
            if not hot:
                state[1] = next(ids)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                own = duration - state[0]
                cell.self_s += own
                if enclosing is not cell:
                    cell.calls += 1
                if samples:
                    cell.durations.append(duration)
                if not hot:
                    spans.append((state[1], parent, group, start, start + duration, own))
                state[0] = covered + duration
                state[1] = parent
                state[2] = enclosing
            if tally is not None and enclosing is not cell:
                cell.tokens += tally(args, result)
            return result

        return probe_call

    def _wrap_phases(self, fn: Callable) -> Callable:
        wrap = self._wrap

        @functools.wraps(fn)
        def phases(*args, **kwargs):
            return tuple(
                (name, wrap(phase, Probe(f"core.phase.{name}", "")))
                for name, phase in fn(*args, **kwargs)
            )

        return phases

    # -- results -------------------------------------------------------
    def self_seconds(self) -> float:
        """Summed self time of every probe (excludes the root's own time)."""
        return sum(cell.self_s for cell in self.groups.values())

    def coverage(self) -> float:
        """Share of the root's duration that some probe accounts for."""
        return 1.0 - self.root_self_s / self.root_s if self.root_s > 0 else 0.0
