"""Measurement of one workload: repetitions, drift guard, checks, metrics.

One measurement builds the workload's inputs from the seed, runs one
untimed warm-up repetition, then repeats until ``seconds`` have passed
(and at least :data:`MIN_REPS` repetitions were kept):

* ``trace=0``: untraced repetitions, giving the end-to-end metrics;
* ``trace=1``: an untraced and a traced repetition in turn, giving the
  per-layer metrics from the traced ones and the tracing overhead from the
  pair.

Before every repetition a fixed calibration kernel that uses no program
code is timed.  On shared hosts the speed of the whole machine wanders by
up to 2x over minutes, and program time and CPU time move with it, so more
repetitions cannot average it away.  Two defences:

* every time reported (``setup_s``, ``wall_s``) is normalised to a host
  speed: measured seconds times :data:`REFERENCE_CALIB_S` over the mean of
  the calibrations taken just before and just after that repetition.  The
  calibration uses no program code, so a change to the program cannot move
  it; the raw times are kept in the repetition log and ``host.wall_raw_s``.
  Per-layer times are reported as measured;
* drift guard: when a calibration reads more than :data:`DRIFT` off the
  median of the calibrations so far, the host changed speed under the
  repetition, so its timing is discarded and the repetition retried, at
  most :data:`MAX_RETRIES` times per measurement.

The output of every repetition, kept or not, is checked.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import time
import traceback
from typing import Any, Dict, List, Optional

from suite.trace import LAYERS, Tally, Tracer
from suite.workloads import Outcome

DRIFT = 0.10
MAX_RETRIES = 2
MIN_REPS = 3
CALIBRATIONS_AT_START = 5
#: :func:`calibrate` on the host the benchmark was defined on (2-core Intel
#: Xeon VM at 2.1 GHz, Python 3.11) in a quiet period, so normalised seconds
#: read like seconds there.
REFERENCE_CALIB_S = 0.009

#: Counts that must equal ``pinned.json`` at its seed on the full sizes.
PINNED_COUNTS = ("rounds.measured", "rounds.total", "global_words")


def calibrate() -> float:
    """Best of three runs of a fixed pure-Python integer loop, in seconds.

    The loop allocates nothing, so its speed follows the host and not the
    state of this process's heap.  A kernel of dict inserts and a sort read
    up to 10% apart between processes on one host and made normalised times
    noisier, not steadier.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        best = min(best, time.perf_counter() - start)
    return best


def usable_cpus() -> List[int]:
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return list(range(os.cpu_count() or 1))


def usable_cores() -> int:
    return len(usable_cpus())


def cpu_ticks() -> Dict[str, List[int]]:
    """Per-CPU ``[busy, total]`` jiffies from ``/proc/stat`` ({} elsewhere)."""
    ticks: Dict[str, List[int]] = {}
    try:
        with open("/proc/stat") as stat:
            for line in stat:
                if line.startswith("cpu") and line[3].isdigit():
                    name, *fields = line.split()
                    values = [int(v) for v in fields[:8]]
                    idle = values[3] + values[4]  # idle + iowait
                    ticks[name] = [sum(values) - idle, sum(values)]
    except OSError:
        pass
    return ticks


def busy_fractions(before: Dict[str, List[int]], after: Dict[str, List[int]]) -> Dict[str, float]:
    fractions = {}
    for name, (busy, total) in after.items():
        if name in before and total > before[name][1]:
            fractions[name] = (busy - before[name][0]) / (total - before[name][1])
    return fractions


def stats(values: List[float]) -> Dict[str, Any]:
    """Median, quartiles and sample count."""
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def tail_percentile(samples: int) -> float:
    """Highest listed percentile with at least ten samples beyond it."""
    for pct in (99.9, 99.5, 99.0, 95.0, 90.0, 75.0):
        if samples * (1 - pct / 100) >= 10:
            return pct
    return 50.0


def _percentile(ordered: List[float], pct: float) -> float:
    """Nearest-rank percentile of sorted values (0 for none)."""
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def layer_metrics(tracer: Tracer, outcome: Outcome) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    values: Dict[str, float] = {}
    groups = {probe.group for probe in LAYERS} | set(tracer.groups)
    for group in groups:
        cell = tracer.groups.get(group, Tally())
        values[f"{group}_s"] = cell.self_s
        values[f"{group}_calls"] = cell.calls
        values[f"{group}_tokens"] = cell.tokens
    rounds = sorted(tracer.groups.get("simulator.network.advance_round", Tally()).durations)
    pct = tail_percentile(len(rounds))
    values["simulator.network.round_ms.p50"] = 1000 * _percentile(rounds, 50.0)
    values["simulator.network.round_ms.tail"] = 1000 * _percentile(rounds, pct)
    values["simulator.network.round_ms.tail_pct"] = pct
    counts = outcome.counts
    values["rounds.measured"] = counts.get("rounds.measured", 0)
    values["rounds.total"] = counts.get("rounds.total", 0)
    values["global_words"] = counts.get("global_words", 0)
    values["simulator.faults.dropped"] = counts.get("dropped", 0)
    sent = counts.get("global_messages", 0)
    values["simulator.faults.retransmit_ratio"] = (
        counts.get("retransmissions", 0) / sent if sent else 0.0
    )
    values["trace.coverage"] = tracer.coverage()
    values["trace.spans"] = len(tracer.spans)
    return values


def run_rep(workload, tracer: Optional[Tracer] = None):
    """One repetition: ``(setup seconds, wall seconds, output)``."""
    gc.collect()
    material = workload.fresh()
    start = time.perf_counter()
    state = workload.setup(material)
    mid = time.perf_counter()
    if tracer is None:
        output = workload.run(state)
    else:
        with tracer:
            output = workload.run(state)
    end = time.perf_counter()
    return mid - start, end - mid, output


class Measurement:
    """Repetitions of one workload and everything measured about them."""

    def __init__(self, workload, pinned: Optional[Dict[str, int]] = None) -> None:
        self.workload = workload
        self.pinned = pinned
        self.calibrations = [calibrate() for _ in range(CALIBRATIONS_AT_START)]
        self.attempted = 0
        self.failed = 0
        self.retried = 0
        self.problems: List[str] = []
        self.setups: List[float] = []
        self.walls: List[float] = []
        self.raw_walls: List[float] = []
        self.traced_walls: List[float] = []
        self.layers: List[Dict[str, float]] = []
        self.reference: Optional[Outcome] = None
        #: One record per repetition attempted, kept or not.
        self.log: List[Dict[str, Any]] = []
        self.absent: List[str] = []
        self.spans: List[tuple] = []
        self.cpu_busy: Dict[str, float] = {}
        self.peak_rss_mb = 0.0
        # The last kept repetition, waiting for the calibration after it.
        self._unsettled: Optional[tuple] = None

    def calibrate(self) -> float:
        """Time the calibration kernel; it also closes the previous kept
        repetition, whose normalisation needs the calibration after it."""
        calibration = calibrate()
        self.calibrations.append(calibration)
        if self._unsettled is not None:
            record, traced, setup_s, wall_s, layers = self._unsettled
            self._unsettled = None
            scale = REFERENCE_CALIB_S / ((record["calib_s"] + calibration) / 2)
            record["scale"] = scale
            if traced:
                self.traced_walls.append(wall_s * scale)
                self.layers.append(layers)
            else:
                self.setups.append(setup_s * scale)
                self.walls.append(wall_s * scale)
                self.raw_walls.append(wall_s)
        return calibration

    def rep(self, traced: bool, timed: bool = True) -> None:
        calibration = self.calibrate()
        drifted = abs(calibration / statistics.median(self.calibrations) - 1) > DRIFT
        tracer = Tracer() if traced else None
        self.attempted += 1
        record = {"calib_s": calibration, "traced": traced, "kept": False, "ok": False}
        self.log.append(record)
        try:
            setup_s, wall_s, output = run_rep(self.workload, tracer)
            outcome = self.workload.check(output)
        except Exception as exc:  # a failing repetition is counted, not fatal
            traceback.print_exc()
            self._fail([f"raised {type(exc).__name__}: {exc}"])
            return
        record.update(raw_setup_s=setup_s, raw_wall_s=wall_s)
        problems = outcome.problems + self._compare(outcome)
        if problems:
            self._fail(problems)
            return
        record["ok"] = True
        if tracer is not None:
            self.absent = tracer.absent
            self.spans = tracer.spans
        if not timed:
            return
        if drifted and self.retried < MAX_RETRIES:
            self.retried += 1
            return
        record["kept"] = True
        layers = layer_metrics(tracer, outcome) if tracer is not None else None
        self._unsettled = (record, traced, setup_s, wall_s, layers)

    def _fail(self, problems: List[str]) -> None:
        self.failed += 1
        for problem in problems:
            if problem not in self.problems:
                self.problems.append(problem)

    def _compare(self, outcome: Outcome) -> List[str]:
        """Counts and fingerprint must repeat exactly, traced or not."""
        if self.reference is None:
            self.reference = outcome
            if self.pinned is None:
                return []
            return [
                f"{key} = {outcome.counts.get(key)}, pinned {self.pinned[key]}"
                for key in PINNED_COUNTS
                if key in self.pinned and outcome.counts.get(key) != self.pinned[key]
            ]
        problems = []
        if outcome.counts != self.reference.counts:
            problems.append("round counts differ from the first repetition")
        if outcome.fingerprint != self.reference.fingerprint:
            problems.append("output fingerprint differs from the first repetition")
        return problems

    @property
    def correct(self) -> bool:
        return self.failed == 0 and bool(self.walls)

    # -- metrics -------------------------------------------------------
    def end_to_end(self) -> Dict[str, Dict[str, Any]]:
        return {
            "setup_s": stats(self.setups),
            "wall_s": stats(self.walls),
            "peak_rss_mb": stats([self.peak_rss_mb]),
        }

    def per_layer(self) -> Dict[str, Dict[str, Any]]:
        names = sorted({name for layer in self.layers for name in layer})
        result = {name: stats([layer[name] for layer in self.layers]) for name in names}
        traced = statistics.median(self.traced_walls) if self.traced_walls else None
        plain = statistics.median(self.walls) if self.walls else None
        overhead = traced / plain - 1 if traced and plain else None
        busy = sum(self.cpu_busy.get(f"cpu{cpu}", 0.0) for cpu in usable_cpus())
        result["trace.overhead"] = stats([] if overhead is None else [overhead])
        result["host.calib_s"] = stats(self.calibrations)
        result["host.wall_raw_s"] = stats(self.raw_walls)
        result["host.retried_reps"] = stats([self.retried])
        result["process.cpus_busy"] = stats([busy])
        result["process.cpu_util"] = stats([busy / usable_cores()])
        return result


def measure(workload_cls, seed: int, seconds: float, trace: bool, size: str = "full",
            pinned: Optional[Dict[str, int]] = None) -> Measurement:
    """Measure one workload for ``seconds`` (see the module docstring)."""
    workload = workload_cls(seed, workload_cls.sizes[size])
    m = Measurement(workload, pinned)
    m.rep(traced=False, timed=False)  # warm-up: imports, lazy set-up, the pool
    before = cpu_ticks()
    deadline = time.perf_counter() + seconds
    while True:
        m.rep(traced=False)
        if trace:
            m.rep(traced=True)
        enough = len(m.walls) >= MIN_REPS and (not trace or bool(m.layers))
        if time.perf_counter() >= deadline and (enough or m.failed):
            break
    m.calibrate()
    m.cpu_busy = busy_fractions(before, cpu_ticks())
    m.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return m
