"""Run the HYBRID benchmark.

One workload (the form ``BENCHMARK.json`` names)::

    python3 benchmarks/suite/run.py --workload dissem-path --seed 1 --seconds 15 --trace 0

prints every metric by name and unit, then, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
With ``--out DIR`` it also writes ``DIR/<workload>.trace<0|1>.json`` with
quartiles, a record of every repetition, per-CPU busy fractions, absent
trace targets and the spans of the last traced repetition.

Every workload (a session)::

    python3 benchmarks/suite/run.py --seed 1 --out DIR

runs each workload in its own child process, once with tracing off and once
with it on, and writes ``DIR/results.json`` with the host facts.

Either form exits non-zero when any check fails.  It also exits non-zero,
printing no result, when the program's ``src/`` directory is missing.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = ROOT / "BENCHMARK.json"
PINNED = HERE / "pinned.json"
#: A child measures for ``--seconds``; the rest is start-up and set-up.
CHILD_TIMEOUT_S = 600


def _bootstrap() -> None:
    """Import the program from this checkout's ``src/`` or exit with 2.

    The script's own directory is replaced on ``sys.path`` by its parent, so
    the suite is imported as the ``suite`` package and ``suite/trace.py``
    never shadows the standard library's ``trace`` module.
    """
    src = (ROOT / "src").resolve()
    sys.path[0] = str(HERE.parent)
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"cannot import the program from {src}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(src):
        sys.exit(f"imported the program from {repro.__file__}, not from {src}")


def _read(path: Path, command: str) -> str:
    try:
        return subprocess.run(
            command.split(), cwd=path, capture_output=True, text=True, timeout=30
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def host_facts() -> dict:
    """The facts that make a number from this host comparable."""
    from suite.harness import usable_cores

    cpu_model, mhz = None, []
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                key, _, value = line.partition(":")
                if key.strip() == "model name":
                    cpu_model = value.strip()
                elif key.strip() == "cpu MHz":
                    mhz.append(float(value))
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    git = (ROOT / ".git").exists()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": usable_cores(),
        "cpu_model": cpu_model,
        "cpu_mhz": mhz,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "repro_no_numpy": os.environ.get("REPRO_NO_NUMPY"),
        "mp_start_methods": multiprocessing.get_all_start_methods(),
        "mp_default_start_method": multiprocessing.get_context().get_start_method(),
        "repro_shard_workers": os.environ.get("REPRO_SHARD_WORKERS"),
        "git_sha": _read(ROOT, "git rev-parse HEAD") or None if git else None,
        "git_dirty": bool(_read(ROOT, "git status --porcelain")) if git else None,
        "loadavg": list(os.getloadavg()),
    }


def _line(name: str, unit: str, s: dict) -> str:
    if s["median"] is None:
        return f"  {name:<44} (no sample)"
    return (
        f"  {name:<44} {s['median']:.6g} {unit}"
        f"   (median; q1 {s['q1']:.6g}, q3 {s['q3']:.6g}; n={s['n']})"
    )


def run_workload(args, spec: dict) -> int:
    from suite.harness import measure, usable_cores
    from suite.workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    if cls.uses_pool:
        os.environ["REPRO_SHARD_WORKERS"] = str(usable_cores())
    pins = json.loads(PINNED.read_text())
    pinned = pins["workloads"].get(cls.name) if args.seed == pins["seed"] else None
    loadavg = list(os.getloadavg())
    m = measure(cls, args.seed, args.seconds, bool(args.trace), pinned=pinned)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = m.per_layer() if args.trace else m.end_to_end()
    empty = {"median": None, "q1": None, "q3": None, "n": 0}
    # A declared layer metric no repetition produced (a phase this workload
    # does not have) reads 0.
    zero = {"median": 0, "q1": 0, "q3": 0, "n": len(m.layers)}
    picked = {
        metric["name"]: measured.get(metric["name"], zero if args.trace else empty)
        for metric in declared
    }

    print(
        f"{cls.name} seed={args.seed} trace={args.trace}: {m.attempted} repetitions, "
        f"{m.failed} failed, {m.retried} retried for host drift"
    )
    for metric in declared:
        print(_line(metric["name"], metric["unit"], picked[metric["name"]]))
    for problem in m.problems:
        print(f"  CHECK FAILED: {problem}")
    for target in m.absent:
        print(f"  trace target absent: {target}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        detail = {
            "workload": cls.name,
            "seed": args.seed,
            "trace": args.trace,
            "size": cls.sizes["full"],
            "correct": m.correct,
            "attempted": m.attempted,
            "failed": m.failed,
            "failed_frac": m.failed / m.attempted,
            "retried_reps": m.retried,
            "problems": m.problems,
            "counts": m.reference.counts if m.reference else None,
            "fingerprint": m.reference.fingerprint if m.reference else None,
            "loadavg_at_start": loadavg,
            "repro_shard_workers": os.environ.get("REPRO_SHARD_WORKERS"),
            "cpu_busy": m.cpu_busy,
            "calibrations_s": m.calibrations,
            "repetitions": m.log,
            "metrics": measured,
            "absent_trace_targets": m.absent,
            "spans": m.spans,
        }
        path = out / f"{cls.name}.trace{args.trace}.json"
        path.write_text(json.dumps(detail, indent=1))
    result = {
        "correct": m.correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {
            metric["name"]: {"value": picked[metric["name"]]["median"], "unit": metric["unit"]}
            for metric in declared
        },
    }
    print(json.dumps(result))
    return 0 if m.correct else 1


def run_session(args, spec: dict) -> int:
    from suite.workloads import WORKLOADS

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    results = {
        "seed": args.seed,
        "seconds": args.seconds,
        "host": host_facts(),
        "workloads": {},
    }
    ok = True
    for name in WORKLOADS:
        entry = results["workloads"][name] = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            detail_path = out / f"{name}.trace{trace}.json"
            detail_path.unlink(missing_ok=True)
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--out", str(out),
            ]
            child = subprocess.run(
                command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
            )
            sys.stdout.write(child.stdout)
            sys.stdout.flush()
            ok = ok and child.returncode == 0
            if not detail_path.exists():
                ok = False
                continue
            detail = json.loads(detail_path.read_text())
            entry[key] = {
                metric["name"]: dict(detail["metrics"].get(metric["name"], {}), unit=metric["unit"])
                for metric in spec[key]
            }
            for field in ("attempted", "failed", "failed_frac", "retried_reps", "counts",
                          "cpu_busy", "loadavg_at_start", "repro_shard_workers"):
                entry.setdefault(f"trace{trace}", {})[field] = detail[field]
    results["correct"] = ok
    (out / "results.json").write_text(json.dumps(results, indent=1))
    print(f"wrote {out / 'results.json'}; all checks {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; omit to run them all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for detail files and results.json")
    args = parser.parse_args(argv)
    _bootstrap()
    from suite.workloads import WORKLOADS

    if args.workload is None:
        if not args.out:
            parser.error("running every workload needs --out")
        return run_session(args, spec)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
