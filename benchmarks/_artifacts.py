"""Machine-readable benchmark artifacts.

The ASCII tables in ``benchmarks/results/`` are for humans; tracking the
performance trajectory across commits needs stable JSON.
:func:`write_bench_artifact` serialises a benchmark's raw result rows — plus
the parameters and environment needed to interpret them — as
``BENCH_<name>.json`` under ``$BENCH_ARTIFACTS_DIR`` (default:
``benchmarks/results/``).  The PR smoke workflow uploads these files as build
artifacts, one trajectory point per commit.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import sys
from typing import Any, Dict, Sequence

import numpy

_DEFAULT_DIR = pathlib.Path(__file__).parent / "results"


def environment() -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "platform": sys.platform,
        "commit": os.environ.get("GITHUB_SHA"),
    }


#: Committed (unlike the gitignored ``BENCH_*.json``): one compact summary
#: row per smoke-tier benchmark, refreshed in place on every run.
_TRAJECTORY_NAME = "TRAJECTORY.md"
_TRAJECTORY_PREAMBLE = [
    "# Benchmark trajectory",
    "",
    "One compact summary row per smoke-tier benchmark, upserted (keyed by",
    "benchmark name) by `_artifacts.update_trajectory` each time a benchmark",
    "runs.  Unlike the gitignored `BENCH_*.json` build artifacts this file is",
    "committed, so the repo history carries a human-readable performance",
    "trajectory — one snapshot per commit that re-ran the suite.",
    "",
    "| benchmark | headline |",
    "| --- | --- |",
]


def update_trajectory(name: str, headline: str) -> pathlib.Path:
    """Upsert one benchmark's summary row in ``results/TRAJECTORY.md``.

    ``headline`` is a single compact sentence (the benchmark's key numbers
    against its acceptance floor).  Rows are keyed by ``name`` — re-running a
    benchmark replaces its row in place — and kept sorted for diff stability.
    """
    directory = pathlib.Path(os.environ.get("BENCH_ARTIFACTS_DIR") or _DEFAULT_DIR)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / _TRAJECTORY_NAME
    rows: Dict[str, str] = {}
    if path.exists():
        for line in path.read_text().splitlines():
            if line.startswith("| ") and not line.startswith("| ---"):
                cells = [cell.strip() for cell in line.strip("|").split("|")]
                if len(cells) == 2 and cells[0] != "benchmark":
                    rows[cells[0]] = cells[1]
    rows[name] = " ".join(headline.split())  # keep the row on one line
    lines = list(_TRAJECTORY_PREAMBLE)
    for key in sorted(rows):
        lines.append(f"| {key} | {rows[key]} |")
    path.write_text("\n".join(lines) + "\n")
    return path


def write_bench_artifact(
    name: str, rows: Sequence[Dict[str, Any]], **context: Any
) -> pathlib.Path:
    """Write ``BENCH_<name>.json`` and return its path.

    ``rows`` are the benchmark's raw result rows (JSON-serialisable dicts);
    ``context`` carries the benchmark parameters worth keeping next to the
    numbers (instance sizes, repeat counts, required speedup floors, ...).
    """
    directory = pathlib.Path(os.environ.get("BENCH_ARTIFACTS_DIR") or _DEFAULT_DIR)
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "benchmark": name,
        "context": dict(context),
        "environment": environment(),
        "rows": [dict(row) for row in rows],
    }
    path = directory / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
