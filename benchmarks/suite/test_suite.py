"""Self-test of the benchmark at tiny sizes (plain ``pytest`` collects it).

Every workload builds, runs and passes its checks; tracing changes no
output; the tracer puts every wrapped attribute back; self times add up to
no more than the traced wall time; every metric ``BENCHMARK.json`` declares
is produced; and the runner refuses to run without the program.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from suite.harness import measure, run_rep
from suite.trace import Tracer
from suite.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_changes_no_output_and_restores_every_attribute(name):
    cls = WORKLOADS[name]
    workload = cls(1, cls.sizes["tiny"])
    plain = workload.check(run_rep(workload)[2])
    assert plain.problems == []

    tracer = Tracer()
    state = workload.setup(workload.fresh())
    with tracer:
        patched = list(tracer.patched)
        assert patched and all(vars(o)[a] is not f for o, a, f in patched)
        output = workload.run(state)
    traced = workload.check(output)

    assert all(vars(o)[a] is f for o, a, f in patched)
    assert traced.problems == []
    # The fingerprints hash RoundMetrics.summary() and the read checksums.
    assert traced.counts == plain.counts
    assert traced.fingerprint == plain.fingerprint
    assert 0 < tracer.self_seconds() <= tracer.root_s


def test_every_declared_metric_is_produced():
    produced = set()
    for cls in WORKLOADS.values():
        for trace in (False, True):
            m = measure(cls, 1, 0.0, trace, size="tiny")
            assert m.correct, (cls.name, m.problems)
            produced |= set(m.per_layer() if trace else m.end_to_end())
    declared = {metric["name"] for metric in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert declared <= produced


def test_benchmark_spec_is_well_formed():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [w["name"] for w in SPEC["workloads"]] + [m["name"] for m in metrics]
    assert all(name.match(n) for n in names) and len(names) == len(set(names))
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_runner_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        Path(__file__).parent,
        tmp_path / "benchmarks" / "suite",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    child = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "dissem-path",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode != 0
    assert "{" not in child.stdout
