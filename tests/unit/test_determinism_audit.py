"""Determinism audit: every stochastic path is a seeded ``random.Random``.

Replayability is a hard requirement of the fault-injection layer (a fault run
must be reproducible from ``(seed, schedule)`` alone), and of the benchmark
suite more broadly.  This audit pins it structurally and behaviourally:

* a source scan over ``src/repro`` asserts no module calls functions of the
  global ``random`` module (``random.random()``, ``random.shuffle()``, ...)
  or reseeds it — the only sanctioned use is constructing a *local*
  ``random.Random(seed)``;
* running simulations, fault schedules and graph generators must not consume
  or perturb the interpreter's global random state;
* stochastic components (drop RNG, random graphs, crash picks) replay
  identically from their seeds and diverge across seeds.
"""

from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest

import repro
from repro.graphs.generators import erdos_renyi_graph, random_regular_graph
from repro.simulator.config import ModelConfig
from repro.simulator.faults import FaultSchedule, crash_fraction_schedule
from repro.simulator.messages import GLOBAL_MODE
from repro.simulator.network import HybridSimulator

from oracles import transport

SRC_ROOT = Path(repro.__file__).resolve().parent

#: The only attribute of the global ``random`` module code may touch.
_ALLOWED_RANDOM_ATTRS = {"Random"}


def _module_random_uses(tree: ast.AST):
    """Yield (lineno, attr) for every use of ``random.<attr>`` not allowed."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "random"
            and node.attr not in _ALLOWED_RANDOM_ATTRS
        ):
            yield node.lineno, node.attr
        # `from random import shuffle` style imports defeat the attribute
        # check, so ban them outright.
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            for alias in node.names:
                if alias.name not in _ALLOWED_RANDOM_ATTRS:
                    yield node.lineno, alias.name


def test_no_module_level_random_state_in_src():
    offenders = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno, attr in _module_random_uses(tree):
            offenders.append(f"{path.relative_to(SRC_ROOT)}:{lineno}: random.{attr}")
    assert not offenders, (
        "global random-module state used in src/repro (seed a local "
        "random.Random instead):\n" + "\n".join(offenders)
    )


def test_runs_do_not_touch_global_random_state():
    random.seed(424242)
    before = random.getstate()
    graph = erdos_renyi_graph(24, 0.2, seed=7)
    random_regular_graph(12, 3, seed=9)
    schedule = crash_fraction_schedule(24, 0.2, seed=5, drop_rate=0.3)
    sim = HybridSimulator(graph, ModelConfig.hybrid(), seed=3, fault_schedule=schedule)
    for r in range(4):
        transport.send_ids(
            sim,
            [i % 24 for i in range(40)],
            [(i * 7 + r) % 24 for i in range(40)],
            [("p", r, i) for i in range(40)],
        )
        sim.advance_round()
    assert sim.metrics.dropped_messages > 0
    assert random.getstate() == before, (
        "simulating under faults consumed the interpreter's global RNG state"
    )


def _drop_run(schedule_seed):
    graph = erdos_renyi_graph(20, 0.25, seed=11)
    schedule = FaultSchedule(seed=schedule_seed, global_drop_rate=0.4)
    sim = HybridSimulator(graph, ModelConfig.hybrid(), seed=1, fault_schedule=schedule)
    for r in range(5):
        transport.send_ids(
            sim,
            [i % 20 for i in range(60)],
            [(i * 3 + r) % 20 for i in range(60)],
            [("q", r, i) for i in range(60)],
        )
        sim.advance_round()
    return sim.per_node_inbox(GLOBAL_MODE), sim.metrics.summary()


def test_fault_runs_replay_from_seed_and_schedule():
    assert _drop_run(5) == _drop_run(5)
    inbox_a, summary_a = _drop_run(5)
    inbox_b, summary_b = _drop_run(6)
    assert summary_a["global_messages"] == summary_b["global_messages"]  # same attempts
    assert inbox_a != inbox_b  # different drop trajectories


@pytest.mark.parametrize(
    "generate",
    [
        lambda seed: erdos_renyi_graph(30, 0.15, seed=seed),
        lambda seed: random_regular_graph(20, 3, seed=seed),
    ],
)
def test_random_graphs_replay_from_their_seed(generate):
    first, second, other = generate(4), generate(4), generate(5)
    assert sorted(first.edges) == sorted(second.edges)
    assert sorted(first.edges) != sorted(other.edges)


def test_crash_picks_replay_from_their_seed():
    picks = lambda seed: [c.node for c in crash_fraction_schedule(50, 0.3, seed=seed).crashes]
    assert picks(2) == picks(2)
    assert picks(2) != picks(3)
