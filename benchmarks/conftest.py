"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures.  The raw rows
are rendered as ASCII tables and written to ``benchmarks/results/`` (and echoed
to stdout) so that ``pytest benchmarks/ --benchmark-only | tee bench_output.txt``
leaves a self-contained record; EXPERIMENTS.md summarises the same data.
"""

from __future__ import annotations

import pathlib
import sys
from typing import Dict, List, Sequence

import pytest

from repro.analysis.tables import ExperimentRow, render_table, rows_to_markdown

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

# Speedup benchmarks time the production paths against the test oracles.
sys.path.append(str(pathlib.Path(__file__).resolve().parents[1] / "tests"))


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def save_table(results_dir):
    """Persist a list of row dicts as an ASCII table (and echo it)."""

    def _save(name: str, rows: Sequence[Dict], title: str) -> str:
        experiment_rows = [ExperimentRow(dict(row)) for row in rows]
        text = render_table(experiment_rows, title=title)
        markdown = rows_to_markdown(experiment_rows, title=title)
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")
        (results_dir / f"{name}.md").write_text(markdown + "\n")
        print("\n" + text)
        return text

    return _save
