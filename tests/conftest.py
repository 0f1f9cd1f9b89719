"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import settings

from repro.graphs.generators import (
    GraphSpec,
    barbell_graph,
    cycle_graph,
    grid_graph,
    path_graph,
)
from repro.graphs.weighted import assign_random_weights, unit_weights
from repro.simulator import engine
from repro.simulator.config import ModelConfig
from repro.simulator.network import HybridSimulator

# Property tests draw the same examples on every run: a CI failure replays
# locally, and no run depends on the example database or the wall clock.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(params=["sized", "array"])
def arms(request, monkeypatch):
    """Run the test body under both arms of the size selections.

    ``sized`` keeps the shipped cutoffs, so the small inputs of most tests
    take the scalar arms (``_plan_rounds_python`` below
    ``engine._SMALL_WORKLOAD`` tokens, the list paths below
    ``HybridSimulator._SMALL_SHARD``).  ``array`` sets both cutoffs to 0, so
    every plan and shard of the same inputs takes the NumPy arm.
    """
    if request.param == "array":
        monkeypatch.setattr(engine, "_SMALL_WORKLOAD", 0)
        monkeypatch.setattr(HybridSimulator, "_SMALL_SHARD", 0)
    return request.param


@pytest.fixture
def small_path():
    """A 20-node path (the canonical high-NQ_k family)."""
    return path_graph(20)


@pytest.fixture
def small_cycle():
    return cycle_graph(20)


@pytest.fixture
def small_grid():
    """A 5x5 grid."""
    return grid_graph(5, 2)


@pytest.fixture
def medium_grid():
    """An 8x8 grid, large enough for clustering to be non-trivial."""
    return grid_graph(8, 2)


@pytest.fixture
def small_barbell():
    return barbell_graph(5, 6)


@pytest.fixture
def weighted_grid():
    graph = grid_graph(5, 2)
    return assign_random_weights(graph, max_weight=9, seed=3)


@pytest.fixture
def hybrid_sim(small_grid):
    """HYBRID simulator (dense identifiers) over the 5x5 grid."""
    return HybridSimulator(small_grid, ModelConfig.hybrid(), seed=0)


@pytest.fixture
def hybrid0_sim(small_grid):
    """HYBRID_0 simulator (sparse identifiers) over the 5x5 grid."""
    return HybridSimulator(small_grid, ModelConfig.hybrid0(), seed=0)


@pytest.fixture
def rng():
    return random.Random(1234)
