"""Existentially optimal (1+eps)-approximate SSSP (Theorem 13).

Theorem 13: a (1+eps)-approximation of single-source shortest paths can be
computed deterministically in ``eO(1/eps^2)`` rounds of HYBRID_0.  The paper
obtains this by simulating the Minor-Aggregation model (Lemma 8.2, see
:mod:`repro.core.minor_aggregation`) and an Eulerian-orientation oracle
(Lemma 8.6, see :mod:`repro.core.euler`) and plugging both into the
transshipment-based SSSP framework of [RGH+22] (Lemma 8.1).

Per the substitution policy (DESIGN.md note 2) the transshipment solver itself
is not replicated; the *functional* (1+eps)-approximation produced here uses
the classical weight-rounding scheme — every edge weight is rounded up to the
nearest power of ``(1 + eps)`` before running an exact shortest-path
computation, which over-estimates every distance by at most a factor
``(1 + eps)`` — and the round cost of Theorem 13,
``ceil(1/eps^2) * polylog(n)``, is charged.  All downstream users (Theorems 5,
6, 14) only rely on (a) the stretch guarantee and (b) the charged round count,
both of which are preserved.

Since the weighted-engine migration, :func:`exact_sssp_distances` and
:func:`approx_sssp_distances` are thin wrappers over the cached
:class:`~repro.graphs.index.GraphIndex`: the Dijkstra runs on flat CSR arrays
with precomputed tie keys, and the power-of-``(1 + eps)`` rounding is applied
to the whole weight array once per ``(graph, epsilon)`` and memoised instead
of once per edge relaxation per query — the per-leader (Theorem 6) and
per-skeleton (Theorems 8/14) SSSP sweeps share one rounded CSR.  The
historical dict+heapq implementation is a test oracle
(``tests/oracles/weighted.py``), and
``tests/properties/test_weighted_equivalence.py`` pins exact agreement (and
agreement with ``networkx``) across graph families.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Hashable, Optional

import networkx as nx

from repro.graphs.index import get_index, round_weight_up
from repro.simulator.config import log2_ceil
from repro.simulator.engine import BatchAlgorithm
from repro.simulator.metrics import RoundMetrics
from repro.simulator.network import HybridSimulator

Node = Hashable

__all__ = [
    "round_weight_up",
    "approx_sssp_distances",
    "exact_sssp_distances",
    "SSSPResult",
    "ApproxSSSP",
    "sssp_round_cost",
]


def exact_sssp_distances(graph: nx.Graph, source: Node) -> Dict[Node, float]:
    """Exact Dijkstra distances (ground truth / stretch-1 special case).

    Delegates to the cached :class:`~repro.graphs.index.GraphIndex` flat-array
    Dijkstra; identical values to the dict+heapq oracle, only the key order
    of the returned dict may differ.
    """
    return get_index(graph).sssp_dict(source)


def approx_sssp_distances(
    graph: nx.Graph, source: Node, epsilon: float
) -> Dict[Node, float]:
    """(1+eps)-approximate SSSP distances via weight rounding.

    Every returned estimate ``d~`` satisfies ``d <= d~ <= (1 + eps) d`` where
    ``d`` is the true weighted distance.  Runs on the index's cached
    rounded-weight CSR (rounded once per ``(graph, epsilon)``, not once per
    query).
    """
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    return get_index(graph).sssp_dict(source, epsilon)


def sssp_round_cost(n: int, epsilon: float) -> int:
    """The Theorem 13 round cost ``ceil(1/eps^2) * polylog(n)`` we charge."""
    log_n = log2_ceil(max(n, 2))
    eps = max(epsilon, 1e-9)
    return int(math.ceil(1.0 / (eps * eps))) * log_n * log_n


@dataclasses.dataclass
class SSSPResult:
    """Outcome of an SSSP computation."""

    source: Node
    distances: Dict[Node, float]
    epsilon: float
    metrics: RoundMetrics

    def distance_to(self, node: Node) -> float:
        return self.distances.get(node, math.inf)


class ApproxSSSP(BatchAlgorithm):
    """Theorem 13: deterministic (1+eps)-approximate SSSP in ``eO(1/eps^2)`` rounds.

    The distance estimates are produced by :func:`approx_sssp_distances`; the
    Theorem 13 round cost is charged on the simulator (the Minor-Aggregation
    and Euler-oracle components it builds on live in their own modules and are
    tested independently).  The algorithm rides the
    :class:`~repro.simulator.engine.BatchAlgorithm` driver so its phases show
    up in ``phase_log`` next to the physically simulated algorithms; no traffic
    crosses the simulated network.
    """

    def __init__(
        self,
        simulator: HybridSimulator,
        source: Node,
        epsilon: float = 0.25,
    ) -> None:
        super().__init__(simulator)
        if source not in set(simulator.nodes):
            raise KeyError(f"source {source!r} is not a node of the network")
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.source = source
        self.epsilon = epsilon
        self._distances: Dict[Node, float] = {}

    def phases(self):
        return (
            ("weight-rounded dijkstra", self._phase_distances),
            ("round-charge", self._phase_charge),
        )

    def _phase_distances(self) -> None:
        self._distances = approx_sssp_distances(
            self.simulator.graph, self.source, self.epsilon
        )

    def _phase_charge(self) -> None:
        self.simulator.charge_rounds(
            sssp_round_cost(self.simulator.n, self.epsilon),
            f"(1+{self.epsilon})-approximate SSSP from {self.source!r}",
            "Theorem 13 via Lemmas 8.1, 8.2, 8.6",
        )

    def finish(self) -> SSSPResult:
        return SSSPResult(
            source=self.source,
            distances=self._distances,
            epsilon=self.epsilon,
            metrics=self.simulator.metrics,
        )
