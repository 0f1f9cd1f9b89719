"""Universal lower bounds for dissemination and shortest paths (Section 7).

Lemma 7.2 (the workhorse): on *any* graph ``G`` and for *any* placement of
``k`` tokens, there is a node ``v`` that needs ``eOmega(NQ_k)`` rounds to learn
all tokens, even knowing ``G``.  The proof picks ``v`` with a small ball
(Lemma 3.8: ``|B_r(v)| <= k/r`` for ``r = NQ_k - 1``), walks ``2h + 1`` steps
along a shortest path to find a companion ``w`` with a disjoint ``h``-ball
(``h = floor(r/3) - 1``), argues that one of the two misses at least ``k/2``
tokens, and reduces to the node-communication problem with
``A = V \\ B_h(v)``, ``B = {v}``, ``H(X) = k/2``.

This module constructs that instance explicitly for a given graph and returns
the numeric bound, plus wrappers matching the statements of Theorem 4
(dissemination / aggregation / routing), Theorems 10-12 (shortest paths) and
Corollary 2.1 (BCC simulation).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Hashable, Optional

import networkx as nx

from repro.core.neighborhood_quality import (
    neighborhood_quality,
    neighborhood_quality_per_node,
)
from repro.graphs.properties import ball, hop_distances_from
from repro.lowerbounds.node_communication import NodeCommunicationInstance
from repro.simulator.config import log2_ceil, word_bits

Node = Hashable

__all__ = [
    "UniversalLowerBound",
    "dissemination_lower_bound",
    "routing_lower_bound",
    "shortest_paths_lower_bound",
    "bcc_simulation_lower_bound",
]


@dataclasses.dataclass(frozen=True)
class UniversalLowerBound:
    """A concrete lower-bound evaluation on one graph.

    ``rounds`` is the Lemma 7.1 value of the constructed node-communication
    instance; ``nq`` is the NQ_k value the bound is a surrogate for (the paper's
    statement is eOmega(NQ_k), i.e. ``rounds >= nq / polylog``).
    """

    problem: str
    k: int
    nq: int
    rounds: float
    bottleneck_node: Node
    companion_node: Optional[Node]
    instance: Optional[NodeCommunicationInstance]

    def is_consistent_with_upper_bound(self, measured_rounds: float) -> bool:
        """A sanity relation used by benchmarks: upper bounds must not beat the
        lower bound (lower <= measured), which is trivially monotone but worth
        asserting mechanically across the whole experiment grid."""
        return measured_rounds >= self.rounds - 1e-9


def _argmax_nq(per_node: Dict[Node, int]) -> Node:
    """The Lemma 3.8 witness: the NQ-maximizing node (its balls are small),
    ties broken by smallest string order."""
    return max(sorted(per_node, key=str), key=lambda v: per_node[v])


def _build_lemma_7_2_instance(
    graph: nx.Graph, k: int, gamma_bits: float, success_probability: float
) -> UniversalLowerBound:
    """Construct the Lemma 7.2 node-communication instance and evaluate it."""
    n = graph.number_of_nodes()
    # One early-terminating per-node sweep yields both the Lemma 3.8 witness
    # node and NQ_k(G) (the witness's value, by definition of the argmax).
    per_node = neighborhood_quality_per_node(graph, k)
    v = _argmax_nq(per_node)
    nq = per_node[v]

    r = nq - 1
    if nq < 6 or r < 3:
        # The paper treats NQ_k < 6 as the trivial regime; the bound is then a
        # small constant.
        return UniversalLowerBound(
            problem="lemma-7.2",
            k=k,
            nq=nq,
            rounds=0.0,
            bottleneck_node=v,
            companion_node=None,
            instance=None,
        )

    h = r // 3 - 1
    h = max(1, h)
    # Companion node w at hop distance exactly 2h + 1 from v along a shortest path.
    dist = hop_distances_from(graph, v)
    target_distance = 2 * h + 1
    candidates = [u for u, d in dist.items() if d == target_distance]
    companion = min(candidates, key=str) if candidates else None

    set_b = {v}
    set_a = set(graph.nodes) - ball(graph, v, h)
    if not set_a:
        return UniversalLowerBound(
            problem="lemma-7.2",
            k=k,
            nq=nq,
            rounds=0.0,
            bottleneck_node=v,
            companion_node=companion,
            instance=None,
        )
    entropy = k / 2.0
    instance = NodeCommunicationInstance.build(graph, set_a, set_b, entropy)
    rounds = instance.lower_bound_rounds(gamma_bits, success_probability)
    return UniversalLowerBound(
        problem="lemma-7.2",
        k=k,
        nq=nq,
        rounds=rounds,
        bottleneck_node=v,
        companion_node=companion,
        instance=instance,
    )


def _default_gamma_bits(n: int) -> float:
    """gamma = Theta(log^2 n) bits in the standard HYBRID model."""
    log_n = log2_ceil(max(n, 2))
    return float(log_n * word_bits(n))


def dissemination_lower_bound(
    graph: nx.Graph,
    k: int,
    *,
    gamma_bits: Optional[float] = None,
    success_probability: float = 0.9,
) -> UniversalLowerBound:
    """Theorem 4: k-dissemination / k-aggregation need eOmega(NQ_k) rounds."""
    if k < 1:
        raise ValueError("k must be positive")
    n = graph.number_of_nodes()
    gamma = gamma_bits if gamma_bits is not None else _default_gamma_bits(n)
    bound = _build_lemma_7_2_instance(graph, k, gamma, success_probability)
    return dataclasses.replace(bound, problem="k-dissemination")


def routing_lower_bound(
    graph: nx.Graph,
    k: int,
    l: int,
    *,
    gamma_bits: Optional[float] = None,
    success_probability: float = 0.9,
) -> UniversalLowerBound:
    """Theorem 4 for (k, l)-routing with arbitrary targets (same NQ_k bound)."""
    if l < 1:
        raise ValueError("l must be positive")
    bound = dissemination_lower_bound(
        graph, k, gamma_bits=gamma_bits, success_probability=success_probability
    )
    return dataclasses.replace(bound, problem=f"({k},{l})-routing")


def shortest_paths_lower_bound(
    graph: nx.Graph,
    k: int,
    *,
    weighted: bool = True,
    gamma_bits: Optional[float] = None,
    success_probability: float = 0.9,
) -> UniversalLowerBound:
    """Theorems 10, 11, 12: (k, l)-SP / k-SSP need eOmega(NQ_k) rounds.

    The unweighted HYBRID_0 bound (Theorem 10) and the weighted HYBRID bounds
    (Theorems 11, 12) all reduce to the same Lemma 7.2 instance; only the
    entropy bookkeeping differs (k identifier tokens vs. a k-bit random string),
    so the numeric value returned is identical and tagged with the problem name.
    """
    bound = dissemination_lower_bound(
        graph, k, gamma_bits=gamma_bits, success_probability=success_probability
    )
    name = "weighted (k,l)-SP" if weighted else "unweighted k-SSP"
    return dataclasses.replace(bound, problem=name)


def bcc_simulation_lower_bound(
    graph: nx.Graph,
    *,
    gamma_bits: Optional[float] = None,
    success_probability: float = 0.9,
) -> UniversalLowerBound:
    """Corollary 2.1: simulating one BCC round needs eOmega(NQ_n) rounds."""
    n = graph.number_of_nodes()
    bound = dissemination_lower_bound(
        graph, n, gamma_bits=gamma_bits, success_probability=success_probability
    )
    return dataclasses.replace(bound, problem="BCC-round simulation")
