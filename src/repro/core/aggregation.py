"""Universally optimal multi-message aggregation: ``k-aggregation`` (Theorem 2).

Problem (Definition 1.2): every node ``v`` holds ``k`` values
``f_1(v), ..., f_k(v)``; for an associative and commutative aggregation
function ``F`` every node must learn ``F(f_i(v_1), ..., f_i(v_n))`` for every
index ``i``.

Theorem 2: solvable deterministically in ``eO(NQ_k)`` rounds in HYBRID_0.  The
algorithm mirrors Theorem 1's broadcast: cluster the graph (Lemma 3.5), compute
the ``k`` intermediate aggregates inside each cluster (local flooding, charged),
load balance them so each node is responsible for at most ``NQ_k`` indices,
converge-cast the partial aggregates up the cluster tree (combining per index,
physically simulated over the global mode), and finally disseminate the ``k``
final results with Theorem 1.

Like :class:`~repro.core.dissemination.KDissemination`, the implementation is
a :class:`~repro.simulator.engine.BatchAlgorithm`; the converge-cast moves
whole levels of partial aggregates through the batch messaging engine.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence

import numpy as np

from repro.core.clustering import Clustering, distributed_nq_clustering
from repro.core.dissemination import (
    ClusterTree,
    KDissemination,
    _rank_matched_columns,
    build_cluster_tree,
    match_cluster_tree_ids,
)
from repro.core.neighborhood_quality import neighborhood_quality
from repro.core.overlay import _level_words
from repro.simulator.config import log2_ceil
from repro.simulator.engine import BatchAlgorithm, TokenPlane
from repro.simulator.metrics import RoundMetrics
from repro.simulator.network import HybridSimulator

Node = Hashable

__all__ = ["AggregationResult", "KAggregation"]


@dataclasses.dataclass
class AggregationResult:
    """Outcome of a k-aggregation run."""

    aggregates: List[Any]
    known_aggregates: Dict[Node, List[Any]]
    k: int
    nq: int
    metrics: RoundMetrics

    def all_nodes_know_all_aggregates(self) -> bool:
        return all(known == self.aggregates for known in self.known_aggregates.values())


class KAggregation(BatchAlgorithm):
    """Theorem 2: deterministic ``eO(NQ_k)``-round k-aggregation in HYBRID_0.

    Parameters
    ----------
    simulator: the network.
    values_by_node: mapping ``node -> [f_1(v), ..., f_k(v)]``; every node must
        supply the same number ``k`` of values.
    combine: the aggregation function ``F`` (associative and commutative), e.g.
        ``min``, ``max``, ``operator.add``.
    """

    def __init__(
        self,
        simulator: HybridSimulator,
        values_by_node: Dict[Node, Sequence[Any]],
        combine: Callable[[Any, Any], Any],
        *,
        nq: Optional[int] = None,
    ) -> None:
        super().__init__(simulator)
        self.combine = combine
        node_set = set(simulator.nodes)
        if set(values_by_node) != node_set:
            raise ValueError("values_by_node must provide values for every node")
        lengths = {len(values) for values in values_by_node.values()}
        if len(lengths) != 1:
            raise ValueError("every node must hold the same number k of values")
        self.k = lengths.pop()
        if self.k == 0:
            raise ValueError("k must be positive")
        self.values_by_node = {node: list(values) for node, values in values_by_node.items()}
        self._nq_hint = nq
        # Phase state.
        self._log_n = log2_ceil(max(simulator.n, 2))
        self.nq = 0
        self.clustering: Optional[Clustering] = None
        self.cluster_tree: Optional[ClusterTree] = None
        # Id-sorted cluster members (:meth:`Clustering.member_layout`).
        self._member_layout: Any = None
        self._cluster_partials: Dict[int, List[Any]] = {}
        self._final_aggregates: List[Any] = []
        self._known_aggregates: Dict[Node, List[Any]] = {}

    # ------------------------------------------------------------------
    def phases(self):
        return (
            ("parameters", self._phase_parameters),
            ("intra-cluster aggregation", self._phase_intra_cluster),
            ("converge-cast", self._phase_converge_cast),
            ("broadcast", self._phase_broadcast),
        )

    def _phase_parameters(self) -> None:
        """Compute NQ_k, the clustering (Lemma 3.5) and the cluster chaining."""
        sim = self.simulator
        log_n = self._log_n
        nq = self._nq_hint
        if nq is None:
            nq = neighborhood_quality(sim.graph, self.k)
        self.nq = max(1, nq)
        sim.charge_rounds(self.nq, "distributed computation of NQ_k", "Lemma 3.3")

        self.clustering = distributed_nq_clustering(sim, self.k, nq=self.nq)
        self.cluster_tree = build_cluster_tree(self.clustering)
        layout = self.clustering.member_layout(
            sim.node_indexer(), sim.identifier_column()
        )
        self._member_layout = layout
        sim.charge_rounds(
            log_n * log_n, "cluster-tree construction", "Lemma 4.6 via Theorem 2"
        )
        sim.charge_rounds(
            log_n,
            "matching parent/child cluster nodes rank-by-rank",
            "Theorem 2 via Theorem 1, cluster chaining",
        )
        match_cluster_tree_ids(sim, self.clustering, self.cluster_tree, layout)

    def _phase_intra_cluster(self) -> None:
        """Intra-cluster intermediate aggregation (local flooding, charged)."""
        sim = self.simulator
        k = self.k
        combine = self.combine
        cluster_partials: Dict[int, List[Any]] = {}
        for cluster in self.clustering.clusters:
            partial: List[Any] = [None] * k
            for member in cluster.members:
                for index, value in enumerate(self.values_by_node[member]):
                    if partial[index] is None:
                        partial[index] = value
                    else:
                        partial[index] = combine(partial[index], value)
            cluster_partials[cluster.index] = partial
        self._cluster_partials = cluster_partials
        sim.charge_rounds(
            4 * self.nq * self._log_n,
            "intra-cluster flooding for intermediate aggregation",
            "Theorem 2",
        )
        sim.charge_rounds(
            8 * self.nq * self._log_n,
            "intra-cluster load balancing of intermediate aggregates",
            "Lemma 4.1",
        )

    def _phase_converge_cast(self) -> None:
        """Converge-cast the k partial aggregates up the cluster tree (measured).

        Each level is one :class:`~repro.simulator.engine.TokenPlane`: every
        edge carries its cluster's ``k`` pairs ``(index, partial[index])`` in
        index order over the rank-matched member pairs of Theorem 1
        (:func:`~repro.core.dissemination._rank_matched_columns`).  The parents
        fold the pairs from the locally known partials, so the exchange does
        not harvest.
        """
        sim = self.simulator
        k = self.k
        combine = self.combine
        cluster_tree = self.cluster_tree
        cluster_partials = self._cluster_partials
        levels = cluster_tree.levels()
        for level in reversed(levels[1:]):
            parents = [cluster_tree.parent[cluster_index] for cluster_index in level]
            values = [
                value for cluster_index in level for value in cluster_partials[cluster_index]
            ]
            payloads = list(zip(list(range(k)) * len(level), values))
            senders, receivers = _rank_matched_columns(
                self._member_layout,
                np.array(level, dtype=np.int64),
                np.array(parents, dtype=np.int64),
                np.full(len(level), k, dtype=np.int64),
            )
            # A pair is its framing word, one word for an index below 2^64
            # and the partial's own words.
            words = 2 + np.array(_level_words(values), dtype=np.int64)
            self.exchange(
                TokenPlane(senders, receivers, words, payloads), "kagg", collect=False
            )
            for cluster_index, parent_index in zip(level, parents):
                parent_partial = cluster_partials[parent_index]
                for index, value in enumerate(cluster_partials[cluster_index]):
                    if value is None:
                        continue
                    if parent_partial[index] is None:
                        parent_partial[index] = value
                    else:
                        parent_partial[index] = combine(parent_partial[index], value)
            sim.charge_rounds(
                8 * self.nq * self._log_n,
                "intra-cluster load balancing between converge-cast levels",
                "Lemma 4.1",
            )
        self._final_aggregates = list(cluster_partials[cluster_tree.root])

    def _phase_broadcast(self) -> None:
        """The root cluster knows the k results; broadcast them with Theorem 1."""
        sim = self.simulator
        root_cluster = self.clustering.clusters[self.cluster_tree.root]
        announcer = root_cluster.leader
        tokens = [
            ("agg-result", index, value)
            for index, value in enumerate(self._final_aggregates)
        ]
        dissemination = KDissemination(sim, {announcer: tokens}, nq=None, clustering=None)
        dissemination_result = dissemination.run()

        known_aggregates: Dict[Node, List[Any]] = {}
        for node, known in dissemination_result.known_tokens.items():
            values: List[Any] = [None] * self.k
            for token in known:
                if isinstance(token, tuple) and len(token) == 3 and token[0] == "agg-result":
                    values[token[1]] = token[2]
            known_aggregates[node] = values
        self._known_aggregates = known_aggregates

    def finish(self) -> AggregationResult:
        return AggregationResult(
            aggregates=self._final_aggregates,
            known_aggregates=self._known_aggregates,
            k=self.k,
            nq=self.nq,
            metrics=self.simulator.metrics,
        )
