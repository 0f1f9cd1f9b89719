"""Universally optimal multi-message broadcast: ``k-dissemination`` (Theorem 1).

Problem (Definition 1.1): ``k`` tokens of O(log n) bits are initially spread
arbitrarily over the nodes (a node may hold anywhere between 0 and k of them);
at the end every node must know all ``k`` tokens.

Theorem 1: the problem is solvable deterministically in ``eO(NQ_k)`` rounds in
HYBRID_0.  The algorithm (Section 4.2, Figure 2) has five phases:

1. **Parameter computation** — compute ``k`` (basic aggregation, Lemma 4.4) and
   ``NQ_k`` (Lemma 3.3).
2. **Clustering** — partition ``V`` into clusters of weak diameter
   ``<= 4 NQ_k ceil(log n)`` and size ``[k/NQ_k, 2k/NQ_k]`` (Lemma 3.5).
3. **Cluster chaining** — build a logical cluster tree of depth/degree
   ``O(log n)`` (Lemma 4.6) and match the nodes of adjacent clusters rank-by-
   rank so matched nodes can talk over the global mode.
4. **Load balancing** — within each cluster, spread the held tokens so every
   node holds at most ``NQ_k`` of them (Lemma 4.1).
5. **Dissemination** — converge-cast all tokens up the cluster tree to the root
   cluster (load balancing before each level), then cast them back down; a
   final intra-cluster flood of ``4 NQ_k ceil(log n)`` local rounds makes every
   node know every token.

The global-mode token movements of phase 5 are physically simulated (throttled
to the per-node budget); the local-mode coordination of phases 2-4 and the
final flood are charged per the paper's analysis (DESIGN.md substitution
note 1).

The implementation is a :class:`~repro.simulator.engine.BatchAlgorithm`: each
cluster-tree level of phase 5 is assembled as one id-native
:class:`~repro.simulator.engine.TokenPlane` and moved by the round engine's
exchange.  Its token order is that of the reference ``rank_matched_triples``
(``tests/oracles/scheduler.py``) over the level's edges, so the tuple and
per-message oracles (``tests/oracles/``) produce identical round counts,
inboxes and metrics.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any, Dict, FrozenSet, Hashable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.clustering import Clustering, distributed_nq_clustering
from repro.core.neighborhood_quality import neighborhood_quality
from repro.core.overlay import VirtualTree, basic_aggregation, build_virtual_tree
from repro.simulator.config import log2_ceil
from repro.simulator.engine import BatchAlgorithm, TokenPlane
from repro.simulator.messages import payload_words
from repro.simulator.metrics import RoundMetrics
from repro.simulator.network import HybridSimulator

Node = Hashable

__all__ = ["DisseminationResult", "KDissemination", "ClusterTree"]


#: The phase-3 cluster tree: a heap-layout tree whose labels are cluster indices.
ClusterTree = VirtualTree


def build_cluster_tree(clustering: Clustering) -> ClusterTree:
    """Binary cluster tree over cluster indices (constant degree, O(log) depth)."""
    order = [cluster.index for cluster in clustering.clusters]
    return VirtualTree(order, list(range(len(order))))


def _rank_matched_columns(layout, sources, targets, counts) -> Tuple[Any, Any]:
    """Sender and receiver node-index columns of rank-matched cluster edges.

    Edge ``e`` carries ``counts[e]`` tokens from cluster ``sources[e]`` (``S``
    members) to cluster ``targets[e]`` (``T`` members); its position ``j`` is
    sent by source member ``j % S`` to target member ``(j % S) % T``, members
    in identifier order.  Each column is one gather into the member
    permutation of ``layout``, the ``(member_perm, starts)`` pair of
    :meth:`Clustering.member_layout`, over every edge at once.
    """
    member_perm, starts = layout
    first_source, first_target = starts[sources], starts[targets]
    j = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    rank = j % np.repeat(starts[sources + 1] - first_source, counts)
    target_rank = rank % np.repeat(starts[targets + 1] - first_target, counts)
    return (
        member_perm[np.repeat(first_source, counts) + rank],
        member_perm[np.repeat(first_target, counts) + target_rank],
    )


def match_cluster_tree_ids(
    simulator: HybridSimulator,
    clustering: Clustering,
    cluster_tree: ClusterTree,
    layout=None,
) -> None:
    """Phase 3 subphase 2 of Theorem 1: rank-match adjacent clusters.

    For every edge of the cluster tree, member ``i`` of one cluster is paired
    with member ``i mod |other|`` of the other; both learn each other's
    identifier so they can exchange global messages.  The round cost of the
    matching (O(log n), one tree level at a time) is charged by the caller.

    ``layout`` (optional) supplies :meth:`Clustering.member_layout`, which
    the plane engine already holds.  The larger cluster of each edge plays
    the source of :func:`_rank_matched_columns`, one position per member,
    and the pairs are recorded in the knowledge tracker's pair store with
    one merge.
    """
    if layout is None:
        layout = clustering.member_layout(
            simulator.node_indexer(), simulator.identifier_column()
        )
    edges = [(c, p) for c, p in cluster_tree.parent.items() if p is not None]
    if not edges:
        return
    child, parent = np.array(edges, dtype=np.int64).T
    sizes = np.diff(layout[1])
    swap = sizes[child] < sizes[parent]
    larger = np.where(swap, parent, child)
    a, b = _rank_matched_columns(
        layout, larger, np.where(swap, child, parent), sizes[larger]
    )
    simulator.knowledge.learn_index_pairs(
        np.concatenate((a, b)), np.concatenate((b, a))
    )


@dataclasses.dataclass
class DisseminationResult:
    """Outcome of a k-dissemination run.

    ``known_tokens`` maps each node to the tokens it knows, as frozensets;
    members of the same cluster share one frozenset (they learn the same
    tokens in the final intra-cluster flood).
    """

    tokens: Set[Any]
    known_tokens: Dict[Node, FrozenSet[Any]]
    k: int
    nq: int
    clustering: Clustering
    cluster_tree: ClusterTree
    metrics: RoundMetrics

    def all_nodes_know_all_tokens(self) -> bool:
        return all(known == self.tokens for known in self.known_tokens.values())


class KDissemination(BatchAlgorithm):
    """Theorem 1: deterministic ``eO(NQ_k)``-round k-dissemination in HYBRID_0."""

    def __init__(
        self,
        simulator: HybridSimulator,
        tokens_by_node: Dict[Node, Sequence[Any]],
        *,
        nq: Optional[int] = None,
        clustering: Optional[Clustering] = None,
        charge_only: bool = False,
    ) -> None:
        super().__init__(simulator)
        self.charge_only = bool(charge_only)
        node_set = set(simulator.nodes)
        self.tokens_by_node = {
            node: list(tokens) for node, tokens in tokens_by_node.items() if tokens
        }
        for node in self.tokens_by_node:
            if node not in node_set:
                raise KeyError(f"token holder {node!r} is not a node of the network")
        self._nq_hint = nq
        self._clustering_hint = clustering
        # Phase state.
        self._log_n = log2_ceil(max(simulator.n, 2))
        self.all_tokens: Set[Any] = set()
        self.k = 0
        self.nq = 0
        self.clustering: Optional[Clustering] = None
        self.cluster_tree: Optional[ClusterTree] = None
        # Id-sorted cluster members as index ranges over one permutation
        # array (:meth:`Clustering.member_layout`).
        self._member_layout: Any = None
        # Id-native token state (phase 5): tokens are handled as *ranks* into
        # the one str-sorted token array (1-D, dtype object), so set algebra
        # over cluster holdings becomes boolean-mask work and the sorted
        # payload order of every exchange is simply ascending rank.
        self._sorted_tokens: Any = None
        self._cluster_masks: Any = None
        self._uniform_token_words: Optional[int] = None
        self._known_tokens: Dict[Node, FrozenSet[Any]] = {}
        # Each token crosses many cluster-tree edges; its word size is
        # computed once, indexed by rank, and reused by every exchange.
        self._words_by_rank: Any = None

    # ------------------------------------------------------------------
    def phases(self):
        return (
            ("parameters", self._phase_parameters),
            ("clustering", self._phase_clustering),
            ("load-balance", self._phase_load_balance),
            ("converge-cast", self._phase_converge_cast),
            ("down-cast", self._phase_down_cast),
        )

    @property
    def _trivial(self) -> bool:
        return self.k == 0

    # ------------------------------------------------------------------
    def _phase_parameters(self) -> None:
        """Phase 1: compute k (Lemma 4.4 aggregation, physically simulated) and
        NQ_k (Lemma 3.3, charged)."""
        sim = self.simulator
        for tokens in self.tokens_by_node.values():
            self.all_tokens.update(tokens)
        self.k = len(self.all_tokens)
        if self._trivial:
            return
        counts = {node: len(tokens) for node, tokens in self.tokens_by_node.items()}
        tree = build_virtual_tree(sim)
        basic_aggregation(
            sim,
            counts,
            lambda a, b: (a or 0) + (b or 0),
            tree=tree,
        )
        nq = self._nq_hint
        if nq is None:
            nq = neighborhood_quality(sim.graph, self.k)
        self.nq = max(1, nq)
        sim.charge_rounds(self.nq, "distributed computation of NQ_k", "Lemma 3.3")

    def _phase_clustering(self) -> None:
        """Phases 2 + 3: clustering (Lemma 3.5) and cluster chaining (Lemma 4.6
        plus rank matching), both charged."""
        if self._trivial:
            return
        sim = self.simulator
        log_n = self._log_n
        clustering = self._clustering_hint
        if clustering is None:
            clustering = distributed_nq_clustering(sim, self.k, nq=self.nq)
        self.clustering = clustering
        self.cluster_tree = build_cluster_tree(clustering)
        # Clusters as index ranges over one permutation array: the
        # rank-matched workloads of phase 5 are gathered straight from these
        # ranges without touching individual tokens.
        self._member_layout = clustering.member_layout(
            sim.node_indexer(), sim.identifier_column()
        )
        sim.charge_rounds(
            log_n * log_n,
            "cluster-tree construction over cluster leaders",
            "Lemma 4.6",
        )
        sim.charge_rounds(
            log_n,
            "matching parent/child cluster nodes rank-by-rank",
            "Theorem 1, cluster chaining subphase 2",
        )
        leader_ids = frozenset(sim.id_of(c.leader) for c in clustering.clusters)
        sim.declare_learned_ids_bulk(clustering.members(), leader_ids)
        match_cluster_tree_ids(
            sim, clustering, self.cluster_tree, layout=self._member_layout
        )

    def _phase_load_balance(self) -> None:
        """Phase 4: initial load balancing inside each cluster (Lemma 4.1,
        charged).

        Balancing moves tokens only between members of one cluster, so it
        never changes a cluster's token union, and that union is all the
        converge-cast reads.  The allocation itself
        (:func:`~repro.core.load_balancing.balance_items`) is therefore not
        materialised; only its rounds are charged.
        """
        if self._trivial:
            return
        weak_diameter = 4 * self.nq * self._log_n
        self.simulator.charge_rounds(
            2 * weak_diameter,
            "initial intra-cluster load balancing",
            "Lemma 4.1",
        )

    def _phase_converge_cast(self) -> None:
        """Phase 5a: converge-cast all tokens up the cluster tree (measured).

        Token holdings are tracked as one boolean mask per cluster over the
        str-sorted token list, so the per-edge "new tokens" set difference and
        the parent union are whole-row mask operations; the payloads an edge
        carries are the mask's set ranks in ascending order — exactly the
        ``sorted(key=str)`` payload order of the historical set formulation,
        so the schedule is unchanged.
        """
        if self._trivial:
            return
        sim = self.simulator
        cluster_tree = self.cluster_tree
        sorted_tokens = sorted(self.all_tokens, key=str)
        # fromiter keeps equal-length tuple tokens as elements, where
        # np.array would stack them into a 2-D array.
        self._sorted_tokens = np.fromiter(sorted_tokens, dtype=object, count=self.k)
        token_rank = {token: rank for rank, token in enumerate(sorted_tokens)}
        words_by_rank = [payload_words(token) for token in sorted_tokens]
        self._words_by_rank = np.array(words_by_rank, dtype=np.int64)
        distinct_words = set(words_by_rank)
        # Homogeneous tokens (the normal case) let the plane builder emit the
        # words column as one fill instead of a per-token take.
        self._uniform_token_words = (
            distinct_words.pop() if len(distinct_words) == 1 else None
        )

        masks = self._cluster_token_masks(token_rank)
        self._cluster_masks = masks

        levels = cluster_tree.levels()
        for level in reversed(levels[1:]):
            edges: List[Tuple[int, int, Any]] = []
            for cluster_index in level:
                parent_index = cluster_tree.parent[cluster_index]
                new = masks[cluster_index] & ~masks[parent_index]
                edges.append((cluster_index, parent_index, np.flatnonzero(new)))
                masks[parent_index] |= masks[cluster_index]
            self._exchange_level(edges)
            # Load balancing at the receiving clusters before the next level.
            sim.charge_rounds(
                8 * self.nq * self._log_n,
                "intra-cluster load balancing between converge-cast levels",
                "Lemma 4.1",
            )

    def _cluster_token_masks(self, token_rank: Dict[Any, int]) -> Any:
        """One row per cluster: the ranks of the tokens its members hold,
        read from the input holdings (see :meth:`_phase_load_balance`), as a
        ``(clusters, k)`` boolean array set by one scatter over flat
        holder-row and token-rank columns."""
        holdings = self.tokens_by_node
        holders = len(holdings)
        cluster_rows = np.fromiter(
            map(self.clustering.cluster_of.__getitem__, holdings), np.int64, holders
        )
        sizes = np.fromiter(map(len, holdings.values()), np.int64, holders)
        rows = np.repeat(cluster_rows, sizes)
        cols = np.fromiter(
            map(token_rank.__getitem__, itertools.chain.from_iterable(holdings.values())),
            np.int64,
            rows.size,
        )
        masks = np.zeros((len(self.clustering.clusters), self.k), dtype=bool)
        masks[rows, cols] = True
        return masks

    def _phase_down_cast(self) -> None:
        """Phase 5b: cast every token back down the cluster tree (measured),
        then charge the final intra-cluster flood."""
        if self._trivial:
            return
        sim = self.simulator
        cluster_tree = self.cluster_tree
        masks = self._cluster_masks
        # The down-cast proceeds top-down, so every sender cluster already
        # holds the full token set when its level is processed and every
        # receiver is read exactly once; the per-child "missing" payload is
        # therefore the complement of the child's converge-cast-final mask —
        # no holdings need updating along the way.
        for level in cluster_tree.levels():
            edges: List[Tuple[int, int, Any]] = []
            for cluster_index in level:
                for child_index in cluster_tree.children[cluster_index]:
                    missing = np.flatnonzero(~masks[child_index])
                    edges.append((cluster_index, child_index, missing))
            self._exchange_level(edges)
            sim.charge_rounds(
                8 * self.nq * self._log_n,
                "intra-cluster load balancing between down-cast levels",
                "Lemma 4.1",
            )

        # Final intra-cluster flood: every node learns its cluster's tokens.
        sim.charge_rounds(
            4 * self.nq * self._log_n,
            "final intra-cluster flooding of all tokens",
            "Theorem 1, dissemination phase",
        )
        # After the down-cast every cluster holds every token, so all nodes
        # share one frozenset (copying per member is an O(n * k) cost that
        # dwarfs the simulation at scale); frozenset makes the sharing safe —
        # accidental mutation raises instead of silently editing every
        # clustermate's entry.
        tokens_everywhere = frozenset(self.all_tokens)
        self._known_tokens = {
            member: tokens_everywhere
            for cluster in self.clustering.clusters
            for member in cluster.members
        }

    def finish(self) -> DisseminationResult:
        sim = self.simulator
        if self._trivial:
            return DisseminationResult(
                tokens=set(),
                known_tokens={v: frozenset() for v in sim.nodes},
                k=0,
                nq=0,
                clustering=Clustering(clusters=[], nq=0, k=0, cluster_of={}),
                cluster_tree=VirtualTree([0], [0]),
                metrics=sim.metrics,
            )
        return DisseminationResult(
            tokens=self.all_tokens,
            known_tokens=self._known_tokens,
            k=self.k,
            nq=self.nq,
            clustering=self.clustering,
            cluster_tree=self.cluster_tree,
            metrics=sim.metrics,
        )

    # ------------------------------------------------------------------
    def _exchange_level(self, edges: Sequence[Tuple[int, int, Any]]) -> None:
        """Move one cluster-tree level of tokens: ``(source, target, ranks)``.

        ``ranks`` are ascending positions into the str-sorted token array.
        The whole level is assembled as one id-native
        :class:`~repro.simulator.engine.TokenPlane` (see
        :meth:`_build_level_plane`).  The token order — level-edge by
        level-edge, payloads in sorted order, senders cycling by rank — is
        that of the reference ``rank_matched_triples``.
        """
        plane = self._build_level_plane(edges)
        if plane is not None:
            self.exchange(plane, "kdiss", collect=False)

    def _build_level_plane(
        self, edges: Sequence[Tuple[int, int, Any]]
    ) -> Optional[TokenPlane]:
        """Assemble one level's id-native workload from token ranks.

        The sender and receiver columns are one gather each into the
        cluster member permutation (:func:`_rank_matched_columns`), the
        words column is one ``np.full`` (homogeneous tokens) or a take from
        the per-rank word table, and the payload column is one take from the
        str-sorted token array — a 1-D object array, not a list.

        Under ``charge_only`` the payload take is skipped — the plane is
        built payload-free (``payloads=None``).  The id/word columns (and
        hence the schedule and every metric) are untouched by the elision;
        this is where charge-only dissemination stops scaling with token
        *content* and the n ~ 10^6 tier becomes feasible.
        """
        edges = [edge for edge in edges if len(edge[2])]
        if not edges:
            return None
        sources, targets, rank_chunks = zip(*edges)
        counts = np.fromiter(map(len, rank_chunks), np.int64, len(edges))
        senders, receivers = _rank_matched_columns(
            self._member_layout,
            np.array(sources, dtype=np.int64),
            np.array(targets, dtype=np.int64),
            counts,
        )
        ranks = np.concatenate(rank_chunks)
        uniform = self._uniform_token_words
        if uniform is None:
            words = self._words_by_rank.take(ranks)
        else:
            words = np.full(ranks.size, uniform, dtype=np.int64)
        payloads = None if self.charge_only else self._sorted_tokens.take(ranks)
        return TokenPlane(senders, receivers, words, payloads)
