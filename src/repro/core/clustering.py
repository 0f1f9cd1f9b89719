"""NQ_k-clustering (Lemma 3.5).

Lemma 3.5 partitions the node set into clusters such that

* the weak diameter of each cluster is at most ``4 * NQ_k * ceil(log n)``,
* each cluster has between ``k / NQ_k`` and ``2k / NQ_k`` nodes,
* each cluster has a designated leader known to its members.

The construction: compute a ``(2 NQ_k + 1, 2 NQ_k ceil(log n))``-ruling set,
let every node join the cluster of its closest ruler (ties by minimum
identifier), then split oversized clusters locally.  The ball
``B_{NQ_k}(ruler)`` is contained in the ruler's cluster, which by
Observation 3.2 guarantees the lower size bound before splitting.

The size guarantee is stated for ``k <= n`` (for ``k > n`` the paper runs the
same clustering with the cluster-size target capped at ``n``); we cap the
target size at ``n`` accordingly.

Since the weighted-engine migration, :func:`nq_clustering` runs on the cached
:class:`~repro.graphs.index.GraphIndex`: the closest-ruler assignment *and*
the per-cluster BFS order both come out of a single flat multi-source sweep
(:meth:`~repro.graphs.index.GraphIndex.closest_sources`, deterministic
minimum-identifier tie-breaking) instead of two full dict BFS passes per
ruler, and the ruling set grows from flat truncated frontiers.  The pre-index
formulation is a test oracle (``tests/oracles/clustering.py``), and
``tests/properties/test_weighted_equivalence.py`` pins byte-identical output
(assignment, leaders, member order) across graph families.  Clusterings are
built for a frozen graph: :class:`Cluster` memoises its member set for
``in`` checks and :meth:`Clustering.max_weak_diameter` reuses one shared
index across all clusters, so mutating a clustered graph (or a cluster's
``members`` list) afterwards is not supported.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Dict, FrozenSet, Hashable, List, Optional

import networkx as nx
import numpy as np

from repro.core.neighborhood_quality import neighborhood_quality
from repro.core.ruling_sets import greedy_ruling_set
from repro.graphs.index import get_index
from repro.simulator.config import log2_ceil
from repro.simulator.network import HybridSimulator

Node = Hashable

__all__ = ["Cluster", "Clustering", "nq_clustering", "distributed_nq_clustering"]


@dataclasses.dataclass
class Cluster:
    """One cluster of the Lemma 3.5 partition.

    ``members`` is treated as frozen once the cluster is built: membership
    checks are served from a lazily created :class:`frozenset` that is
    materialised exactly once, not rebuilt per ``in`` check.
    """

    leader: Node
    members: List[Node]
    index: int
    _member_set: Optional[FrozenSet[Node]] = dataclasses.field(
        default=None, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, node: Node) -> bool:
        cached = self._member_set
        if cached is None:
            cached = frozenset(self.members)
            self._member_set = cached
        return node in cached


@dataclasses.dataclass
class Clustering:
    """A partition of ``V`` into clusters, plus the parameters it was built for."""

    clusters: List[Cluster]
    nq: int
    k: float
    cluster_of: Dict[Node, int]

    def __len__(self) -> int:
        return len(self.clusters)

    def cluster_containing(self, node: Node) -> Cluster:
        return self.clusters[self.cluster_of[node]]

    def leaders(self) -> List[Node]:
        return [cluster.leader for cluster in self.clusters]

    def members(self) -> List[Node]:
        """Every cluster's members, flattened in cluster order."""
        return list(itertools.chain.from_iterable(c.members for c in self.clusters))

    def max_weak_diameter(self, graph: nx.Graph) -> int:
        """Largest per-cluster weak diameter, on one shared graph index.

        The index is resolved once and reused for every cluster's
        member-to-member BFS instead of re-resolving (and re-validating the
        cache) once per ``weak_diameter`` call.
        """
        index = get_index(graph)
        return max(index.weak_diameter(cluster.members) for cluster in self.clusters)

    def member_layout(self, indexer, identifiers):
        """Id-native cluster layout: ``(member_perm, starts)`` index ranges.

        Flattens every cluster's member list into parallel (cluster id,
        identifier, node index) columns and sorts them by identifier, then
        stably by cluster, so cluster ``ci``'s identifier-sorted members are the
        contiguous slice
        ``member_perm[starts[ci] : starts[ci + 1]]`` — array views into one
        ``int64`` buffer instead of a sorted Python list per cluster.  The
        within-cluster order is exactly the members sorted by identifier
        (identifiers are unique integers), which is the rank order the
        Theorem 1 workload assembly tiles from.

        ``indexer`` maps a node to its simulator index and ``identifiers`` is
        the simulator's identifier column (int64, indexed by node index).
        """
        members = self.members()
        total = len(members)
        idx_col = np.fromiter(map(indexer.__getitem__, members), np.int64, total)
        ident_col = identifiers[idx_col]
        sizes = np.array([len(c.members) for c in self.clusters], dtype=np.int64)
        cluster_col = np.repeat(np.arange(sizes.size), sizes)
        by_ident = np.argsort(ident_col)
        member_perm = idx_col[by_ident[np.argsort(cluster_col[by_ident], kind="stable")]]
        starts = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=starts[1:])
        return member_perm, starts


def _split_cluster(members: List[Node], lower: float, upper: float) -> List[List[Node]]:
    """Split a member list into chunks with sizes in ``[lower, upper]``.

    ``members`` is assumed to have size at least ``lower``; chunks are taken in
    the given order (BFS order from the leader) so the pieces remain local.
    When ``lower`` and ``upper`` conflict (no chunk count satisfies both), the
    upper bound wins: no chunk ever exceeds ``upper``, even if that forces a
    chunk below ``lower``.
    """
    total = len(members)
    if total <= upper:
        return [list(members)]
    # Number of parts: as many as possible while each keeps >= lower members.
    parts = max(1, int(total // max(lower, 1)))
    # Cap so that each part has at most upper members.
    parts = max(parts, int(math.ceil(total / max(upper, 1))))
    base = total // parts
    remainder = total % parts
    chunks: List[List[Node]] = []
    start = 0
    for index in range(parts):
        size = base + (1 if index < remainder else 0)
        chunks.append(members[start : start + size])
        start += size
    return [chunk for chunk in chunks if chunk]


def nq_clustering(
    graph: nx.Graph,
    k: float,
    nq: Optional[int] = None,
    id_of=None,
) -> Clustering:
    """Centralized construction of the Lemma 3.5 clustering.

    One flat multi-source BFS (over rulers sorted by identifier) yields both
    the closest-ruler assignment — ties to the minimum identifier, exactly as
    the per-ruler formulation resolved them — and each node's hop distance to
    its ruler, which is the BFS order the splitting step chunks by.  Output is
    byte-identical to the per-ruler formulation (``tests/oracles/clustering.py``).

    Parameters
    ----------
    graph: the local communication graph.
    k: the workload parameter.
    nq: ``NQ_k(G)`` if already known (avoids recomputation).
    id_of: optional callable mapping a node to its identifier (used only for
        deterministic tie-breaking "closest ruler, ties by minimum identifier").
    """
    if k <= 0:
        raise ValueError("k must be positive")
    n = graph.number_of_nodes()
    if nq is None:
        nq = neighborhood_quality(graph, k)
    nq = max(1, nq)
    if id_of is None:
        id_of = lambda node: node  # noqa: E731 - trivial default

    index = get_index(graph)
    rulers = greedy_ruling_set(graph, alpha=2 * nq + 1)
    sorted_rulers = sorted(rulers, key=lambda r: (id_of(r), str(r)))

    # Every node joins the cluster of its closest ruler (ties by min
    # identifier) — one multi-source sweep; ``owner`` ranks point into
    # ``sorted_rulers``, so the min-rank tie-break IS the min-identifier rule.
    dist, owner = index.closest_sources(sorted_rulers)
    # Members ordered by (owner, hop distance, str tie rank) in one sort: the
    # sweep distance to the closest ruler equals the hop distance from the
    # assigned ruler, so each owner's run is the per-ruler BFS order of the
    # reference construction.  Unreached nodes (owner -1) sort first and are
    # dropped.
    tie_rank, _ = index._tie_rank_arrays()
    owner_col = np.asarray(owner)
    ordered = np.lexsort((np.asarray(tie_rank), np.asarray(dist), owner_col)).tolist()
    sizes = np.bincount(owner_col + 1, minlength=len(sorted_rulers) + 1).tolist()
    ordered_nodes = list(map(index.nodes.__getitem__, ordered))

    lower = min(float(n), k / nq)
    upper = 2 * lower if lower >= 1 else 2.0

    clusters: List[Cluster] = []
    cluster_of: Dict[Node, int] = {}
    end = sizes[0]
    for size in sizes[1:]:
        start, end = end, end + size
        if not size:
            continue
        # A ruler is the only member at distance 0 from itself, so it heads
        # its run and leads the first chunk; later chunks are led by their
        # first member.
        for chunk in _split_cluster(ordered_nodes[start:end], lower, upper):
            cluster_index = len(clusters)
            clusters.append(
                Cluster(leader=chunk[0], members=chunk, index=cluster_index)
            )
            cluster_of.update(dict.fromkeys(chunk, cluster_index))

    return Clustering(clusters=clusters, nq=nq, k=k, cluster_of=cluster_of)


def distributed_nq_clustering(
    simulator: HybridSimulator, k: float, nq: Optional[int] = None
) -> Clustering:
    """Lemma 3.5 clustering with the paper's round accounting.

    The cluster structure is produced by :func:`nq_clustering`; the rounds the
    paper's construction needs — the ruling-set computation
    (``O(NQ_k log n)``), learning the ``2 NQ_k ceil(log n)``-hop neighborhood,
    and flooding the ruler choice for ``4 NQ_k ceil(log n)`` rounds — are
    charged on the simulator (DESIGN.md substitution note 1).
    """
    graph = simulator.graph
    if nq is None:
        nq = neighborhood_quality(graph, k)
    nq = max(1, nq)
    log_n = log2_ceil(max(simulator.n, 2))
    clustering = nq_clustering(graph, k, nq=nq, id_of=simulator.id_of)
    simulator.charge_rounds(
        2 * nq * log_n,
        "ruling-set construction for NQ_k clustering",
        "[KMW18] via Lemma 3.5",
    )
    simulator.charge_rounds(
        2 * nq * log_n,
        "learning the 2*NQ_k*ceil(log n)-hop neighborhood",
        "Lemma 3.5",
    )
    simulator.charge_rounds(
        4 * nq * log_n,
        "flooding closest-ruler choices within clusters",
        "Lemma 3.5",
    )
    return clustering
