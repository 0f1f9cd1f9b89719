"""Cached, integer-indexed graph analytics engine (CSR adjacency + flat BFS).

The centralized analytics behind the paper's headline parameter ``NQ_k``
(Definition 3.1) used to run a full BFS from every node *twice* — once inside
``diameter()`` and once in ``ball_sizes_all_radii`` — making every NQ query
Theta(n * m) with large constants.  This module replaces that path with a
shared :class:`GraphIndex`: each ``networkx`` graph gets (at most) one
compressed-sparse-row adjacency built over integer node indices, plus flat-array
BFS primitives and incremental *ball growers* that evaluate Definition 3.1 with
early termination.

One BFS level kernel
--------------------

Every hop primitive reads its BFS levels from one private generator,
:meth:`GraphIndex._levels` (``sources``, optional ``depth``): the distinct
sources, then the nodes at hop distance 1, 2, ... under one epoch of the shared
``visited`` stamps, each level expanded only when the caller asks for it.
Sweeps, distance rows, ball sizes, the NQ grower, ruling-set balls, weak
diameters, the h-hop ball unions and iFUB's level buckets all stop where their
question is answered, and nothing past ``depth`` is stamped.
:meth:`GraphIndex.closest_sources` keeps its own loop: it carries an owner
along every edge, which the kernel would have to branch on.  The weighted
primitives (Bellman-Ford, Dijkstra, the dense h-hop rows) are not BFS and do
not use it.

Why early termination is correct and fast
-----------------------------------------

``NQ_k(v) = min({t >= 1 : |B_t(v)| >= k / t} U {D})``.  The ball grower runs a
level-by-level BFS from ``v`` and checks the threshold after each level.  The
predicate ``|B_t(v)| >= k / t`` is *monotone in t* (the ball only grows while
``k / t`` only shrinks), so the first radius ``t`` at which it holds is exactly
the minimum in the definition — the BFS can stop there, having visited only
``|B_t(v)| ~ k / t`` nodes instead of the whole graph.  Since on every graph
``NQ_k <= sqrt(k)`` (Lemma 3.6), most nodes stop after a few hops and the
per-node cost is bounded by the ball that certifies the answer, not by ``n``.

The hop diameter ``D`` is only relevant for nodes whose BFS exhausts the graph
*before* the threshold is ever met (``k`` super-polynomial in the reachable
mass, e.g. a star with ``k = 10^6``).  For those nodes the ball size is pinned
at its final value ``S = |B_ecc(v)(v)|``, so the smallest satisfying radius
``t1`` solves ``S >= k / t1`` in O(1); the answer is ``min(t1, D)``.  ``D`` is
therefore computed *lazily* — never as ``n`` BFS passes, but via a cached
eccentricity-bound pruning search (double sweep + iFUB): BFS levels around a
midpoint of an approximately diametral path are scanned outward-in, and the
scan stops as soon as ``2 * level <= best_found``, because any pair realising a
larger diameter would have an endpoint in an already-scanned level.  Where
several nodes lie halfway along the double sweep's path (a grid's whole
anti-diagonal), one more BFS picks the most central of them.  The result is
exact; paths and grids need a handful of BFS passes (7 on a 60 x 60 grid).  A
level is swept once per class of true twins (equal closed neighbourhoods), so
a barbell's outermost clique costs one sweep, not one per node.  A running
diameter *lower* bound (the largest eccentricity any full sweep has seen) often
answers ``min(t1, D)`` without computing ``D`` at all.

The graph-level value ``NQ_k(G) = max_v NQ_k(v)`` does not need a ball from
every node.  Two facts let :meth:`GraphIndex.nq_value` skip most of them while
staying exact:

* *Ball containment.*  If ``hop(u, w) = d`` then ``B_{j+d}(w)`` contains
  ``B_j(u)``.  So once ``u``'s grown ball has ``|B_j(u)| >= k / best`` (``best``
  the running maximum) and ``j + d <= best``, the radius ``best`` meets the
  threshold for ``w`` and ``NQ_k(w) <= best``: ``w`` needs no growth of its
  own.  ``best`` only rises, so the certificate stays valid.  After each
  growth the scan takes ``j*``, the first radius with ``|B_j*(u)| >= k / best``,
  and certifies the grown levels ``1 .. best - j*``.
* *Lemma 3.6 stop.*  Every node has ``NQ_k(v) <= t0``, the least integer
  ``t0 >= 1`` with ``t0^2 >= k``.  If ``ecc(v) >= t0`` then ``|B_t0(v)| >=
  t0 + 1 > k / t0``.  Otherwise the ball saturates below radius ``t0``, and
  either ``n >= k / t0`` (so ``t0`` meets the threshold) or ``t0 >= k / t0 >
  n > D >= NQ_k(v)``.  The scan stops as soon as ``best == t0``, or
  ``best == D`` once the diameter is known; for non-finite ``k`` only the
  ``D`` stop applies.

The scan starts at the periphery node the connectivity sweep already found
(on paths and grids its ball grows slowest), then goes in index order: one
growth instead of 10^4 on a 10^4-node path with ``k = 4096``.  A growth that
certifies nothing prices the next uncertified nodes like an h-hop block (below;
levels and expanded nodes for rounds and relaxations), which may grow densely.

The weighted engine
-------------------

The index carries a weighted CSR (a ``weights`` array parallel to
``targets``), and since the weighted-analytics migration it is the single
substrate for every centralized weighted computation:

* :meth:`GraphIndex.sssp_row` / :meth:`GraphIndex.sssp_rows` — flat-array
  Dijkstra producing dense ``n``-wide distance rows.  The heap holds
  ``(distance, tie_rank)`` pairs whose precomputed integer ranks order ties
  exactly like the ``str`` tie keys of the historical dict+heapq
  implementation (a test oracle, ``tests/oracles/weighted.py``), with
  the same relaxation tolerance, so the produced distances are identical —
  only the containers are flat.
* A cached *rounded-weight* CSR per ``epsilon``: the power-of-``(1 + eps)``
  rounding behind ``approx_sssp_distances`` (Theorem 13's functional
  substitution) is applied to the whole weight array **once per (graph,
  epsilon)** and memoised, instead of once per edge relaxation per query —
  the per-leader / per-skeleton SSSP sweeps of Theorems 5/6/14 share it.
* :meth:`GraphIndex.closest_sources` — one flat multi-source BFS returning
  ``(distance, argmin-source)`` per node with deterministic minimum-rank
  tie-breaking, which is exactly the "closest ruler, ties by minimum
  identifier" assignment of the Lemma 3.5 clustering; the distances double
  as the per-cluster BFS order, so :func:`repro.core.clustering.nq_clustering`
  needs a single sweep where it used to run one BFS per ruler twice.
* :meth:`GraphIndex.ruling_set` — the greedy (alpha, alpha-1)-ruling set
  grown from flat truncated frontiers over the CSR.
* *Batched h-hop rows* — :meth:`GraphIndex.h_hop_limited_rows` serves the
  all-sources ``d^h`` callers.  A block of ``S`` sources can run as one
  synchronous Bellman-Ford over a node-major ``(|U| + 1) x S`` matrix, ``U``
  the union of their ``h``-hop balls (no ``h``-hop walk leaves it): each round
  pulls ``D[t_c] + w_c`` per degree column ``c`` and ``np.minimum``-s it in,
  until ``h`` rounds or an unchanged round.  These are the per-source Jacobi
  rounds, ``x -> fl(x + w)`` is monotone and ``min`` exact, so every value
  equals the per-source one.  The source before each block runs per-source
  and prices it: dense iff ``(I + 1) * (E_U * S / _HHOP_NUMPY_RATIO +
  maxdeg_U * _HHOP_CALL_COST) < S * F * E_U / |U|`` (``I`` rounds and ``F``
  frontier nodes of that source, ``E_U`` the union's CSR entries), so never
  once the first source's ball alone has ``(I + 1) * |B| >= ratio * F``.
  Blocks halve until the matrix fits in ``_HHOP_BLOCK_CELLS``.  A single
  source always runs per-source.  NQ blocks share this layout and pricing.

Caching
-------

:func:`get_index` memoises one :class:`GraphIndex` per graph object in a
``WeakKeyDictionary`` (the index holds no strong reference back to the graph,
so graphs are collected normally); anything but an ``nx.Graph`` is refused
with ``TypeError``.  Scalar ``NQ_k`` values are additionally
memoised per ``(index, k)``, and rounded-weight CSR arrays per ``epsilon`` —
repeated ``neighborhood_quality(graph, k)`` / ``approx_sssp_distances(graph,
s, eps)`` calls inside one experiment (routing + shortest paths + lower
bounds on the same instance) cost one computation each.

Versioned mutation (the staleness contract)
-------------------------------------------

Graphs are no longer assumed frozen.  Every graph carries a **version stamp**
(:func:`graph_version`, stored weakly so untouched graphs cost nothing), and
every :class:`GraphIndex` records the version it reflects.  :func:`get_index`
serves a cached index only while the stamps match (a node/edge-count
comparison is kept as a backstop for out-of-band ``networkx`` mutations that
nothing stamped) — so rewiring or re-weighting through the supported paths is
always detected, including edits that preserve both counts.

Who bumps: :class:`repro.graphs.mutation.GraphMutator` (the supported edit
API — it additionally splices each batch into the cached index *in place*,
see :meth:`GraphIndex._splice`), the :mod:`repro.graphs.weighted` helpers (via
:func:`invalidate_index`), and :func:`invalidate_index` itself, which both
bumps the stamp and marks the dropped index *retired*.  Who checks:
:func:`get_index`, :class:`SSSPRowCache` reads,
:class:`repro.core.shortest_paths.DenseDistanceTable` reads, and
``HybridSimulator`` plane sends.  A consumer holding state derived from a
retired or out-of-version index raises :class:`StaleIndexError` instead of
returning stale distances.  Code that edits ``graph[u][v]["weight"]`` by
hand (bypassing the mutator) must still call :func:`invalidate_index`
afterwards; see DESIGN.md for the full protocol and the partial-reindex vs
full-drop decision table.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import operator
import weakref
from array import array
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

Node = Hashable

__all__ = [
    "GraphIndex",
    "SSSPRowCache",
    "StaleIndexError",
    "bump_graph_version",
    "get_index",
    "graph_version",
    "invalidate_index",
    "round_weight_up",
]

# Dense h-hop blocks (module docstring): at most 256 sources and 2^18
# float64 cells (2 MiB) per matrix; a Python edge relaxation costs as much as
# 60 dense cell updates, and one degree column's NumPy calls as 20 relaxations.
_HHOP_BLOCK_SOURCES = 256
_HHOP_BLOCK_CELLS = 1 << 18
_HHOP_NUMPY_RATIO = 60.0
_HHOP_CALL_COST = 20.0


class StaleIndexError(RuntimeError):
    """A read through an index (or index-derived state) that mutation killed.

    Raised instead of silently returning distances computed against a dead
    CSR: after :func:`invalidate_index` or a :class:`~repro.graphs.mutation.
    GraphMutator` edit, any :class:`SSSPRowCache` or lazy
    :class:`~repro.core.shortest_paths.DenseDistanceTable` still holding the
    old index refuses further reads.  Re-run the producer against the current
    :func:`get_index` to get fresh values.
    """


# ----------------------------------------------------------------------
# Per-graph version stamps
# ----------------------------------------------------------------------
# Weak so that stamping never extends a graph's lifetime; a graph that was
# never mutated through the supported paths has no entry and reads version 0.
_GRAPH_VERSIONS: "weakref.WeakKeyDictionary[nx.Graph, int]" = (
    weakref.WeakKeyDictionary()
)


def graph_version(graph: nx.Graph) -> int:
    """The current mutation-version stamp of ``graph`` (0 if never bumped)."""
    return _GRAPH_VERSIONS.get(graph, 0)


def bump_graph_version(graph: nx.Graph) -> int:
    """Advance ``graph``'s version stamp; returns the new version.

    Every supported mutation path calls this (directly or via
    :func:`invalidate_index`).
    """
    version = _GRAPH_VERSIONS.get(graph, 0) + 1
    _GRAPH_VERSIONS[graph] = version
    return version


def round_weight_up(weight: float, epsilon: float) -> float:
    """Round ``weight`` up to the nearest integer power of ``(1 + epsilon)``.

    The classical weight-rounding scheme behind the paper's Theorem 13
    substitution (see :mod:`repro.core.sssp`, which re-exports this function):
    running an exact shortest-path computation on the rounded weights
    over-estimates every distance by at most a factor ``(1 + epsilon)``.
    Weights of 0 or less are rejected (the paper assumes positive weights).
    """
    if weight <= 0:
        raise ValueError("edge weights must be positive")
    if epsilon <= 0:
        return float(weight)
    base = 1.0 + epsilon
    exponent = math.ceil(math.log(weight, base) - 1e-12)
    rounded = base**exponent
    # Guard against floating point dipping below the original weight.
    if rounded < weight:
        rounded *= base
    return rounded


class GraphIndex:
    """CSR-style integer-indexed view of one ``networkx`` graph.

    ``nodes[i]`` is the node with index ``i`` and ``index_of[node]`` inverts
    it; the adjacency of index ``u`` is ``targets[offsets[u]:offsets[u + 1]]``.
    The BFS primitives read their levels from :meth:`_levels`, which stamps an
    epoch into a ``visited`` scratch vector, so a query touching only a small
    ball costs only that ball — no O(n) per-query (re)initialisation.

    The index records the :func:`graph_version` it reflects (:attr:`version`)
    and takes batches of edge edits between existing nodes in place
    (:meth:`_splice`, called by :class:`repro.graphs.mutation.GraphMutator`):
    one rewrite per touched row instead of a full O(n + m) rebuild.
    Self-loops are rejected at construction (``ValueError``): they would
    silently inflate degrees, ball sizes and NQ, and no supported workload
    produces them.  Directed
    graphs and multigraphs are rejected with ``TypeError``: the CSR is read
    from ``graph.adj`` and assumes one symmetric, simple adjacency.
    """

    def __init__(self, graph: nx.Graph) -> None:
        if graph.is_directed() or graph.is_multigraph():
            raise TypeError(
                f"GraphIndex requires a simple undirected graph, got "
                f"{type(graph).__name__} (a directed graph would be silently "
                "symmetrised, a multigraph's key dicts read as edge data)"
            )
        nodes: List[Node] = list(graph.nodes)
        n = len(nodes)
        self.n = n
        self.nodes = nodes
        # Version-stamp bookkeeping (see the module docstring): ``version`` is
        # the graph version this CSR reflects; ``retired`` flips when
        # ``invalidate_index`` drops the index so derived state can refuse
        # reads instead of serving dead distances.
        self.version = graph_version(graph)
        self.retired = False
        index_of: Dict[Node, int] = dict(zip(nodes, range(n)))
        self.index_of = index_of

        # The CSR is read straight off the neighbour dicts, in node order:
        # node ``u``'s slice lists its neighbours in adjacency order.  Edge
        # weights ride along in a CSR array parallel to ``targets`` so the
        # weighted primitives (h-hop limited Bellman-Ford) share the
        # adjacency.
        adj = dict(graph.adjacency())
        neighbours = list(map(adj.__getitem__, nodes))
        if any(map(operator.contains, neighbours, nodes)):
            u = next(u for u, nbrs in zip(nodes, neighbours) if u in nbrs)
            raise ValueError(
                f"self-loop at node {u!r}: GraphIndex requires a simple "
                "graph (a self-loop would inflate degrees, ball sizes and NQ)"
            )
        chain = itertools.chain.from_iterable
        offsets = [0, *itertools.accumulate(map(len, neighbours))]
        targets = list(map(index_of.__getitem__, chain(neighbours)))
        weights = [d.get("weight", 1) for nbrs in neighbours for d in nbrs.values()]
        self.m = len(targets) // 2
        self._offsets = offsets
        self._targets = targets
        self._weights = weights

        # Epoch-stamped scratch vectors shared by all single-source queries.
        self._visited = [0] * n
        self._fdist = [0.0] * n  # float distances, valid iff stamped this epoch
        self._epoch = 0

        # Lazily filled analytics caches.
        self._connected: Optional[bool] = None
        self._periphery: Optional[int] = None  # farthest node from index 0
        self._diameter: Optional[int] = None
        self._diam_lb = 0  # largest eccentricity any full sweep has observed
        self._nq_cache: Dict[float, int] = {}
        # Weighted-engine caches: per-node tie ranks (shared by every Dijkstra
        # query for deterministic heap ordering) and one rounded weight array
        # per epsilon (power-of-(1+eps) rounding applied once per graph, not
        # once per edge relaxation per query).
        self._tie_ranks: Optional[List[int]] = None
        self._by_tie_rank: Optional[List[int]] = None
        self._rounded_weights: Dict[float, List[float]] = {}
        self._adjacency_pairs: Dict[float, List[Tuple[int, float]]] = {}

    # ------------------------------------------------------------------
    # Version-stamp protocol
    # ------------------------------------------------------------------
    def ensure_current(self, expected_version: Optional[int] = None) -> None:
        """Raise :class:`StaleIndexError` if this index is dead or has moved on.

        ``expected_version`` is the version a derived structure (row cache,
        lazy table) recorded when it was built; ``None`` checks only that the
        index was not retired by :func:`invalidate_index`.
        """
        if self.retired:
            raise StaleIndexError(
                "index was retired by invalidate_index(); rebuild via "
                "get_index(graph) and re-run the producer"
            )
        if expected_version is not None and expected_version != self.version:
            raise StaleIndexError(
                f"index moved from version {expected_version} to "
                f"{self.version} (graph mutated); re-run the producer against "
                "the current index"
            )

    # ------------------------------------------------------------------
    # Batch edits (GraphMutator's substrate)
    # ------------------------------------------------------------------
    def _drop_topology_caches(self) -> None:
        self._connected = None
        self._periphery = None
        self._diameter = None
        self._diam_lb = 0
        self._nq_cache.clear()

    def _splice(self, edits: Sequence[Tuple[str, Node, Node, Optional[float]]]) -> None:
        """Splice a validated batch of ``(op, u, v, weight)`` edits into the CSR.

        ``op`` is ``"add"``, ``"remove"`` or ``"update"``; both endpoints are
        indexed nodes and each edit is valid against the graph as the earlier
        edits left it (the caller, :class:`~repro.graphs.mutation.GraphMutator`,
        checks that and owns the graph and its version stamp).  An add with
        weight ``None`` is indexed at the default weight 1, like a build.

        Each touched row is rewritten once, in batch order: an add appends to
        both endpoints' rows, a remove deletes the entry in place and an update
        re-weights it in place.  Entry order within a row may therefore differ
        from a rebuild's, which no query observes (BFS levels, end-of-level
        ties in ``closest_sources``, rank-ordered Dijkstra heaps).  Every
        parallel column (``targets``, ``weights``, each memoised rounded-weight
        and ``(target, weight)`` pair column) gets one slice assignment per
        row, last touched row first, so the rows not yet written still sit at
        their old offsets; ``offsets`` is then shifted once, one segment
        between each pair of touched rows.  Topology caches are
        dropped unless every edit is an update; tie ranks survive (the node
        set is unchanged).
        """
        offsets = self._offsets
        targets = self._targets
        index_of = self.index_of
        # Per touched row: its targets as the batch leaves them, and its edits
        # as (position, target, weight) steps: no position appends, no target
        # deletes, both re-weight in place.
        rows: Dict[int, Tuple[List[int], List[Tuple]]] = {}
        for op, u, v, weight in edits:
            ui, vi = index_of[u], index_of[v]
            for a, b in ((ui, vi), (vi, ui)):
                if a not in rows:
                    rows[a] = (targets[offsets[a] : offsets[a + 1]], [])
                row, steps = rows[a]
                if op == "add":
                    row.append(b)
                    steps.append((None, b, 1 if weight is None else weight))
                else:
                    i = row.index(b)
                    if op == "remove":
                        del row[i]
                        steps.append((i, None, None))
                    else:
                        steps.append((i, b, weight))
        columns = [(targets, lambda t, w: t), (self._weights, lambda t, w: w)]
        for eps, rounded in self._rounded_weights.items():
            columns.append((rounded, lambda t, w, eps=eps: round_weight_up(w, eps)))
        for eps, pairs in self._adjacency_pairs.items():
            columns.append((
                pairs,
                lambda t, w, eps=eps: (t, round_weight_up(w, eps) if eps > 0 else w),
            ))
        for a in sorted(rows, reverse=True):
            start, end = offsets[a], offsets[a + 1]
            steps = rows[a][1]
            for column, entry in columns:
                row = column[start:end]
                for i, t, w in steps:
                    if i is None:
                        row.append(entry(t, w))
                    elif t is None:
                        del row[i]
                    else:
                        row[i] = entry(t, w)
                column[start:end] = row
        touched = sorted(rows)
        deltas = [len(rows[a][0]) - (offsets[a + 1] - offsets[a]) for a in touched]
        shift = 0
        for a, delta, stop in zip(touched, deltas, touched[1:] + [self.n]):
            shift += delta
            if shift:
                segment = offsets[a + 1 : stop + 1]
                offsets[a + 1 : stop + 1] = [o + shift for o in segment]
        self.m = offsets[-1] // 2
        if any(op != "update" for op, *_ in edits):
            self._drop_topology_caches()

    # ------------------------------------------------------------------
    # Flat BFS primitives
    # ------------------------------------------------------------------
    def _require(self, node: Node) -> int:
        index = self.index_of.get(node)
        if index is None:
            raise KeyError(f"source {node!r} not in graph")
        return index

    def _levels(
        self, sources: Iterable[int], depth: Optional[int] = None
    ) -> Iterator[List[int]]:
        """The BFS level kernel behind every hop primitive.

        Yields the distinct ``sources`` (in order), then the nodes at hop
        distance 1, 2, ... up to ``depth`` (``None``: until the component is
        exhausted); an empty level ends the iteration.  All levels share one
        fresh epoch of ``_visited``, and level ``t + 1`` is expanded only when
        the caller asks for it, so a caller that stops early pays only for
        the levels it read and nothing past ``depth`` is stamped.  Another
        epoch-stamped query must not run while a level iteration is open.
        """
        self._epoch += 1
        epoch = self._epoch
        visited, offsets, targets = self._visited, self._offsets, self._targets
        frontier = []
        for s in sources:
            if visited[s] != epoch:
                visited[s] = epoch
                frontier.append(s)
        t = 0
        while frontier:
            yield frontier
            if t == depth:
                return
            t += 1
            nxt = []
            for u in frontier:
                for v in targets[offsets[u] : offsets[u + 1]]:
                    if visited[v] != epoch:
                        visited[v] = epoch
                        nxt.append(v)
            frontier = nxt

    def _sweep(self, s: int):
        """Full BFS from index ``s``: ``(eccentricity, component_size, farthest)``."""
        size = 0
        for ecc, level in enumerate(self._levels((s,))):
            size += len(level)
        return ecc, size, level[0]

    def _distances_idx(self, sources: Sequence[int]) -> List[int]:
        """Multi-source BFS over indices; ``-1`` marks unreachable nodes."""
        dist = [-1] * self.n
        for d, level in enumerate(self._levels(sources)):
            for v in level:
                dist[v] = d
        return dist

    def hop_distance_row(self, source: Node) -> List[int]:
        """One dense hop-distance row: ``row[i] = hop(source, nodes[i])``.

        ``-1`` marks unreachable nodes.  This is the flat-array replacement for
        ``hop_distances_from`` when the caller wants a dense (n-wide) row
        instead of a sparse dict — the building block of the all-pairs table
        assemblies in the shortest-paths pipeline.
        """
        return self._distances_idx([self._require(source)])

    def hop_distance_rows(self, sources: Iterable[Node]) -> Dict[Node, List[int]]:
        """Dense (|sources| x n) distance table: one flat BFS row per source."""
        return {source: self.hop_distance_row(source) for source in sources}

    def h_hop_limited_distances(self, source: Node, h: int) -> Dict[Node, float]:
        """``h``-hop limited weighted distances ``d^h(source, .)`` (Section 1.2).

        One :meth:`_bellman_ford` run; unreached nodes are omitted.  Values
        equal the dict-based reference exactly (the same floating-point sums);
        only the key order may differ.
        """
        if h < 0:
            raise ValueError("h must be non-negative")
        reached, _, _ = self._bellman_ford(self._require(source), h)
        nodes, dist = self.nodes, self._fdist
        return {nodes[i]: dist[i] for i in reached}

    def _bellman_ford(self, s: int, h: int) -> Tuple[List[int], int, int]:
        """``h`` Jacobi rounds from ``s``: ``(reached, relaxed, rounds)``.

        Distances stay in ``_fdist``; ``relaxed`` counts frontier nodes.  Only
        nodes the last round changed are relaxed from: every other candidate
        was already offered, so the values are those of full Jacobi rounds.
        """
        offsets = self._offsets
        pairs = self._pair_array(0.0)
        self._epoch += 1
        epoch = self._epoch
        stamp = self._visited
        dist = self._fdist
        stamp[s] = epoch
        dist[s] = 0.0
        reached = [s]
        frontier = [s]
        relaxed = rounds = 0
        for rounds in range(1, h + 1):
            relaxed += len(frontier)
            updates: Dict[int, float] = {}
            for u in frontier:
                du = dist[u]
                for v, weight in pairs[offsets[u] : offsets[u + 1]]:
                    cand = du + weight
                    if stamp[v] == epoch and cand >= dist[v]:
                        continue
                    if cand < updates.get(v, math.inf):
                        updates[v] = cand
            if not updates:
                break
            frontier = []
            for v, d in updates.items():
                if stamp[v] != epoch:
                    stamp[v] = epoch
                    reached.append(v)
                elif d >= dist[v]:
                    continue
                dist[v] = d
                frontier.append(v)
            if not frontier:
                break
        return reached, relaxed, rounds

    def h_hop_limited_rows(self, sources: Iterable[Node], h: int) -> Iterator[array]:
        """Dense ``d^h`` rows, one ``array('d')`` per source, in order.

        ``row[i] = d^h(source, nodes[i])`` (``math.inf`` past ``h`` hops), equal
        to :meth:`h_hop_limited_distances` bit for bit.  Sources and ``h`` are
        checked at call time; rows come block by block (module docstring), so
        consume them before editing the graph.
        """
        if h < 0:
            raise ValueError("h must be non-negative")
        return self._limited_rows([self._require(node) for node in sources], h)

    def _limited_rows(self, src: List[int], h: int) -> Iterator[array]:
        csr = None  # a per-call NumPy copy of the CSR: nothing to keep in sync
        if len(src) > 1:
            csr = (np.array(self._offsets), np.array(self._targets))
            csr += (np.array(self._weights, dtype=np.float64),)
        done = unpriced = 0
        while done < len(src):
            reached, relaxed, rounds = self._bellman_ford(src[done], h)
            row, dist = array("d", [math.inf]) * self.n, self._fdist
            for v in reached:
                row[v] = dist[v]
            yield row
            done += 1
            # The first run, and the one after each block, prices the next.
            if unpriced:
                unpriced -= 1
            elif csr is not None:
                block, ball = self._dense_block(csr, src, done, h, relaxed, rounds)
                if ball is None:
                    unpriced = len(block)
                else:
                    yield from self._dense_rows(csr, block, *ball, h)
                    done += len(block)

    def _dense_block(self, csr, src, start, h, relaxed, rounds):
        """The next block, with its ball union and degrees in descending degree
        order (``None``: run the block per-source)."""
        bound = _HHOP_NUMPY_RATIO * relaxed / (rounds + 1)  # no larger union goes dense
        size = min(_HHOP_BLOCK_SOURCES, len(src) - start)
        # A union holds its sources: a block of ``bound`` or more never goes dense.
        if size >= bound or (
            size and self._ball_union(src[start : start + 1], h, bound) is None
        ):
            size = 0
        while size:
            limit = _HHOP_BLOCK_CELLS // size - 1  # one more row: the sentinel
            union = self._ball_union(src[start : start + size], h, limit)
            if union is not None:
                break
            size //= 2
        else:
            return src[start : start + _HHOP_BLOCK_SOURCES], None
        block, union = src[start : start + size], np.array(union)
        degrees = csr[0][union + 1] - csr[0][union]
        entries = int(degrees.sum())
        cost = entries * size / _HHOP_NUMPY_RATIO + int(degrees.max()) * _HHOP_CALL_COST
        if (rounds + 1) * cost >= size * relaxed * entries / len(union):
            return block, None
        order = np.argsort(-degrees, kind="stable")
        return block, (union[order], degrees[order])

    def _ball_union(self, block: List[int], h: int, limit: float) -> Optional[List]:
        """Indices within ``h`` hops of a block source; ``None`` past ``limit``."""
        union: List[int] = []
        for level in self._levels(block, h):
            union += level
            if len(union) > limit:
                return None
        return union

    def _degree_columns(self, csr, union, degrees):
        """``local`` (node -> row of ``U``; outside: the last, sentinel row) and,
        per degree column ``c`` of ``U`` sorted by degree, descending, ``(count,
        rows, entries)``: the prefix of degree above ``c``, its c-th neighbours."""
        size = len(union)
        local = np.full(self.n, size)  # O(n), like every output row
        local[union] = np.arange(size)
        starts = csr[0][union]
        columns = []
        for c in range(int(degrees[0])):
            count = int(np.count_nonzero(degrees > c))
            entries = starts[:count] + c
            columns.append((count, local[csr[1][entries]], entries))
        return local, columns

    def _dense_rows(self, csr, block, union, degrees, h):
        """Synchronous multi-source Bellman-Ford over one block's ball union."""
        local, columns = self._degree_columns(csr, union, degrees)
        columns = [(count, t, csr[2][entries][:, None]) for count, t, entries in columns]
        dist = np.full((len(union) + 1, len(block)), math.inf)
        dist[local[block], np.arange(len(block))] = 0.0
        nxt, scratch = np.empty_like(dist), np.empty_like(dist)
        for _ in range(h):
            np.copyto(nxt, dist)
            for count, t, w in columns:
                candidate = np.take(dist, t, axis=0, out=scratch[:count], mode="clip")
                np.add(candidate, w, out=candidate)
                np.minimum(nxt[:count], candidate, out=nxt[:count])
            if np.array_equal(nxt, dist):
                break
            dist, nxt = nxt, dist
        row = np.full(self.n, math.inf)
        for column in dist[:-1].T:
            row[union] = column
            yield array("d", row.tobytes())

    def weak_diameter(self, members: Iterable[Node]):
        """Weak diameter of a member set: max pairwise hop distance *in G*.

        One BFS per distinct member with **unreached-target early exit**: each
        BFS stops the moment every other member has been discovered (the max
        member-to-member distance from that source is then known), and returns
        ``math.inf`` immediately when a BFS exhausts its component with members
        still missing — no per-source scan over the target set.  Members that
        are not nodes of the graph raise ``KeyError`` regardless of their
        position in the iteration order (the reference implementation's
        inf-vs-raise behaviour depended on it).
        """
        sources: List[int] = []
        seen: set = set()
        for member in members:
            i = self._require(member)
            if i not in seen:
                seen.add(i)
                sources.append(i)
        if len(sources) <= 1:
            return 0
        best = 0
        for s in sources:
            remaining = len(sources)
            for depth, level in enumerate(self._levels((s,))):
                remaining -= len(seen.intersection(level))
                if not remaining:
                    break
            else:
                return math.inf
            if depth > best:
                best = depth
        return best

    # ------------------------------------------------------------------
    # Weighted engine: flat-array Dijkstra over the (rounded-)weight CSR
    # ------------------------------------------------------------------
    def _weight_array(self, epsilon: float) -> List[float]:
        """The CSR weight array for ``epsilon``; rounded arrays are memoised.

        ``epsilon <= 0`` selects the original weights.  Rounded arrays apply
        :func:`round_weight_up` to every CSR entry exactly once per
        ``(graph, epsilon)`` — every subsequent approximate-SSSP query on this
        graph reuses the cached array.
        """
        if epsilon <= 0:
            return self._weights
        cached = self._rounded_weights.get(epsilon)
        if cached is None:
            cached = [round_weight_up(w, epsilon) for w in self._weights]
            self._rounded_weights[epsilon] = cached
        return cached

    def _pair_array(self, epsilon: float) -> List[Tuple[int, float]]:
        """CSR adjacency as ``(target, weight)`` pairs, memoised per epsilon.

        The Dijkstra inner loop slices this list per settled node and unpacks
        the pairs directly — one sequence traversal per edge instead of two
        indexed reads from the parallel ``targets`` / ``weights`` arrays.
        """
        key = epsilon if epsilon > 0 else 0.0
        cached = self._adjacency_pairs.get(key)
        if cached is None:
            cached = list(zip(self._targets, self._weight_array(epsilon)))
            self._adjacency_pairs[key] = cached
        return cached

    def _tie_rank_arrays(self) -> Tuple[List[int], List[int]]:
        """``(rank, by_rank)``: each node's position in ``str``-sorted order.

        The historical dict+heapq Dijkstra breaks distance ties by the nodes'
        ``str`` keys; comparing precomputed integer *ranks* in that same order
        reproduces the identical pop order at a fraction of the comparison
        cost (and sidesteps comparing raw node objects on exact collisions).
        """
        if self._tie_ranks is None:
            nodes = self.nodes
            by_rank = sorted(range(self.n), key=lambda i: str(nodes[i]))
            ranks = [0] * self.n
            for position, i in enumerate(by_rank):
                ranks[i] = position
            self._tie_ranks = ranks
            self._by_tie_rank = by_rank
        return self._tie_ranks, self._by_tie_rank

    def _dijkstra_idx(self, s: int, epsilon: float) -> List[float]:
        """One dense Dijkstra row over indices; ``math.inf`` marks unreachable.

        Heap entries are ``(distance, tie_rank)`` pairs whose integer ranks
        order ties exactly like the ``str`` tie keys of the historical
        dict+heapq implementation (a test oracle in
        ``tests/oracles/weighted.py``); the relaxation tolerance matches, so the
        produced distance values are identical floating-point results.
        """
        offsets = self._offsets
        pairs = self._pair_array(epsilon)
        rank, by_rank = self._tie_rank_arrays()
        heappush = heapq.heappush
        heappop = heapq.heappop
        self._epoch += 1
        epoch = self._epoch
        settled = self._visited
        dist = [math.inf] * self.n
        dist[s] = 0.0
        heap: List[Tuple[float, int]] = [(0.0, rank[s])]
        while heap:
            d, r = heappop(heap)
            u = by_rank[r]
            if settled[u] == epoch:
                continue
            settled[u] = epoch
            for v, w in pairs[offsets[u] : offsets[u + 1]]:
                candidate = d + w
                if candidate < dist[v] - 1e-15:
                    dist[v] = candidate
                    heappush(heap, (candidate, rank[v]))
        return dist

    def sssp_row(self, source: Node, epsilon: float = 0.0) -> List[float]:
        """One dense weighted-distance row: ``row[i] = d~(source, nodes[i])``.

        ``epsilon = 0`` yields exact Dijkstra distances; ``epsilon > 0`` runs
        the same Dijkstra over the cached power-of-``(1 + epsilon)`` rounded
        weights (``d <= d~ <= (1 + eps) d``, Theorem 13's functional
        substitution).  ``math.inf`` marks unreachable nodes.
        """
        return self._dijkstra_idx(self._require(source), epsilon)

    def sssp_rows(
        self, sources: Iterable[Node], epsilon: float = 0.0
    ) -> Dict[Node, List[float]]:
        """Dense (|sources| x n) weighted table: one flat Dijkstra per source.

        All rows share the tie-key and (rounded-)weight arrays, so a batch
        over many sources pays the per-graph setup once.
        """
        return {source: self.sssp_row(source, epsilon) for source in sources}

    def sssp_dict(self, source: Node, epsilon: float = 0.0) -> Dict[Node, float]:
        """Weighted distances from ``source`` as a dict over *reached* nodes.

        The sparse view of :meth:`sssp_row` matching the historical
        ``exact_sssp_distances`` / ``approx_sssp_distances`` contract:
        unreachable nodes are omitted (only the key order may differ from the
        dict-based reference).
        """
        row = self._dijkstra_idx(self._require(source), epsilon)
        nodes = self.nodes
        return {
            nodes[i]: d for i, d in enumerate(row) if d != math.inf
        }

    def sssp_dicts(
        self, sources: Iterable[Node], epsilon: float = 0.0
    ) -> Dict[Node, Dict[Node, float]]:
        """Sparse per-source weighted distance dicts (see :meth:`sssp_dict`)."""
        return {source: self.sssp_dict(source, epsilon) for source in sources}

    # ------------------------------------------------------------------
    # Multi-source sweeps for clustering / ruling sets (Lemma 3.5)
    # ------------------------------------------------------------------
    def closest_sources(
        self, sources: Sequence[Node]
    ) -> Tuple[List[int], List[int]]:
        """One multi-source BFS returning ``(dist, owner)`` flat arrays.

        ``dist[i]`` is the hop distance from ``nodes[i]`` to the closest
        source and ``owner[i]`` the *position in ``sources``* of that source;
        ties are broken deterministically towards the smallest position, so a
        caller that passes sources sorted by identifier gets exactly the
        "closest ruler, ties by minimum identifier" assignment of Lemma 3.5.
        ``-1`` marks nodes no source reaches.

        The tie-break is exact: sources are seeded in rank order and a node
        takes the owner of the first frontier node that reaches it, so every
        level's frontier is in nondecreasing owner order and a node first
        reached at level ``d`` takes the minimum owner over *all* its
        level-``d - 1`` neighbours.  By induction that is the least-ranked
        source at distance ``d``: every closest source reaches ``v`` through a
        shortest-path parent whose owner is the minimum over its own.

        This is the one hop primitive with its own loop instead of
        :meth:`_levels`: it carries an owner along every edge, and folding
        that into the kernel would make the kernel branch on its caller.
        """
        dist = [-1] * self.n
        owner = [-1] * self.n
        offsets = self._offsets
        targets = self._targets
        frontier: List[int] = []
        for rank, source in enumerate(sources):
            s = self._require(source)
            if dist[s] < 0:
                dist[s] = 0
                owner[s] = rank  # duplicates keep their first (smallest) rank
                frontier.append(s)
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                ou = owner[u]
                for v in targets[offsets[u] : offsets[u + 1]]:
                    if dist[v] < 0:
                        dist[v] = d
                        owner[v] = ou
                        nxt.append(v)
            frontier = nxt
        return dist, owner

    def ruling_set(
        self, alpha: int, order: Optional[Sequence[Node]] = None
    ) -> List[Node]:
        """Greedy (alpha, alpha - 1)-ruling set grown from flat frontiers.

        Scans nodes in the given order (default: sorted by ``str`` label,
        matching :func:`repro.core.ruling_sets.greedy_ruling_set`) and adds a
        node whenever no earlier ruler covered it; each new ruler marks its
        radius-``alpha - 1`` ball in a shared flat ``covered`` array via a
        truncated BFS.  Returns the rulers in scan order.
        """
        if alpha < 1:
            raise ValueError("alpha must be at least 1")
        if order is None:
            # The default scan order (sorted by str label) is exactly the
            # cached Dijkstra tie-rank order — reuse it instead of re-sorting.
            _, order_idx = self._tie_rank_arrays()
        else:
            order_idx = [self._require(node) for node in order]
        covered = bytearray(self.n)
        ruling: List[Node] = []
        for s in order_idx:
            if covered[s]:
                continue
            ruling.append(self.nodes[s])
            # Each ball is its own BFS: coverage by earlier rulers must not
            # block the traversal, only the addability test.
            for level in self._levels((s,), alpha - 1):
                for v in level:
                    covered[v] = 1
        return ruling

    # ------------------------------------------------------------------
    # Classic structural queries
    # ------------------------------------------------------------------
    def eccentricity(self, node: Node) -> int:
        """Maximum hop distance from ``node`` to any reachable node."""
        return self._sweep(self._require(node))[0]

    def ball_sizes_all_radii(self, center: Node) -> List[int]:
        """``[|B_0(v)|, |B_1(v)|, ..., |B_ecc(v)|]`` from one level BFS."""
        levels = self._levels((self._require(center),))
        return list(itertools.accumulate(map(len, levels)))

    def is_connected(self) -> bool:
        """Whether the graph is connected (empty graphs count as connected)."""
        if self._connected is None:
            if self.n <= 1:
                self._connected = True
            else:
                ecc, size, self._periphery = self._sweep(0)
                self._connected = size == self.n
                if self._connected and ecc > self._diam_lb:
                    self._diam_lb = ecc
        return self._connected

    def diameter(self) -> int:
        """Exact hop diameter via double sweep + iFUB eccentricity pruning.

        Raises ``ValueError`` on empty or disconnected graphs (mirroring the
        reference implementation in :mod:`repro.graphs.properties`).
        """
        if self._diameter is not None:
            return self._diameter
        if self.n == 0:
            raise ValueError("diameter of empty graph is undefined")
        if not self.is_connected():
            raise ValueError("graph is disconnected; diameter undefined")
        if self.n == 1:
            self._diameter = 0
            return 0
        self._diameter = self._ifub()
        if self._diameter > self._diam_lb:
            self._diam_lb = self._diameter
        return self._diameter

    def _ifub(self) -> int:
        offsets = self._offsets
        # Double sweep from a max-degree node: BFS to the farthest node a,
        # then from a to the farthest node b; d(a, b) is a strong diameter
        # lower bound and the a-b path supplies the iFUB midpoint.
        r = max(range(self.n), key=lambda i: offsets[i + 1] - offsets[i])
        ecc_r, _, a = self._sweep(r)
        dist_a = self._distances_idx([a])
        ecc_a = max(dist_a)
        b = dist_a.index(ecc_a)
        dist_b = self._distances_idx([b])
        ecc_b = max(dist_b)
        lb = max(ecc_r, ecc_a, ecc_b)

        # The midpoint sits halfway along an a-b shortest path.  Where several
        # nodes do (a grid's whole anti-diagonal, whose first node in index
        # order is a corner), one more BFS from the first picks the one
        # nearest the middle of their spread.
        half = ecc_a // 2
        middle = [
            u for u in range(self.n) if dist_a[u] == half and dist_b[u] == ecc_a - half
        ]
        mid = middle[0]
        if len(middle) > 1:
            dist_c = self._distances_idx([mid])
            lb = max(lb, max(dist_c))
            spread = max(dist_c[u] for u in middle)
            mid = min(middle, key=lambda u: abs(2 * dist_c[u] - spread))
        levels = list(self._levels((mid,)))  # whole: the scan's sweeps re-stamp
        ecc_m = len(levels) - 1
        if ecc_m > lb:
            lb = ecc_m

        # Scan levels outward-in.  Any pair realising a diameter > lb has an
        # endpoint at level > lb / 2 (its distance to mid is at least half the
        # diameter), so once 2 * i <= lb every unscanned node is irrelevant.
        # Sweep one node per class of true twins: they share an eccentricity.
        i = ecc_m
        while 2 * i > lb:
            classes = {}
            for u in levels[i]:
                twins = sorted([u, *self._targets[offsets[u] : offsets[u + 1]]])
                classes.setdefault(tuple(twins), u)
            for u in classes.values():
                ecc_u, _, _ = self._sweep(u)
                if ecc_u > lb:
                    lb = ecc_u
                    if 2 * i <= lb:
                        break
            i -= 1
        return lb

    # ------------------------------------------------------------------
    # Neighborhood quality (Definition 3.1) — incremental ball growers
    # ------------------------------------------------------------------
    def _require_nq_preconditions(self) -> None:
        # The reference implementation computes diameter(graph) up front, which
        # raises on empty and disconnected graphs; preserve those errors
        # without paying for the eager diameter.
        if self.n == 0:
            raise ValueError("diameter of empty graph is undefined")
        if not self.is_connected():
            raise ValueError("graph is disconnected; diameter undefined")

    def _nq_grow(
        self,
        s: int,
        k: float,
        cap: Optional[int],
        levels: Optional[List[List[int]]] = None,
    ) -> int:
        """First radius ``t`` with ``|B_t(s)| >= k / t``, capped by the diameter.

        ``cap`` is an explicit diameter (when the caller supplied one);
        ``cap=None`` resolves the diameter lazily and only in the rare
        saturated case.  ``levels``, when given, receives the BFS levels the
        growth visited: ``[s]``, then the nodes at hop distance 1, 2, ...
        """
        size = 0
        for t, level in enumerate(self._levels((s,), cap)):
            if levels is not None:
                levels.append(level)
            size += len(level)
            if t and size >= k / t:
                return t
        if t == cap:
            return cap  # unmet up to the explicit diameter
        return self._saturated_nq(size, t, k, cap)  # t: s's eccentricity

    def _saturated_nq(self, size: int, ecc: int, k: float, cap: Optional[int]) -> int:
        """Resolve ``NQ_k(v)`` once the BFS exhausted v's component unmet.

        The ball is pinned at ``size`` for every radius beyond ``ecc``, so the
        smallest satisfying radius solves ``size >= k / t`` directly; the
        definition caps the answer at the diameter.
        """
        if self._connected and ecc > self._diam_lb:
            self._diam_lb = ecc
        if math.isinf(k) or math.isnan(k):
            # Threshold never satisfiable: the definition falls back to D.
            return cap if cap is not None else self.diameter()
        t1 = ecc + 1
        if size < k / t1:
            jump = int(k / size) - 2
            if jump > t1:
                t1 = jump
            while size < k / t1:
                t1 += 1
        if cap is not None:
            return t1 if t1 <= cap else cap
        if t1 <= self._diam_lb:
            return t1
        d = self.diameter()
        return t1 if t1 <= d else d

    def nq_of_node(
        self, node: Node, k: float, graph_diameter: Optional[int] = None
    ) -> int:
        """``NQ_k(node)`` (Definition 3.1) with early termination."""
        if graph_diameter is None:
            self._require_nq_preconditions()
            if self.n == 1:
                return 0
            if k <= 0:
                raise ValueError("k must be positive")
            return self._nq_grow(self._require(node), k, None)
        if graph_diameter == 0:
            return 0
        if k <= 0:
            raise ValueError("k must be positive")
        return self._nq_grow(self._require(node), k, graph_diameter)

    def nq_per_node(self, k: float) -> Dict[Node, int]:
        """``NQ_k(v)`` for every node; each BFS stops at its certifying ball."""
        self._require_nq_preconditions()
        if self.n == 1:
            return {self.nodes[0]: 0}
        if k <= 0:
            raise ValueError("k must be positive")
        grow = self._nq_grow
        return {node: grow(i, k, None) for i, node in enumerate(self.nodes)}

    def nq_value(self, k: float) -> int:
        """``NQ_k(G) = max_v NQ_k(v)``, memoised per ``k``.

        Exact, but grows balls only from nodes no earlier ball certified and
        stops at the Lemma 3.6 bound (see "Why early termination is correct
        and fast" in the module docstring).
        """
        cached = self._nq_cache.get(k)
        if cached is not None:
            return cached
        self._require_nq_preconditions()
        if self.n == 1:
            self._nq_cache[k] = 0
            return 0
        if k <= 0:
            raise ValueError("k must be positive")
        # t0 >= 1 is the least integer with t0^2 >= k, i.e. t0^2 >= ceil(k).
        stop = math.isqrt(math.ceil(k) - 1) + 1 if math.isfinite(k) else None
        done = bytearray(self.n)
        flags = np.frombuffer(done, dtype=np.uint8)
        best = pos = unpriced = 0
        csr, s = None, self._periphery
        while s >= 0:
            done[s] = 1
            levels: List[List[int]] = []
            best = max(best, self._nq_grow(s, k, None, levels))
            if best == stop or best == self._diameter:
                break
            sizes = list(itertools.accumulate(map(len, levels)))
            reach = self._certified_levels(sizes, k, best)
            for certified in levels[1 : reach + 1]:
                for w in certified:
                    done[w] = 1
            if unpriced:
                unpriced -= 1
            elif not reach and stop is not None:  # certified nothing: price a block
                src = np.flatnonzero(flags[pos:] == 0)[:_HHOP_BLOCK_SOURCES] + pos
                csr = csr or (np.array(self._offsets), np.array(self._targets))
                block, ball = self._dense_block(
                    csr, src.tolist(), 0, stop, sizes[-2], len(levels) - 1
                )
                if ball is None:
                    unpriced = len(block)
                else:
                    values, balls, first = self._nq_block(csr, block, *ball, k, stop)
                    flags[block] = 1
                    best = max(best, int(values.max()))
                    if best == stop or best == self._diameter:
                        break
                    reaches = [self._certified_levels(c, k, best) for c in balls]
                    flags[ball[0][(first[:-1] <= reaches).any(axis=1)]] = 1
            s = done.find(0, pos)
            pos = s + 1
        self._nq_cache[k] = best
        return best

    @staticmethod
    def _certified_levels(sizes, k: float, best: int) -> int:
        """The grown levels ``1 .. best - j*`` are certified, ``j*`` the first
        radius whose ball size reaches ``k / best`` (none: 0 levels)."""
        j = bisect.bisect_left(sizes, k / best)  # ball sizes never shrink
        return min(best - j, len(sizes) - 1) if j < len(sizes) else 0

    def _nq_block(self, csr, block, union, degrees, k: float, stop: int):
        """Grow a block's balls in one boolean ``(|U| + 1) x S`` matrix over its
        ``stop``-hop ball union: ``NQ_k``, each ball's sizes per radius ``t <=
        T`` and each row's first-hit level (``T + 1``: unreached)."""
        local, columns = self._degree_columns(csr, union, degrees)
        reached = np.zeros((len(union) + 1, len(block)), dtype=bool)
        reached[local[block], np.arange(len(block))] = True
        hits = reached.astype(np.min_scalar_type(stop + 1))  # levels reached
        sizes = [reached.sum(axis=0, dtype=np.int32)]
        values = np.zeros(len(block), dtype=np.int64)
        nxt, scratch = np.empty_like(reached), np.empty_like(reached)
        for t in range(1, stop + 1):
            np.copyto(nxt, reached)
            for count, rows, _ in columns:
                pull = np.take(reached, rows, axis=0, out=scratch[:count], mode="clip")
                np.logical_or(nxt[:count], pull, out=nxt[:count])
            np.add(hits, nxt, out=hits)
            sizes.append(nxt.sum(axis=0, dtype=np.int32))
            for j in np.flatnonzero((values == 0) & (sizes[-1] == sizes[-2])):
                values[j] = self._saturated_nq(int(sizes[-1][j]), t - 1, k, None)
            values[(values == 0) & (sizes[-1] >= k / t)] = t  # stalled ones are set
            if values.all():
                break
            reached, nxt = nxt, reached
        return values, np.array(sizes).T.tolist(), len(sizes) - hits


class SSSPRowCache:
    """Lazily computed, caller-owned dense Dijkstra rows of one index.

    ``row(source)`` returns ``index.sssp_row(source, epsilon)`` packed into an
    ``array('d', ...)`` of C doubles, running the Dijkstra only on the first
    request per source.  This is the substrate for the lazy all-pairs tables:
    an APSP producer keeps one cache over its skeleton/spanner index and pulls
    only the rows its consumers actually read, instead of materialising an
    eager dict-of-dicts over every source up front.  The cache is owned by the
    caller (unlike :func:`get_index` it is *not* memoised per graph), so
    dropping the producer drops every cached row with it.

    ``rows_computed`` counts Dijkstra runs — the regression tests use it to
    assert that nothing materialises n^2 state behind a consumer's back.

    The cache records the index version at construction and every read —
    including reads of rows cached *before* a mutation — raises
    :class:`StaleIndexError` once the index is retired or patched past that
    version, instead of returning distances for a graph that no longer
    exists.
    """

    __slots__ = ("index", "epsilon", "rows_computed", "_rows", "_version")

    def __init__(self, index: GraphIndex, epsilon: float = 0.0) -> None:
        self.index = index
        self.epsilon = epsilon
        self.rows_computed = 0
        self._rows: Dict[Node, "array[float]"] = {}
        self._version = index.version

    def row(self, source: Node) -> "array[float]":
        """The dense distance row of ``source`` (computed once, then cached).

        Raises :class:`StaleIndexError` when the underlying index was retired
        or mutated since this cache was created.
        """
        self.index.ensure_current(self._version)
        cached = self._rows.get(source)
        if cached is None:
            cached = array("d", self.index.sssp_row(source, self.epsilon))
            self._rows[source] = cached
            self.rows_computed += 1
        return cached

    def position_of(self, node: Node) -> int:
        """``node``'s column position within every cached row."""
        self.index.ensure_current(self._version)
        return self.index.index_of[node]


# ----------------------------------------------------------------------
# Per-graph cache
# ----------------------------------------------------------------------
_INDEX_CACHE: "weakref.WeakKeyDictionary[nx.Graph, GraphIndex]" = (
    weakref.WeakKeyDictionary()
)


def _peek_index(graph: nx.Graph) -> Optional[GraphIndex]:
    """The cached index of ``graph`` without building one (mutator hook)."""
    return _INDEX_CACHE.get(graph)


def _index_is_current(cached: GraphIndex, graph: nx.Graph) -> bool:
    # The version comparison is the real staleness check; the node/edge-count
    # comparison stays as a backstop for out-of-band networkx mutations that
    # bypassed every stamping path.  The edge side counts adjacency entries
    # (2m for the simple graphs an index holds; a self-loop adds one) without
    # a Python-level step per node, since it runs on every cache hit.
    entries = sum(map(len, map(operator.itemgetter(1), graph.adjacency())))
    return (
        not cached.retired
        and cached.version == graph_version(graph)
        and cached.n == graph.number_of_nodes()
        and 2 * cached.m == entries
    )


def get_index(graph: nx.Graph) -> GraphIndex:
    """The shared :class:`GraphIndex` of ``graph`` (built on first use).

    Staleness is version-based: the cached index is served only while its
    :attr:`GraphIndex.version` equals :func:`graph_version`, so any mutation
    through :class:`~repro.graphs.mutation.GraphMutator`,
    :mod:`repro.graphs.weighted` or :func:`invalidate_index` forces a
    rebuild — including rewirings that preserve the node and edge counts
    (those defeated the historical count-only check).  The count comparison
    is retained as a backstop for hand mutations that bypassed stamping.
    Anything but an ``nx.Graph`` raises ``TypeError``: the cache and the
    version stamps are weak-keyed by the graph object.
    """
    if not isinstance(graph, nx.Graph):
        raise TypeError(
            f"get_index requires a networkx Graph, got {type(graph).__name__}"
        )
    cached = _INDEX_CACHE.get(graph)
    if cached is not None and _index_is_current(cached, graph):
        return cached
    index = GraphIndex(graph)
    _INDEX_CACHE[graph] = index
    return index


def invalidate_index(graph: nx.Graph) -> None:
    """Drop ``graph``'s cached :class:`GraphIndex` and bump its version.

    The full-drop path of the mutation protocol: the cached index (if any)
    is marked *retired* — so caller-owned row caches and lazy tables built on
    it raise :class:`StaleIndexError` instead of serving dead distances — and
    the graph's version stamp advances, forcing every versioned consumer
    (:func:`get_index`, ``HybridSimulator`` plane sends) to resynchronise.
    The weight-assignment helpers in :mod:`repro.graphs.weighted` call this
    after mutating a graph in place; code that edits ``graph[u][v]["weight"]``
    by hand must do the same.  It is the tool for wholesale rewrites; edits
    to a few edges should prefer :class:`repro.graphs.mutation.GraphMutator`,
    which splices them into the index instead of dropping it.
    """
    cached = _INDEX_CACHE.pop(graph, None)
    if cached is not None:
        cached.retired = True
    bump_graph_version(graph)
