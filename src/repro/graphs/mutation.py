"""First-class in-place graph mutation with incremental index maintenance.

The supported way to edit a graph that analytics or simulators may already
have indexed.  Historically every cache in the system treated graphs as
frozen: :func:`repro.graphs.index.get_index` detected mutations only through
node/edge *counts*, so a rewiring or re-weighting that preserved both counts
silently served a dead CSR.  :class:`GraphMutator` closes that hole from the
write side:

* every edit bumps the graph's **version stamp**
  (:func:`repro.graphs.index.bump_graph_version`), which every versioned
  consumer — :func:`~repro.graphs.index.get_index`, ``HybridSimulator``
  plane sends, row caches, lazy distance tables — checks before serving
  cached state;
* when the graph's :class:`~repro.graphs.index.GraphIndex` is already built,
  the edit is applied to it **incrementally** (``apply_edge_insert`` /
  ``apply_edge_delete`` / ``apply_weight_update`` patch the CSR adjacency,
  the weight array and every memoised rounded/pair derivative in place, and
  drop only the analytics caches the edit class can change) instead of
  forcing a full O(n + m) rebuild — at n = 2000 a single-edge edit plus a
  local re-query is an order of magnitude cheaper than
  ``invalidate_index`` + rebuild (``benchmarks/bench_dynamic_index.py``).

The full rebuild (``GraphIndex(graph)`` from scratch) remains the reference
oracle: the property grid in ``tests/properties/test_dynamic_index.py`` pins
that every query answer on a patched index is value-identical to a fresh
build across the six graph families.  Edits the patcher does not support —
adding an edge whose endpoint is a **new node** — fall back to the full-drop
path (:func:`~repro.graphs.index.invalidate_index`).  See DESIGN.md ("Graph
mutation and the version-stamp protocol") for the decision table.
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, Optional, Tuple

import networkx as nx

from repro.graphs.index import (
    _peek_index,
    bump_graph_version,
    graph_version,
    invalidate_index,
)

Node = Hashable

__all__ = ["GraphMutator"]

#: Crossover constant of :meth:`GraphMutator.apply_batch`: patching costs
#: roughly a constant number of CSR/derivative touches per edit while a full
#: rebuild costs O(n + m), so a batch of ``k`` edits prefers the single
#: rebuild once ``k * _BATCH_REBUILD_FACTOR`` reaches ``n + m``.
_BATCH_REBUILD_FACTOR = 4


class GraphMutator:
    """Versioned in-place edit API for one graph.

    All three operations mutate ``graph`` itself (so ``networkx`` views stay
    truthful), advance the graph's version stamp, and keep the cached
    :class:`~repro.graphs.index.GraphIndex` — if one exists — either patched
    in place (the common case) or retired (edits outside the incremental
    patcher's scope).  Each returns the new version stamp.

    The mutator holds a strong reference to the graph and is cheap to
    construct; create one per edit burst or keep one per graph, both are
    fine.
    """

    __slots__ = ("graph",)

    def __init__(self, graph: nx.Graph) -> None:
        self.graph = graph

    # ------------------------------------------------------------------
    # Edit operations
    # ------------------------------------------------------------------
    def add_edge(self, u: Node, v: Node, weight: Optional[float] = None) -> int:
        """Add edge ``(u, v)`` (optionally weighted); returns the new version.

        ``weight=None`` adds an unweighted edge (indexed at the default
        weight 1, matching a from-scratch build).  Self-loops, non-positive
        weights and already-present edges raise ``ValueError`` (use
        :meth:`update_weight` for re-weighting).  Endpoints that are new
        nodes are supported but take the full-drop path: the node set
        changed, so the cached index is retired instead of patched.
        """
        if u == v:
            raise ValueError(f"self-loop at node {u!r}: not supported")
        if weight is not None and weight <= 0:
            raise ValueError("edge weights must be positive")
        graph = self.graph
        if graph.has_edge(u, v):
            raise ValueError(
                f"edge ({u!r}, {v!r}) already exists; use update_weight()"
            )
        adds_node = u not in graph or v not in graph
        if weight is None:
            graph.add_edge(u, v)
        else:
            graph.add_edge(u, v, weight=weight)
        if adds_node:
            return self._full_drop()
        return self._commit(
            lambda index: index.apply_edge_insert(
                u, v, 1 if weight is None else weight
            )
        )

    def remove_edge(self, u: Node, v: Node) -> int:
        """Remove edge ``(u, v)``; returns the new version.

        Raises ``KeyError`` when the edge does not exist.  Nodes are never
        removed (an isolated endpoint stays a node), so the cached index is
        always patched in place.
        """
        graph = self.graph
        if not graph.has_edge(u, v):
            raise KeyError(f"edge ({u!r}, {v!r}) not in graph")
        graph.remove_edge(u, v)
        return self._commit(lambda index: index.apply_edge_delete(u, v))

    def update_weight(self, u: Node, v: Node, weight: float) -> int:
        """Set the weight of existing edge ``(u, v)``; returns the new version.

        The cheapest edit class: hop-based analytics caches (connectivity,
        diameter, NQ, tie ranks) all survive; only the weight arrays and
        their rounded/pair derivatives are patched.
        """
        if weight <= 0:
            raise ValueError("edge weights must be positive")
        graph = self.graph
        if not graph.has_edge(u, v):
            raise KeyError(f"edge ({u!r}, {v!r}) not in graph")
        graph[u][v]["weight"] = weight
        return self._commit(lambda index: index.apply_weight_update(u, v, weight))

    def apply_batch(self, edits: Iterable[Tuple]) -> int:
        """Apply a burst of edits as **one** versioned mutation.

        ``edits`` is an iterable of tuples: ``("add", u, v)``,
        ``("add", u, v, weight)``, ``("remove", u, v)`` or
        ``("update", u, v, weight)``, applied to the graph in order (so an
        edge added earlier in the batch may be re-weighted later in it), with
        the same per-edit validation as the single-edit methods.  The whole
        batch bumps the version stamp exactly once and makes one index
        decision: the cached :class:`~repro.graphs.index.GraphIndex` is
        either patched with all ``k`` edits in order, or — when ``k`` is
        large enough that a from-scratch build is cheaper
        (``k * _BATCH_REBUILD_FACTOR >= n + m``), when an edit adds a new
        node, or when the index is untrustworthy — retired once up front
        instead of being patched ``k`` times only to be dropped.  Returns
        the new version stamp.

        An empty batch is a no-op (no bump; returns the current version).
        If a mid-batch edit fails validation, the earlier edits are already
        applied to the graph — the burst is then still committed as one
        mutation (version bumped, index retired) before the error propagates,
        so a partially-applied batch can never be served from a stale index.
        """
        graph = self.graph
        staged = [self._stage_edit(edit) for edit in edits]
        if not staged:
            return graph_version(graph)
        patches: List = []
        needs_full = False
        applied = 0
        added = 0  # net edge count of the batch
        try:
            for op, u, v, weight in staged:
                if op == "add":
                    if u == v:
                        raise ValueError(f"self-loop at node {u!r}: not supported")
                    if weight is not None and weight <= 0:
                        raise ValueError("edge weights must be positive")
                    if graph.has_edge(u, v):
                        raise ValueError(
                            f"edge ({u!r}, {v!r}) already exists; use update_weight()"
                        )
                    if u not in graph or v not in graph:
                        needs_full = True
                    if weight is None:
                        graph.add_edge(u, v)
                    else:
                        graph.add_edge(u, v, weight=weight)
                    patches.append(
                        lambda index, u=u, v=v, w=1 if weight is None else weight:
                            index.apply_edge_insert(u, v, w)
                    )
                    added += 1
                elif op == "remove":
                    if not graph.has_edge(u, v):
                        raise KeyError(f"edge ({u!r}, {v!r}) not in graph")
                    graph.remove_edge(u, v)
                    patches.append(
                        lambda index, u=u, v=v: index.apply_edge_delete(u, v)
                    )
                    added -= 1
                else:  # "update"
                    if weight <= 0:
                        raise ValueError("edge weights must be positive")
                    if not graph.has_edge(u, v):
                        raise KeyError(f"edge ({u!r}, {v!r}) not in graph")
                    graph[u][v]["weight"] = weight
                    patches.append(
                        lambda index, u=u, v=v, w=weight:
                            index.apply_weight_update(u, v, w)
                    )
                applied += 1
        except Exception:
            if applied:
                # The graph holds a partial batch: commit it as one mutation
                # (invalidate_index bumps once and retires the index).
                invalidate_index(graph)
            raise
        index = _peek_index(graph)
        before = graph_version(graph)
        if (
            index is not None
            and not needs_full
            and not index.retired
            and index.version == before
            # Patch unless a rebuild is cheaper: n + m after the batch is the
            # current index's count plus the batch's net edges, not O(n) work.
            and _BATCH_REBUILD_FACTOR * len(patches) < index.n + index.m + added
        ):
            version = bump_graph_version(graph)
            try:
                for patch in patches:
                    patch(index)
            except Exception:
                invalidate_index(graph)
                raise
            index.version = version
            return version
        if index is None:
            return bump_graph_version(graph)
        return self._full_drop()

    @staticmethod
    def _stage_edit(edit: Tuple) -> Tuple[str, Node, Node, Optional[float]]:
        """Normalise one batch edit to ``(op, u, v, weight)``; shape errors
        raise before anything touches the graph."""
        if not isinstance(edit, tuple) or not edit:
            raise ValueError(f"batch edit must be a non-empty tuple, got {edit!r}")
        op = edit[0]
        if op == "add" and len(edit) in (3, 4):
            return ("add", edit[1], edit[2], edit[3] if len(edit) == 4 else None)
        if op == "remove" and len(edit) == 3:
            return ("remove", edit[1], edit[2], None)
        if op == "update" and len(edit) == 4:
            return ("update", edit[1], edit[2], edit[3])
        raise ValueError(
            f"unsupported batch edit {edit!r}; use ('add', u, v[, weight]), "
            f"('remove', u, v) or ('update', u, v, weight)"
        )

    # ------------------------------------------------------------------
    # Version / index synchronisation
    # ------------------------------------------------------------------
    def _commit(self, patch) -> int:
        """Bump the version and patch the cached index (if trustworthy).

        The cached index is patched only when its version matches the
        pre-edit stamp — an index left behind by an out-of-band mutation is
        retired instead (patching it would compound the corruption).
        """
        graph = self.graph
        before = graph_version(graph)
        version = bump_graph_version(graph)
        index = _peek_index(graph)
        if index is None:
            return version
        if index.retired or index.version != before:
            invalidate_index(graph)
            return graph_version(graph)
        try:
            patch(index)
        except Exception:
            # The graph is already mutated; a half-applied patch must never
            # survive as a servable index.
            invalidate_index(graph)
            raise
        index.version = version
        return version

    def _full_drop(self) -> int:
        """Retire the cached index entirely (edits outside the patcher)."""
        invalidate_index(self.graph)
        return graph_version(self.graph)
