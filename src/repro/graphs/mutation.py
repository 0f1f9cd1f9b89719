"""First-class in-place graph mutation with incremental index maintenance.

The supported way to edit a graph that analytics or simulators may already
have indexed.  Historically every cache in the system treated graphs as
frozen: :func:`repro.graphs.index.get_index` detected mutations only through
node/edge *counts*, so a rewiring or re-weighting that preserved both counts
silently served a dead CSR.  :class:`GraphMutator` closes that hole from the
write side:

* every batch of edits bumps the graph's **version stamp** once
  (:func:`repro.graphs.index.bump_graph_version`), which every versioned
  consumer — :func:`~repro.graphs.index.get_index`, ``HybridSimulator``
  plane sends, row caches, lazy distance tables — checks before serving
  cached state;
* when the graph's :class:`~repro.graphs.index.GraphIndex` is already built,
  the batch is spliced into it in place (``GraphIndex._splice`` rewrites
  each touched CSR row once in every column, the weight array and every
  memoised rounded/pair derivative included, shifts the offsets once and
  drops only the analytics caches the batch can change) instead of forcing
  a full O(n + m) rebuild.  A single edit is a one-edit batch.

The full rebuild (``GraphIndex(graph)`` from scratch) remains the reference
oracle: the property grid in ``tests/properties/test_dynamic_index.py`` pins
that every query answer on a spliced index is value-identical to a fresh
build across the six graph families.  Adding an edge whose endpoint is a
**new node** takes the full-drop path
(:func:`~repro.graphs.index.invalidate_index`), and so does a wholesale
rewrite (:mod:`repro.graphs.weighted`).  See DESIGN.md ("Graph mutation and
the version-stamp protocol") for the decision table.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional, Tuple

import networkx as nx

from repro.graphs.index import (
    _peek_index,
    bump_graph_version,
    graph_version,
    invalidate_index,
)

Node = Hashable

__all__ = ["GraphMutator"]


class GraphMutator:
    """Versioned in-place edit API for one graph.

    Every operation mutates ``graph`` itself (so ``networkx`` views stay
    truthful), advances the graph's version stamp once, and keeps the cached
    :class:`~repro.graphs.index.GraphIndex` — if one exists — either spliced
    in place (the common case) or retired (a new node, or an index that an
    out-of-band mutation already left behind).  Each returns the new version
    stamp.

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
        changed, so the cached index is retired instead of spliced.
        """
        return self.apply_batch([("add", u, v, weight)])

    def remove_edge(self, u: Node, v: Node) -> int:
        """Remove edge ``(u, v)``; returns the new version.

        Raises ``KeyError`` when the edge does not exist.  Nodes are never
        removed (an isolated endpoint stays a node).
        """
        return self.apply_batch([("remove", u, v)])

    def update_weight(self, u: Node, v: Node, weight: float) -> int:
        """Set the weight of existing edge ``(u, v)``; returns the new version.

        The cheapest edit class: hop-based analytics caches (connectivity,
        diameter, NQ, tie ranks) all survive; only the weight arrays and
        their rounded/pair derivatives are rewritten.
        """
        return self.apply_batch([("update", u, v, weight)])

    def apply_batch(self, edits: Iterable[Tuple]) -> int:
        """Apply a burst of edits as **one** versioned mutation.

        ``edits`` is an iterable of tuples: ``("add", u, v)``,
        ``("add", u, v, weight)``, ``("remove", u, v)`` or
        ``("update", u, v, weight)``, applied to the graph in order (so an
        edge added earlier in the batch may be re-weighted later in it).
        The whole batch bumps the version stamp exactly once and is spliced
        into the cached :class:`~repro.graphs.index.GraphIndex` in one pass;
        when an edit adds a new node, or the index is out of version, the
        index is retired instead.  Returns the new version stamp.

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
        needs_full = False
        applied = 0
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
                elif op == "remove":
                    if not graph.has_edge(u, v):
                        raise KeyError(f"edge ({u!r}, {v!r}) not in graph")
                    graph.remove_edge(u, v)
                else:  # "update"
                    if weight <= 0:
                        raise ValueError("edge weights must be positive")
                    if not graph.has_edge(u, v):
                        raise KeyError(f"edge ({u!r}, {v!r}) not in graph")
                    graph[u][v]["weight"] = weight
                applied += 1
        except Exception:
            if applied:
                # The graph holds a partial batch: commit it as one mutation
                # (invalidate_index bumps once and retires the index).
                invalidate_index(graph)
            raise
        index = _peek_index(graph)
        # An index whose version lags the graph's was left behind by an
        # out-of-band mutation; splicing it would compound the corruption.
        if index is not None and (needs_full or index.version != graph_version(graph)):
            invalidate_index(graph)
            return graph_version(graph)
        version = bump_graph_version(graph)
        if index is not None:
            try:
                index._splice(staged)
            except Exception:
                # A half-spliced index must never survive as a servable one.
                invalidate_index(graph)
                raise
            index.version = version
        return version

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
