"""Virtual-tree overlay networks (Lemmas 4.3 - 4.6).

The broadcast/aggregation algorithms need, even in HYBRID_0, a constant-degree
virtual rooted tree of depth ``O(log n)`` spanning all nodes (Lemma 4.3) or a
given subset (Lemma 4.6), such that every tree node knows the identifiers of
its parent and children and can therefore talk to them over the global mode.

The paper constructs these trees with the deterministic overlay machinery of
[GHSS17] plus sparse neighborhood covers [RG20]; per the substitution policy
(DESIGN.md note 1) we build the same *object* — a balanced binary tree over the
identifier-sorted node list, depth ``ceil(log2 n)``, degree at most 3 — and
charge the polylogarithmic construction cost.  The tree is then *used* with
physically simulated global messages: :func:`aggregate_via_tree` and
:func:`broadcast_via_tree` implement Lemma 4.4 (``1``-aggregation and
``1``-dissemination in eO(1) rounds) by converge-casting / down-casting along
tree edges, one tree level per round, which respects the per-node global
budget because the degree is constant.  Each level moves as one id-native
:class:`~repro.simulator.engine.TokenPlane`; the tuple and per-message
formulations of the same operations are test oracles
(``tests/oracles/overlay.py``).
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.simulator.config import log2_ceil
from repro.simulator.engine import TokenPlane
from repro.simulator.messages import payload_words
from repro.simulator.network import HybridSimulator

Node = Hashable

__all__ = [
    "VirtualTree",
    "build_virtual_tree",
    "build_virtual_tree_on_subset",
    "aggregate_via_tree",
    "broadcast_via_tree",
    "basic_aggregation",
    "basic_dissemination",
]


class VirtualTree:
    """A rooted virtual tree over a subset of the network's nodes, in heap layout.

    ``index[slot]`` is the simulator node index of the tree node in heap slot
    ``slot``.  Slots follow identifier order; slot ``s``'s parent is slot
    ``(s - 1) // 2`` and its children are slots ``2s + 1`` and ``2s + 2``, so
    level ``l`` is the slot range ``[2^l - 1, min(2^(l+1) - 1, size))`` and
    every per-level plane is a pair of slices.  ``parent_index[slot]`` is the
    node index of that parent (slot 0 maps to itself).  Both columns are
    ``int64`` arrays; ``labels`` maps a node index to its node.

    The label views ``order`` (the identifier-sorted nodes), ``parent``
    (``None`` for the root), ``children`` and :meth:`levels` are built from
    slot arithmetic on first access; no level plane reads them.
    """

    def __init__(self, labels: Sequence[Node], index) -> None:
        count = len(index)
        if not count:
            raise ValueError("cannot build a virtual tree over an empty node set")
        self.labels = labels
        self.index = index = np.asarray(index, dtype=np.int64)
        slots = np.arange(count, dtype=np.int64)
        slots[1:] = (slots[1:] - 1) // 2
        self.parent_index = index[slots]

    def __len__(self) -> int:
        return len(self.index)

    @property
    def root(self) -> Node:
        return self.labels[self.index[0]]

    @functools.cached_property
    def order(self) -> List[Node]:
        return list(map(self.labels.__getitem__, self.index.tolist()))

    @functools.cached_property
    def parent(self) -> Dict[Node, Optional[Node]]:
        order = self.order
        parents = [order[(slot - 1) >> 1] for slot in range(1, len(order))]
        return dict(zip(order, [None] + parents))

    @functools.cached_property
    def children(self) -> Dict[Node, List[Node]]:
        order = self.order
        return {node: order[2 * s + 1 : 2 * s + 3] for s, node in enumerate(order)}

    @property
    def nodes(self) -> List[Node]:
        return list(self.order)

    @property
    def depth(self) -> int:
        return len(self).bit_length() - 1

    def max_degree(self) -> int:
        # The root has up to two children; slot 1 adds its parent to its own
        # up-to-two children.  No other slot has more.
        count = len(self)
        if count == 1:
            return 0
        return max(min(count - 1, 2), 1 + min(max(count - 3, 0), 2))

    def levels(self) -> List[List[Node]]:
        """Nodes grouped by depth (root first)."""
        order = self.order
        spans = map(self.level_slots, range(self.depth + 1))
        return [order[lo:hi] for lo, hi in spans]

    def level_slots(self, level: int) -> Tuple[int, int]:
        """Heap-slot range ``[lo, hi)`` of tree level ``level`` (root = level 0)."""
        return (1 << level) - 1, min((1 << (level + 1)) - 1, len(self))


def build_virtual_tree(simulator: HybridSimulator) -> VirtualTree:
    """Lemma 4.3: constant-degree, O(log n)-depth virtual tree over all nodes.

    The construction cost ``O(log^2 n)`` is charged; afterwards every
    participating node is taught the identifiers of its tree neighbors
    (``declare_learned_ids``), which is exactly the post-condition of
    Lemma 4.3.
    """
    tree = VirtualTree(simulator.nodes, np.argsort(simulator.identifier_column()))
    log_n = log2_ceil(max(simulator.n, 2))
    simulator.charge_rounds(
        log_n * log_n,
        "virtual-tree overlay construction over all nodes",
        "Lemma 4.3 [GHSS17]",
    )
    _teach_tree_ids(simulator, tree)
    return tree


def build_virtual_tree_on_subset(
    simulator: HybridSimulator, subset: Sequence[Node]
) -> VirtualTree:
    """Lemma 4.6: virtual tree with degree/depth O(log n) over a subset ``U``.

    Built by pruning the full tree in the paper; here directly as a balanced
    tree over the identifier-sorted subset, with the combined construction and
    pruning cost of Lemmas 4.3 + 4.5 charged.
    """
    ids = simulator.identifier_column()
    column = sorted({simulator.node_index(node) for node in subset}, key=ids.item)
    if not column:
        raise ValueError("subset must be non-empty")
    tree = VirtualTree(simulator.nodes, column)
    log_n = log2_ceil(max(simulator.n, 2))
    simulator.charge_rounds(
        log_n * log_n + log_n * log_n,
        "virtual tree over a subset (construction + pruning)",
        "Lemmas 4.3, 4.5, 4.6",
    )
    _teach_tree_ids(simulator, tree)
    return tree


def _teach_tree_ids(simulator: HybridSimulator, tree: VirtualTree) -> None:
    """Every tree node learns its parent's and children's identifiers."""
    idx, parent_idx = tree.index[1:], tree.parent_index[1:]
    simulator.knowledge.learn_index_pairs(
        np.concatenate((idx, parent_idx)), np.concatenate((parent_idx, idx))
    )


#: Integers below this magnitude have at most 64 bits: one word each.
_ONE_WORD_INT = 1 << 64


def _column_words(kind: type, column: Sequence[Any]) -> Optional[int]:
    """The one word size of values of exact type ``kind`` (``None``: none)."""
    if kind is int:
        return 1 if -_ONE_WORD_INT < min(column) and max(column) < _ONE_WORD_INT else None
    if kind is str:
        low, high = (payload_words(pick(column, key=len)) for pick in (min, max))
        return low if low == high else None
    return 1 if kind in (bool, float, type(None)) else None


def _level_words(payloads: Sequence[Any]) -> Any:
    """:func:`payload_words` of every payload (int64), sized per type pattern,
    a payload's exact type or a tuple's element types: at once where the ints
    of a pattern stay within 64 bits and its strs within one word count,
    payload by payload for any other pattern (nested, wide, subclasses)."""
    if set(map(type, payloads)) <= {bool, float, int, type(None)}:
        nonzero = list(filter(None, payloads))
        if not nonzero or -_ONE_WORD_INT < min(nonzero) and max(nonzero) < _ONE_WORD_INT:
            return np.ones(len(payloads), dtype=np.int64)
    payloads = np.fromiter(payloads, dtype=object, count=len(payloads))
    groups: Dict[Any, List[int]] = {}
    for position, p in enumerate(payloads):
        # Not tuple(map(...)): after a full collection its resizes feed gen-0 GC.
        shape = (*map(type, p),) if type(p) is tuple else type(p)
        groups.setdefault(shape, []).append(position)
    words = np.empty(len(payloads), dtype=np.int64)
    for shape, where in groups.items():
        group = payloads[where]
        if type(shape) is tuple:  # by position: zip(*group) would hold n iterators
            columns = ([p[i] for p in group] for i in range(len(shape)))
            sizes = [1, *map(_column_words, shape, columns)]
        else:
            sizes = [_column_words(shape, group)]
        words[where] = list(map(payload_words, group)) if None in sizes else max(1, sum(sizes))
    return words


def aggregate_via_tree(
    simulator: HybridSimulator,
    tree: VirtualTree,
    values: Dict[Node, Any],
    combine: Callable[[Any, Any], Any],
) -> Any:
    """Converge-cast ``values`` up the tree, combining with ``combine``.

    One tree level per round (leaf level first); every node sends a single
    global message to its parent, so the per-node budget is respected.  Returns
    the aggregate as known by the root.  Each level moves as one id-native
    token plane sliced from the heap layout; partials live in a slot-ordered
    list and the combine step folds them slot by slot (each parent combines
    its children in child order), with no inbox read.
    """
    idx, parent_idx = tree.index, tree.parent_index
    slot_values = list(map(values.get, tree.order))
    for level in range(tree.depth, 0, -1):
        lo, hi = tree.level_slots(level)
        payloads = slot_values[lo:hi]
        plane = TokenPlane(
            idx[lo:hi], parent_idx[lo:hi], _level_words(payloads), payloads
        )
        simulator.global_send_plane(plane, None, "tree-agg")
        simulator.advance_round()
        for slot in range(lo, hi):
            incoming = slot_values[slot]
            if incoming is None:
                continue
            target = (slot - 1) >> 1
            acc = slot_values[target]
            slot_values[target] = incoming if acc is None else combine(acc, incoming)
    return slot_values[0]


def broadcast_via_tree(
    simulator: HybridSimulator,
    tree: VirtualTree,
    value: Any,
) -> Dict[Node, Any]:
    """Down-cast ``value`` from the root to every tree node (one level per round).

    Every level plane carries the same payload object, so the words column
    is one ``payload_words`` call and the sender/receiver columns are slices
    of the heap layout.
    """
    idx, parent_idx = tree.index, tree.parent_index
    size = payload_words(value)
    for level in range(1, tree.depth + 1):
        lo, hi = tree.level_slots(level)
        count = hi - lo
        plane = TokenPlane(
            parent_idx[lo:hi], idx[lo:hi], [size] * count, [value] * count
        )
        simulator.global_send_plane(plane, None, "tree-bcast")
        simulator.advance_round()
    return dict.fromkeys(tree.order, value)


def basic_aggregation(
    simulator: HybridSimulator,
    values: Dict[Node, Any],
    combine: Callable[[Any, Any], Any],
    tree: Optional[VirtualTree] = None,
) -> Any:
    """Lemma 4.4 for ``k = 1``: every node learns ``combine`` over all values.

    Converge-cast to the root, then broadcast the result back down.  Returns the
    aggregate (which after the broadcast every node knows).
    """
    if tree is None:
        tree = build_virtual_tree(simulator)
    aggregate = aggregate_via_tree(simulator, tree, values, combine)
    broadcast_via_tree(simulator, tree, aggregate)
    return aggregate


def basic_dissemination(
    simulator: HybridSimulator,
    source: Node,
    value: Any,
    tree: Optional[VirtualTree] = None,
) -> Dict[Node, Any]:
    """Lemma 4.4 for ``k = 1``: a single value becomes known to every node.

    The source first converge-casts the value to the root (by sending it up its
    root path, one one-token plane per hop and round), then the root
    broadcasts it down the tree.  Every hop forwards ``value`` itself, so the
    up-path reads no inbox.
    """
    if tree is None:
        tree = build_virtual_tree(simulator)
    slot = tree.order.index(source)
    idx = tree.index
    size = payload_words(value)
    while slot:
        parent = (slot - 1) >> 1
        plane = TokenPlane(
            idx[slot : slot + 1], idx[parent : parent + 1], [size], [value]
        )
        simulator.global_send_plane(plane, None, "tree-up")
        simulator.advance_round()
        slot = parent
    return broadcast_via_tree(simulator, tree, value)
