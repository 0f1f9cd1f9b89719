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

import dataclasses
import math
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.simulator import _accel
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


@dataclasses.dataclass
class VirtualTree:
    """A rooted virtual tree over a subset of the network's nodes.

    ``parent[v]`` is ``None`` for the root; ``children[v]`` lists v's children.
    ``order`` is the identifier-sorted list of participating nodes (the implicit
    array backing the binary-heap layout).
    """

    root: Node
    parent: Dict[Node, Optional[Node]]
    children: Dict[Node, List[Node]]
    order: List[Node]

    @property
    def nodes(self) -> List[Node]:
        return list(self.order)

    @property
    def depth(self) -> int:
        if len(self.order) <= 1:
            return 0
        return int(math.floor(math.log2(len(self.order))))

    def max_degree(self) -> int:
        best = 0
        for node in self.order:
            degree = len(self.children[node]) + (0 if self.parent[node] is None else 1)
            best = max(best, degree)
        return best

    def levels(self) -> List[List[Node]]:
        """Nodes grouped by depth (root first)."""
        result: List[List[Node]] = []
        current = [self.root]
        while current:
            result.append(current)
            nxt: List[Node] = []
            for node in current:
                nxt.extend(self.children[node])
            current = nxt
        return result


def _heap_tree(order: Sequence[Node]) -> VirtualTree:
    """Balanced binary tree in heap layout over ``order``."""
    order = list(order)
    if not order:
        raise ValueError("cannot build a virtual tree over an empty node set")
    parent: Dict[Node, Optional[Node]] = {}
    children: Dict[Node, List[Node]] = {node: [] for node in order}
    parent[order[0]] = None
    for index, node in enumerate(order):
        if index == 0:
            continue
        parent_index = (index - 1) // 2
        parent_node = order[parent_index]
        parent[node] = parent_node
        children[parent_node].append(node)
    return VirtualTree(root=order[0], parent=parent, children=children, order=order)


def build_virtual_tree(simulator: HybridSimulator) -> VirtualTree:
    """Lemma 4.3: constant-degree, O(log n)-depth virtual tree over all nodes.

    The construction cost ``O(log^2 n)`` is charged; afterwards every
    participating node is taught the identifiers of its tree neighbors
    (``declare_learned_ids``), which is exactly the post-condition of
    Lemma 4.3.
    """
    order = sorted(simulator.nodes, key=simulator.node_identifiers().__getitem__)
    tree = _heap_tree(order)
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
    members = sorted(set(subset), key=simulator.id_of)
    if not members:
        raise ValueError("subset must be non-empty")
    tree = _heap_tree(members)
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
    idx, parent_idx = _tree_plane_layout(simulator, tree)
    np = _accel.np
    if np is not None and isinstance(idx, np.ndarray):
        learners = np.concatenate((idx[1:], parent_idx[1:]))
        learned = np.concatenate((parent_idx[1:], idx[1:]))
    else:
        learners = idx[1:] + parent_idx[1:]
        learned = parent_idx[1:] + idx[1:]
    simulator.knowledge.learn_index_pairs(learners, learned)


def _tree_plane_layout(simulator: HybridSimulator, tree: VirtualTree):
    """Id-native heap layout of ``tree``, cached on the tree.

    ``idx[slot]`` is the simulator node index of the tree node in heap slot
    ``slot`` (``tree.order`` position) and ``parent_idx[slot]`` that of its
    parent (slot 0 maps to itself; the root never appears as a plane
    receiver/sender pair).  Level ``l`` is the slot range
    ``[2^l - 1, min(2^(l+1) - 1, n))``, so every per-level plane is a pair of
    slices — no per-node indexer lookups after the first build.  The columns
    are ``int64`` arrays with NumPy active and lists otherwise.
    """
    np = _accel.np
    cached = getattr(tree, "_plane_layout", None)
    if cached is not None and cached[0] is simulator:
        return cached[1], cached[2]
    indexer = simulator.node_indexer()
    count = len(tree.order)
    if np is not None:
        idx = np.fromiter(
            (indexer[node] for node in tree.order), dtype=np.int64, count=count
        )
        slots = np.arange(count, dtype=np.int64)
        slots[1:] = (slots[1:] - 1) // 2
        parent_idx = idx[slots]
    else:
        idx = [indexer[node] for node in tree.order]
        parent_idx = [idx[(slot - 1) // 2 if slot else 0] for slot in range(count)]
    tree._plane_layout = (simulator, idx, parent_idx)
    return idx, parent_idx


def _level_slots(count: int, level: int) -> Tuple[int, int]:
    """Heap-slot range ``[lo, hi)`` of tree level ``level`` (root = level 0)."""
    return (1 << level) - 1, min((1 << (level + 1)) - 1, count)


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
    token plane sliced from the cached heap layout; partials live in a
    slot-ordered list and the combine step folds them slot by slot (each
    parent combines its children in child order), with no inbox read.
    """
    idx, parent_idx = _tree_plane_layout(simulator, tree)
    slot_values = [values.get(node) for node in tree.order]
    nslots = len(slot_values)
    for level in range(nslots.bit_length() - 1, 0, -1):
        lo, hi = _level_slots(nslots, level)
        payloads = slot_values[lo:hi]
        plane = TokenPlane(
            idx[lo:hi],
            parent_idx[lo:hi],
            [payload_words(payload) for payload in payloads],
            payloads,
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
    of the cached heap layout.
    """
    idx, parent_idx = _tree_plane_layout(simulator, tree)
    nslots = len(tree.order)
    size = payload_words(value)
    for level in range(1, nslots.bit_length()):
        lo, hi = _level_slots(nslots, level)
        count = hi - lo
        plane = TokenPlane(
            parent_idx[lo:hi], idx[lo:hi], [size] * count, [value] * count
        )
        simulator.global_send_plane(plane, None, "tree-bcast")
        simulator.advance_round()
    return {node: value for node in tree.order}


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
    index = simulator.node_indexer()
    size = payload_words(value)
    current = source
    while tree.parent[current] is not None:
        parent = tree.parent[current]
        plane = TokenPlane([index[current]], [index[parent]], [size], [value])
        simulator.global_send_plane(plane, None, "tree-up")
        simulator.advance_round()
        current = parent
    return broadcast_via_tree(simulator, tree, value)
