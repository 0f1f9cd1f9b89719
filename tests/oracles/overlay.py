"""The dict tree and the tuple and per-message virtual-tree operations.

:class:`repro.core.overlay.VirtualTree` is a heap layout over node-index
columns whose label views are derived from slot arithmetic.
:func:`heap_tree` builds the same tree eagerly as parent and children dicts
over an identifier-sorted node list; the tree tests compare the two.

:mod:`repro.core.overlay` moves every tree level as one id-native token
plane.  The functions here move the same levels as one tuple batch per level
(``mode="tuple"``: :func:`oracles.transport.send_batch` plus a tag-filtered
``per_node_inbox`` read) or one :func:`oracles.transport.send` per edge
(``mode="per-message"``: :func:`oracles.transport.inbox` reads).  Rounds,
inboxes and metrics are identical in all three.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence

from repro.core.overlay import VirtualTree, build_virtual_tree
from repro.simulator.messages import GLOBAL_MODE
from repro.simulator.network import HybridSimulator

from oracles import transport

Node = Hashable

MODES = ("tuple", "per-message")


@dataclasses.dataclass
class HeapTree:
    """A balanced binary tree in heap layout, held as eager dicts."""

    root: Node
    parent: Dict[Node, Optional[Node]]
    children: Dict[Node, List[Node]]
    order: List[Node]

    @property
    def depth(self) -> int:
        if len(self.order) <= 1:
            return 0
        return int(math.floor(math.log2(len(self.order))))

    def max_degree(self) -> int:
        return max(
            len(self.children[node]) + (self.parent[node] is not None)
            for node in self.order
        )

    def levels(self) -> List[List[Node]]:
        result: List[List[Node]] = []
        current = [self.root]
        while current:
            result.append(current)
            current = [child for node in current for child in self.children[node]]
        return result


def heap_tree(order: Sequence[Node]) -> HeapTree:
    """Balanced binary tree in heap layout over ``order``."""
    order = list(order)
    if not order:
        raise ValueError("cannot build a virtual tree over an empty node set")
    parent: Dict[Node, Optional[Node]] = {order[0]: None}
    children: Dict[Node, List[Node]] = {node: [] for node in order}
    for index, node in enumerate(order[1:], start=1):
        parent_node = order[(index - 1) // 2]
        parent[node] = parent_node
        children[parent_node].append(node)
    return HeapTree(root=order[0], parent=parent, children=children, order=order)


def _check(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown tree oracle mode {mode!r}; use one of {MODES}")


def aggregate_via_tree(
    simulator: HybridSimulator,
    tree: VirtualTree,
    values: Dict[Node, Any],
    combine: Callable[[Any, Any], Any],
    *,
    mode: str,
) -> Any:
    """Converge-cast ``values`` to the root, one level per round."""
    _check(mode)
    partial: Dict[Node, Any] = {node: values.get(node) for node in tree.order}
    for level in reversed(tree.levels()[1:]):
        if mode == "tuple":
            transport.send_batch(
                simulator,
                [(node, tree.parent[node], partial[node]) for node in level],
                "tree-agg",
            )
            simulator.advance_round()
            inbox = simulator.per_node_inbox(GLOBAL_MODE)
            incoming = {
                parent: [
                    payload
                    for _, payload, tag, _ in inbox.get(parent, ())
                    if tag == "tree-agg"
                ]
                for parent in {tree.parent[node] for node in level}
            }
        else:
            for node in level:
                transport.send(
                    simulator, node, tree.parent[node], partial[node], tag="tree-agg"
                )
            simulator.advance_round()
            incoming = {
                parent: [
                    message.payload
                    for message in transport.inbox(simulator, parent, GLOBAL_MODE)
                    if message.tag == "tree-agg"
                ]
                for parent in {tree.parent[node] for node in level}
            }
        for parent, payloads in incoming.items():
            acc = partial[parent]
            for payload in payloads:
                if acc is None:
                    acc = payload
                elif payload is not None:
                    acc = combine(acc, payload)
            partial[parent] = acc
    return partial[tree.root]


def broadcast_via_tree(
    simulator: HybridSimulator, tree: VirtualTree, value: Any, *, mode: str
) -> Dict[Node, Any]:
    """Down-cast ``value`` from the root to every tree node."""
    _check(mode)
    received: Dict[Node, Any] = {tree.root: value}
    for level in tree.levels():
        sends = [
            (node, child, received[node])
            for node in level
            if node in received
            for child in tree.children[node]
        ]
        if not sends:
            continue
        if mode == "tuple":
            transport.send_batch(simulator, sends, "tree-bcast")
            simulator.advance_round()
            inbox = simulator.per_node_inbox(GLOBAL_MODE)
            for _, child, _ in sends:
                for _, payload, tag, _ in inbox.get(child, ()):
                    if tag == "tree-bcast":
                        received[child] = payload
            continue
        for sender, child, payload in sends:
            transport.send(simulator, sender, child, payload, tag="tree-bcast")
        simulator.advance_round()
        for _, child, _ in sends:
            for message in transport.inbox(simulator, child, GLOBAL_MODE):
                if message.tag == "tree-bcast":
                    received[child] = message.payload
    return received


def basic_aggregation(
    simulator: HybridSimulator,
    values: Dict[Node, Any],
    combine: Callable[[Any, Any], Any],
    tree: Optional[VirtualTree] = None,
    *,
    mode: str,
) -> Any:
    """Lemma 4.4 for ``k = 1``: converge-cast, then broadcast the aggregate."""
    if tree is None:
        tree = build_virtual_tree(simulator)
    aggregate = aggregate_via_tree(simulator, tree, values, combine, mode=mode)
    broadcast_via_tree(simulator, tree, aggregate, mode=mode)
    return aggregate
