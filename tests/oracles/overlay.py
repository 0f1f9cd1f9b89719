"""The tuple and per-message formulations of the virtual-tree operations.

:mod:`repro.core.overlay` moves every tree level as one id-native token
plane.  The functions here move the same levels as one tuple batch per level
(``mode="tuple"``: :func:`oracles.transport.send_batch` plus a tag-filtered
``per_node_inbox`` read) or one :func:`oracles.transport.send` per edge
(``mode="per-message"``: :func:`oracles.transport.inbox` reads).  Rounds,
inboxes and metrics are identical in all three.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Optional

from repro.core.overlay import VirtualTree, build_virtual_tree
from repro.simulator.messages import GLOBAL_MODE
from repro.simulator.network import HybridSimulator

from oracles import transport

Node = Hashable

MODES = ("tuple", "per-message")


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
