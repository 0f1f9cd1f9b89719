"""Both sides of every input-size selection, checked against the oracles.

The round engine picks scalar or array code by input size alone:

* :func:`~repro.simulator.engine.plan_token_rounds` plans a workload below
  ``engine._SMALL_WORKLOAD`` tokens with the scalar greedy scan and a larger
  one with the vectorised planner;
* :class:`~repro.simulator.network.HybridSimulator` queues a shard below
  ``HybridSimulator._SMALL_SHARD`` tokens as lists — scalar range and
  knowledge checks and the scalar fault filter — and a larger shard as int64
  arrays;
* its capacity sweep reads the round's loads off every queued global shard:
  a round below ``_SMALL_SHARD`` global tokens in total sums them in dicts,
  a larger one ``bincount``-s each shard, list or array, into one array pair;
  sender-id learning selects on the same total: key by key below it, every
  shard's keys in one sorted probe above it;
* :meth:`~repro.graphs.index.GraphIndex.nq_value` prices dense boolean blocks
  of ball growths with the h-hop rule, and a block whose ``(|U| + 1) x S``
  matrix exceeds ``_HHOP_BLOCK_CELLS`` halves.  Both arms of the pricing run
  against the NQ oracle in ``test_nq_equivalence.py`` (``test_hhop_rows.MODES``
  forces each); here a forced-dense scan runs one cell below, at and one
  above the cap of a four-source block.

On token counts and shard sizes one below, at and one above each cutoff,
with and without a fault schedule and in strict mode, schedules must equal
``oracles.scheduler.shard_transfers`` and rounds must equal
``oracles.delivery.ReferenceNetwork``: metrics, inboxes, delivered positions,
identifier knowledge and the strict offender.  Rounds of several global
shards whose sizes and total fall on either side of ``_SMALL_SHARD`` are
checked the same way, with and without node-scoped degraded budgets.
"""

from __future__ import annotations

import random

import pytest

import networkx as nx

import repro.graphs.index as graph_index
from repro.graphs.generators import erdos_renyi_graph
from repro.graphs.index import GraphIndex
from repro.simulator.config import ModelConfig
from repro.simulator.engine import (
    _SMALL_WORKLOAD,
    TokenPlane,
    batched_global_exchange,
    plan_token_rounds,
)
from repro.simulator.errors import CapacityExceededError, UnknownIdentifierError
from repro.simulator.faults import (
    CapacityDegradation,
    CrashEvent,
    FaultSchedule,
    LinkFailure,
)
from repro.simulator.messages import GLOBAL_MODE, LOCAL_MODE
from repro.simulator.network import HybridSimulator

from oracles.delivery import ReferenceNetwork
from oracles.nq import _reference_neighborhood_quality
from oracles.scheduler import reference_batched_global_exchange, shard_transfers

from test_hhop_rows import FORCE_DENSE

WORKLOAD_SIZES = [_SMALL_WORKLOAD - 1, _SMALL_WORKLOAD, _SMALL_WORKLOAD + 1]
_SMALL_SHARD = HybridSimulator._SMALL_SHARD
SHARD_SIZES = [_SMALL_SHARD - 1, _SMALL_SHARD, _SMALL_SHARD + 1]
FAULTS = ["fault-free", "faulted"]

N = 24
#: Nodes that know every identifier, so their sends reach strangers.
HUBS = 4


def _graph():
    return erdos_renyi_graph(N, 0.2, seed=3)


def _schedule(faults):
    if faults == "fault-free":
        return None
    if faults == "degraded":
        # Node-scoped budgets only: a hub that overloads anyway, and a light
        # sender that overloads only under its own degraded budget.
        return FaultSchedule(
            degradations=(
                CapacityDegradation(factor=0.5, node=0),
                CapacityDegradation(factor=0.1, node=HUBS + 1),
            ),
        )
    edge = sorted(_graph().edges)[0]
    return FaultSchedule(
        seed=9,
        crashes=(CrashEvent(node=HUBS + 1, crash_round=0, recover_round=2),),
        link_failures=(LinkFailure(u=edge[0], v=edge[1], start_round=0, end_round=2),),
        degradations=(CapacityDegradation(factor=0.5, start_round=0, end_round=2, node=2),),
        global_drop_rate=0.25,
        local_drop_rate=0.25,
    )


# ----------------------------------------------------------------------
# Planner: _SMALL_WORKLOAD +- 1 tokens against the greedy reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("tag_words", [0, 2])
@pytest.mark.parametrize("words", ["uniform", "mixed", "oversized"])
@pytest.mark.parametrize("count", WORKLOAD_SIZES)
def test_plan_matches_the_greedy_reference_at_the_workload_cutoff(count, words, tag_words):
    rng = random.Random(f"plan-{count}-{words}-{tag_words}")
    senders = [rng.randrange(6) for _ in range(count)]
    receivers = [rng.randrange(6) for _ in range(count)]
    sizes = {
        "uniform": lambda: 3,
        "mixed": lambda: rng.choice([1, 2, 5, 9]),
        "oversized": lambda: rng.choice([1, 2, 20]),
    }[words]
    sizes = [sizes() for _ in range(count)]
    budget = 12
    tokens = [(senders[i], receivers[i], i, sizes[i]) for i in range(count)]
    expected = [[token[2] for token in shard] for shard in shard_transfers(tokens, budget, tag_words)]
    shards = plan_token_rounds(TokenPlane(senders, receivers, sizes), budget, tag_words)
    assert [[int(p) for p in shard] for shard in shards] == expected
    assert len(expected) > 1


@pytest.mark.parametrize("faults", FAULTS)
@pytest.mark.parametrize("count", WORKLOAD_SIZES)
def test_exchange_matches_the_round_model_at_the_workload_cutoff(count, faults):
    rng = random.Random(f"exchange-{count}-{faults}")
    triples = [
        (rng.randrange(8), rng.randrange(8), ("x", i), rng.choice([1, 3, 6]))
        for i in range(count)
    ]
    config = ModelConfig.hybrid(strict=False)
    model = ReferenceNetwork(_graph(), config, seed=1, fault_schedule=_schedule(faults))
    expected = reference_batched_global_exchange(model, triples, tag="cut")
    sim = HybridSimulator(_graph(), config, seed=1, fault_schedule=_schedule(faults))
    delivered = batched_global_exchange(sim, triples, tag="cut")
    assert sim.metrics.summary() == model.metrics.summary()
    assert sim.metrics.total_rounds > 1
    if faults == "fault-free":
        assert delivered == expected
    else:
        assert sim.metrics.dropped_messages > 0


# ----------------------------------------------------------------------
# Rounds: _SMALL_SHARD +- 1 token shards against the round model
# ----------------------------------------------------------------------
def _networks(faults, strict):
    config = ModelConfig.hybrid0(strict=strict)
    networks = []
    for network in (HybridSimulator, ReferenceNetwork):
        net = network(_graph(), config, seed=11, fault_schedule=_schedule(faults))
        for hub in net.nodes[:HUBS]:
            net.declare_learned_ids(hub, net.all_ids())
        networks.append(net)
    return networks


def _round_traffic(rng, sim, size):
    """A global shard along known pairs (hubs heavy enough to overload the
    budget) and a local shard along edges, ``size`` tokens each."""
    nodes = sim.nodes
    index = sim.node_indexer()
    heavy = sim.global_budget_words() // 3 + 1
    senders, receivers, words = [], [], []
    for k in range(size):
        sender = nodes[k // 2 % HUBS] if k % 2 == 0 else rng.choice(nodes)
        target = sim.node_of_id(rng.choice(sorted(sim.known_ids(sender))))
        senders.append(index[sender])
        receivers.append(index[target])
        words.append(heavy if k % 2 == 0 else rng.choice([1, 2]))
    global_plane = TokenPlane(senders, receivers, words, [("g", p) for p in range(size)])
    edges = sorted(sim.graph.edges)
    local = [rng.choice(edges)[:: rng.choice([1, -1])] for _ in range(size)]
    local_plane = TokenPlane(
        [index[u] for u, _ in local],
        [index[v] for _, v in local],
        [rng.choice([1, 4]) for _ in local],
        [("l", p) for p in range(size)],
    )
    return global_plane, local_plane


def _run_round(network, shards):
    """One round of the ``(global, local)`` plane pairs in ``shards``, pair
    ``j`` tagged ``g{j}`` / ``l{j}``; ``(error, metrics, inboxes, delivered
    positions by tag)``."""
    try:
        for j, (global_plane, local_plane) in enumerate(shards):
            network.global_send_plane(global_plane, None, f"g{j}")
            network.local_send_plane(local_plane, None, f"l{j}")
        network.advance_round()
    except CapacityExceededError as exc:
        return str(exc), network.metrics.summary(), None, None
    inboxes = {mode: network.per_node_inbox(mode) for mode in (GLOBAL_MODE, LOCAL_MODE)}
    positions = {}
    for inbox in inboxes.values():
        for records in inbox.values():
            for _, payload, tag, _ in records:
                positions.setdefault(tag, []).append(payload[1])
    return (
        None,
        network.metrics.summary(),
        inboxes,
        {tag: sorted(found) for tag, found in positions.items()},
    )


@pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
@pytest.mark.parametrize("faults", FAULTS)
@pytest.mark.parametrize("size", SHARD_SIZES)
def test_rounds_match_the_round_model_at_the_shard_cutoff(size, faults, strict):
    sim, model = _networks(faults, strict)
    rng = random.Random(f"rounds-{size}-{faults}-{strict}")
    for _ in range(3):
        shards = [_round_traffic(rng, sim, size)]
        got = _run_round(sim, shards)
        assert got == _run_round(model, shards)
        error, _, _, positions = got
        if error is not None:
            # Several hubs overload; the error names the lowest-indexed one.
            assert error.startswith(f"node {sim.nodes[0]!r} sent ")
            return
        for mode, tag in ((GLOBAL_MODE, "g0"), (LOCAL_MODE, "l0")):
            assert sorted(sim.delivered_plane_positions(tag, mode)) == positions[tag]
        for node in sim.nodes:
            assert sim.known_ids(node) == model.known_ids(node)
    assert not strict, "strict rounds must overload"
    assert sim.metrics.capacity_violations > 0
    if faults == "faulted":
        assert sim.metrics.dropped_messages > 0


@pytest.mark.parametrize("size", SHARD_SIZES)
def test_unknown_identifier_at_the_shard_cutoff_queues_nothing(size):
    sim, _ = _networks("fault-free", True)
    index = sim.node_indexer()
    stranger = next(
        v for v in sim.nodes if sim.id_of(v) not in sim.known_ids(sim.nodes[-1])
    )
    senders = [index[sim.nodes[k % HUBS]] for k in range(size)]
    receivers = [index[stranger]] * size
    # The last token alone is illegal: the last node does not know the stranger.
    senders[-1] = index[sim.nodes[-1]]
    plane = TokenPlane(senders, receivers, [1] * size, [("u", p) for p in range(size)])
    with pytest.raises(UnknownIdentifierError) as caught:
        sim.global_send_plane(plane, None, "u")
    assert str(caught.value) == (
        f"node {sim.nodes[-1]!r} does not know identifier {sim.id_of(stranger)!r}"
    )
    sim.advance_round()
    assert sim.metrics.global_messages == 0
    # The legal prefix alone goes through, and its pairs are remembered.
    sim.global_send_plane(plane, list(range(size - 1)), "u")
    sim.advance_round()
    assert sim.metrics.global_messages == size - 1
    assert sim.delivered_plane_positions("u") == list(range(size - 1))


#: Global shard sizes of one round: several small shards whose total stays
#: below the cutoff, small shards whose total crosses it, and a small shard
#: beside a bulk one (31 + 33 tokens).
MIXED_ROUNDS = [
    (_SMALL_SHARD // 3, _SMALL_SHARD // 3 + 1),
    (_SMALL_SHARD // 2 + 4, _SMALL_SHARD // 2 + 4),
    (_SMALL_SHARD - 1, _SMALL_SHARD + 1),
]


@pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
@pytest.mark.parametrize("faults", ["fault-free", "degraded"])
@pytest.mark.parametrize("sizes", MIXED_ROUNDS, ids=lambda sizes: "+".join(map(str, sizes)))
def test_mixed_rounds_match_the_round_model_across_the_shard_cutoff(
    sizes, faults, strict, arms
):
    sim, model = _networks(faults, strict)
    rng = random.Random(f"mixed-{sizes}-{faults}-{strict}")
    for _ in range(3):
        shards = [_round_traffic(rng, sim, size) for size in sizes]
        got = _run_round(sim, shards)
        assert got == _run_round(model, shards)
        error, _, _, positions = got
        if error is not None:
            # The hubs overload on every side of the cutoff; the error names
            # the lowest-indexed one with its own (degraded) budget.
            budget = sim.global_budget_words()
            if faults == "degraded":
                budget = max(1, int(budget * 0.5))
            assert error.startswith(f"node {sim.nodes[0]!r} sent ")
            assert error.endswith(f", budget is {budget}")
            return
        for j in range(len(sizes)):
            for mode, tag in ((GLOBAL_MODE, f"g{j}"), (LOCAL_MODE, f"l{j}")):
                assert sorted(sim.delivered_plane_positions(tag, mode)) == positions[tag]
        for node in sim.nodes:
            assert sim.known_ids(node) == model.known_ids(node)
    assert not strict, "strict rounds must overload"
    assert sim.metrics.capacity_violations > 0


# ----------------------------------------------------------------------
# NQ blocks: a four-source block at _HHOP_BLOCK_CELLS +- 1
# ----------------------------------------------------------------------
#: Its balls certify nothing at k = n, and every 8-hop ball union is the whole
#: graph: 61 rows x 4 sources.
NQ_GRAPH = nx.random_regular_graph(4, 60, seed=1)
NQ_BLOCK_CELLS = (NQ_GRAPH.number_of_nodes() + 1) * 4


@pytest.mark.parametrize("cells", [NQ_BLOCK_CELLS - 1, NQ_BLOCK_CELLS, NQ_BLOCK_CELLS + 1])
def test_nq_blocks_match_the_oracle_at_the_block_cell_cap(cells, monkeypatch):
    overrides = dict(FORCE_DENSE, _HHOP_BLOCK_SOURCES=4, _HHOP_BLOCK_CELLS=cells)
    for name, value in overrides.items():
        monkeypatch.setattr(graph_index, name, value)
    widths = []
    nq_block = GraphIndex._nq_block

    def spy(self, csr, block, *args):
        widths.append(len(block))
        return nq_block(self, csr, block, *args)

    monkeypatch.setattr(GraphIndex, "_nq_block", spy)
    k = NQ_GRAPH.number_of_nodes()
    assert GraphIndex(NQ_GRAPH).nq_value(k) == _reference_neighborhood_quality(NQ_GRAPH, k)
    assert max(widths) == (4 if cells >= NQ_BLOCK_CELLS else 2)
