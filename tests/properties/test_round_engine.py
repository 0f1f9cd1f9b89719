"""Seeded randomized equivalence properties of the vectorised round engine.

The token-plane scheduler must be **schedule-identical** to the greedy
reference (``oracles.scheduler.shard_transfers``) on every workload shape —
uncongested, congested, mixed token sizes, oversized tokens hitting the
forced-through branch.  The plane sends must produce the same inboxes,
metrics, capacity accounting and knowledge as the record-level round model
(``oracles.delivery.ReferenceNetwork``).  Each property is exercised across
seeds.
"""

import random

import numpy as np
import pytest

from repro.graphs.generators import erdos_renyi_graph, path_graph
from repro.simulator.config import ModelConfig
from repro.simulator.engine import (
    ExchangeTag,
    TokenPlane,
    batched_global_exchange,
    plan_token_rounds,
)
from repro.simulator.errors import CapacityExceededError
from repro.simulator.messages import GLOBAL_MODE, LOCAL_MODE, payload_words
from repro.simulator.network import HybridSimulator

from oracles import transport
from oracles.delivery import ReferenceNetwork
from oracles.engines import ENGINES, ORACLES, exchange_via
from oracles.scheduler import reference_batched_global_exchange, shard_transfers
from oracles.transport import GlobalTransfer, throttled_global_exchange

SEEDS = [0, 1, 2, 3, 4]


# ----------------------------------------------------------------------
# Workload generators (node indices in [0, n); words >= 1)
# ----------------------------------------------------------------------
def _congested_rank_matched(rng, n):
    """Uniform-word cyclic rank-matched traffic (the dissemination shape)."""
    senders, receivers, words = [], [], []
    for _ in range(rng.randrange(2, 5)):
        ns = rng.randrange(2, 7)
        nt = rng.randrange(1, 7)
        src = rng.sample(range(n), ns)
        tgt = rng.sample(range(n), nt)
        count = rng.randrange(20, 120)
        for position in range(count):
            rank = position % ns
            senders.append(src[rank])
            receivers.append(tgt[rank % nt])
            words.append(3)
    return senders, receivers, words


def _mixed_sizes(rng, n):
    """Random endpoints with heterogeneous token sizes."""
    count = rng.randrange(30, 150)
    senders = [rng.randrange(n) for _ in range(count)]
    receivers = [rng.randrange(n) for _ in range(count)]
    words = [rng.choice([1, 1, 2, 3, 5, 9]) for _ in range(count)]
    return senders, receivers, words


def _with_oversized(rng, n):
    """Mixed sizes plus tokens individually larger than any budget in use."""
    senders, receivers, words = _mixed_sizes(rng, n)
    for _ in range(rng.randrange(1, 5)):
        position = rng.randrange(len(words) + 1)
        senders.insert(position, rng.randrange(n))
        receivers.insert(position, rng.randrange(n))
        words.insert(position, 10_000)
    return senders, receivers, words


def _hot_receiver(rng, n):
    """Everyone hammers one receiver (worst-case receive congestion)."""
    count = rng.randrange(40, 120)
    target = rng.randrange(n)
    senders = [rng.randrange(n) for _ in range(count)]
    receivers = [target if rng.random() < 0.8 else rng.randrange(n) for _ in range(count)]
    words = [rng.choice([1, 2, 4]) for _ in range(count)]
    return senders, receivers, words


def _disjoint_groups(rng, n):
    """Node-disjoint groups, each hammering one hot member: several
    independent congested components in one plane."""
    groups = max(2, min(4, n // 6))
    nodes = list(range(n))
    rng.shuffle(nodes)
    size = n // groups
    senders, receivers, words = [], [], []
    for g in range(groups):
        members = nodes[g * size : (g + 1) * size]
        for i in range(rng.randrange(40, 90)):
            senders.append(rng.choice(members))
            receivers.append(members[0] if i % 4 else rng.choice(members))
            words.append(rng.choice([1, 2, 3]))
    return senders, receivers, words


WORKLOADS = {
    "disjoint-groups": _disjoint_groups,
    "rank-matched": _congested_rank_matched,
    "mixed-sizes": _mixed_sizes,
    "oversized": _with_oversized,
    "hot-receiver": _hot_receiver,
}


def _reference_schedule(senders, receivers, words, budget, tag_words):
    tokens = [
        (senders[i], receivers[i], ("payload", i), words[i])
        for i in range(len(words))
    ]
    return [
        [token[2][1] for token in shard]
        for shard in shard_transfers(tokens, budget, tag_words)
    ]


# ----------------------------------------------------------------------
# Scheduler identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shape", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", SEEDS)
def test_plan_token_rounds_is_schedule_identical(shape, seed, arms):
    rng = random.Random(hash((shape, seed)) & 0xFFFFFF)
    n = rng.randrange(10, 60)
    senders, receivers, words = WORKLOADS[shape](rng, n)
    budget = rng.choice([8, 13, 24, 57])
    tag_words = rng.choice([0, 1, 2])
    plane = TokenPlane(senders, receivers, words, [("payload", i) for i in range(len(words))])
    shards = plan_token_rounds(plane, budget, tag_words)
    actual = [[int(position) for position in shard] for shard in shards]
    expected = _reference_schedule(senders, receivers, words, budget, tag_words)
    assert actual == expected, (
        f"{shape} seed={seed}: shard boundaries diverged "
        f"from the greedy reference"
    )
    # Every token is scheduled exactly once, in FIFO order within each shard.
    flat = sorted(position for shard in actual for position in shard)
    assert flat == list(range(len(words)))


def test_forced_oversized_branch_matches_reference(arms):
    # Every token exceeds the budget: one forced token per round, FIFO.
    senders = [0, 1, 2, 0]
    receivers = [3, 4, 5, 3]
    words = [100, 100, 100, 100]
    plane = TokenPlane(senders, receivers, words, list(range(4)))
    shards = plan_token_rounds(plane, budget=8, tag_words=1)
    assert [[int(p) for p in shard] for shard in shards] == [[0], [1], [2], [3]]


# ----------------------------------------------------------------------
# Exchange equivalence (plane vs reference vs legacy transport)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_exchange_engines_deliver_identically(seed, arms):
    """The plane exchange against the greedy reference exchange on the round
    model, and against the per-message exchange on a simulator."""
    rng = random.Random(9000 + seed)
    graph = path_graph(24)
    senders, receivers, words = _mixed_sizes(rng, 24)
    # Real payload sizes (the engines compute words themselves here).
    triples = [
        (senders[i], receivers[i], ("m", i, "x" * (words[i] * 8 - 8)))
        for i in range(len(words))
    ]

    def fresh(network=HybridSimulator):
        return network(graph, ModelConfig.hybrid(), seed=seed)

    plane_sim = fresh()
    reference_sim = fresh(ReferenceNetwork)
    delivered_plane = batched_global_exchange(plane_sim, list(triples), tag="rt")
    delivered_reference = reference_batched_global_exchange(
        reference_sim, list(triples), tag="rt"
    )
    assert delivered_plane == delivered_reference
    assert plane_sim.metrics.summary() == reference_sim.metrics.summary()

    legacy_sim = fresh()
    delivered_legacy = throttled_global_exchange(
        legacy_sim,
        [GlobalTransfer(sender=u, receiver=v, payload=p, tag="rt") for u, v, p in triples],
    )
    assert delivered_legacy == delivered_plane
    assert legacy_sim.metrics.summary() == plane_sim.metrics.summary()

    # collect=False runs the identical schedule without assembling results.
    silent_sim = fresh()
    assert batched_global_exchange(silent_sim, list(triples), tag="rt", collect=False) == {}
    assert silent_sim.metrics.summary() == plane_sim.metrics.summary()


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_exchange_equivalence_under_hybrid0(seed, arms):
    graph = erdos_renyi_graph(20, 0.25, seed=seed)
    edges = sorted(graph.edges)
    rng = random.Random(777 + seed)
    triples = []
    for _ in range(120):
        u, v = edges[rng.randrange(len(edges))]
        if rng.random() < 0.5:
            u, v = v, u
        triples.append((u, v, ("p", rng.randrange(50))))

    def run(runner, network):
        sim = network(graph, ModelConfig.hybrid0(), seed=seed)
        delivered = runner(sim, list(triples))
        return delivered, sim

    plane, plane_sim = run(
        lambda sim, t: batched_global_exchange(sim, t, tag="h0"), HybridSimulator
    )
    reference, reference_sim = run(
        lambda sim, t: reference_batched_global_exchange(sim, t, tag="h0"),
        ReferenceNetwork,
    )
    assert plane == reference
    assert plane_sim.metrics.summary() == reference_sim.metrics.summary()
    for node in plane_sim.nodes:
        assert plane_sim.known_ids(node) == reference_sim.known_ids(node)


def test_exchange_is_collision_proof_for_shared_tags(arms):
    """Foreign traffic sharing BOTH the tag and a receiver no longer leaks."""
    sim = HybridSimulator(path_graph(6), ModelConfig.hybrid())
    transport.send_batch(sim, [(0, 2, "foreign")], tag="x")
    delivered = batched_global_exchange(sim, [(1, 2, "mine")], tag="x")
    assert delivered == {2: ["mine"]}
    # The foreign record is still delivered and readable from the inbox.
    payloads = [record[1] for record in sim.per_node_inbox(GLOBAL_MODE)[2]]
    assert sorted(payloads, key=str) == ["foreign", "mine"]


def test_exchange_tag_words_charge_only_the_prefix():
    tag = ExchangeTag("kdiss", 12345678)
    assert str(tag) == "kdiss#12345678"
    assert payload_words(tag) == payload_words("kdiss")
    assert ExchangeTag(None, 7).payload_words_override == 0
    # Distinct exchanges never share a tag.
    assert ExchangeTag("x") != ExchangeTag("x")


# ----------------------------------------------------------------------
# Plane sends against the round model: capacity counters, inboxes, knowledge
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_global_plane_sends_match_the_round_model(seed, arms):
    graph = erdos_renyi_graph(30, 0.2, seed=seed)
    rng = random.Random(4000 + seed)
    plane_sim = HybridSimulator(graph, ModelConfig.hybrid(), seed=seed)
    model = ReferenceNetwork(graph, ModelConfig.hybrid(), seed=seed)
    indexer = plane_sim.node_indexer()
    nodes = plane_sim.nodes

    budget = plane_sim.global_budget_words()
    tag_words = payload_words("eq")
    for _ in range(4):
        senders, receivers, payloads, sent = [], [], [], {}
        for _ in range(rng.randrange(1, 80)):
            sender = rng.randrange(len(nodes))
            payload = ("v", rng.randrange(100))
            cost = payload_words(payload) + tag_words
            if sent.get(sender, 0) + cost > budget:
                continue  # stay within the strict send budget
            sent[sender] = sent.get(sender, 0) + cost
            senders.append(sender)
            receivers.append(rng.randrange(len(nodes)))
            payloads.append(payload)
        transport.send_ids(plane_sim, senders, receivers, payloads, tag="eq")
        transport.send_batch(
            model,
            [
                (nodes[senders[i]], nodes[receivers[i]], payloads[i])
                for i in range(len(payloads))
            ],
            tag="eq",
        )
        plane_sim.advance_round()
        model.advance_round()
        assert plane_sim.per_node_inbox(GLOBAL_MODE) == model.per_node_inbox(GLOBAL_MODE)
        assert plane_sim.metrics.summary() == model.metrics.summary()
        for node in nodes:
            assert transport.inbox(plane_sim, node) == transport.inbox(model, node)
    assert indexer[nodes[5]] == 5


@pytest.mark.parametrize("direction", ["sent", "received"])
@pytest.mark.parametrize("seed", SEEDS[:3])
def test_plane_sends_record_overloads_like_the_round_model(seed, direction, arms):
    """Overload on either side: the same violation count as the round model,
    and under strict enforcement the same error, naming the lowest-indexed
    offender even though the other offender's traffic was queued first."""
    graph = path_graph(40)
    budget = HybridSimulator(graph, ModelConfig.hybrid()).global_budget_words()
    count = budget + 6
    senders, receivers = [], []
    for hot in (20, 5):
        others = [node for node in range(40) if node != hot][:count]
        if direction == "sent":
            senders += [hot] * count
            receivers += others
        else:
            senders += others
            receivers += [hot] * count
    payloads = ["x"] * len(senders)

    def run(config, network):
        sim = network(graph, config, seed=seed, enforce_receive_capacity=config.strict)
        transport.send_ids(sim, senders, receivers, payloads)
        try:
            sim.advance_round()
        except CapacityExceededError as exc:
            return sim.metrics.summary(), str(exc)
        return sim.metrics.summary(), None

    plane, error = run(ModelConfig.hybrid(strict=False), HybridSimulator)
    assert error is None and plane["capacity_violations"] == 2
    assert run(ModelConfig.hybrid(strict=False), ReferenceNetwork) == (plane, None)

    plane, error = run(ModelConfig.hybrid(), HybridSimulator)
    assert error == (
        f"node 5 {direction} {count} global words in round 0, budget is {budget}"
    )
    assert run(ModelConfig.hybrid(), ReferenceNetwork) == (plane, error)


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_local_plane_sends_match_the_round_model(seed, arms):
    graph = erdos_renyi_graph(25, 0.25, seed=seed)
    rng = random.Random(6000 + seed)
    plane_sim = HybridSimulator(graph, ModelConfig.hybrid(), seed=seed)
    model = ReferenceNetwork(graph, ModelConfig.hybrid(), seed=seed)
    nodes = plane_sim.nodes
    indexer = plane_sim.node_indexer()
    edges = sorted(graph.edges)

    for _ in range(3):
        picks = [edges[rng.randrange(len(edges))] for _ in range(rng.randrange(1, 60))]
        picks = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in picks]
        payloads = [("l", rng.randrange(100)) for _ in picks]
        transport.send_ids(
            plane_sim,
            [indexer[u] for u, _ in picks],
            [indexer[v] for _, v in picks],
            payloads,
            tag="lt",
            mode=LOCAL_MODE,
        )
        transport.send_batch(
            model,
            [(u, v, payloads[i]) for i, (u, v) in enumerate(picks)], tag="lt",
            mode=LOCAL_MODE,
        )
        plane_sim.advance_round()
        model.advance_round()
        assert plane_sim.per_node_inbox(LOCAL_MODE) == model.per_node_inbox(LOCAL_MODE)
        assert plane_sim.metrics.summary() == model.metrics.summary()
    assert nodes == model.nodes


def test_plane_send_validates_adjacency_and_membership(arms):
    from repro.simulator.errors import NotANeighborError, UnknownNodeError

    sim = HybridSimulator(path_graph(5), ModelConfig.hybrid())
    with pytest.raises(NotANeighborError):
        transport.send_ids(sim, [0], [3], ["x"], mode=LOCAL_MODE)
    with pytest.raises(UnknownNodeError):
        transport.send_ids(sim, [0], [99], ["x"])
    with pytest.raises(UnknownNodeError):
        transport.send_ids(sim, [-1], [2], ["x"])
    # Nothing was queued by the failed validations.
    sim.advance_round()
    assert sim.metrics.global_messages == 0
    assert sim.metrics.local_messages == 0


def test_plane_send_enforces_hybrid0_knowledge(arms):
    from repro.simulator.errors import UnknownIdentifierError

    sim = HybridSimulator(path_graph(6), ModelConfig.hybrid0(), seed=1)
    indexer = sim.node_indexer()
    with pytest.raises(UnknownIdentifierError):
        transport.send_ids(sim, [indexer[0]], [indexer[5]], ["x"])
    # Neighbors are known from round zero; repeated pairs hit the memo.
    for _ in range(2):
        transport.send_ids(sim, [indexer[0]], [indexer[1]], ["x"])
        sim.advance_round()
    assert sim.metrics.global_messages == 2


# ----------------------------------------------------------------------
# End-to-end: the three engines agree on a full algorithm run
# ----------------------------------------------------------------------
def _hinted_dissemination(sim):
    """KDissemination on precomputed NQ_k and clustering hints."""
    from repro.core.clustering import nq_clustering
    from repro.core.dissemination import KDissemination
    from repro.core.neighborhood_quality import neighborhood_quality

    rng = random.Random(5)
    tokens = {}
    for index in range(48):
        tokens.setdefault(rng.randrange(sim.n), []).append(("tok", index))
    nq = max(1, neighborhood_quality(sim.graph, 48))
    clustering = nq_clustering(sim.graph, 48, nq=nq, id_of=sim.id_of)
    return KDissemination(sim, tokens, nq=nq, clustering=clustering).run()


def _sssp_label_pipeline(sim):
    """ApproxSSSP from node 0, then a Theorem 1 broadcast of its labels."""
    from repro.core.dissemination import KDissemination
    from repro.core.sssp import ApproxSSSP

    sssp = ApproxSSSP(sim, 0, epsilon=0.25).run()
    labels = [("sssp-label", node, sssp.distances[node]) for node in range(24)]
    return KDissemination(sim, {0: labels}).run()


@pytest.mark.parametrize(
    "workload",
    [_hinted_dissemination, _sssp_label_pipeline],
    ids=["dissemination", "sssp-labels"],
)
def test_engines_agree_on_whole_algorithms(workload, arms):
    """The plane path and both oracle engines, on identically seeded
    simulators, deliver everything with identical metrics and results."""
    outcomes = {}
    for engine in ENGINES:
        sim = HybridSimulator(path_graph(40), ModelConfig.hybrid0(), seed=5)
        with exchange_via(engine):
            result = workload(sim)
        assert result.all_nodes_know_all_tokens(), engine
        assert result.metrics.capacity_violations == 0, engine
        outcomes[engine] = (result.metrics.summary(), result.known_tokens)
    plane = outcomes["batch"]
    assert plane[0]["measured_rounds"] > 0
    for engine in ORACLES:
        assert outcomes[engine][0] == plane[0], engine
        assert outcomes[engine][1] == plane[1], engine


@pytest.mark.parametrize("engine", ENGINES)
def test_exchange_via_routes_every_send_through_the_named_engine(engine, monkeypatch):
    """The engine swap is real: the plane path sends no adapter traffic, the
    tuple oracle only global tuple batches, the legacy oracle one message per
    call; every adapter call lowers to planes; and the production methods are
    back in place after the block."""
    from repro.core.dissemination import KDissemination
    from repro.simulator.engine import BatchAlgorithm

    calls = {"plane": 0, "send_batch": 0, "send": 0}

    def spy(name, original):
        def counting(*args, **kwargs):
            if kwargs.get("mode", GLOBAL_MODE) == GLOBAL_MODE:
                calls[name] += 1
            return original(*args, **kwargs)

        return counting

    monkeypatch.setattr(
        HybridSimulator, "global_send_plane", spy("plane", HybridSimulator.global_send_plane)
    )
    for name in ("send_batch", "send"):
        monkeypatch.setattr(transport, name, spy(name, getattr(transport, name)))
    exchange = BatchAlgorithm.exchange
    sim = HybridSimulator(path_graph(30), ModelConfig.hybrid0(), seed=5)
    tokens = {node: [("tok", node)] for node in range(0, 30, 3)}
    with exchange_via(engine):
        assert KDissemination(sim, tokens).run().all_nodes_know_all_tokens()
    assert BatchAlgorithm.exchange is exchange
    plane, batch, per_message = calls.values()
    if engine == "batch":
        assert plane > 0 and batch == 0 and per_message == 0
    elif engine == "batch-reference":
        assert batch > 0 and per_message == 0 and plane >= batch
    else:
        # Each per-message send is a one-record tuple batch underneath.
        assert per_message > 0 and batch == per_message and plane >= per_message


# ----------------------------------------------------------------------
# Fault layer off == fault layer absent (the empty-schedule invariant)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shape", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", SEEDS[:3])
def test_empty_fault_schedule_leaves_schedules_identical(shape, seed, arms):
    """An empty FaultSchedule must not perturb the engine in any way.

    The fault layer's hard invariant: installing an empty schedule creates no
    fault state, so exchanges stay token-for-token schedule-identical to the
    greedy reference and metrics/inboxes stay bit-identical to a simulator
    constructed without the keyword at all.
    """
    from repro.simulator.faults import FaultSchedule

    rng = random.Random(hash(("faultfree", shape, seed)) & 0xFFFFFF)
    n = 24
    senders, receivers, words = WORKLOADS[shape](rng, n)
    triples = [
        (senders[i], receivers[i], ("m", i, "x" * (words[i] * 8 - 8)))
        for i in range(len(words))
    ]
    graph = path_graph(n)
    config = ModelConfig(strict=False)  # oversized shapes overload by design

    def run(**kwargs):
        sim = HybridSimulator(graph, config, seed=seed, **kwargs)
        delivered = batched_global_exchange(sim, list(triples), tag="ef")
        return sim, delivered

    bare_sim, bare_delivered = run()
    empty_sim, empty_delivered = run(fault_schedule=FaultSchedule(seed=seed + 1))
    assert empty_sim.fault_state is None
    assert empty_delivered == bare_delivered
    assert empty_sim.metrics.summary() == bare_sim.metrics.summary()
    assert empty_sim.metrics.dropped_messages == 0
    assert empty_sim.metrics.crashed_node_rounds == 0


# ----------------------------------------------------------------------
# Shard column selection: O(shard) gathers, typed out-of-range positions
# ----------------------------------------------------------------------
def _ring_plane(n, count):
    """A plane of ``count`` neighbour-to-neighbour tokens on an ``n``-cycle."""
    senders = [i % n for i in range(count)]
    receivers = [(i + 1) % n for i in range(count)]
    payloads = [("t", i, "x" * (i % 5)) for i in range(count)]
    return TokenPlane(senders, receivers, [payload_words(p) for p in payloads], payloads)


def _plain(column):
    return [int(value) for value in column]


def _send_shard(network, positions):
    """One global and one local round of a shard of an 80-token ring plane."""
    plane = _ring_plane(12, 80)
    tag = ExchangeTag("sel", serial=1)
    network.global_send_plane(plane, positions, tag)
    network.local_send_plane(plane, positions, tag)
    network.advance_round()
    return (
        network.metrics.summary(),
        network.per_node_inbox(GLOBAL_MODE),
        network.per_node_inbox(LOCAL_MODE),
    )


@pytest.mark.parametrize("size", [0, 1, 31, 32, 33])
@pytest.mark.parametrize("order", ["sorted", "unsorted"])
def test_shard_selection_matches_the_round_model(size, order, arms):
    from repro.graphs.generators import cycle_graph

    rng = random.Random(size * 2 + (order == "unsorted"))
    positions = sorted(rng.sample(range(80), size))
    if order == "unsorted":
        rng.shuffle(positions)
    graph = cycle_graph(12)
    config = ModelConfig(strict=False)
    sim = HybridSimulator(graph, config, seed=3)
    selected = [_plain(c) for c in sim._select_plane_columns(_ring_plane(12, 80), positions)]
    assert selected[3] == positions
    assert selected[0] == [p % 12 for p in positions]
    got = _send_shard(sim, positions)
    assert got == _send_shard(ReferenceNetwork(graph, config, seed=3), positions)
    assert got[0]["global_messages"] == got[0]["local_messages"] == size
    tag = ExchangeTag("sel", serial=1)
    for mode in (GLOBAL_MODE, LOCAL_MODE):
        assert sim.delivered_plane_positions(tag, mode) == positions


def test_small_shard_of_a_big_plane_converts_only_the_shard():
    """A 3-token send gathers its 3 entries; it never lists a whole column."""
    converted = []

    class CountingArray(np.ndarray):
        def tolist(self):
            converted.append(self.size)
            return super().tolist()

    from repro.graphs.generators import cycle_graph

    n = 64
    count = 100_000
    sim = HybridSimulator(cycle_graph(n), ModelConfig.hybrid(), seed=1)
    plane = _ring_plane(n, count)
    plane.senders = plane.senders.view(CountingArray)
    plane.receivers = plane.receivers.view(CountingArray)
    plane.words = plane.words.view(CountingArray)
    positions = [count - 1, 7, 40_000]
    sim.global_send_plane(plane, positions, "g")
    sim.local_send_plane(plane, positions, "l")
    sim.advance_round()
    assert sim.metrics.global_messages == sim.metrics.local_messages == 3
    assert converted and max(converted) <= len(positions)
    # One gather per column per send, nothing else.
    assert sum(converted) <= 2 * 3 * len(positions)


@pytest.mark.parametrize("positions, bad", [([-1], -1), ([3], 3), ([0, 5, -1], 5)])
@pytest.mark.parametrize("send", ["global_send_plane", "local_send_plane"])
def test_out_of_range_shard_positions_raise_before_queueing(positions, bad, send, arms):
    from repro.graphs.generators import cycle_graph

    sim = HybridSimulator(cycle_graph(5), ModelConfig.hybrid())
    plane = _ring_plane(5, 3)
    message = f"plane position {bad} is out of range for a plane of 3 tokens"
    with pytest.raises(IndexError) as caught:
        getattr(sim, send)(plane, positions)
    assert str(caught.value) == message
    # A bulk shard (vectorised gather) reports the first bad position.
    big = _ring_plane(5, 40)
    with pytest.raises(IndexError, match="plane position 40 is out"):
        getattr(sim, send)(big, list(range(39)) + [40, -2])
    sim.advance_round()
    assert sim.metrics.global_messages == sim.metrics.local_messages == 0
