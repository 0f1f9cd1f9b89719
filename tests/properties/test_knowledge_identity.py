"""Whole-algorithm knowledge identity: plane path vs the per-message oracle.

The plane path records sender-identifier learning and validated send pairs in
the knowledge tracker's pair store (one sorted merge per round), while the
per-message ``"legacy"`` oracle learns through per-receiver Python sets.  For
``KDissemination`` on HYBRID_0 — payload and charge-only, path / star /
Erdős–Rényi graphs, three seeds — the round metrics and every node's
identifier knowledge must be identical.  The oracle cannot run
charge-only, so the charge-only plane run is compared against the oracle's
payload run (charge-only is accounting-identical by construction).

``KDissemination`` declares each rank-matched partner's identifier before it
sends, so its receivers already know their senders; the raw-traffic test
below pins sender-identifier learning itself, round by round.  The lockstep
tests at the end send one plane in several shards across refusals, crashes
and voided rounds: each shard is checked and learned against the knowledge
store alone, never on the word of an earlier shard of the same plane.
"""

from __future__ import annotations

import random

import pytest

from repro.core.dissemination import KDissemination
from repro.graphs.generators import erdos_renyi_graph, path_graph, star_graph
from repro.simulator.config import ModelConfig
from repro.simulator.engine import TokenPlane
from repro.simulator.errors import CapacityExceededError, UnknownIdentifierError
from repro.simulator.faults import CrashEvent, FaultSchedule
from repro.simulator.messages import payload_words
from repro.simulator.network import HybridSimulator

from oracles import transport
from oracles.delivery import ReferenceNetwork
from oracles.engines import exchange_via

SEEDS = [0, 1, 2]

GRAPH_FAMILIES = {
    "path": lambda seed: path_graph(24),
    "star": lambda seed: star_graph(24),
    "erdos_renyi": lambda seed: erdos_renyi_graph(28, 0.14, seed=seed),
}

CASES = [(family, seed) for family in sorted(GRAPH_FAMILIES) for seed in SEEDS]


def _run(graph, tokens, seed, charge_only):
    sim = HybridSimulator(graph, ModelConfig.hybrid0(), seed=seed)
    result = KDissemination(sim, tokens, charge_only=charge_only).run()
    if not charge_only:
        assert result.all_nodes_know_all_tokens()
    return result.metrics.summary(), {node: sim.known_ids(node) for node in sim.nodes}


@pytest.mark.parametrize("charge_only", [False, True], ids=["payload", "charge-only"])
@pytest.mark.parametrize("case", CASES, ids=lambda case: f"{case[0]}-s{case[1]}")
def test_plane_knowledge_matches_the_legacy_oracle(case, charge_only, arms):
    family, seed = case
    graph = GRAPH_FAMILIES[family](seed)
    rng = random.Random(f"ki-{family}-{seed}")
    holders = sorted(graph.nodes)
    tokens = {}
    for index in range(rng.randrange(12, 40)):
        tokens.setdefault(rng.choice(holders), []).append(("tok", index))

    plane_summary, plane_known = _run(graph, tokens, seed, charge_only)
    with exchange_via("legacy"):
        legacy_summary, legacy_known = _run(graph, tokens, seed, False)

    assert plane_summary == legacy_summary
    assert plane_known == legacy_known
    # The run really taught identifiers beyond the initial neighborhoods.
    assert any(len(known) > graph.degree(node) + 1 for node, known in plane_known.items())


@pytest.mark.parametrize("faults", [False, True], ids=["fault-free", "faulted"])
@pytest.mark.parametrize("seed", SEEDS)
def test_round_by_round_sender_learning_matches_per_message_sends(seed, faults, arms):
    """HYBRID_0 traffic along currently known pairs — sent as token-plane
    shards (large ones take the vectorised path, small ones the scalar path)
    and, one message per call, into the round model's per-receiver sets —
    must leave every node with identical knowledge after every round.  Most
    receivers do not know their senders beforehand, so each round teaches new
    identifiers, and the next round's traffic may use them.  Under a crash and drop schedule a
    receiver learns only from the tokens that reached it."""
    graph = erdos_renyi_graph(48, 0.06, seed=seed)
    config = ModelConfig.hybrid0(strict=False)
    schedule = None
    if faults:
        schedule = FaultSchedule(
            seed=seed,
            crashes=(CrashEvent(node=5, crash_round=2, recover_round=5),),
            global_drop_rate=0.25,
        )
    plane_sim = HybridSimulator(graph, config, seed=seed, fault_schedule=schedule)
    model_sim = ReferenceNetwork(graph, config, seed=seed, fault_schedule=schedule)
    nodes = plane_sim.nodes
    index = plane_sim.node_indexer()
    rng = random.Random(f"learn-{seed}")
    # Three hubs know every identifier, so their sends reach strangers.
    for sim in (plane_sim, model_sim):
        for hub in nodes[:3]:
            sim.declare_learned_ids(hub, sim.all_ids())
    for round_no in range(8):
        traffic = []
        for k in range(rng.randrange(40, 120)):
            sender = rng.choice(nodes[:3]) if k % 3 == 0 else rng.choice(nodes)
            target_id = rng.choice(sorted(plane_sim.known_ids(sender)))
            traffic.append((sender, target_id, ("m", round_no, k)))
        plane = TokenPlane(
            [index[sender] for sender, _, _ in traffic],
            [index[plane_sim.node_of_id(target_id)] for _, target_id, _ in traffic],
            [payload_words(payload) for _, _, payload in traffic],
            [payload for _, _, payload in traffic],
        )
        cut = rng.choice([len(traffic) // 2, len(traffic) - 5])
        plane_sim.global_send_plane(plane, list(range(cut)))
        plane_sim.global_send_plane(plane, list(range(cut, len(traffic))))
        for sender, target_id, payload in traffic:
            transport.send(model_sim, sender, target_id, payload, by_id=True)
        plane_sim.advance_round()
        model_sim.advance_round()
        for node in nodes:
            assert plane_sim.known_ids(node) == model_sim.known_ids(node)
            assert len(plane_sim.knowledge.known(plane_sim.node_index(node))) == len(
                model_sim.known_ids(node)
            )
    assert plane_sim.metrics.summary() == model_sim.metrics.summary()


def _plane(pairs):
    """A plane of ``(sender, receiver)`` index pairs; each payload is its position."""
    return TokenPlane(
        [s for s, _ in pairs],
        [r for _, r in pairs],
        [payload_words(k) for k in range(len(pairs))],
        list(range(len(pairs))),
    )


def _lockstep(graph, config, plane, script, schedule=None):
    """Run ``script`` on a simulator and on the round model, step by step.

    Steps are ``("declare", (node, other))`` (``node`` is told ``other``'s
    identifier), ``("send", positions)`` (one shard of ``plane``) and
    ``("round", None)``.  A send's outcome is its count or its error; a
    round's is its error or the delivered plane positions plus every node's
    known identifiers.  The two must agree at every step; returns the
    outcomes and the node -> identifier map.
    """
    sims = [
        model(graph, config, seed=0, fault_schedule=schedule)
        for model in (HybridSimulator, ReferenceNetwork)
    ]
    ids = {node: sims[0].id_of(node) for node in sims[0].nodes}
    outcomes = []
    for action, argument in script:
        results = []
        for sim in sims:
            try:
                if action == "declare":
                    node, other = argument
                    result = sim.declare_learned_ids(node, [ids[other]])
                elif action == "send":
                    result = sim.global_send_plane(plane, list(argument))
                else:
                    sim.advance_round()
                    inbox = sim.per_node_inbox()
                    result = (
                        sorted(rec[1] for records in inbox.values() for rec in records),
                        {node: sim.known_ids(node) for node in graph.nodes},
                    )
            except (UnknownIdentifierError, CapacityExceededError) as error:
                result = (type(error).__name__, str(error))
            results.append(result)
        assert results[0] == results[1], (action, argument)
        outcomes.append(results[0])
    return outcomes, ids


def test_a_refused_shard_vouches_for_no_later_shard(arms):
    """Node 0 does not know node 9: every shard naming 9 is refused, the
    second as well as the first, and nothing is queued until 0 learns 9."""
    plane = _plane([(0, 9 if k % 3 == 2 else 1) for k in range(72)])
    outcomes, ids = _lockstep(
        path_graph(10),
        ModelConfig.hybrid0(strict=False),
        plane,
        [
            ("send", range(0, 36)),
            ("send", range(36, 72)),
            ("round", None),
            ("declare", (0, 9)),
            ("send", range(36, 72)),
            ("round", None),
        ],
    )
    refused = ("UnknownIdentifierError", f"node 0 does not know identifier {ids[9]!r}")
    assert outcomes[0] == outcomes[1] == refused
    assert outcomes[2][0] == []
    assert outcomes[4] == 36
    delivered, known = outcomes[5]
    assert delivered == list(range(36, 72))
    assert ids[0] in known[9]


def test_a_crash_dropped_first_shard_leaves_the_later_one_to_teach(arms):
    """Node 9 is down in round 0, so the first shard teaches it nothing; the
    second shard, delivered in round 1, must teach it node 0's identifier."""
    schedule = FaultSchedule(
        seed=0, crashes=(CrashEvent(node=9, crash_round=0, recover_round=1),)
    )
    outcomes, ids = _lockstep(
        path_graph(10),
        ModelConfig.hybrid0(strict=False),
        _plane([(0, 9)] * 72),
        [
            ("declare", (0, 9)),
            ("send", range(0, 36)),
            ("round", None),
            ("send", range(36, 72)),
            ("round", None),
        ],
        schedule=schedule,
    )
    dropped, known = outcomes[2]
    assert dropped == [] and ids[0] not in known[9]
    delivered, known = outcomes[4]
    assert delivered == list(range(36, 72))
    assert ids[0] in known[9]


def test_a_voided_round_leaves_the_remaining_shard_to_teach(arms):
    """Two shards overload node 0 and the strict error voids their round; the
    remaining shard repeats their pairs one token per sender, fits the
    budget, and must teach every receiver its sender's identifier."""
    n = 40
    partner = {s: (s + n // 2 + 1) % n for s in range(n)}
    pairs = [(k % n, partner[k % n]) for k in range(2 * n)] + [(0, partner[0])] * n
    script = [("declare", (s, r)) for s, r in partner.items()]
    script += [
        ("send", range(0, n)),
        ("send", range(2 * n, 3 * n)),
        ("round", None),
        ("send", range(n, 2 * n)),
        ("round", None),
    ]
    outcomes, ids = _lockstep(path_graph(n), ModelConfig.hybrid0(), _plane(pairs), script)
    assert outcomes[n + 2][0] == "CapacityExceededError"
    delivered, known = outcomes[n + 4]
    assert delivered == list(range(n, 2 * n))
    assert all(ids[s] in known[r] for s, r in partner.items())
