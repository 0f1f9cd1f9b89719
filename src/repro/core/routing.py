"""Universally optimal multi-message unicast: ``(k, l)-routing`` (Theorem 3).

Problem (Definition 1.3): a set ``S`` of ``k`` source nodes each hold an
individual message for each of ``l`` target nodes ``T``; every target must end
up knowing the ``|S|`` messages addressed to it.

Theorem 3 solves the problem w.h.p. in

* ``eO(NQ_k)`` rounds for ``l <= NQ_k`` with arbitrary sources and random targets,
* ``eO(NQ_l)`` rounds for ``k <= NQ_l`` with random sources and arbitrary targets,
* ``eO(max(NQ_k, NQ_l))`` rounds for ``k * l <= NQ_k * n`` with random sources
  and random targets,

using adaptive helper sets (Lemma 5.2) and relaying through pseudo-random
intermediate nodes chosen by a kappa-wise independent hash (Lemma 5.3), so that
senders and receivers never need to learn each other's helper sets
(Algorithm 2).

What is physically simulated: every hop of every message that crosses the
global network (source-helpers -> intermediates, target-helpers' requests ->
intermediates, intermediates' replies -> target-helpers), token-sharded over
the batch messaging engine (:mod:`repro.simulator.engine`) so the per-node
budget is respected.  What is charged: the helper-set construction
(Lemma 5.2), the hash-seed broadcast and the broadcast of ``S``'s identifiers
(Theorem 1), and the local-mode distribution/collection of messages between
sources/targets and their helpers (bounded by the weak diameter ``eO(NQ_k)``).

The implementation is a :class:`~repro.simulator.engine.BatchAlgorithm`.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from collections import defaultdict
from typing import Any, Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.core.clustering import Clustering, distributed_nq_clustering
from repro.core.hashing import PairwiseHash
from repro.core.helper_sets import HelperAssignment, compute_adaptive_helper_sets
from repro.core.neighborhood_quality import neighborhood_quality
from repro.simulator.config import log2_ceil
from repro.simulator.engine import BatchAlgorithm, GlobalTriple
from repro.simulator.metrics import RoundMetrics
from repro.simulator.network import HybridSimulator

Node = Hashable

__all__ = ["RoutingScenario", "RoutingResult", "KLRouting"]


class RoutingScenario(enum.Enum):
    """The four source/target sampling scenarios of Definition 1.3."""

    ARBITRARY_SOURCES_RANDOM_TARGETS = "arbitrary-sources/random-targets"
    RANDOM_SOURCES_ARBITRARY_TARGETS = "random-sources/arbitrary-targets"
    RANDOM_SOURCES_RANDOM_TARGETS = "random-sources/random-targets"
    ARBITRARY_SOURCES_ARBITRARY_TARGETS = "arbitrary-sources/arbitrary-targets"


@dataclasses.dataclass
class RoutingResult:
    """Outcome of a (k, l)-routing run."""

    delivered: Dict[Node, Dict[Node, Any]]
    k: int
    l: int
    nq: int
    scenario: RoutingScenario
    intermediate_load: Dict[Node, int]
    metrics: RoundMetrics

    def all_delivered(self, messages: Dict[Tuple[Node, Node], Any]) -> bool:
        """Whether every (source, target) message arrived intact."""
        for (source, target), payload in messages.items():
            if self.delivered.get(target, {}).get(source) != payload:
                return False
        return True


class KLRouting(BatchAlgorithm):
    """Theorem 3: (k, l)-routing in ``eO(NQ_k)`` rounds (scenario-dependent).

    Parameters
    ----------
    simulator: the network.
    messages: mapping ``(source, target) -> payload`` (each payload O(log n) bits).
    scenario: which of the four Definition 1.3 scenarios the caller set up;
        determines whether source helpers are the sources themselves
        (case 1: ``H_s = {s}``) or sampled adaptively (case 3).
    seed: randomness for helper sampling and the hash family.
    """

    def __init__(
        self,
        simulator: HybridSimulator,
        messages: Dict[Tuple[Node, Node], Any],
        *,
        scenario: RoutingScenario = RoutingScenario.ARBITRARY_SOURCES_RANDOM_TARGETS,
        seed: Optional[int] = None,
        nq: Optional[int] = None,
    ) -> None:
        super().__init__(simulator)
        if not messages:
            raise ValueError("messages must be non-empty")
        self.messages = dict(messages)
        self.scenario = scenario
        self.seed = seed
        self._nq_hint = nq
        node_set = set(simulator.nodes)
        for source, target in self.messages:
            if source not in node_set or target not in node_set:
                raise KeyError(f"message endpoints ({source!r}, {target!r}) not in the network")
        # Phase state.
        self._log_n = log2_ceil(max(simulator.n, 2))
        self.sources: List[Node] = []
        self.targets: List[Node] = []
        self.k = 0
        self.l = 0
        self.nq = 0
        self._source_helpers: Optional[HelperAssignment] = None
        self._target_helpers: Optional[HelperAssignment] = None
        self._pair_hash: Optional[PairwiseHash] = None
        self._node_by_position: List[Node] = []
        self._intermediate_store: Dict[Node, Dict[Tuple[int, int], Any]] = defaultdict(dict)
        self._intermediate_load: Dict[Node, int] = defaultdict(int)
        self._reply_triples: List[GlobalTriple] = []
        self._delivered: Dict[Node, Dict[Node, Any]] = {}

    # ------------------------------------------------------------------
    def phases(self):
        return (
            ("parameters", self._phase_parameters),
            ("scatter", self._phase_scatter),
            ("request-reply", self._phase_request_reply),
            ("collect", self._phase_collect),
        )

    def _phase_parameters(self) -> None:
        """NQ_k, clustering, helper sets and the hash family (mostly charged)."""
        sim = self.simulator
        log_n = self._log_n

        self.sources = sorted({s for s, _ in self.messages}, key=sim.id_of)
        self.targets = sorted({t for _, t in self.messages}, key=sim.id_of)
        self.k = len(self.sources)
        self.l = len(self.targets)

        nq = self._nq_hint
        if nq is None:
            # Served by the frontier-based analytics engine and memoised per
            # (graph, k): repeated routing instances on the same graph — e.g.
            # the (k, l)-SP reversal of Theorem 5 — recompute nothing.
            nq = neighborhood_quality(sim.graph, max(self.k, 1))
        self.nq = max(1, nq)
        sim.charge_rounds(self.nq, "distributed computation of NQ_k", "Lemma 3.3")

        clustering = distributed_nq_clustering(sim, max(self.k, 1), nq=self.nq)

        # Helper sets for targets (always) and for sources (case 3 only).
        self._target_helpers = compute_adaptive_helper_sets(
            sim, self.targets, max(self.k, 1), nq=self.nq, clustering=clustering, seed=self.seed
        )
        if self.scenario is RoutingScenario.RANDOM_SOURCES_RANDOM_TARGETS:
            self._source_helpers = compute_adaptive_helper_sets(
                sim,
                self.sources,
                max(self.k, 1),
                nq=self.nq,
                clustering=clustering,
                seed=None if self.seed is None else self.seed + 1,
            )
        else:
            # Case (1)/(2): the sources send their own messages, H_s = {s}.
            self._source_helpers = HelperAssignment(
                helpers={s: [s] for s in self.sources}, load={v: 0 for v in sim.nodes}
            )

        # Hash family (Lemma 5.3); the seed (Theta(NQ_k log n) words) is
        # broadcast with Theorem 1, charged.
        universe = max(sim.all_ids()) + 1
        independence = max(2, self.nq * log_n)
        self._pair_hash = PairwiseHash(
            universe=universe,
            buckets=sim.n,
            independence=independence,
            seed=self.seed,
        )
        sim.charge_rounds(
            self.nq * log_n,
            "broadcasting the kappa-wise independent hash seed",
            "Lemma 5.3 via Theorem 1",
        )
        sim.charge_rounds(
            self.nq * log_n,
            "broadcasting the set of source identifiers",
            "Theorem 3 via Theorem 1",
        )
        self._node_by_position = sim.nodes  # deterministic order for bucket -> node

    def _phase_scatter(self) -> None:
        """Phase A (local, charged): sources hand their labelled messages to
        their helpers; Phase B (global, measured): helpers push the messages to
        the hashed intermediate nodes."""
        sim = self.simulator
        pair_hash = self._pair_hash
        node_by_position = self._node_by_position

        sim.charge_rounds(
            4 * self.nq * self._log_n,
            "sources distribute messages to their helpers over the local mode",
            "Theorem 3 / Lemma 5.2 property (2)",
        )
        helper_outbox: Dict[Node, List[Tuple[int, int, Any]]] = defaultdict(list)
        for (source, target), payload in sorted(
            self.messages.items(), key=lambda item: (sim.id_of(item[0][0]), sim.id_of(item[0][1]))
        ):
            helpers = self._source_helpers.helpers_of(source)
            chosen = helpers[hash((sim.id_of(source), sim.id_of(target))) % len(helpers)]
            helper_outbox[chosen].append((sim.id_of(source), sim.id_of(target), payload))

        to_intermediate: List[GlobalTriple] = []
        for helper, items in sorted(helper_outbox.items(), key=lambda kv: sim.id_of(kv[0])):
            for source_id, target_id, payload in items:
                bucket = pair_hash(source_id, target_id)
                intermediate = node_by_position[bucket % len(node_by_position)]
                to_intermediate.append(
                    (helper, intermediate, (source_id, target_id, payload))
                )
        self.exchange(to_intermediate, "rt-st", collect=False)
        for _, intermediate, item in to_intermediate:
            source_id, target_id, payload = item
            self._intermediate_store[intermediate][(source_id, target_id)] = payload
            self._intermediate_load[intermediate] += 1

    def _phase_request_reply(self) -> None:
        """Phase C: targets hand requests to their helpers (local, charged), the
        helpers query the intermediates (global, measured), the intermediates
        reply (global, measured)."""
        sim = self.simulator
        pair_hash = self._pair_hash
        node_by_position = self._node_by_position

        sim.charge_rounds(
            4 * self.nq * self._log_n,
            "targets distribute requests to their helpers over the local mode",
            "Theorem 3 / Lemma 5.2 property (2)",
        )
        request_triples: List[GlobalTriple] = []
        for target in self.targets:
            helpers = self._target_helpers.helpers_of(target)
            for position, source in enumerate(self.sources):
                if (source, target) not in self.messages:
                    continue
                helper = helpers[position % len(helpers)]
                source_id = sim.id_of(source)
                target_id = sim.id_of(target)
                bucket = pair_hash(source_id, target_id)
                intermediate = node_by_position[bucket % len(node_by_position)]
                request_triples.append(
                    (helper, intermediate, (source_id, target_id, sim.id_of(helper)))
                )
        self.exchange(request_triples, "rt-rq", collect=False)

        reply_triples: List[GlobalTriple] = []
        for helper, intermediate, (source_id, target_id, _) in request_triples:
            # The reply goes to the helper whose identifier the request carries.
            payload = self._intermediate_store[intermediate].get((source_id, target_id))
            reply_triples.append((intermediate, helper, (source_id, target_id, payload)))
        self.exchange(reply_triples, "rt-rp", collect=False)
        self._reply_triples = reply_triples

    def _phase_collect(self) -> None:
        """Phase D: targets collect from their helpers over the local mode
        (charged)."""
        sim = self.simulator
        sim.charge_rounds(
            4 * self.nq * self._log_n,
            "targets collect delivered messages from their helpers",
            "Theorem 3 / Lemma 5.2 property (2)",
        )
        delivered: Dict[Node, Dict[Node, Any]] = {t: {} for t in self.targets}
        node_of_id = {sim.id_of(v): v for v in (*self.sources, *self.targets)}
        for _, _, (source_id, target_id, payload) in self._reply_triples:
            delivered[node_of_id[target_id]][node_of_id[source_id]] = payload
        self._delivered = delivered
        for node in sim.nodes:
            self._intermediate_load.setdefault(node, 0)

    def finish(self) -> RoutingResult:
        return RoutingResult(
            delivered=self._delivered,
            k=self.k,
            l=self.l,
            nq=self.nq,
            scenario=self.scenario,
            intermediate_load=dict(self._intermediate_load),
            metrics=self.simulator.metrics,
        )
