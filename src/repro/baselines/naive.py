"""Simulatable baseline algorithms.

These are the "obvious" ways to solve the paper's problems using only one of
the two communication modes, or using the existential sqrt(n)-skeleton recipe
of prior work.  They are run through the same simulator and metrics pipeline as
the paper's algorithms so the benchmark tables can show measured-vs-measured
comparisons in addition to the analytic prior-work bounds of
:mod:`repro.baselines.existential`.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Dict, Hashable, List, Optional, Sequence, Set

from array import array

from repro.core.shortest_paths import DenseDistanceTable
from repro.core.skeleton import build_skeleton
from repro.graphs.index import SSSPRowCache, get_index
from repro.simulator.engine import BatchAlgorithm, ExchangeTag, GlobalTriple, TokenPlane
from repro.simulator.messages import LOCAL_MODE, payload_words
from repro.simulator.metrics import RoundMetrics
from repro.simulator.network import HybridSimulator

Node = Hashable

__all__ = ["LocalFloodingBroadcast", "NaiveGlobalBroadcast", "SqrtNSkeletonAPSP"]


@dataclasses.dataclass
class BroadcastOutcome:
    """Result of a baseline broadcast."""

    known_tokens: Dict[Node, Set[Any]]
    tokens: Set[Any]
    metrics: RoundMetrics

    def all_nodes_know_all_tokens(self) -> bool:
        return all(known == self.tokens for known in self.known_tokens.values())


class LocalFloodingBroadcast:
    """Broadcast every token by flooding the local network only (LOCAL model).

    Takes exactly ``max_v ecc(v over token holders)`` rounds, i.e. up to the
    diameter ``D`` — the trivial algorithm against which the paper's global
    problems are measured ("any problem is solvable in D rounds in LOCAL").
    """

    def __init__(self, simulator: HybridSimulator, tokens_by_node: Dict[Node, Sequence[Any]]):
        self.simulator = simulator
        self.tokens_by_node = {node: list(tokens) for node, tokens in tokens_by_node.items()}

    def run(self) -> BroadcastOutcome:
        sim = self.simulator
        all_tokens: Set[Any] = set()
        known: Dict[Node, Set[Any]] = {v: set() for v in sim.nodes}
        for node, tokens in self.tokens_by_node.items():
            known[node].update(tokens)
            all_tokens.update(tokens)
        if not all_tokens:
            return BroadcastOutcome(known_tokens=known, tokens=set(), metrics=sim.metrics)

        # One local plane per round: every holder sends its token set to every
        # neighbour; receivers learn from the positions actually delivered.
        nodes = sim.nodes
        index = sim.node_indexer()
        tag = ExchangeTag("flood")
        while not all(tokens == all_tokens for tokens in known.values()):
            senders: List[int] = []
            receivers: List[int] = []
            words: List[int] = []
            payloads: List[Any] = []
            for v in nodes:
                if known[v]:
                    payload = frozenset(known[v])
                    size = payload_words(payload)
                    targets = [index[u] for u in sim.neighbors(v)]
                    senders.extend([index[v]] * len(targets))
                    receivers.extend(targets)
                    words.extend([size] * len(targets))
                    payloads.extend([payload] * len(targets))
            sim.local_send_plane(TokenPlane(senders, receivers, words, payloads), None, tag)
            sim.advance_round()
            for position in sim.delivered_plane_positions(tag, LOCAL_MODE):
                known[nodes[receivers[position]]].update(payloads[position])
        return BroadcastOutcome(known_tokens=known, tokens=all_tokens, metrics=sim.metrics)


class NaiveGlobalBroadcast(BatchAlgorithm):
    """Broadcast every token to every node individually over the global mode.

    This is the pure-NCC strategy: the token holders unicast each token to each
    of the ``n`` nodes, throttled to the per-node budget.  It needs
    ``~ k * n / (n * gamma) = k / gamma`` rounds on the receive side and
    ``~ k * n / gamma`` rounds per holder on the send side — the benchmarks show
    how badly it loses to Theorem 1 once ``k`` is large, illustrating the
    eOmega(n) bound for NCC-only information dissemination quoted in Section 1.5.

    The unicast workload moves through :meth:`~repro.simulator.engine.BatchAlgorithm.exchange`,
    which token-shards it through the batch messaging engine.
    """

    def __init__(
        self,
        simulator: HybridSimulator,
        tokens_by_node: Dict[Node, Sequence[Any]],
    ):
        super().__init__(simulator)
        self.tokens_by_node = {node: list(tokens) for node, tokens in tokens_by_node.items()}
        self._known: Dict[Node, Set[Any]] = {v: set() for v in simulator.nodes}
        self._all_tokens: Set[Any] = set()

    def phases(self):
        return (("unicast", self._phase_unicast),)

    def _phase_unicast(self) -> None:
        sim = self.simulator
        triples: List[GlobalTriple] = []
        for node, tokens in sorted(self.tokens_by_node.items(), key=lambda kv: str(kv[0])):
            self._known[node].update(tokens)
            self._all_tokens.update(tokens)
            for token in tokens:
                for receiver in sim.nodes:
                    if receiver == node:
                        continue
                    triples.append((node, receiver, token))
        delivered = self.exchange(triples, "naive")
        for receiver, payloads in delivered.items():
            self._known[receiver].update(payloads)

    def finish(self) -> BroadcastOutcome:
        return BroadcastOutcome(
            known_tokens=self._known,
            tokens=self._all_tokens,
            metrics=self.simulator.metrics,
        )


class SqrtNSkeletonAPSP:
    """The [KS20]-style existential APSP recipe: a sqrt(n)-skeleton.

    Build a skeleton with sampling probability ``1/sqrt(n)`` (so ``h ~ sqrt(n)``
    local rounds), make the skeleton globally known, and let every node combine
    its ``h``-hop local distances with the skeleton distances.  The output is an
    exact APSP w.h.p.; the round cost is eTheta(sqrt n) regardless of the graph
    — which is exactly the existential behaviour the universally optimal
    algorithms of Theorems 6-8 improve on when ``NQ_n << sqrt(n)``.

    The per-node ``h``-hop limited tables are dense rows from one batched
    :meth:`~repro.graphs.index.GraphIndex.h_hop_limited_rows` call, and
    :meth:`run` returns a lazy
    :class:`~repro.core.shortest_paths.DenseDistanceTable` whose skeleton
    Dijkstra rows are computed on first use — values identical to the
    historical eager dict-of-dicts.
    """

    def __init__(self, simulator: HybridSimulator, *, seed: Optional[int] = None):
        self.simulator = simulator
        self.seed = seed

    def run(self) -> DenseDistanceTable:
        sim = self.simulator
        n = sim.n
        probability = min(1.0, 1.0 / math.sqrt(max(n, 1)))
        skeleton = build_skeleton(sim.graph, probability, seed=self.seed)
        sim.charge_rounds(skeleton.h, "sqrt(n)-skeleton construction", "[KS20]")
        sim.charge_rounds(
            int(math.ceil(math.sqrt(n))),
            "making the skeleton graph globally known",
            "[KS20] / [AHK+20]",
        )
        # One GraphIndex over the skeleton serves every skeleton-node Dijkstra;
        # the per-source rows are pulled lazily by the returned dense table,
        # one Dijkstra per skeleton node a row actually touches, instead of an
        # eager all-skeleton dict-of-dicts.
        skeleton_rows = SSSPRowCache(get_index(skeleton.graph))
        h = skeleton.h
        sim.charge_rounds(h, "h-hop local distance computation", "[KS20]")
        index = get_index(sim.graph)
        columns = list(sim.nodes)
        limited = dict(zip(columns, index.h_hop_limited_rows(columns, h)))
        limited_pos = [index.index_of[w] for w in columns]
        # ``(node, position in the limited rows, skeleton index position)``.
        skeleton_at = [
            (z, index.index_of[z], skeleton_rows.position_of(z))
            for z in skeleton.skeleton_nodes
        ]
        n_sk = skeleton_rows.index.n

        # Per-column nearby-skeleton entry points, resolved once: column j can
        # be reached from the skeleton only through ``col_pos[j]`` (skeleton
        # index positions) at costs ``col_dist[j]``.
        col_pos: List[array] = []
        col_dist: List[array] = []
        for w in columns:
            lim_w = limited[w]
            nearby = [(q, lim_w[p]) for _, p, q in skeleton_at if lim_w[p] < math.inf]
            col_pos.append(array("q", (q for q, _ in nearby)))
            col_dist.append(array("d", (d for _, d in nearby)))

        # The historical quadruple loop evaluated
        # ``(limited[v][u] + d_skel(u, z)) + limited[w][z]`` per (u, z) pair
        # per column.  Factoring the u-minimum out per skeleton node first is
        # value-exact — ``x -> fl(x + c)`` is monotone, so the minimum over z
        # of the factored sums equals the minimum over all (u, z) candidates —
        # and turns the per-row cost from |U| * |Z| products into |U| + |Z|
        # sums against one |skeleton|-wide scratch row.
        def make_row(v: Node) -> List[float]:
            lim_v = limited[v]
            via = [math.inf] * n_sk
            for u, position, _ in skeleton_at:
                d_v_u = lim_v[position]
                if d_v_u == math.inf:
                    continue
                row_u = skeleton_rows.row(u)
                for p in range(n_sk):
                    candidate = d_v_u + row_u[p]
                    if candidate < via[p]:
                        via[p] = candidate
            out: List[float] = []
            for j, position in enumerate(limited_pos):
                best = lim_v[position]
                positions = col_pos[j]
                distances = col_dist[j]
                for i in range(len(positions)):
                    candidate = via[positions[i]] + distances[i]
                    if candidate < best:
                        best = candidate
                out.append(best)
            return out

        return DenseDistanceTable(
            row_nodes=columns,
            columns=columns,
            row_factory=make_row,
            stretch_bound=1.0,
            metrics=sim.metrics,
            index=skeleton_rows.index,
        )
