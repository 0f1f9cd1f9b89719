"""The benchmark's five workloads: seeded inputs, timed calls, output checks.

Every input (graphs, weights, token holders, fault schedules, edit scripts)
is built from the seed with ``networkx`` and ``random`` alone, never with
``repro.graphs.generators``, so a change to the program can never change
what it is measured on.  The program sees only the generated inputs.

A workload is a class.  Constructing it builds the inputs once; then each
repetition runs

* ``fresh()``  -- untimed: a private copy of the inputs for this repetition
  (a copied graph, so no index or NQ memo survives from the previous one);
* ``setup(x)`` -- timed as ``setup_s``: build the program's objects;
* ``run(s)``   -- timed as ``wall_s``: the algorithm call plus its reads;
* ``check(o)`` -- untimed: an :class:`Outcome` with the round counts, a
  fingerprint that must repeat exactly across repetitions, and the list of
  failed checks (empty when the output is correct).

Workloads call only default public entry points: no ``engine=``, no
``install_planner``, nothing named ``_reference_*``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
from typing import Any, Dict, List, Tuple

import networkx as nx

from repro import HybridSimulator, KDissemination, ModelConfig, SkeletonAPSP
from repro.core.resilience import ResilientDissemination
# get_index is called through its module so the tracer, which rebinds
# module-level functions only inside ``repro``, also sees these calls.
from repro.graphs import index as graph_index
from repro.graphs.mutation import GraphMutator
from repro.graphs.properties import h_hop_limited_distances
from repro.simulator import CrashEvent, FaultSchedule


@dataclasses.dataclass
class Outcome:
    """What one repetition produced, as the harness compares it."""

    counts: Dict[str, int]
    fingerprint: str
    problems: List[str]


def _digest(*parts: Any) -> str:
    text = json.dumps(parts, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _round_counts(metrics) -> Dict[str, int]:
    return {
        "rounds.measured": metrics.measured_rounds,
        "rounds.total": metrics.total_rounds,
        "global_words": metrics.global_words,
        "dropped": metrics.dropped_messages,
        "retransmissions": metrics.retransmissions,
        "global_messages": metrics.global_messages,
    }


def _seeded_holders(rng: random.Random, n: int, k: int) -> Dict[int, List[Tuple]]:
    tokens: Dict[int, List[Tuple]] = {}
    for index in range(k):
        tokens.setdefault(rng.randrange(n), []).append(("tok", index))
    return tokens


def _dissemination_problems(result, n: int, k: int) -> List[str]:
    """Completeness checked once per distinct known-token set.

    Members of one cluster share one frozenset, so comparing each distinct
    object once costs O(clusters * k) instead of the O(n * k) of
    ``all_nodes_know_all_tokens``.
    """
    problems = []
    if len(result.tokens) != k:
        problems.append(f"result holds {len(result.tokens)} tokens, expected {k}")
    if len(result.known_tokens) != n:
        problems.append(f"{len(result.known_tokens)} of {n} nodes have a token set")
    distinct = {id(known): known for known in result.known_tokens.values()}
    incomplete = sum(1 for known in distinct.values() if known != result.tokens)
    if incomplete:
        problems.append(f"{incomplete} distinct token sets are incomplete")
    if result.metrics.capacity_violations:
        problems.append(f"{result.metrics.capacity_violations} capacity violations")
    return problems


class DissemPath:
    """Theorem 1 as a user calls it: no hints, HYBRID_0, payload mode."""

    name = "dissem-path"
    sizes = {"full": {"n": 10_000, "k": 4096}, "tiny": {"n": 300, "k": 64}}
    uses_pool = False

    def __init__(self, seed: int, size: Dict[str, int]) -> None:
        rng = random.Random(seed)
        self.n, self.k, self.seed = size["n"], size["k"], seed
        self.graph = nx.path_graph(self.n)
        self.tokens = _seeded_holders(rng, self.n, self.k)

    def fresh(self):
        return self.graph.copy()

    def setup(self, graph):
        return HybridSimulator(graph, ModelConfig.hybrid0(), seed=self.seed)

    def run(self, sim):
        return KDissemination(sim, self.tokens).run()

    def check(self, result) -> Outcome:
        return Outcome(
            _round_counts(result.metrics),
            _digest(result.metrics.summary(), result.nq, len(result.clustering.clusters)),
            _dissemination_problems(result, self.n, self.k),
        )


class DissemStarCharge:
    """Charge-only dissemination on a star: large rounds, the sharding layer."""

    name = "dissem-star-charge"
    sizes = {"full": {"n": 30_000, "k": 2048}, "tiny": {"n": 2000, "k": 128}}
    # The harness sets REPRO_SHARD_WORKERS to the usable core count for this
    # workload, so delivery goes through the sharding layer.  Its largest
    # operands hold about n tokens; the process pool takes operands of 2^16
    # tokens and up (the capacity sweep 2^22), so here every stage runs
    # in-process.  One stage per repetition reached the pool at n = 10^5
    # (2.5 s per repetition) and six at 1.5 * 10^5: too few and too slow for
    # a steady 15 s run.
    uses_pool = True

    def __init__(self, seed: int, size: Dict[str, int]) -> None:
        rng = random.Random(seed)
        self.n, self.k, self.seed = size["n"], size["k"], seed
        self.graph = nx.star_graph(self.n - 1)
        self.tokens = _seeded_holders(rng, self.n, self.k)

    def fresh(self):
        return self.graph.copy()

    def setup(self, graph):
        return HybridSimulator(
            graph, ModelConfig.hybrid0(), seed=self.seed, charge_only=True
        )

    def run(self, sim):
        # NQ_k(star) = 2 by inspection: the center's radius-1 ball is the
        # whole graph.  Computing it centrally is Theta(n^2) on a star.
        return KDissemination(sim, self.tokens, nq=2, charge_only=True).run()

    def check(self, result) -> Outcome:
        return Outcome(
            _round_counts(result.metrics),
            _digest(result.metrics.summary(), len(result.clustering.clusters)),
            _dissemination_problems(result, self.n, self.k),
        )


class ApspWeighted:
    """Theorem 8 skeleton APSP (alpha = 1) on sparse weighted graphs."""

    name = "apsp-weighted"
    # Random 6-regular graphs rather than G(n, p): NQ_n sets the skeleton
    # and the hop bound, so the cost jumps with it.  NQ_n of G(300, 6/n) was
    # 4 at one seed in three and 3 otherwise; 6-regular graphs gave 3 at
    # every seed tried.  Each repetition sums three graphs, averaging what
    # structure is left.
    sizes = {
        "full": {"graphs": 3, "n": 200, "reads": 1024, "probes": 64},
        "tiny": {"graphs": 2, "n": 40, "reads": 64, "probes": 16},
    }
    uses_pool = False
    #: Theorem 8 with alpha = 1 promises a (4 alpha - 1)-approximation.
    stretch = 3.0
    #: The skeleton sampler's seed stays fixed while --seed varies the graphs,
    #: weights and reads.  Nodes are 0..n-1 for every graph, so every input
    #: gets a skeleton of the same size.  Sampled per seed, the skeleton and
    #: the spanner built on it made run times differ by up to 1.7x between
    #: seeds, which would hide any change to the program.
    skeleton_seed = 0

    def __init__(self, seed: int, size: Dict[str, int]) -> None:
        rng = random.Random(seed)
        n = size["n"]
        self.seed = seed
        self.graphs, self.reads, self.exact = [], [], []
        for _ in range(size["graphs"]):
            graph = nx.random_regular_graph(6, n, seed=rng.randrange(2**32))
            order = list(range(n))
            rng.shuffle(order)
            graph.add_edges_from(zip(order, order[1:]))  # a seeded spanning path
            for u, v in sorted(graph.edges()):
                graph[u][v]["weight"] = rng.randint(1, 100)
            self.graphs.append(graph)
            share = size["reads"] // size["graphs"]
            self.reads.append([(rng.randrange(n), rng.randrange(n)) for _ in range(share)])
            probes = [tuple(rng.sample(range(n), 2)) for _ in range(size["probes"] // size["graphs"])]
            self.exact.append({
                (u, v): nx.dijkstra_path_length(graph, u, v, weight="weight")
                for u, v in probes
            })

    def fresh(self):
        return [graph.copy() for graph in self.graphs]

    def setup(self, graphs):
        return [HybridSimulator(g, ModelConfig.hybrid(), seed=self.seed) for g in graphs]

    def run(self, sims):
        output = []
        for sim, reads in zip(sims, self.reads):
            table = SkeletonAPSP(sim, seed=self.skeleton_seed).run()
            output.append((table, math.fsum(table.estimate(u, v) for u, v in reads)))
        return output

    def check(self, output) -> Outcome:
        problems = []
        counts: Dict[str, int] = {}
        for (table, checksum), exact in zip(output, self.exact):
            for (u, v), distance in exact.items():
                estimate = table.estimate(u, v)
                if not distance <= estimate <= self.stretch * distance:
                    problems.append(f"estimate({u}, {v}) = {estimate}, exact {distance}")
            if not math.isfinite(checksum):
                problems.append("a read returned a non-finite distance")
            if table.metrics.capacity_violations:
                problems.append(f"{table.metrics.capacity_violations} capacity violations")
            for key, value in _round_counts(table.metrics).items():
                counts[key] = counts.get(key, 0) + value
        return Outcome(
            counts,
            _digest([(table.metrics.summary(), checksum) for table, checksum in output]),
            problems,
        )


class ResilientFaults:
    """Self-healing dissemination under crashes and message drops."""

    name = "resilient-faults"
    sizes = {"full": {"n": 256, "k": 64}, "tiny": {"n": 48, "k": 12}}
    uses_pool = False

    def __init__(self, seed: int, size: Dict[str, int]) -> None:
        rng = random.Random(seed)
        n, k = self.n, self.k = size["n"], size["k"]
        self.seed = seed
        self.graph = nx.cycle_graph(n)
        holders = rng.sample(range(n), 3)
        self.tokens: Dict[int, List[Tuple]] = {}
        for index in range(k):
            self.tokens.setdefault(holders[index % 3], []).append(("tok", index))
        # Holders never crash, so every token stays reachable.  Cycle nodes
        # are 0..n-1, so a node is its own simulator index.
        eligible = [v for v in range(n) if v not in holders]
        crashed = sorted(rng.sample(eligible, round(0.1 * n)))
        self.schedule = FaultSchedule(
            seed=seed,
            crashes=tuple(CrashEvent(node=v, crash_round=1) for v in crashed),
            global_drop_rate=0.1,
        )

    def fresh(self):
        return self.graph.copy()

    def setup(self, graph):
        return HybridSimulator(
            graph, ModelConfig.hybrid(), seed=self.seed, fault_schedule=self.schedule
        )

    def run(self, sim):
        return ResilientDissemination(sim, self.tokens).run()

    def check(self, result) -> Outcome:
        problems = []
        if not result.complete:
            problems.append(f"did not converge in {result.epochs} epochs")
        if not result.all_live_nodes_know_all_tokens():
            problems.append("a live node misses a token")
        if result.metrics.capacity_violations:
            problems.append(f"{result.metrics.capacity_violations} capacity violations")
        known = sorted(len(result.known_tokens[v]) for v in result.live_nodes)
        return Outcome(
            _round_counts(result.metrics),
            _digest(result.metrics.summary(), result.epochs, result.live_nodes, known),
            problems,
        )


class IndexChurn:
    """Edge edits beside distance reads on the shared graph index."""

    name = "index-churn"
    sizes = {
        "full": {"side": 60, "iterations": 90, "probes": 4},
        "tiny": {"side": 12, "iterations": 8, "probes": 2},
    }
    uses_pool = False

    def __init__(self, seed: int, size: Dict[str, int]) -> None:
        rng = random.Random(seed)
        side = size["side"]
        graph = nx.convert_node_labels_to_integers(
            nx.grid_2d_graph(side, side), ordering="sorted"
        )
        edges = sorted(graph.edges())
        for u, v in edges:
            graph[u][v]["weight"] = rng.randint(1, 100)
        self.graph = graph
        n = graph.number_of_nodes()
        # Each iteration edits 4 edges, each by a weight update or a remove
        # plus re-add; the edge set never changes, so every edit is valid.
        self.script = []
        for _ in range(size["iterations"]):
            batch: List[Tuple] = []
            for u, v in rng.sample(edges, 4):
                weight = rng.randint(1, 100)
                if rng.random() < 0.5:
                    batch.append(("update", u, v, weight))
                else:
                    batch += [("remove", u, v), ("add", u, v, weight)]
            self.script.append((batch, rng.randrange(n), rng.randrange(n), rng.randrange(n)))
        self.probes = rng.sample(range(n), size["probes"])

    def fresh(self):
        return self.graph.copy()

    def setup(self, graph):
        graph_index.get_index(graph)
        return graph

    def run(self, graph):
        mutator = GraphMutator(graph)
        checksum = 0.0
        for batch, a, b, c in self.script:
            mutator.apply_batch(batch)
            checksum += math.fsum(graph_index.get_index(graph).sssp_row(a))
            checksum += math.fsum(graph_index.get_index(graph).sssp_row(b))
            checksum += math.fsum(h_hop_limited_distances(graph, c, 3).values())
        return graph, checksum

    def check(self, output) -> Outcome:
        graph, checksum = output
        # The edge set never changes, so the grid stays connected and every
        # distance read is finite.
        problems = [] if math.isfinite(checksum) else ["a read returned inf"]
        patched = graph_index.get_index(graph)
        rebuilt = graph_index.GraphIndex(graph)
        for s in self.probes:
            if patched.sssp_row(s) != rebuilt.sssp_row(s):
                problems.append(f"patched index row {s} differs from a rebuild")
        s = self.probes[0]
        truth = nx.single_source_dijkstra_path_length(graph, s, weight="weight")
        row = patched.sssp_row(s)
        if any(row[patched.index_of[v]] != d for v, d in truth.items()):
            problems.append(f"row {s} differs from networkx Dijkstra")
        return Outcome({}, _digest(checksum), problems)


WORKLOADS = {
    cls.name: cls
    for cls in (DissemPath, DissemStarCharge, ApspWeighted, ResilientFaults, IndexChurn)
}
