"""The committed mutant catalogue.

Each mutant is one deliberate defect: a ``file`` under the repository root,
an exact source ``snippet`` that occurs there exactly once, its
``replacement``, and the test ``selection`` (pytest paths) expected to kill
it.  ``python tests/mutation/run.py`` applies the mutants one at a time to
a copy of the repository and writes the kill matrix;
``tests/mutation/test_mutation_catalogue.py`` keeps every snippet present,
so a refactor that rewrites mutated code must update this file.
"""

from __future__ import annotations

from typing import Dict, List

NETWORK = "src/repro/simulator/network.py"
ENGINE = "src/repro/simulator/engine.py"
INDEX = "src/repro/graphs/index.py"
KNOWLEDGE_STORE = "src/repro/simulator/knowledge.py"
SPANNER = "src/repro/core/spanner.py"
SHORTEST_PATHS = "src/repro/core/shortest_paths.py"
DISSEMINATION = "src/repro/core/dissemination.py"
AGGREGATION = "src/repro/core/aggregation.py"
OVERLAY = "src/repro/core/overlay.py"

DELIVERY = "tests/properties/test_delivery_modes.py"
KNOWLEDGE = "tests/properties/test_knowledge_identity.py"
CUTOFFS = "tests/properties/test_size_cutoffs.py"
ROUND_ENGINE = "tests/properties/test_round_engine.py"
FAULTS = "tests/properties/test_fault_injection.py"
SCHEDULES = "tests/properties/test_schedule_grid.py"
NQ = "tests/properties/test_nq_equivalence.py"
NQ_UNIT = "tests/unit/test_neighborhood_quality.py"
HHOP = "tests/properties/test_hhop_rows.py"
PAIR_MEMO = "tests/properties/test_pair_memo.py"
WEIGHTED = "tests/properties/test_weighted_equivalence.py"
THEOREM8 = "tests/properties/test_theorem8_analytics.py"
RULING = "tests/unit/test_clustering_and_ruling_sets.py"
LEVELS = "tests/properties/test_level_kernel.py"
SETUP = "tests/properties/test_setup_arrays.py"
DYNAMIC = "tests/properties/test_dynamic_index.py"
THEOREM1 = "tests/unit/test_dissemination_and_aggregation.py"

MUTANTS: List[Dict[str, object]] = [
    # Plane delivery: fault filter, capacity sweep, identifier learning.
    {
        "name": "crash-filter-ignores-receivers",
        "file": NETWORK,
        "snippet": "        keep &= ~_isin_sorted(receivers, crashed)\n",
        "replacement": "",
        "selection": [DELIVERY, KNOWLEDGE, CUTOFFS],
    },
    {
        "name": "array-sweep-counts-the-budget-as-overload",
        "file": NETWORK,
        "snippet": "np.flatnonzero(loads > limit) if peak > lowest",
        "replacement": "np.flatnonzero(loads >= limit) if peak >= lowest",
        "selection": [ROUND_ENGINE, DELIVERY, CUTOFFS],
    },
    {
        "name": "strict-error-names-the-highest-indexed-offender",
        "file": NETWORK,
        "snippet": "min(over) if over else -1",
        "replacement": "max(over) if over else -1",
        "selection": [CUTOFFS, DELIVERY, ROUND_ENGINE],
    },
    {
        "name": "array-sweep-names-the-highest-indexed-offender",
        "file": NETWORK,
        "snippet": "int(over[0]) if len(over) else -1",
        "replacement": "int(over[-1]) if len(over) else -1",
        "selection": [CUTOFFS, DELIVERY, ROUND_ENGINE],
    },
    {
        "name": "scalar-sweep-reads-only-the-first-batch",
        "file": NETWORK,
        "snippet": "            for queued in planes:\n                for s, r, w in zip(",
        "replacement": "            for queued in planes[:1]:\n                for s, r, w in zip(",
        "selection": [CUTOFFS],
    },
    {
        "name": "array-sweep-reads-only-the-first-batch",
        "file": NETWORK,
        "snippet": "            for queued in planes:\n                sent_arr +=",
        "replacement": "            for queued in planes[:1]:\n                sent_arr +=",
        "selection": [CUTOFFS],
    },
    {
        "name": "drop-draw-before-the-crash-check",
        "file": NETWORK,
        "snippet": (
            "                    sender_index in crashed\n"
            "                    or receiver_index in crashed\n"
            "                    or (\n"
            "                        failed_edges is not None\n"
            "                        and sender_index * n + receiver_index in failed_edges\n"
            "                    )\n"
            "                    or (rng is not None and rng.random() < rate)\n"
        ),
        "replacement": (
            "                    (rng is not None and rng.random() < rate)\n"
            "                    or sender_index in crashed\n"
            "                    or receiver_index in crashed\n"
            "                    or (\n"
            "                        failed_edges is not None\n"
            "                        and sender_index * n + receiver_index in failed_edges\n"
            "                    )\n"
        ),
        "selection": [DELIVERY, KNOWLEDGE, CUTOFFS, FAULTS],
    },
    # Sender-identifier learning.
    {
        "name": "learning-reads-only-the-first-batch",
        "file": NETWORK,
        "snippet": "            for b in planes\n        ]\n",
        "replacement": "            for b in planes[:1]\n        ]\n",
        "selection": [KNOWLEDGE, CUTOFFS],
    },
    {
        "name": "bulk-learning-key-direction-swapped",
        "file": NETWORK,
        "snippet": "np.asarray(b.receivers, np.int64) * n + np.asarray(b.senders, np.int64)",
        "replacement": "np.asarray(b.senders, np.int64) * n + np.asarray(b.receivers, np.int64)",
        "selection": [KNOWLEDGE, CUTOFFS],
    },
    # HYBRID_0 send checks: the pair store is the only thing a shard trusts.
    # Absorbing a shard's pairs before its offending check lets a refused
    # shard vouch for a later shard of the same plane.
    {
        "name": "refused-shard-vouches-for-the-next",
        "file": NETWORK,
        "snippet": "            fresh = uniq.tolist()\n",
        "replacement": "            pairs.absorb(uniq)\n            fresh = uniq.tolist()\n",
        "selection": [KNOWLEDGE],
    },
    # The pair store behind every knowledge probe.
    {
        "name": "unknown-probes-only-the-snapshot",
        "file": KNOWLEDGE_STORE,
        "snippet": "        for level in self.levels():\n            if not keys.size:\n",
        "replacement": "        for level in self.levels()[:1]:\n            if not keys.size:\n",
        "selection": [PAIR_MEMO, KNOWLEDGE],
    },
    # Lemma 3.5 sweeps.  The first-reached owner is the minimum only because
    # sources are seeded in rank order; seeding them in reverse keeps the
    # first-reached owner and loses the minimum.
    {
        "name": "closest-sources-keeps-a-first-reached-owner-that-is-not-the-minimum",
        "file": INDEX,
        "snippet": "owner[s] = rank  # duplicates keep their first (smallest) rank\n"
        "                frontier.append(s)\n",
        "replacement": "owner[s] = rank  # duplicates keep their first (smallest) rank\n"
        "                frontier.insert(0, s)\n",
        "selection": [WEIGHTED],
    },
    # The uniform-word planner: residue bounds, entanglement, round split.
    {
        "name": "residue-bounds-shifted-by-one-token",
        "file": ENGINE,
        "snippet": "    min_round = _pair_round_bounds(senders, receivers, per_round)\n",
        "replacement": (
            "    min_round = np.roll(_pair_round_bounds(senders, receivers, per_round), 1)\n"
        ),
        "selection": [SCHEDULES, CUTOFFS, ROUND_ENGINE],
    },
    {
        "name": "only-the-first-shared-receiver-entangles",
        "file": ENGINE,
        "snippet": "    shared[receivers[mismatch]] = True\n",
        "replacement": "    shared[receivers[mismatch][:1]] = True\n",
        "selection": [SCHEDULES, ROUND_ENGINE],
    },
    {
        "name": "one-byte-round-key-up-to-int16",
        "file": ENGINE,
        "snippet": "if counts.size <= 127 else",
        "replacement": "if counts.size <= 32767 else",
        "selection": [SCHEDULES, ROUND_ENGINE],
    },
    # Per-graph set-up: node order and HYBRID_0 adjacency keys.
    {
        "name": "edge-keys-drop-the-reverse-of-directed-links",
        "file": NETWORK,
        "snippet": "keys = sorted_unique(np.concatenate((keys, keys % n * n + keys // n)))",
        "replacement": "keys = sorted_unique(keys)",
        "selection": [SETUP],
    },
    {
        "name": "node-order-fast-path-admits-int-subclasses",
        "file": NETWORK,
        "snippet": "set(map(type, nodes)) == {int}",
        "replacement": "all(isinstance(v, (int, np.integer)) for v in nodes)",
        "selection": [SETUP],
    },
    # The bulk HYBRID_0 identifier draw.
    {
        "name": "draw-shifts-the-top-word-one-bit-too-far",
        "file": NETWORK,
        "snippet": "values = column[:, -1] >> np.uint64(-bits % 32)",
        "replacement": "values = column[:, -1] >> np.uint64(-bits % 32 + 1)",
        "selection": [SETUP],
    },
    {
        "name": "draw-keeps-the-last-repeat",
        "file": NETWORK,
        "snippet": "first = np.sort(np.unique(values, return_index=True)[1])",
        "replacement": (
            "first = np.sort(values.size - 1"
            " - np.unique(values[::-1], return_index=True)[1])"
        ),
        "selection": [SETUP],
    },
    # The exchange loop's harvest.
    {
        "name": "exchange-harvests-only-the-last-shard",
        "file": ENGINE,
        "snippet": (
            "    delivered: Dict[Node, List[Any]] = defaultdict(list)\n"
            "    for shard in shards:\n"
        ),
        "replacement": (
            "    for shard in shards:\n"
            "        delivered: Dict[Node, List[Any]] = defaultdict(list)\n"
        ),
        "selection": [DELIVERY, ROUND_ENGINE],
    },
    # Theorem 2's converge-cast level planes.
    {
        "name": "aggregation-plane-swaps-source-and-target-clusters",
        "file": AGGREGATION,
        "snippet": (
            "                np.array(level, dtype=np.int64),\n"
            "                np.array(parents, dtype=np.int64),\n"
        ),
        "replacement": (
            "                np.array(parents, dtype=np.int64),\n"
            "                np.array(level, dtype=np.int64),\n"
        ),
        "selection": [THEOREM1],
    },
    # Theorem 1's phase-5 level planes and cluster token masks.
    {
        "name": "level-receivers-tiled-by-position",
        "file": DISSEMINATION,
        "snippet": "target_rank = member % np.repeat(starts[targets + 1] - first_target, counts)",
        "replacement": "target_rank = j % np.repeat(starts[targets + 1] - first_target, counts)",
        "selection": [THEOREM1],
    },
    {
        "name": "level-rank-drops-earlier-edge-offset",
        "file": DISSEMINATION,
        "snippet": "sender_rank[at] += c // size[e] + (member[at] < c % size[e])",
        "replacement": "sender_rank[at] += 0",
        "selection": [THEOREM1],
    },
    {
        "name": "token-sizing-ignores-wide-ints",
        "file": OVERLAY,
        "snippet": (
            "return 1 if -_ONE_WORD_INT < min(column) and max(column) < _ONE_WORD_INT else None"
        ),
        "replacement": "return 1",
        "selection": [THEOREM1],
    },
    {
        "name": "mask-scatter-cycles-the-holder-rows",
        "file": DISSEMINATION,
        "snippet": "rows = np.repeat(cluster_rows, sizes)",
        "replacement": "rows = np.resize(cluster_rows, int(sizes.sum()))",
        "selection": [THEOREM1],
    },
    # The scalar arms that input size selects.
    {
        "name": "small-workload-planner-rejects-a-full-budget",
        "file": ENGINE,
        "snippet": "            if new_sent <= budget:\n",
        "replacement": "            if new_sent < budget:\n",
        "selection": [SCHEDULES, CUTOFFS],
    },
    {
        "name": "small-shard-knowledge-check-skipped",
        "file": NETWORK,
        "snippet": "fresh = sorted({key for key in keys if key not in pairs})",
        "replacement": "fresh = []",
        "selection": [CUTOFFS, ROUND_ENGINE],
    },
    {
        "name": "per-node-sweep-counts-the-budget-as-overload",
        "file": NETWORK,
        "snippet": (
            "                if peak > lowest:\n"
            "                    over = [\n"
            "                        index\n"
            "                        for index, words in loads.items()\n"
            "                        if words > node_budgets.get(index, budget)\n"
        ),
        "replacement": (
            "                if peak >= lowest:\n"
            "                    over = [\n"
            "                        index\n"
            "                        for index, words in loads.items()\n"
            "                        if words >= node_budgets.get(index, budget)\n"
        ),
        "selection": [CUTOFFS, DELIVERY, FAULTS],
    },
    {
        "name": "scalar-filter-ignores-crashed-receivers",
        "file": NETWORK,
        "snippet": "                    or receiver_index in crashed\n",
        "replacement": "",
        "selection": [CUTOFFS, DELIVERY, FAULTS],
    },
    # Graph-level NQ scan: containment certificate (shared by per-source
    # growths and dense blocks), Lemma 3.6 stop, the block's level test and
    # its sentinel row, and the periphery start dropped with the topology
    # caches.
    {
        "name": "nq-scan-over-certifies-one-extra-level",
        "file": INDEX,
        "snippet": "return min(best - j, len(sizes) - 1)",
        "replacement": "return min(best - j + 1, len(sizes) - 1)",
        "selection": [NQ, NQ_UNIT],
    },
    {
        "name": "nq-block-counts-the-sentinel-row",
        "file": INDEX,
        "snippet": "        reached[local[block], np.arange(len(block))] = True\n",
        "replacement": (
            "        reached[local[block], np.arange(len(block))] = True\n"
            "        reached[-1] = True\n"
        ),
        "selection": [NQ, NQ_UNIT],
    },
    {
        "name": "nq-block-tests-level-t-at-k-over-t-plus-one",
        "file": INDEX,
        "snippet": "(sizes[-1] >= k / t)",
        "replacement": "(sizes[-1] >= k / (t + 1))",
        "selection": [NQ, NQ_UNIT],
    },
    {
        "name": "nq-scan-stops-at-t0-minus-one",
        "file": INDEX,
        "snippet": "stop = math.isqrt(math.ceil(k) - 1) + 1 if",
        "replacement": "stop = math.isqrt(math.ceil(k) - 1) if",
        "selection": [NQ, NQ_UNIT],
    },
    {
        "name": "nq-scan-stops-at-floor-sqrt-k",
        "file": INDEX,
        "snippet": "stop = math.isqrt(math.ceil(k) - 1) + 1 if",
        "replacement": "stop = math.isqrt(math.floor(k)) if",
        "selection": [NQ, NQ_UNIT],
    },
    {
        "name": "periphery-kept-across-edits",
        "file": INDEX,
        "snippet": "        self._connected = None\n        self._periphery = None\n",
        "replacement": "        self._connected = None\n",
        "selection": [NQ, NQ_UNIT],
    },
    # The batch splice behind every GraphMutator edit.
    {
        "name": "splice-rows-first-to-last",
        "file": INDEX,
        "snippet": "        for a in sorted(rows, reverse=True):\n",
        "replacement": "        for a in sorted(rows):\n",
        "selection": [DYNAMIC],
    },
    {
        "name": "splice-skips-a-memoised-pair-column",
        "file": INDEX,
        "snippet": "        for eps, pairs in self._adjacency_pairs.items():\n            columns.append(",
        "replacement": (
            "        for eps, pairs in list(self._adjacency_pairs.items())[1:]:\n"
            "            columns.append("
        ),
        "selection": [DYNAMIC],
    },
    {
        "name": "nq-scan-certifies-at-k-over-best-plus-one",
        "file": INDEX,
        "snippet": "bisect.bisect_left(sizes, k / best)",
        "replacement": "bisect.bisect_left(sizes, k / (best + 1))",
        "selection": [NQ, NQ_UNIT],
    },
    # Batched h-hop rows: Jacobi rounds over the ball union, within the cap,
    # and the block pricing's size pre-check (shared with NQ blocks).
    {
        "name": "dense-block-pricing-skips-the-size-precheck",
        "file": INDEX,
        "snippet": "if size >= bound or (",
        "replacement": "if False or (",
        "selection": [NQ_UNIT],
    },
    {
        "name": "dense-rows-read-gauss-seidel",
        "file": INDEX,
        "snippet": "candidate = np.take(dist, t, axis=0,",
        "replacement": "candidate = np.take(nxt, t, axis=0,",
        "selection": [HHOP],
    },
    {
        "name": "dense-rows-one-round-short",
        "file": INDEX,
        "snippet": "        for _ in range(h):\n            np.copyto(nxt, dist)\n",
        "replacement": "        for _ in range(h - 1):\n            np.copyto(nxt, dist)\n",
        "selection": [HHOP],
    },
    {
        "name": "ball-union-one-hop-short",
        "file": INDEX,
        "snippet": "self._levels(block, h)",
        "replacement": "self._levels(block, h - 1)",
        "selection": [HHOP],
    },
    {
        "name": "block-cap-ignores-the-sentinel-row",
        "file": INDEX,
        "snippet": "limit = _HHOP_BLOCK_CELLS // size - 1",
        "replacement": "limit = _HHOP_BLOCK_CELLS // size",
        "selection": [HHOP],
    },
    # The BFS level kernel: the depth bound, the iFUB midpoint and twins.
    {
        "name": "levels-yields-one-level-past-the-depth",
        "file": INDEX,
        "snippet": "            if t == depth:\n                return\n",
        "replacement": "            if depth is not None and t > depth:\n                return\n",
        "selection": [LEVELS, RULING],
    },
    {
        "name": "levels-expands-one-level-past-the-depth",
        "file": INDEX,
        "snippet": "            yield frontier\n            if t == depth:\n                return\n",
        "replacement": (
            "            if depth is not None and t > depth:\n"
            "                return\n"
            "            yield frontier\n"
        ),
        "selection": [LEVELS],
    },
    {
        "name": "ifub-midpoint-takes-the-first-qualifier",
        "file": INDEX,
        "snippet": "        if len(middle) > 1:\n",
        "replacement": "        if False:\n",
        "selection": [LEVELS],
    },
    {
        "name": "ifub-twins-keyed-by-the-open-neighbourhood",
        "file": INDEX,
        "snippet": "sorted([u, *self._targets[offsets[u] : offsets[u + 1]]])",
        "replacement": "sorted([*self._targets[offsets[u] : offsets[u + 1]]])",
        "selection": [LEVELS],
    },
    # Theorem 8 analytics: the bounded spanner search and Algorithm 4 rows.
    {
        "name": "spanner-search-prunes-paths-at-the-cutoff",
        "file": SPANNER,
        "snippet": "if candidate <= cutoff and candidate < best.get(y, math.inf):",
        "replacement": "if candidate < cutoff and candidate < best.get(y, math.inf):",
        "selection": [THEOREM8],
    },
    {
        "name": "estimate-row-reassociates-the-skeleton-sum",
        "file": SHORTEST_PATHS,
        "snippet": "(d_v_vs + skel[cs_pos]) + cs_dist)",
        "replacement": "d_v_vs + (skel[cs_pos] + cs_dist))",
        "selection": [THEOREM8],
    },
    {
        "name": "closest-skeleton-ignores-the-str-tie",
        "file": SHORTEST_PATHS,
        "snippet": "        skeleton_nodes = skeleton.skeleton_nodes\n",
        "replacement": (
            "        skeleton_nodes = sorted(skeleton.skeleton_nodes, key=index.index_of.get)\n"
        ),
        "selection": [THEOREM8],
    },
]
