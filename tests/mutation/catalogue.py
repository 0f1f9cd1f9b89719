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

DELIVERY = "tests/properties/test_delivery_modes.py"
KNOWLEDGE = "tests/properties/test_knowledge_identity.py"
CUTOFFS = "tests/properties/test_size_cutoffs.py"
ROUND_ENGINE = "tests/properties/test_round_engine.py"
FAULTS = "tests/properties/test_fault_injection.py"
SCHEDULES = "tests/properties/test_schedule_grid.py"

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
        "snippet": "peak = int(arr.max())\n                    if peak > budget:",
        "replacement": "peak = int(arr.max())\n                    if peak >= budget:",
        "selection": [ROUND_ENGINE, DELIVERY, CUTOFFS],
    },
    {
        "name": "strict-error-names-the-highest-indexed-offender",
        "file": NETWORK,
        "snippet": "index, words, node_budget = min(over)",
        "replacement": "index, words, node_budget = max(over)",
        "selection": [CUTOFFS, DELIVERY, ROUND_ENGINE],
    },
    {
        "name": "array-sweep-names-the-highest-indexed-offender",
        "file": NETWORK,
        "snippet": "swept.append((peak, int(over.size), int(over[0])))",
        "replacement": "swept.append((peak, int(over.size), int(over[-1])))",
        "selection": [CUTOFFS, DELIVERY, ROUND_ENGINE],
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
    {
        "name": "stale-fresh-pairs-after-filtering",
        "file": NETWORK,
        "snippet": (
            "                    kept if positions is None else positions[kept],\n"
            "                    batch.tag,\n"
            "                    None,\n"
        ),
        "replacement": (
            "                    kept if positions is None else positions[kept],\n"
            "                    batch.tag,\n"
            "                    batch.fresh_pairs,\n"
        ),
        "selection": [KNOWLEDGE, CUTOFFS],
    },
    # Sender-identifier learning.
    {
        "name": "learning-reads-only-the-first-batch",
        "file": NETWORK,
        "snippet": "        for batch in planes:\n",
        "replacement": "        for batch in planes[:1]:\n",
        "selection": [KNOWLEDGE, CUTOFFS],
    },
    {
        "name": "bulk-learning-key-direction-swapped",
        "file": NETWORK,
        "snippet": "fresh_pairs = pair_r * self.n + pair_s",
        "replacement": "fresh_pairs = pair_s * self.n + pair_r",
        "selection": [KNOWLEDGE, CUTOFFS],
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
        "snippet": "                        if words > node_budget:\n",
        "replacement": "                        if words >= node_budget:\n",
        "selection": [CUTOFFS, DELIVERY, FAULTS],
    },
    {
        "name": "scalar-filter-ignores-crashed-receivers",
        "file": NETWORK,
        "snippet": "                    or receiver_index in crashed\n",
        "replacement": "",
        "selection": [CUTOFFS, DELIVERY, FAULTS],
    },
]
