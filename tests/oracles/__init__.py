"""Test oracles: the slower formulations the production paths must match.

None of these modules is imported by ``src/repro``; they exist so the
equivalence suites can pin the plane engine against ground truth.

* :mod:`oracles.scheduler` — the reference greedy scheduler, plane-to-tuple
  lowering and the tuple exchange.
* :mod:`oracles.transport` — the per-message throttled exchange.
* :mod:`oracles.nq` — the centralized ``NQ_k`` references, plus the tuple
  frontier flood and the whole-ball flood of the distributed NQ computation.
* :mod:`oracles.weighted` — the index-free weighted-distance references:
  networkx Dijkstra and the dict-based ``h``-hop limited Bellman-Ford.
* :mod:`oracles.overlay` — the tuple and per-message virtual-tree operations.
* :mod:`oracles.engines` — ``exchange_via(name)``, which runs whole
  algorithms on one of the oracle engines.
"""
