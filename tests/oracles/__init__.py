"""Test oracles: the slower formulations the production paths must match.

None of these modules is imported by ``src/repro``; they exist so the
equivalence suites can pin the plane engine against ground truth.

* :mod:`oracles.transport` — the label-addressed send and inbox adapter
  (tuples and single messages lowered to one plane per call, ``Message``
  lists read back), plus the per-message throttled exchange.
* :mod:`oracles.delivery` — ``ReferenceNetwork``, a record-by-record model
  of the simulator's round: capacity sweep, fault filter and identifier
  learning.
* :mod:`oracles.scheduler` — the reference greedy scheduler, plane-to-tuple
  lowering and the tuple exchange.
* :mod:`oracles.nq` — the centralized ``NQ_k`` references, plus the tuple
  frontier flood and the whole-ball flood of the distributed NQ computation.
* :mod:`oracles.hops` — per-node BFS references for hop distances, ball
  sizes, eccentricity and the diameters.
* :mod:`oracles.clustering` — the set-based ruling set and Lemma 3.5
  clustering.
* :mod:`oracles.weighted` — the index-free weighted-distance references:
  networkx Dijkstra, the dict-based ``h``-hop limited Bellman-Ford and the
  dict+heapq (approximate) SSSP.
* :mod:`oracles.overlay` — the dict heap tree and the tuple and per-message
  virtual-tree operations.
* :mod:`oracles.engines` — ``exchange_via(name)``, which runs whole
  algorithms on one of the oracle engines.
"""
