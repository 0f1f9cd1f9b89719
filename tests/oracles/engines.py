"""Run whole algorithms on an oracle exchange engine.

Production code has one exchange path: every
:class:`~repro.simulator.engine.BatchAlgorithm` moves its traffic as token
planes.  ``with exchange_via(name):`` swaps, for the duration of the block,
every place where the engines this path replaced behaved differently:

* ``BatchAlgorithm.exchange`` lowers the workload to tuples
  (:func:`oracles.scheduler.iter_triples`) and runs it through the tuple
  exchange (``"batch-reference"``,
  :func:`oracles.scheduler.reference_batched_global_exchange`) or the
  per-message exchange (``"legacy"``,
  :func:`oracles.transport.throttled_global_exchange`).  Both harvest
  unconditionally, whatever ``collect`` says.
* ``BatchAlgorithm.resilient_exchange`` raises: no oracle is fault-aware.
* ``DistributedNQComputation._phase_explore`` runs the tuple frontier flood
  or the whole-ball per-message flood (:mod:`oracles.nq`).
* the Lemma 4.4 aggregation of ``KDissemination`` runs the tuple or
  per-message tree operations (:mod:`oracles.overlay`).

``exchange_via("batch")`` changes nothing, so tests can parametrize over
:data:`ENGINES`.  Oracle engines lower payloads to tuples, so a payload-free
plane raises :class:`~repro.simulator.errors.ChargeOnlyError` in
:func:`~oracles.scheduler.iter_triples`.
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core import dissemination as dissemination_module
from repro.core.neighborhood_quality import DistributedNQComputation
from repro.simulator.engine import BatchAlgorithm, TokenPlane

from oracles import nq, overlay
from oracles.scheduler import iter_triples, reference_batched_global_exchange
from oracles.transport import GlobalTransfer, throttled_global_exchange

#: Every engine a test can name: the production plane path plus the oracles.
ENGINES = ("batch", "batch-reference", "legacy")
#: The oracle engines alone.
ORACLES = ENGINES[1:]

_TREE_MODE = {"batch-reference": "tuple", "legacy": "per-message"}
_EXPLORE = {
    "batch-reference": nq.explore_frontier_tuples,
    "legacy": nq.explore_legacy,
}


def _oracle_exchange(name: str):
    def exchange(
        self: BatchAlgorithm,
        triples: Union[TokenPlane, Sequence[Tuple]],
        tag: Optional[str] = None,
        *,
        collect: bool = True,
    ) -> Dict[Any, List[Any]]:
        if isinstance(triples, TokenPlane):
            triples = list(iter_triples(triples, self.simulator))
        if not triples:
            return {}
        if name == "batch-reference":
            return reference_batched_global_exchange(self.simulator, triples, tag=tag)
        transfers = [
            GlobalTransfer(sender=t[0], receiver=t[1], payload=t[2], tag=tag)
            for t in triples
        ]
        return throttled_global_exchange(self.simulator, transfers)

    return exchange


def _no_resilient_exchange(name: str):
    def resilient_exchange(self, *args, **kwargs):
        raise ValueError(f"the {name!r} oracle has no fault-aware exchange")

    return resilient_exchange


@contextlib.contextmanager
def exchange_via(name: str) -> Iterator[None]:
    """Run every algorithm started inside the block on engine ``name``."""
    if name not in ENGINES:
        raise ValueError(f"unknown engine {name!r}; use one of {', '.join(ENGINES)}")
    if name == "batch":
        yield
        return
    mode = _TREE_MODE[name]

    def basic_aggregation(simulator, values, combine, tree=None):
        return overlay.basic_aggregation(simulator, values, combine, tree, mode=mode)

    swaps = (
        (BatchAlgorithm, "exchange", _oracle_exchange(name)),
        (BatchAlgorithm, "resilient_exchange", _no_resilient_exchange(name)),
        (DistributedNQComputation, "_phase_explore", _EXPLORE[name]),
        (dissemination_module, "basic_aggregation", basic_aggregation),
    )
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in swaps]
    try:
        for owner, attr, replacement in swaps:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
