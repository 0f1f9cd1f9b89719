"""Exception hierarchy for the HYBRID simulator.

Every violation of the model's communication constraints (Section 1.3) raises a
dedicated exception so algorithms that accidentally overstep the model are
caught during testing rather than silently producing results the model could
not achieve.
"""

from __future__ import annotations

__all__ = [
    "SimulatorError",
    "NotANeighborError",
    "UnknownIdentifierError",
    "CapacityExceededError",
    "LocalBandwidthExceededError",
    "RoundLifecycleError",
    "StaleGraphError",
    "UnknownNodeError",
    "ChargeOnlyError",
    "PairKeyOverflowError",
]


class SimulatorError(Exception):
    """Base class for all simulator errors."""


class UnknownNodeError(SimulatorError, KeyError):
    """A node or identifier that does not exist in the network was referenced."""


class NotANeighborError(SimulatorError):
    """A local-mode message was addressed to a node that is not a graph neighbor."""


class UnknownIdentifierError(SimulatorError):
    """In HYBRID_0, a global-mode message was addressed to an identifier the
    sender does not (yet) know."""


class CapacityExceededError(SimulatorError):
    """A node exceeded its per-round global-communication capacity (gamma bits),
    either as a sender or as a receiver."""


class LocalBandwidthExceededError(SimulatorError):
    """A local-mode message exceeded the per-edge bandwidth lambda (only possible
    in CONGEST-like configurations where lambda is finite)."""


class RoundLifecycleError(SimulatorError):
    """The simulator API was used out of order (e.g. reading an inbox for a round
    that has not been delivered yet)."""


class ChargeOnlyError(SimulatorError):
    """Payload content was requested from charge-only traffic.

    Charge-only simulation (``HybridSimulator(charge_only=True)``, or a
    payload-free :class:`~repro.simulator.engine.TokenPlane`) carries only the
    (sender, receiver, words) columns — schedules, capacity accounting and
    round counts are exact, but payloads were never materialised, so reading
    an inbox, collecting an exchange, or lowering the plane to tuples cannot
    be answered.  Re-run with payloads for content-level queries."""


class StaleGraphError(SimulatorError):
    """The simulator's graph was mutated after the id-native arrays were built.

    Plane sends compare the graph's version stamp (see
    :func:`repro.graphs.index.graph_version`) against the one recorded when
    the simulator's node maps and adjacency keys were (re)built; a mismatch
    means those arrays describe a graph that no longer exists.  Call
    ``HybridSimulator.invalidate_index()`` after mutating the graph to
    resynchronise."""


class PairKeyOverflowError(SimulatorError, OverflowError):
    """The network is too large for the simulator's flat ``a * n + b`` int64
    pair keys (knowledge pairs, failed edges, send validation), which would
    otherwise wrap silently."""
