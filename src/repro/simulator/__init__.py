"""Round-based simulator of the HYBRID(lambda, gamma) distributed model.

See :class:`repro.simulator.network.HybridSimulator` for the main entry point
and :class:`repro.simulator.config.ModelConfig` for the model zoo (HYBRID,
HYBRID_0, LOCAL, CONGEST, NCC, NCC_0, Congested Clique).
"""

from repro.simulator.config import IdentifierRegime, ModelConfig, WORD_BITS, log2_ceil, word_bits
from repro.simulator.errors import (
    CapacityExceededError,
    LocalBandwidthExceededError,
    NotANeighborError,
    RoundLifecycleError,
    SimulatorError,
    UnknownIdentifierError,
    UnknownNodeError,
)
from repro.simulator.messages import GLOBAL_MODE, LOCAL_MODE, payload_words
from repro.simulator.knowledge import KnowledgeTracker
from repro.simulator.metrics import ChargeRecord, RoundMetrics
from repro.simulator.faults import (
    CapacityDegradation,
    CrashEvent,
    FaultSchedule,
    FaultState,
    LinkFailure,
    crash_fraction_schedule,
)
from repro.simulator.network import BatchRecord, HybridSimulator, node_sort_key
from repro.simulator.engine import (
    BatchAlgorithm,
    ExchangeTag,
    GlobalTriple,
    PhaseRecord,
    ResilientExchangeResult,
    TokenPlane,
    batched_global_exchange,
    plan_token_rounds,
    resilient_batched_global_exchange,
)

__all__ = [
    "IdentifierRegime",
    "ModelConfig",
    "WORD_BITS",
    "log2_ceil",
    "word_bits",
    "SimulatorError",
    "NotANeighborError",
    "UnknownIdentifierError",
    "CapacityExceededError",
    "LocalBandwidthExceededError",
    "RoundLifecycleError",
    "UnknownNodeError",
    "payload_words",
    "LOCAL_MODE",
    "GLOBAL_MODE",
    "KnowledgeTracker",
    "ChargeRecord",
    "RoundMetrics",
    "CapacityDegradation",
    "CrashEvent",
    "FaultSchedule",
    "FaultState",
    "LinkFailure",
    "crash_fraction_schedule",
    "HybridSimulator",
    "BatchRecord",
    "node_sort_key",
    "BatchAlgorithm",
    "ExchangeTag",
    "GlobalTriple",
    "PhaseRecord",
    "ResilientExchangeResult",
    "TokenPlane",
    "batched_global_exchange",
    "plan_token_rounds",
    "resilient_batched_global_exchange",
]
