"""Core of the reproduction: model, game, best response, Nash dynamics."""

from repro.core.classes import (
    ClassAggregation,
    ClassNashResult,
    ClassNashSolver,
    aggregate_users,
    class_best_response_regrets,
)
from repro.core.comm_delay import (
    DelayedGame,
    DelayedNashResult,
    DelayedNashSolver,
    delayed_best_response,
)
from repro.core.best_response import (
    BatchBestResponse,
    BestResponse,
    best_response,
    optimal_fractions,
    optimal_fractions_batch,
)
from repro.core.degradation import (
    CapacityExhausted,
    degraded_equilibrium,
    embed_profile,
    project_profile,
    surviving_subsystem,
)
from repro.core.dynamics import (
    DynamicsResult,
    EpisodeResult,
    run_dynamic_balancing,
)
from repro.core.equilibrium import (
    EquilibriumCertificate,
    best_response_regrets,
    is_nash_equilibrium,
    verify_equilibrium,
)
from repro.core.model import DistributedSystem
from repro.core.nash import (
    DEFAULT_MAX_SWEEPS,
    DEFAULT_TOLERANCE,
    NashResult,
    NashSolver,
    compute_nash_equilibrium,
    initial_profile,
)
from repro.core.reference import reference_solve
from repro.core.sampled import (
    SampleCertificate,
    SampledBatchReply,
    SampledReply,
    sample_indices,
    sampled_best_reply,
    sampled_best_reply_batch,
)
from repro.core.strategy import FEASIBILITY_ATOL, StrategyProfile
from repro.core.uncertainty import NoisyNashResult, NoisyNashSolver
from repro.core.waterfill import (
    InfeasibleDemand,
    WaterfillResult,
    response_time_waterfill,
    sqrt_waterfill,
)

__all__ = [
    "ClassAggregation",
    "ClassNashResult",
    "ClassNashSolver",
    "aggregate_users",
    "class_best_response_regrets",
    "DelayedGame",
    "DelayedNashResult",
    "DelayedNashSolver",
    "delayed_best_response",
    "BatchBestResponse",
    "BestResponse",
    "best_response",
    "optimal_fractions",
    "optimal_fractions_batch",
    "CapacityExhausted",
    "degraded_equilibrium",
    "embed_profile",
    "project_profile",
    "surviving_subsystem",
    "DynamicsResult",
    "EpisodeResult",
    "run_dynamic_balancing",
    "EquilibriumCertificate",
    "best_response_regrets",
    "is_nash_equilibrium",
    "verify_equilibrium",
    "DistributedSystem",
    "DEFAULT_MAX_SWEEPS",
    "DEFAULT_TOLERANCE",
    "NashResult",
    "NashSolver",
    "SampleCertificate",
    "SampledBatchReply",
    "SampledReply",
    "sample_indices",
    "sampled_best_reply",
    "sampled_best_reply_batch",
    "compute_nash_equilibrium",
    "initial_profile",
    "reference_solve",
    "FEASIBILITY_ATOL",
    "StrategyProfile",
    "NoisyNashResult",
    "NoisyNashSolver",
    "InfeasibleDemand",
    "WaterfillResult",
    "response_time_waterfill",
    "sqrt_waterfill",
]
