"""Online equilibrium engine: churn-resilient service mode.

The package that keeps a NASH equilibrium alive under churn.  See
:mod:`repro.engine.service` for the loop itself, docs/OPERATIONS.md for
the operational contract, and :mod:`repro.workloads.traces` for churn
trace generators.
"""

from repro.engine.events import (
    CapacityChange,
    ChurnEpoch,
    ChurnEvent,
    ComputerFailure,
    ComputerReopen,
    PhiDrift,
    SetDemand,
    SetUtilization,
    UserArrival,
    UserDeparture,
    as_epoch,
    event_kind,
)
from repro.engine.reequilibrate import ReequilibrationOutcome, converge_bounded
from repro.engine.service import (
    EngineConfig,
    EngineRun,
    EpochReport,
    EpochStatus,
    OnlineEquilibriumEngine,
)
from repro.engine.sla import SLAAccountant, SLAPolicy, SLAReport
from repro.engine.state import FleetState

__all__ = [
    "CapacityChange",
    "ChurnEpoch",
    "ChurnEvent",
    "ComputerFailure",
    "ComputerReopen",
    "EngineConfig",
    "EngineRun",
    "EpochReport",
    "EpochStatus",
    "FleetState",
    "OnlineEquilibriumEngine",
    "PhiDrift",
    "ReequilibrationOutcome",
    "SLAAccountant",
    "SLAPolicy",
    "SLAReport",
    "SetDemand",
    "SetUtilization",
    "UserArrival",
    "UserDeparture",
    "as_epoch",
    "converge_bounded",
    "event_kind",
]
