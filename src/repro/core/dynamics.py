"""Dynamic re-balancing on top of the static game (paper Sec. 3 and Sec. 5).

The paper's NASH algorithm "is initiated periodically or when the system
parameters are changed"; between runs the system stays at the last
equilibrium.  This module drives exactly that loop over a sequence of
system snapshots (e.g. time-varying user demand) and quantifies the
benefit of *warm starting* each run from the previous equilibrium — the
same phenomenon that makes NASH_P beat NASH_0 in Figures 2-3, taken to its
logical conclusion (the paper's "dynamic load balancing" future work).

Since the online engine landed, this module is a thin snapshot-driven
wrapper over :class:`repro.engine.OnlineEquilibriumEngine`, solved with
``stop="norm"`` (the paper's sweep-norm rule alone).  With warm starts,
each snapshot is diffed against the engine's fleet state into one churn
epoch (capacity changes plus a wholesale demand replacement), and the
engine's one warm-start rule — reuse the previous profile when it is a
feasible profile of the new snapshot — applies; without them each
snapshot is the bootstrap solve of a fresh engine.  Results are
identical to the pre-engine implementation while there is only one
re-equilibration code path in the repo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal

import numpy as np

from repro.core.model import DistributedSystem
from repro.core.nash import DEFAULT_MAX_SWEEPS, DEFAULT_TOLERANCE, NashResult
from repro.engine.events import CapacityChange, ChurnEpoch, ChurnEvent, SetDemand
from repro.engine.service import EngineConfig, OnlineEquilibriumEngine
from repro.engine.state import FleetState

__all__ = ["EpisodeResult", "DynamicsResult", "run_dynamic_balancing"]


@dataclass(frozen=True)
class EpisodeResult:
    """Equilibrium computation for one system snapshot."""

    system: DistributedSystem
    result: NashResult

    @property
    def iterations(self) -> int:
        return self.result.iterations


@dataclass(frozen=True)
class DynamicsResult:
    """Sequence of re-balancing episodes.

    Attributes
    ----------
    episodes:
        One :class:`EpisodeResult` per system snapshot, in order.
    """

    episodes: tuple[EpisodeResult, ...]

    @property
    def iterations_per_episode(self) -> np.ndarray:
        return np.asarray([e.iterations for e in self.episodes], dtype=int)

    @property
    def all_converged(self) -> bool:
        return all(e.result.converged for e in self.episodes)

    @property
    def user_time_trajectory(self) -> np.ndarray:
        """(episodes, users) matrix of equilibrium expected response times."""
        return np.vstack([e.result.user_times for e in self.episodes])


def _snapshot_epoch(state: FleetState, system: DistributedSystem) -> ChurnEpoch:
    """Churn epoch that moves ``state`` onto the snapshot ``system``."""
    events: list[ChurnEvent] = []
    if not np.array_equal(state.service_rates, system.service_rates):
        for computer, rate in enumerate(system.service_rates):
            if not np.array_equal(state.service_rates[computer], rate):
                events.append(CapacityChange(computer, float(rate)))
    events.append(
        SetDemand(
            tuple(float(rate) for rate in system.arrival_rates),
            system.user_names,
        )
    )
    return tuple(events)


def run_dynamic_balancing(
    systems: Iterable[DistributedSystem],
    *,
    warm_start: bool = True,
    cold_init: Literal["zero", "proportional", "uniform"] = "proportional",
    tolerance: float = DEFAULT_TOLERANCE,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> DynamicsResult:
    """Re-run the NASH algorithm across a sequence of system snapshots.

    Parameters
    ----------
    systems:
        Snapshots of the distributed system; the computer set must stay
        fixed but user arrival rates may change per episode (user counts
        must match for warm starting to be meaningful).
    warm_start:
        Start each episode from the previous equilibrium profile when its
        shape matches and it remains feasible; otherwise (and always for
        the first episode) fall back to ``cold_init``.
    """
    config = EngineConfig(
        tolerance=tolerance,
        sweep_budget=max_sweeps,
        stop="norm",
        cold_init=cold_init,
    )
    episodes: list[EpisodeResult] = []
    engine: OnlineEquilibriumEngine | None = None
    for system in systems:
        if (
            not warm_start
            or engine is None
            or engine.state.n_computers != system.n_computers
        ):
            # A cold episode, the first snapshot, or a fleet that changed
            # size (which the legacy loop always cold-started): fresh
            # engine, bootstrap solve is the episode.
            engine = OnlineEquilibriumEngine(system, config=config)
            report = engine.bootstrap
        else:
            report = engine.process_epoch(_snapshot_epoch(engine.state, system))
        if report.result is None:  # pragma: no cover - snapshots are valid games
            raise RuntimeError(f"snapshot produced no equilibrium: {report.status}")
        episodes.append(EpisodeResult(system=system, result=report.result))
    if not episodes:
        raise ValueError("at least one system snapshot is required")
    return DynamicsResult(episodes=tuple(episodes))
