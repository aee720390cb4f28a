"""The online equilibrium engine: a churn-resilient service loop.

The paper runs NASH "periodically or when the system parameters are
changed"; this module is that sentence turned into a long-running
engine.  An :class:`OnlineEquilibriumEngine` holds the current fleet
state and equilibrium profile and consumes a churn trace epoch by epoch:

1. the epoch's events are applied atomically to the
   :class:`~repro.engine.state.FleetState`;
2. the previous equilibrium, restricted to the computers online now,
   seeds the solve when it is a feasible profile of the new effective
   (surviving-computer) game; otherwise the solve cold-starts.  A
   reopened computer enters with a zero column (warm); a failed
   computer that carried flow leaves rows summing below one, and a
   user-count change leaves the wrong shape (both cold).  Under the
   default certificate stop the Newton polish certifies warm and cold
   epochs alike after one sweep, so the seed needs no repair;
3. the solve is one :class:`~repro.core.nash.NashSolver` solve under a
   sweep budget that stops on the epsilon-Nash certificate
   (:func:`repro.engine.reequilibrate.converge_bounded`), so a
   pathological epoch costs bounded work, never a stalled loop;
4. capacity exhaustion (up to and including every computer down) is a
   *degraded hold*: the typed
   :class:`~repro.core.degradation.CapacityExhausted` is surfaced on
   the epoch report, the last good profile is retained for the
   recovery warm start, and the loop continues;
5. SLA violations are accounted per epoch against the configured
   per-user response-time target.

Every epoch is traced (``engine.epoch`` events plus counters and the
sweeps-per-event histogram) through :mod:`repro.telemetry`; the
``repro-trace engine`` view rolls a run's trace up.  See
docs/OPERATIONS.md for the operational contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Iterable, Literal

import numpy as np

from repro._typing import BoolArray, FloatArray
from repro.core.degradation import CapacityExhausted, embed_profile
from repro.core.equilibrium import EquilibriumCertificate
from repro.core.model import DistributedSystem
from repro.core.nash import (
    DEFAULT_MAX_SWEEPS,
    DEFAULT_TOLERANCE,
    Initialization,
    NashResult,
    StopRule,
)
from repro.core.strategy import StrategyProfile
from repro.engine.events import ChurnEpoch, ChurnEvent, as_epoch, event_kind
from repro.engine.reequilibrate import converge_bounded
from repro.engine.sla import SLAAccountant, SLAPolicy, SLAReport
from repro.engine.state import FleetState
from repro.telemetry.trace import Tracer, current_tracer

__all__ = [
    "EngineConfig",
    "EngineRun",
    "EpochReport",
    "EpochStatus",
    "OnlineEquilibriumEngine",
]

EpochStatus = Literal["ok", "degraded", "exhausted", "idle"]

#: Histogram bucket edges for sweeps spent per epoch.
_SWEEP_BOUNDS: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0,
                                    128.0, 256.0)


@dataclass(frozen=True)
class EngineConfig:
    """Operating parameters of the online engine.

    Parameters
    ----------
    tolerance:
        Acceptance tolerance of each solve (the solver's ``eps``): on
        the sweep norm and on the certificate.  An epoch counts as
        certified when its maximum best-response regret is at most this.
    sweep_budget:
        Hard cap on best-reply sweeps per epoch.
    stop:
        The solver's stop rule.  ``"certificate"`` (default) stops on
        the epsilon-Nash certificate of the sweep iterate or of its
        Newton polish, checked after sweeps 1, 2, 4, 8, ...;
        ``"norm"`` is the paper's sweep-norm rule alone, certified once
        after the solve.
    cold_init:
        Initialization used when the previous equilibrium is not a
        feasible profile of the epoch's game (and for the bootstrap).
    sla:
        Optional per-user response-time objective to account against.
    """

    tolerance: float = DEFAULT_TOLERANCE
    sweep_budget: int = DEFAULT_MAX_SWEEPS
    stop: StopRule = "certificate"
    cold_init: Initialization = "proportional"
    sla: SLAPolicy | None = None

    def __post_init__(self) -> None:
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.sweep_budget < 1:
            raise ValueError("sweep_budget must be at least 1")
        if self.stop not in ("certificate", "norm"):
            raise ValueError(f"unknown stop rule {self.stop!r}")


@dataclass(frozen=True)
class EpochReport:
    """Everything the engine knows about one processed epoch.

    ``system``/``result``/``certificate`` are expressed on the epoch's
    *effective* (surviving) system; ``profile`` is embedded back at
    nominal fleet width (zero columns on offline computers).  On an
    ``"exhausted"`` epoch the typed error is attached as ``error`` and
    ``profile`` holds the last good equilibrium (stale, retained for
    the recovery warm start); on an ``"idle"`` epoch there is no game
    and all solve fields are ``None``.
    """

    index: int
    events: ChurnEpoch
    status: EpochStatus
    online: BoolArray
    n_users: int
    system: DistributedSystem | None
    result: NashResult | None
    certificate: EquilibriumCertificate | None
    profile: StrategyProfile | None
    warm_started: bool
    sweeps: int
    certified: bool
    epsilon: float
    latency_s: float
    sla_violations: int
    error: CapacityExhausted | None = None

    @property
    def degraded(self) -> bool:
        """True when the epoch ran with part (or all) of the fleet down."""
        return self.status in ("degraded", "exhausted")


@dataclass(frozen=True)
class EngineRun:
    """Roll-up over every epoch an engine has processed so far."""

    reports: tuple[EpochReport, ...]
    sla: SLAReport | None = None

    @property
    def n_epochs(self) -> int:
        return len(self.reports)

    @property
    def statuses(self) -> tuple[EpochStatus, ...]:
        return tuple(report.status for report in self.reports)

    @property
    def degraded_epochs(self) -> int:
        return sum(1 for r in self.reports if r.status == "degraded")

    @property
    def exhausted_epochs(self) -> int:
        return sum(1 for r in self.reports if r.status == "exhausted")

    @property
    def idle_epochs(self) -> int:
        return sum(1 for r in self.reports if r.status == "idle")

    @property
    def solved_epochs(self) -> int:
        return sum(1 for r in self.reports if r.status in ("ok", "degraded"))

    @property
    def warm_epochs(self) -> int:
        return sum(1 for r in self.reports if r.warm_started)

    @property
    def all_certified(self) -> bool:
        """Every solvable epoch certified (idle/exhausted epochs have no
        equilibrium to certify and are excluded)."""
        return all(
            r.certified for r in self.reports if r.status in ("ok", "degraded")
        )

    @property
    def sweeps_per_epoch(self) -> FloatArray:
        return np.asarray([r.sweeps for r in self.reports], dtype=float)

    @property
    def total_sweeps(self) -> int:
        return int(sum(r.sweeps for r in self.reports))

    @property
    def total_sla_violations(self) -> int:
        return int(sum(r.sla_violations for r in self.reports))

    @property
    def mean_latency_s(self) -> float:
        if not self.reports:
            return 0.0
        return float(np.mean([r.latency_s for r in self.reports]))


class OnlineEquilibriumEngine:
    """Long-running equilibrium maintenance over a churn-event stream.

    Constructing the engine performs the bootstrap solve (epoch 0, no
    events) on the given system; :meth:`process_epoch` then advances
    one epoch at a time and :meth:`run` drives a whole trace.

    >>> from repro.workloads import paper_table1_system
    >>> from repro.engine.events import ComputerFailure, ComputerReopen
    >>> engine = OnlineEquilibriumEngine(
    ...     paper_table1_system(utilization=0.6, n_users=4)
    ... )
    >>> engine.process_epoch(ComputerFailure(15)).status
    'degraded'
    >>> engine.process_epoch(ComputerReopen(15)).status
    'ok'
    """

    def __init__(
        self,
        system: DistributedSystem,
        *,
        config: EngineConfig | None = None,
        tracer: Tracer | None = None,
    ):
        self.config = config if config is not None else EngineConfig()
        self._tracer = tracer
        self._state = FleetState(system)
        self._fractions_full: FloatArray | None = None
        self._reports: list[EpochReport] = []
        self._sla = (
            SLAAccountant(self.config.sla) if self.config.sla is not None else None
        )
        tr = self._resolve_tracer()
        if tr.enabled:
            tr.emit(
                "engine.start",
                computers=self._state.n_computers,
                users=self._state.n_users,
                tolerance=self.config.tolerance,
                sweep_budget=self.config.sweep_budget,
                stop=self.config.stop,
            )
        self.process_epoch(())

    # ------------------------------------------------------------------
    # State accessors
    # ------------------------------------------------------------------
    @property
    def state(self) -> FleetState:
        return self._state

    @property
    def epoch(self) -> int:
        """Number of processed epochs (the bootstrap solve is epoch 0)."""
        return len(self._reports)

    @property
    def reports(self) -> tuple[EpochReport, ...]:
        return tuple(self._reports)

    @property
    def bootstrap(self) -> EpochReport:
        return self._reports[0]

    @property
    def profile(self) -> StrategyProfile | None:
        """Current equilibrium at nominal fleet width, or ``None`` (idle)."""
        if self._fractions_full is None:
            return None
        return StrategyProfile(self._fractions_full)

    def sla_report(self) -> SLAReport | None:
        return self._sla.report() if self._sla is not None else None

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def run(self, trace: Iterable[ChurnEvent | ChurnEpoch]) -> EngineRun:
        """Process every epoch of ``trace``; returns the full-run roll-up
        (bootstrap and previously processed epochs included)."""
        for epoch in trace:
            self.process_epoch(epoch)
        return EngineRun(reports=tuple(self._reports), sla=self.sla_report())

    def process_epoch(self, events: ChurnEvent | ChurnEpoch) -> EpochReport:
        """Apply one epoch's events and re-equilibrate, bounded."""
        started = perf_counter()
        epoch = as_epoch(events)
        tracer = self._resolve_tracer()
        index = len(self._reports)
        for event in epoch:
            self._state.apply(event)
            if tracer.enabled:
                tracer.emit("engine.event", epoch=index, kind=event_kind(event))
                tracer.count("engine.events")

        if self._state.n_users == 0:
            report = self._idle_report(index, epoch, started)
        else:
            try:
                effective = self._state.effective_system()
            except CapacityExhausted as error:
                report = self._exhausted_report(index, epoch, started, error)
            else:
                report = self._solve_report(index, epoch, started, effective)
        self._reports.append(report)
        self._trace_epoch(tracer, report)
        return report

    # ------------------------------------------------------------------
    # Epoch outcomes
    # ------------------------------------------------------------------
    def _idle_report(
        self, index: int, epoch: ChurnEpoch, started: float
    ) -> EpochReport:
        # No users, no game: drop the profile (a later arrival cold
        # starts) but keep serving the moment demand returns.
        self._fractions_full = None
        if self._sla is not None:
            self._sla.record_epoch(None)
        return EpochReport(
            index=index,
            events=epoch,
            status="idle",
            online=self._state.online.copy(),
            n_users=0,
            system=None,
            result=None,
            certificate=None,
            profile=None,
            warm_started=False,
            sweeps=0,
            certified=True,
            epsilon=0.0,
            latency_s=perf_counter() - started,
            sla_violations=0,
        )

    def _exhausted_report(
        self,
        index: int,
        epoch: ChurnEpoch,
        started: float,
        error: CapacityExhausted,
    ) -> EpochReport:
        # Degraded hold: surface the typed error, keep the last good
        # profile for the recovery warm start.
        violations = 0
        if self._sla is not None:
            violations = self._sla.record_unserved(self._state.n_users)
        return EpochReport(
            index=index,
            events=epoch,
            status="exhausted",
            online=self._state.online.copy(),
            n_users=self._state.n_users,
            system=None,
            result=None,
            certificate=None,
            profile=self.profile,
            warm_started=False,
            sweeps=0,
            certified=False,
            epsilon=float("inf"),
            latency_s=perf_counter() - started,
            sla_violations=violations,
            error=error,
        )

    def _solve_report(
        self,
        index: int,
        epoch: ChurnEpoch,
        started: float,
        effective: DistributedSystem,
    ) -> EpochReport:
        seed = self._warm_seed(effective)
        init: Initialization | StrategyProfile = (
            seed if seed is not None else self.config.cold_init
        )
        outcome = converge_bounded(
            effective,
            init,
            tolerance=self.config.tolerance,
            sweep_budget=self.config.sweep_budget,
            stop=self.config.stop,
            tracer=self._resolve_tracer(),
        )
        online = self._state.online.copy()
        full = embed_profile(outcome.result.profile.fractions, online)
        self._fractions_full = full
        user_times = (
            outcome.certificate.user_times
            if outcome.certificate is not None
            else outcome.result.user_times
        )
        violations = 0
        if self._sla is not None:
            violations = self._sla.record_epoch(user_times)
        return EpochReport(
            index=index,
            events=epoch,
            status="degraded" if self._state.offline_indices else "ok",
            online=online,
            n_users=self._state.n_users,
            system=effective,
            result=outcome.result,
            certificate=outcome.certificate,
            profile=StrategyProfile(full),
            warm_started=seed is not None,
            sweeps=outcome.sweeps,
            certified=outcome.certified,
            epsilon=outcome.epsilon,
            latency_s=perf_counter() - started,
            sla_violations=violations,
        )

    # ------------------------------------------------------------------
    # Warm starts
    # ------------------------------------------------------------------
    def _warm_seed(self, effective: DistributedSystem) -> StrategyProfile | None:
        """The previous equilibrium on the computers online now, when it
        is a feasible profile of ``effective``; ``None`` cold-starts."""
        if self._fractions_full is None:
            return None
        previous = StrategyProfile(self._fractions_full[:, self._state.online])
        shape = (effective.n_users, effective.n_computers)
        if previous.fractions.shape == shape and previous.is_feasible(effective):
            return previous
        return None

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _resolve_tracer(self) -> Tracer:
        return self._tracer if self._tracer is not None else current_tracer()

    def _trace_epoch(self, tracer: Tracer, report: EpochReport) -> None:
        if not tracer.enabled:
            return
        tracer.emit(
            "engine.epoch",
            index=report.index,
            status=report.status,
            n_events=len(report.events),
            kinds=[event_kind(event) for event in report.events],
            n_online=int(report.online.sum()),
            n_users=report.n_users,
            warm_started=report.warm_started,
            sweeps=report.sweeps,
            certified=report.certified,
            epsilon=report.epsilon,
            latency_s=report.latency_s,
            sla_violations=report.sla_violations,
            error=None if report.error is None else str(report.error),
        )
        tracer.count("engine.epochs")
        if report.status == "degraded":
            tracer.count("engine.degraded_epochs")
        elif report.status == "exhausted":
            tracer.count("engine.exhausted_epochs")
        if report.sla_violations:
            tracer.count("engine.sla_violations", report.sla_violations)
        tracer.registry.histogram(
            "engine.sweeps_per_event", _SWEEP_BOUNDS
        ).observe(float(report.sweeps))
        tracer.observe("engine.reequilibrate_seconds", report.latency_s)
