"""The online engine loop: epochs, statuses, SLA accounting, telemetry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.degradation import CapacityExhausted
from repro.core.equilibrium import best_response_regrets
from repro.core.nash import NashSolver
from repro.engine.events import (
    ComputerFailure,
    ComputerReopen,
    PhiDrift,
    SetUtilization,
    UserArrival,
    UserDeparture,
)
from repro.engine.service import EngineConfig, OnlineEquilibriumEngine
from repro.engine.sla import SLAPolicy
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.sinks import InMemorySink
from repro.telemetry.trace import Tracer
from repro.workloads import day_in_production_trace, paper_table1_system

TOL = 1e-6


def make_engine(**config_kwargs) -> OnlineEquilibriumEngine:
    system = paper_table1_system(utilization=0.6, n_users=8)
    return OnlineEquilibriumEngine(system, config=EngineConfig(**config_kwargs))


class TestBootstrap:
    def test_bootstrap_is_a_certified_cold_solve(self):
        engine = make_engine()
        report = engine.bootstrap
        assert report.index == 0
        assert report.status == "ok"
        assert not report.warm_started
        assert report.certified
        assert report.epsilon <= TOL

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            EngineConfig(sweep_budget=0)
        with pytest.raises(ValueError):
            EngineConfig(stop="sweeps")  # type: ignore[arg-type]


class TestEngineCoreLoop:
    def test_epoch_reports_accumulate(self):
        engine = make_engine()
        engine.process_epoch(PhiDrift(factor=1.1))
        engine.process_epoch(SetUtilization(0.7))
        assert engine.epoch == 3
        assert [r.index for r in engine.reports] == [0, 1, 2]

    def test_run_returns_full_rollup(self):
        engine = make_engine()
        run = engine.run([PhiDrift(factor=1.05), (SetUtilization(0.5),)])
        assert run.n_epochs == 3
        assert run.all_certified
        assert run.statuses == ("ok", "ok", "ok")

    def test_profile_is_nominal_width(self):
        engine = make_engine()
        engine.process_epoch(ComputerFailure(15))
        profile = engine.profile
        assert profile is not None
        assert profile.n_computers == 16
        assert profile.fractions[:, 15] == pytest.approx(0.0)


class TestAdversarialChurn:
    """The robustness scenarios the engine exists for.

    Every solvable epoch must carry the same ``best_response_regrets``
    certificate epsilon a cold solve would: re-certified below against
    a from-scratch solve on the same effective system.
    """

    def assert_epoch_matches_cold_solve(self, report):
        assert report.certified
        assert report.epsilon <= TOL
        # Independent re-certification on the epoch's effective system.
        assert report.system is not None and report.result is not None
        cert = best_response_regrets(report.system, report.result.profile)
        assert cert.epsilon <= TOL

    def test_failure_mid_epoch_degrades_and_recertifies(self):
        engine = make_engine()
        report = engine.process_epoch(ComputerFailure(15))
        assert report.status == "degraded"
        assert report.warm_started
        assert report.system is not None
        assert report.system.n_computers == 15
        self.assert_epoch_matches_cold_solve(report)

    def test_reopen_recovers_to_full_fleet(self):
        engine = make_engine()
        engine.process_epoch(ComputerFailure(15))
        report = engine.process_epoch(ComputerReopen(15))
        assert report.status == "ok"
        assert report.warm_started
        assert report.system is not None
        assert report.system.n_computers == 16
        self.assert_epoch_matches_cold_solve(report)

    def test_simultaneous_failure_and_flash_crowd(self):
        engine = make_engine()
        report = engine.process_epoch(
            (ComputerFailure(15), UserArrival((8.0, 6.0, 4.0)))
        )
        assert report.status == "degraded"
        assert report.n_users == 11
        self.assert_epoch_matches_cold_solve(report)

    def test_all_down_window_holds_and_surfaces_typed_error(self):
        engine = make_engine()
        held = engine.profile
        report = engine.process_epoch(
            tuple(ComputerFailure(i) for i in range(16))
        )
        assert report.status == "exhausted"
        assert isinstance(report.error, CapacityExhausted)
        assert not report.certified
        # Degraded hold: the last good profile is retained, not dropped.
        assert engine.profile is not None
        assert np.array_equal(engine.profile.fractions, held.fractions)

    def test_recovery_after_all_down_warm_starts_from_held_profile(self):
        engine = make_engine()
        engine.process_epoch(tuple(ComputerFailure(i) for i in range(16)))
        report = engine.process_epoch(
            tuple(ComputerReopen(i) for i in range(16))
        )
        assert report.status == "ok"
        assert report.warm_started
        self.assert_epoch_matches_cold_solve(report)

    def test_partial_capacity_exhaustion_is_degraded_hold(self):
        engine = make_engine()
        # 0.6 * 510 = 306 offered; fail both fast computers (capacity
        # drops to 310... fail one more to go under).
        report = engine.process_epoch(
            (ComputerFailure(0), ComputerFailure(1), ComputerFailure(2))
        )
        assert report.status == "exhausted"
        assert isinstance(report.error, CapacityExhausted)
        recovery = engine.process_epoch(ComputerReopen(0))
        assert recovery.status == "degraded"
        self.assert_epoch_matches_cold_solve(recovery)

    def test_zero_user_epoch_idles_without_crashing(self):
        engine = make_engine()
        report = engine.process_epoch(UserDeparture(count=8))
        assert report.status == "idle"
        assert report.result is None
        assert engine.profile is None
        back = engine.process_epoch(UserArrival((10.0, 5.0)))
        assert back.status == "ok"
        assert not back.warm_started  # idle dropped the profile
        self.assert_epoch_matches_cold_solve(back)

    def test_pathological_trace_never_raises(self):
        engine = make_engine()
        trace = [
            tuple(ComputerFailure(i) for i in range(16)),
            (PhiDrift(factor=1.2),),
            (UserArrival((3.0,)),),
            tuple(ComputerReopen(i) for i in range(16)),
            (UserDeparture(count=9),),
            (UserArrival((7.0, 2.0)),),
        ]
        run = engine.run(trace)
        assert run.exhausted_epochs == 3
        assert run.idle_epochs == 1
        assert run.all_certified  # solvable epochs only


class TestOneWarmStartRule:
    """An epoch warm-starts exactly when the previous equilibrium,
    restricted to the computers online now, is a feasible profile of the
    epoch's game; either way it certifies after one sweep."""

    @pytest.mark.parametrize(
        ("setup", "events", "warm"),
        [
            pytest.param((), (PhiDrift(factor=1.05),), True, id="phi-drift"),
            # Computer 0 is the fastest and carries flow: its loss leaves
            # rows that no longer sum to one.
            pytest.param((), (ComputerFailure(0),), False, id="failure"),
            # Computer 15 is the slowest and idle at 60% utilization.
            pytest.param((), (ComputerFailure(15),), True, id="idle-failure"),
            pytest.param(
                ((ComputerFailure(0),),), (ComputerReopen(0),), True, id="reopen"
            ),
            pytest.param((), (UserArrival((5.0,)),), False, id="arrival"),
            pytest.param((), (UserDeparture(count=1),), False, id="departure"),
            pytest.param(
                ((UserDeparture(count=8),),),
                (UserArrival((10.0, 5.0)),),
                False,
                id="after-idle",
            ),
        ],
    )
    def test_warm_exactly_when_feasible(self, setup, events, warm):
        engine = make_engine()
        for epoch in setup:
            engine.process_epoch(epoch)
        report = engine.process_epoch(events)
        assert report.warm_started is warm
        assert report.sweeps == 1
        assert report.certified and report.epsilon <= TOL


class TestCertificateParityWithColdSolves:
    def test_every_epoch_epsilon_matches_cold_solve_target(self):
        """Engine epochs, warm or cold, certify at the epsilon an
        independent cold solve of the same effective system reaches —
        incremental re-equilibration trades no accuracy."""
        system = paper_table1_system(utilization=0.5, n_users=8)
        trace = day_in_production_trace(24, seed=11)
        run = OnlineEquilibriumEngine(system).run(trace)
        assert run.all_certified
        assert run.solved_epochs > 0
        for report in run.reports:
            if report.status not in ("ok", "degraded"):
                continue
            assert report.system is not None and report.result is not None
            cold = NashSolver().solve(report.system, "proportional")
            assert cold.converged
            cert = best_response_regrets(report.system, cold.profile)
            assert report.epsilon <= TOL and cert.epsilon <= TOL
            # Same (unique) equilibrium either way — an epsilon-certificate
            # bounds regret, not profile distance, so compare loosely.
            assert report.result.user_times == pytest.approx(
                cold.user_times, rel=1e-2
            )


class TestSLAAccounting:
    def test_violations_counted_against_target(self):
        engine = make_engine(sla=SLAPolicy(target_response_time=1e-4))
        run = engine.run([(PhiDrift(factor=1.01),)])
        assert run.sla is not None
        # Impossible target: every user violates every epoch.
        assert run.sla.violations == 2 * 8
        assert run.total_sla_violations == run.sla.violations

    def test_exhausted_epoch_counts_all_users_unserved(self):
        engine = make_engine(sla=SLAPolicy(target_response_time=10.0))
        engine.process_epoch(tuple(ComputerFailure(i) for i in range(16)))
        report = engine.sla_report()
        assert report is not None
        assert report.unserved_epochs == 1
        assert report.violations == 8

    def test_no_policy_no_report(self):
        engine = make_engine()
        assert engine.sla_report() is None
        assert engine.run([]).sla is None


class TestEngineTelemetry:
    def test_epoch_events_and_counters_emitted(self):
        sink = InMemorySink()
        tracer = Tracer(sink, registry=MetricsRegistry())
        system = paper_table1_system(utilization=0.6, n_users=4)
        engine = OnlineEquilibriumEngine(
            system,
            config=EngineConfig(sla=SLAPolicy(target_response_time=1.0)),
            tracer=tracer,
        )
        engine.process_epoch(ComputerFailure(15))
        engine.process_epoch(ComputerReopen(15))
        names = [event.name for event in sink.events]
        assert names.count("engine.epoch") == 3
        assert "engine.start" in names
        assert "engine.event" in names
        epochs = [e for e in sink.events if e.name == "engine.epoch"]
        assert [e.fields["status"] for e in epochs] == [
            "ok",
            "degraded",
            "ok",
        ]
        snapshot = tracer.registry.snapshot()
        assert snapshot["counters"]["engine.epochs"] == 3
        assert snapshot["counters"]["engine.degraded_epochs"] == 1

    def test_bounded_effort_per_event(self):
        engine = make_engine(sweep_budget=5)
        report = engine.process_epoch(SetUtilization(0.85))
        assert report.sweeps <= 5
