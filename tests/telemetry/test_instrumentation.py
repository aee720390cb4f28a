"""Instrumentation of the solver, the protocol drivers and the simulator.

The acceptance property pinned here: a traced run's JSONL file ALONE
reconstructs the exact ``NashResult.norm_history`` (bit-for-bit float
equality) and per-kind message counts summing to
``ProtocolOutcome.messages_sent``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.classes import ClassAggregation, ClassNashSolver, aggregate_users
from repro.core.comm_delay import DelayedGame, DelayedNashSolver
from repro.core.nash import NashSolver, compute_nash_equilibrium
from repro.distributed.chaos import (
    FaultEvent,
    FaultKind,
    FaultSchedule,
    run_nash_protocol_resilient,
)
from repro.distributed.faults import run_nash_protocol_lossy
from repro.distributed.runtime import run_nash_protocol
from repro.simengine.outages import ServerOutage
from repro.simengine.simulator import simulate_profile
from repro.experiments.common import run_schemes_sweep
from repro.schemes import NashScheme
from repro.telemetry.analysis import (
    event_counts,
    protocol_summary,
    reconstruct_norm_history,
    sim_summary,
    solver_summary,
    sweep_summary,
)
from repro.telemetry.sinks import InMemorySink, read_trace
from repro.telemetry.trace import Tracer, trace_to_file, use_tracer
from repro.workloads.configs import paper_table1_system


@pytest.fixture(scope="module")
def system():
    return paper_table1_system(utilization=0.6, n_users=4)


class TestSolverInstrumentation:
    def test_sweep_events_mirror_norm_history(self, system):
        sink = InMemorySink()
        tracer = Tracer(sink)
        result = NashSolver(tolerance=1e-8).solve(system, tracer=tracer)
        sweeps = [e for e in sink.events if e.name == "solver.sweep"]
        assert len(sweeps) == result.iterations
        assert [e.fields["index"] for e in sweeps] == list(
            range(result.iterations)
        )
        # Bit-for-bit: the event carries the very float the result holds.
        assert [e.fields["norm"] for e in sweeps] == list(
            result.norm_history
        )
        for event in sweeps:
            regrets = np.asarray(event.fields["regrets"])
            assert regrets.shape == (system.n_users,)
            assert float(regrets.sum()) == pytest.approx(
                event.fields["norm"]
            )
            assert event.fields["elapsed_s"] >= 0.0

    def test_start_done_bracketing(self, system):
        sink = InMemorySink()
        result = NashSolver(tolerance=1e-8).solve(
            system, tracer=Tracer(sink)
        )
        assert sink.events[0].name == "solver.start"
        assert sink.events[0].fields["users"] == system.n_users
        done = sink.events[-1]
        assert done.name == "solver.done"
        assert done.fields["converged"] is result.converged
        assert done.fields["iterations"] == result.iterations

    def test_counters_and_timing_histogram(self, system):
        tracer = Tracer(InMemorySink())
        result = NashSolver(tolerance=1e-8).solve(system, tracer=tracer)
        snapshot = tracer.registry.snapshot()
        assert snapshot["counters"]["solver.sweeps"] == result.iterations
        assert (
            snapshot["counters"]["solver.best_replies"]
            == result.iterations * system.n_users
        )
        assert (
            snapshot["histograms"]["solver.sweep_seconds"]["count"]
            == result.iterations
        )

    def test_ambient_tracer_is_picked_up(self, system):
        sink = InMemorySink()
        with use_tracer(Tracer(sink)):
            compute_nash_equilibrium(system, tolerance=1e-8)
        assert any(e.name == "solver.sweep" for e in sink.events)

    def test_solver_summary_view(self, system):
        sink = InMemorySink()
        result = NashSolver(tolerance=1e-8).solve(
            system, tracer=Tracer(sink)
        )
        summary = solver_summary(sink.events)
        assert summary["norm_history"] == list(result.norm_history)
        assert summary["outcome"]["converged"] is result.converged
        assert summary["total_elapsed_s"] >= 0.0


#: The fields a per-user solve's events have always carried; the class
#: fields of ``solver.start`` come on top.
PER_USER_FIELDS = {
    "solver.start": {"order", "users", "computers", "tolerance", "max_sweeps"},
    "solver.sweep": {"index", "sweep", "norm", "elapsed_s", "regrets"},
    "solver.polish": {"steps", "adds", "drops", "outcome", "epsilon"},
    "solver.sample": {
        "k", "computers", "sweeps", "polls", "sampled_norm", "epsilon",
        "sampled_epsilon",
    },
    "solver.done": {"converged", "iterations", "final_norm", "stopped_by"},
}


class TestSolverTraceParity:
    """Per-user, class-space and delayed solves share one trace vocabulary."""

    @pytest.mark.parametrize(
        ("config", "tail"),
        [
            ({}, ["solver.polish"]),
            ({"sample_k": 3}, ["solver.sample"]),
            ({"stop": "norm"}, []),
        ],
        ids=["newton", "sampled", "norm"],
    )
    def test_per_user_trace_keeps_its_events_order_and_fields(
        self, system, config, tail
    ):
        sink = InMemorySink()
        result = NashSolver(**config).solve(system, tracer=Tracer(sink))
        names = [event.name for event in sink.events]
        assert names == (
            ["solver.start"]
            + ["solver.sweep"] * result.iterations
            + tail
            + ["solver.done"]
        )
        for event in sink.events:
            assert PER_USER_FIELDS[event.name] <= set(event.fields)
        start = sink.events[0].fields
        assert (start["users"], start["computers"]) == (
            system.n_users, system.n_computers
        )
        assert (start["classes"], start["compression"]) == (system.n_users, 1.0)
        assert start["grouping_tol"] == 0.0

    @pytest.mark.parametrize("stop", ["certificate", "norm"])
    def test_singleton_class_solve_emits_the_per_user_sweeps(self, system, stop):
        def sweeps(solve):
            sink = InMemorySink()
            solve(Tracer(sink))
            return [
                (event.fields["norm"], list(event.fields["regrets"]))
                for event in sink.events
                if event.name == "solver.sweep"
            ]

        per_user = sweeps(
            lambda tracer: NashSolver(tolerance=1e-8, stop=stop).solve(
                system, tracer=tracer
            )
        )
        singletons = sweeps(
            lambda tracer: ClassNashSolver(tolerance=1e-8, stop=stop).solve(
                ClassAggregation.of_users(system), tracer=tracer
            )
        )
        assert per_user and singletons == per_user

    def test_class_solve_counts_one_reply_per_class(self):
        tracer = Tracer(InMemorySink())
        aggregation = aggregate_users(paper_table1_system(n_users=10))
        result = ClassNashSolver(stop="norm").solve(aggregation, tracer=tracer)
        counters = tracer.registry.snapshot()["counters"]
        assert counters["solver.sweeps"] == result.iterations
        assert counters["solver.best_replies"] == result.iterations  # c = 1

    def test_delayed_solve_is_traced(self, system):
        distance = system.service_rates / system.service_rates.min() - 1.0
        game = DelayedGame(system, 0.05 * distance)
        sink = InMemorySink()
        with use_tracer(Tracer(sink)):
            result = DelayedNashSolver(tolerance=1e-8).solve(game)
        sweeps = [e for e in sink.events if e.name == "solver.sweep"]
        assert len(sweeps) == result.iterations > 1
        (done,) = [e for e in sink.events if e.name == "solver.done"]
        assert done.fields["iterations"] == result.iterations
        assert done.fields["converged"] is result.converged
        assert done.fields["stopped_by"] == "norm"


class TestProtocolTraceReconstruction:
    """The ISSUE acceptance criterion, on all three drivers."""

    def _assert_trace_reconstructs(self, path, outcome):
        events = read_trace(path)  # the JSONL file is the only input
        norms = reconstruct_norm_history(events)
        assert norms == list(outcome.result.norm_history)  # exact floats
        summary = protocol_summary(events)
        assert (
            sum(summary["messages_by_kind"].values())
            == outcome.messages_sent
        )
        return events, summary

    def test_reliable_driver(self, system, tmp_path):
        path = tmp_path / "reliable.trace.jsonl"
        with trace_to_file(path) as tracer, use_tracer(tracer):
            outcome = run_nash_protocol(system, tolerance=1e-8)
        events, summary = self._assert_trace_reconstructs(path, outcome)
        m = system.n_users
        sweeps = outcome.result.iterations
        assert summary["messages_by_kind"] == {
            "token": m * sweeps,
            "terminate": m - 1,
        }
        assert summary["token_hops"] == m * sweeps
        assert summary["retransmissions"] == 0
        assert summary["outcome"]["driver"] == "reliable"
        assert summary["outcome"]["messages_sent"] == outcome.messages_sent

    def test_lossy_driver(self, system, tmp_path):
        path = tmp_path / "lossy.trace.jsonl"
        with trace_to_file(path) as tracer, use_tracer(tracer):
            outcome = run_nash_protocol_lossy(
                system,
                drop=0.15,
                duplicate=0.05,
                fault_seed=7,
                tolerance=1e-8,
            )
        events, summary = self._assert_trace_reconstructs(path, outcome)
        assert outcome.retransmissions > 0  # faults actually exercised
        assert summary["retransmissions"] == outcome.retransmissions
        assert summary["outcome"]["driver"] == "lossy"
        assert summary["outcome"]["dropped"] > 0

    def test_resilient_driver_with_initiator_rollback(
        self, system, tmp_path
    ):
        # Crash rank 0 *after* it has recorded norms beyond its last
        # checkpoint: the restore rolls norm_history back to the
        # checkpointed prefix and re-executed sweeps overwrite — the
        # trace must replay exactly that.
        schedule = FaultSchedule(
            [
                FaultEvent(10, FaultKind.AGENT_CRASH, 0),
                FaultEvent(20, FaultKind.AGENT_RESTART, 0),
            ]
        )
        path = tmp_path / "resilient.trace.jsonl"
        with trace_to_file(path) as tracer, use_tracer(tracer):
            outcome = run_nash_protocol_resilient(
                system,
                schedule,
                tolerance=1e-8,
                checkpoint_interval=4,
            )
        assert outcome.crashes == 1 and outcome.restarts == 1
        events, summary = self._assert_trace_reconstructs(path, outcome)
        restores = [e for e in events if e.name == "protocol.restore"]
        assert [e.fields["rank"] for e in restores] == [0]
        assert summary["checkpoint_restores"] == outcome.checkpoint_restores
        assert summary["checkpoint_captures"] == outcome.checkpoint_captures
        assert summary["suspicions"] == outcome.suspicions
        assert summary["outcome"]["driver"] == "resilient"

    def test_resilient_driver_chaos_mix(self, system, tmp_path):
        schedule = FaultSchedule(
            [
                FaultEvent(10, FaultKind.AGENT_CRASH, 2),
                FaultEvent(14, FaultKind.COMPUTER_DOWN, 4),
                FaultEvent(26, FaultKind.AGENT_RESTART, 2),
            ]
        )
        path = tmp_path / "chaos.trace.jsonl"
        with trace_to_file(path) as tracer, use_tracer(tracer):
            outcome = run_nash_protocol_resilient(
                system,
                schedule,
                drop=0.15,
                duplicate=0.05,
                fault_seed=2,
                tolerance=1e-8,
            )
        events, summary = self._assert_trace_reconstructs(path, outcome)
        faults = summary["faults"]
        assert [f["kind"] for f in faults] == [
            "agent_crash", "computer_down", "agent_restart"
        ]
        assert summary["retransmissions"] == outcome.retransmissions
        assert summary["suspicions"] == outcome.suspicions
        assert summary["outcome"]["degraded"] is True


class TestSimInstrumentation:
    def test_run_summary_event(self, two_by_two):
        sink = InMemorySink()
        profile = compute_nash_equilibrium(two_by_two).profile
        with use_tracer(Tracer(sink)):
            result = simulate_profile(
                two_by_two, profile, horizon=200.0, warmup=50.0, seed=3
            )
        summary = sim_summary(sink.events)
        assert len(summary["runs"]) == 1
        run = summary["runs"][0]
        assert run["completions"] == result.total_jobs
        assert run["warmup_discards"] > 0
        assert run["arrivals"] >= run["completions"]
        assert summary["outage_windows"] == []

    def test_outage_events_match_downtime(self, two_by_two):
        sink = InMemorySink()
        profile = compute_nash_equilibrium(two_by_two).profile
        outages = (ServerOutage(computer=1, start=60.0, end=90.0),)
        with use_tracer(Tracer(sink)):
            result = simulate_profile(
                two_by_two,
                profile,
                horizon=200.0,
                warmup=50.0,
                seed=3,
                outages=outages,
            )
        windows = sim_summary(sink.events)["outage_windows"]
        assert len(windows) == 1
        assert windows[0]["computer"] == 1
        assert windows[0]["counted_downtime"] == pytest.approx(
            float(result.computer_downtime[1])
        )

    def test_counters(self, two_by_two):
        tracer = Tracer(InMemorySink())
        profile = compute_nash_equilibrium(two_by_two).profile
        with use_tracer(tracer):
            result = simulate_profile(
                two_by_two, profile, horizon=100.0, seed=3
            )
        counters = tracer.registry.snapshot()["counters"]
        assert counters["sim.runs"] == 1
        assert counters["sim.completions"] == result.total_jobs


class TestSweepInstrumentation:
    def _points(self):
        return [
            (rho, paper_table1_system(utilization=rho, n_users=4))
            for rho in (0.2, 0.4, 0.6)
        ]

    def test_sweep_point_events_and_rollup(self):
        sink = InMemorySink()
        tracer = Tracer(sink)
        with use_tracer(tracer):
            sweep = run_schemes_sweep(self._points(), (NashScheme(),))
        events = [e for e in sink.events if e.name == "sweep.point"]
        assert len(events) == 3
        assert [e.fields["parameter"] for e in events] == [0.2, 0.4, 0.6]
        for event, (_, results) in zip(events, sweep):
            assert event.fields["scheme"] == "NASH"
            assert event.fields["iterations"] == int(
                results["NASH"].extra["iterations"]
            )
            assert event.fields["warm_started"] is False
            assert event.fields["continuation"] is False
        summary = sweep_summary(sink.events)
        assert summary["n_points"] == 3
        assert summary["by_scheme"]["NASH"]["points"] == 3
        assert summary["continuation"] is False
        assert tracer.registry.snapshot()["counters"]["sweep.points"] == 3

    def test_continuation_marks_warm_points(self):
        sink = InMemorySink()
        with use_tracer(Tracer(sink)):
            run_schemes_sweep(
                self._points(), (NashScheme(),), continuation=True
            )
        summary = sweep_summary(sink.events)
        assert summary["continuation"] is True
        # Only the axis-first point cold-starts.
        assert summary["by_scheme"]["NASH"]["warm_started"] == 2


class TestZeroCostWhenDisabled:
    def test_untraced_runs_emit_nothing(self, system):
        # No ambient tracer installed: the DISABLED singleton absorbs
        # every call without touching its registry or sink.
        before = len(event_counts([]))  # trivial; guards import cost only
        result = compute_nash_equilibrium(system, tolerance=1e-8)
        outcome = run_nash_protocol(system, tolerance=1e-8)
        assert result.converged and outcome.result.converged
        from repro.telemetry.trace import DISABLED

        assert DISABLED.events_emitted == 0
        assert len(DISABLED.registry) == 0
        assert before == 0
