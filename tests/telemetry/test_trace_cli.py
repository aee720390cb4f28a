"""The ``repro-trace`` CLI: rendering, JSON mode, exit codes."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.classes import ClassNashSolver, aggregate_users
from repro.core.model import DistributedSystem
from repro.core.nash import NashSolver
from repro.distributed.runtime import run_nash_protocol
from repro.engine import ComputerFailure, ComputerReopen, OnlineEquilibriumEngine
from repro.experiments.shm import SharedArrayPlane, shm_available
from repro.telemetry.analysis import engine_summary, pool_summary
from repro.telemetry.cli import main
from repro.telemetry.events import TraceEvent
from repro.telemetry.sinks import read_trace
from repro.telemetry.trace import trace_to_file, use_tracer
from repro.workloads.configs import paper_table1_system


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "run.trace.jsonl"
    system = paper_table1_system(utilization=0.6, n_users=4)
    with trace_to_file(path) as tracer, use_tracer(tracer):
        outcome = run_nash_protocol(system, tolerance=1e-8)
    return path, outcome


@pytest.fixture(scope="module")
def engine_traced_run(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "engine.trace.jsonl"
    system = paper_table1_system(utilization=0.6, n_users=4)
    with trace_to_file(path) as tracer:
        engine = OnlineEquilibriumEngine(system, tracer=tracer)
        run = engine.run(
            [(ComputerFailure(15),), (), (ComputerReopen(15),)]
        )
    return path, run


class TestSummary:
    def test_text_output(self, traced_run, capsys):
        path, outcome = traced_run
        assert main(["summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "protocol.deliver" in out
        assert f"{outcome.messages_sent} messages" in out

    def test_json_output(self, traced_run, capsys):
        path, _ = traced_run
        assert main(["summary", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_events"] > 0
        assert "protocol.sweep" in payload["event_counts"]
        assert payload["metrics"] is not None


class TestConvergence:
    def test_norms_match_run(self, traced_run, capsys):
        path, outcome = traced_run
        assert main(["convergence", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["iterations"] == outcome.result.iterations
        assert payload["norm_history"] == list(outcome.result.norm_history)
        assert payload["final_norm"] == outcome.result.norm_history[-1]

    def test_text_lists_each_iteration(self, traced_run, capsys):
        path, outcome = traced_run
        assert main(["convergence", str(path)]) == 0
        out = capsys.readouterr().out
        # Header plus one line per iteration.
        assert len(out.strip().splitlines()) == outcome.result.iterations + 1

    @pytest.mark.parametrize(
        ("case", "stopped_by"),
        [("certificate", "newton"), ("norm", "norm"), ("sampled", "observed")],
    )
    def test_reports_why_the_solve_stopped(
        self, tmp_path, capsys, case, stopped_by
    ):
        path = tmp_path / "solver.trace.jsonl"
        with trace_to_file(path) as tracer:
            if case == "sampled":
                # Four 790-member classes stop on their observed regret.
                rng = np.random.default_rng(1)
                mu = rng.uniform(50.0, 150.0, size=45)
                phi = rng.uniform(0.5, 2.0, size=4)[np.arange(3162) % 4]
                phi *= 0.575 * mu.sum() / phi.sum()
                system = DistributedSystem(service_rates=mu, arrival_rates=phi)
                result = ClassNashSolver(sample_k=5).solve(
                    aggregate_users(system), tracer=tracer
                )
            else:
                system = paper_table1_system(utilization=0.6, n_users=4)
                result = NashSolver(stop=case).solve(system, tracer=tracer)
        assert main(["convergence", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stopped_by"] == stopped_by
        assert payload["iterations"] == result.iterations
        assert main(["convergence", str(path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1] == f"stopped by: {stopped_by}"
        assert len(lines) == result.iterations + 2


class TestProtocol:
    def test_accounting(self, traced_run, capsys):
        path, outcome = traced_run
        assert main(["protocol", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (
            sum(payload["messages_by_kind"].values())
            == outcome.messages_sent
        )
        assert payload["outcome"]["driver"] == "reliable"


class TestEngineView:
    def test_text_output(self, engine_traced_run, capsys):
        path, run = engine_traced_run
        assert main(["engine", str(path)]) == 0
        out = capsys.readouterr().out
        assert "epochs: 4" in out
        # The empty epoch while computer 15 is down is still degraded.
        assert "degraded-mode windows: [1..2]" in out
        assert "all certified" in out
        assert "per-epoch histogram:" in out

    def test_json_output_matches_run(self, engine_traced_run, capsys):
        path, run = engine_traced_run
        assert main(["engine", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_epochs"] == run.n_epochs == 4
        assert payload["status_counts"] == {"degraded": 2, "ok": 2}
        assert payload["all_certified"] is True
        assert payload["warm_started"] == run.warm_epochs
        assert payload["total_sweeps"] == run.total_sweeps

    def test_polish_outcomes_per_epoch(self, engine_traced_run, capsys):
        path, run = engine_traced_run
        assert main(["engine", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # An epoch whose sweep iterate already certifies, or already meets
        # the norm rule (a warm start at the equilibrium), skips the polish.
        stopped_by = [
            event.fields["stopped_by"]
            for event in read_trace(path)
            if event.name == "solver.done"
        ]
        assert len(stopped_by) == run.n_epochs
        assert (
            payload["polished_epochs"]
            + stopped_by.count("certificate")
            + stopped_by.count("norm")
            == run.n_epochs
        )
        assert payload["polished_epochs"] == stopped_by.count("newton") > 0
        assert sum(payload["polish_outcomes"].values()) >= payload["polished_epochs"]
        assert main(["engine", str(path)]) == 0
        assert "Newton polish: certified=" in capsys.readouterr().out

    def test_engine_appears_in_summary(self, engine_traced_run, capsys):
        path, _ = engine_traced_run
        assert main(["summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "engine: 4 epochs (2 degraded-mode)" in out

    def test_trace_without_engine_data_exits_one(self, traced_run, capsys):
        path, _ = traced_run
        assert main(["engine", str(path)]) == 1
        assert "no engine data" in capsys.readouterr().err


class TestEngineSummaryRollup:
    @staticmethod
    def epoch(seq, **fields):
        return TraceEvent(seq, "engine.epoch", fields)

    def test_windows_and_sla_rollup(self):
        events = [
            self.epoch(0, index=0, status="ok", sweeps=20, certified=True),
            self.epoch(
                1, index=1, status="degraded", sweeps=8, certified=True,
                warm_started=True, sla_violations=2,
            ),
            self.epoch(
                2, index=2, status="exhausted", sweeps=0, certified=False,
                sla_violations=4, error="CapacityExhausted: offered 459",
            ),
            self.epoch(
                3, index=3, status="degraded", sweeps=4, certified=True,
                warm_started=True,
            ),
            self.epoch(4, index=4, status="ok", sweeps=2, certified=True),
        ]
        summary = engine_summary(events)
        assert summary["n_epochs"] == 5
        assert summary["degraded_windows"] == [[1, 3]]
        assert summary["degraded_mode_epochs"] == 3
        assert summary["sla_violations"] == 6
        assert summary["sla_violation_epochs"] == 2
        # Exhausted epochs are not solvable: certification unaffected.
        assert summary["solvable_epochs"] == 4
        assert summary["all_certified"] is True
        assert summary["warm_started"] == 2
        assert summary["errors"] == ["CapacityExhausted: offered 459"]

    def test_sweeps_histogram_buckets_are_powers_of_two(self):
        events = [
            self.epoch(i, index=i, status="ok", sweeps=s, certified=True)
            for i, s in enumerate((0, 1, 3, 9, 300))
        ]
        summary = engine_summary(events)
        assert summary["sweeps_histogram"] == {
            "0": 1, "1": 1, "3-4": 1, "9-16": 1, ">256": 1,
        }
        assert summary["total_sweeps"] == 313

    def test_polish_fallback_rate_counts_epochs_that_kept_sweeping(self):
        def polish(seq, outcome):
            return TraceEvent(
                seq, "solver.polish",
                {"steps": 3, "adds": 0, "drops": 0, "outcome": outcome,
                 "epsilon": 0.0},
            )

        events = [
            polish(0, "certified"),
            self.epoch(1, index=0, status="ok", sweeps=1, certified=True),
            polish(2, "fallback"),
            polish(3, "certified"),
            self.epoch(4, index=1, status="ok", sweeps=17, certified=True),
            polish(5, "failed"),
            polish(6, "certified"),
            self.epoch(7, index=2, status="ok", sweeps=17, certified=True),
            self.epoch(8, index=3, status="idle", sweeps=0),
            polish(9, "certified"),
            self.epoch(10, index=4, status="ok", sweeps=1, certified=True),
        ]
        summary = engine_summary(events)
        assert summary["polish_outcomes"] == {
            "certified": 4, "failed": 1, "fallback": 1,
        }
        assert summary["polished_epochs"] == 4
        assert summary["polish_fallback_epochs"] == 2
        assert summary["polish_fallback_rate"] == 0.5

    def test_uncertified_solvable_epoch_flips_all_certified(self):
        events = [
            self.epoch(0, index=0, status="ok", sweeps=5, certified=False),
        ]
        assert engine_summary(events)["all_certified"] is False

    def test_empty_trace(self):
        summary = engine_summary([])
        assert summary["n_epochs"] == 0
        assert summary["polish_fallback_rate"] == 0.0
        assert summary["degraded_windows"] == []
        assert summary["all_certified"] is True


class TestShmPlaneRollup:
    @staticmethod
    def _events():
        return [
            TraceEvent(
                0,
                "pool.shm.publish",
                {"block": "a", "nbytes": 4096, "shape": [32, 16], "dtype": "<f8"},
            ),
            TraceEvent(
                1,
                "pool.shm.publish",
                {"block": "b", "nbytes": 1024, "shape": [128], "dtype": "<f8"},
            ),
            TraceEvent(
                2,
                "pool.shm.close",
                {
                    "blocks": 2,
                    "bytes_shared": 5120,
                    "bytes_saved": 20480,
                    "cache_hits": 5,
                    "fallbacks": 1,
                },
            ),
        ]

    def test_pool_summary_rollup(self):
        summary = pool_summary(self._events())
        assert summary["n_blocks"] == 2
        assert summary["bytes_published"] == 5120
        assert summary["n_planes"] == 1
        assert summary["bytes_shared"] == 5120
        assert summary["bytes_saved"] == 20480
        assert summary["cache_hits"] == 5
        assert summary["fallbacks"] == 1

    def test_empty_trace(self):
        summary = pool_summary([])
        assert summary["n_blocks"] == 0
        assert summary["n_planes"] == 0

    @pytest.mark.skipif(not shm_available(), reason="no shared memory")
    def test_plane_appears_in_summary(self, tmp_path, capsys):
        path = tmp_path / "plane.trace.jsonl"
        with trace_to_file(path) as tracer:
            with SharedArrayPlane(min_bytes=0, tracer=tracer) as plane:
                plane.publish(np.arange(64, dtype=np.float64))
                plane.publish(np.arange(64, dtype=np.float64))  # dedupe hit
        assert main(["summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "shm-plane: 1 planes, 1 blocks" in out
        assert "1 dedupe hits" in out


class TestExitCodes:
    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["summary", str(tmp_path / "nope.jsonl")]) == 2
        assert "repro-trace:" in capsys.readouterr().err

    def test_corrupt_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        assert main(["summary", str(path)]) == 2

    def test_empty_view_exits_one(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["convergence", str(path)]) == 1
        assert "no convergence data" in capsys.readouterr().err

    def test_solver_only_trace_has_no_protocol_data(
        self, tmp_path, capsys
    ):
        from repro.core.nash import compute_nash_equilibrium

        path = tmp_path / "solver.trace.jsonl"
        system = paper_table1_system(utilization=0.6, n_users=4)
        with trace_to_file(path) as tracer, use_tracer(tracer):
            compute_nash_equilibrium(system, tolerance=1e-8)
        assert main(["protocol", str(path)]) == 1
        assert main(["convergence", str(path)]) == 0  # solver.sweep works

    def test_module_entry_point(self, traced_run):
        import subprocess
        import sys

        path, _ = traced_run
        proc = subprocess.run(
            [sys.executable, "-m", "repro.telemetry", "summary", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "events:" in proc.stdout
