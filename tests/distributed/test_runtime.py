"""Integration tests: the ring protocol vs the sequential NASH solver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.equilibrium import is_nash_equilibrium
from repro.core.nash import NashSolver, compute_nash_equilibrium
from repro.core.strategy import StrategyProfile
from repro.distributed.chaos import (
    FaultEvent,
    FaultKind,
    FaultSchedule,
    run_nash_protocol_resilient,
)
from repro.distributed.faults import run_nash_protocol_lossy
from repro.distributed.messages import MessageKind
from repro.distributed.runtime import run_nash_protocol
from repro.distributed.sampled import run_sampled_nash_protocol
from repro.workloads.configs import paper_table1_system

#: Ring drivers against the sequential solver they must reproduce:
#: ``(label, protocol(system), NashSolver keyword arguments)``.
_RING_CASES = [
    ("reliable", run_nash_protocol, {"stop": "norm"}),
    (
        "lossy",
        lambda system: run_nash_protocol_lossy(system, drop=0.1, duplicate=0.05),
        {"stop": "norm"},
    ),
] + [
    (
        f"sampled-k{k}-s{seed}",
        lambda system, k=k, seed=seed: run_sampled_nash_protocol(
            system, sample_k=k, seed=seed
        ),
        {"sample_k": k, "seed": seed},
    )
    for k in (1, 3, 16)
    for seed in (0, 7)
]


class TestProtocolEquivalence:
    @pytest.mark.parametrize("init", ["zero", "proportional"])
    def test_matches_sequential_driver(self, table1_small, init):
        sequential = compute_nash_equilibrium(table1_small, init=init)
        protocol = run_nash_protocol(table1_small, init=init)
        assert protocol.result.iterations == sequential.iterations
        assert protocol.result.converged == sequential.converged
        np.testing.assert_allclose(
            protocol.result.profile.fractions,
            sequential.profile.fractions,
            atol=1e-10,
        )
        np.testing.assert_allclose(
            protocol.result.norm_history,
            sequential.norm_history,
            atol=1e-10,
        )

    @pytest.mark.parametrize("n_users", [6, 9, 12])
    @pytest.mark.parametrize("utilization", [0.5, 0.8])
    @pytest.mark.parametrize(
        "protocol, solver_args",
        [case[1:] for case in _RING_CASES],
        ids=[case[0] for case in _RING_CASES],
    )
    def test_ring_matches_sequential_solver(
        self, n_users, utilization, protocol, solver_args
    ):
        system = paper_table1_system(utilization=utilization, n_users=n_users)
        sequential = NashSolver(**solver_args).solve(system)
        outcome = protocol(system)
        assert outcome.result.iterations == sequential.iterations
        np.testing.assert_allclose(
            outcome.result.profile.fractions,
            sequential.profile.fractions,
            atol=1e-10,
            rtol=0.0,
        )

    def test_result_is_equilibrium(self, table1_small):
        protocol = run_nash_protocol(table1_small, tolerance=1e-9)
        assert is_nash_equilibrium(
            table1_small, protocol.result.profile, tol=1e-5
        )

    def test_profile_feasible(self, table1_small):
        protocol = run_nash_protocol(table1_small)
        protocol.result.profile.validate(table1_small)


class TestProtocolMechanics:
    def test_message_complexity(self, table1_small):
        """One token hop per user per sweep, plus m-1 terminate hops."""
        protocol = run_nash_protocol(table1_small)
        m = table1_small.n_users
        sweeps = protocol.result.iterations
        assert protocol.messages_sent == m * sweeps + (m - 1)

    def test_transcript_token_then_terminate(self, table1_small):
        protocol = run_nash_protocol(table1_small)
        kinds = [msg.kind for msg in protocol.transcript]
        first_terminate = kinds.index(MessageKind.TERMINATE)
        assert all(k is MessageKind.TOKEN for k in kinds[:first_terminate])
        assert all(
            k is MessageKind.TERMINATE for k in kinds[first_terminate:]
        )

    def test_token_travels_the_ring(self, table1_small):
        protocol = run_nash_protocol(table1_small)
        m = table1_small.n_users
        hops = [
            (msg.sender, msg.receiver)
            for msg in protocol.transcript
            if msg.kind is MessageKind.TOKEN
        ]
        for sender, receiver in hops:
            assert receiver == (sender + 1) % m

    def test_norm_nonincreasing_tail(self, table1_small):
        protocol = run_nash_protocol(table1_small, tolerance=1e-8)
        norms = protocol.result.norm_history
        # After the initial transient the norm decays monotonically.
        tail = norms[2:]
        assert np.all(np.diff(tail) <= 1e-12)

    def test_sweep_budget(self, table1_small):
        protocol = run_nash_protocol(
            table1_small, tolerance=1e-15, max_sweeps=4
        )
        assert not protocol.result.converged
        assert protocol.result.iterations == 4

    def test_single_user_protocol(self):
        system = paper_table1_system(utilization=0.4, n_users=1)
        protocol = run_nash_protocol(system)
        assert protocol.result.converged
        protocol.result.profile.validate(system)

    def test_two_user_protocol(self):
        system = paper_table1_system(utilization=0.5, n_users=2)
        protocol = run_nash_protocol(system, tolerance=1e-8)
        assert protocol.result.converged
        assert is_nash_equilibrium(
            system, protocol.result.profile, tol=1e-4
        )

    def test_transcript_disabled(self, table1_small):
        protocol = run_nash_protocol(table1_small, record_transcript=False)
        assert protocol.transcript == ()
        assert protocol.messages_sent > 0


class TestMessagesSentAccounting:
    """``messages_sent`` is incremented in the drain loop, not by the
    bus — these tests pin it to actual bus deliveries so the legacy
    field and the telemetry counters cannot drift apart."""

    def test_reliable_run_matches_transcript(self, table1_small):
        protocol = run_nash_protocol(table1_small)
        # On the reliable bus every send is enqueued exactly once and
        # every enqueued message is drained exactly once.
        assert protocol.messages_sent == len(protocol.transcript)
        token = sum(
            1 for m in protocol.transcript if m.kind is MessageKind.TOKEN
        )
        terminate = sum(
            1
            for m in protocol.transcript
            if m.kind is MessageKind.TERMINATE
        )
        assert token + terminate == protocol.messages_sent
        m = table1_small.n_users
        assert token == m * protocol.result.iterations
        assert terminate == m - 1

    def test_crash_fault_run_counts_only_deliveries(self, table1_small):
        # A crash wipes the victim's mailbox: those messages sit in the
        # transcript (they were enqueued) but are never drained, so
        # messages_sent counts strictly the messages agents handled —
        # which is exactly what the telemetry deliver events record.
        from repro.telemetry.sinks import InMemorySink
        from repro.telemetry.trace import Tracer

        schedule = FaultSchedule(
            [
                FaultEvent(6, FaultKind.AGENT_CRASH, 1),
                FaultEvent(16, FaultKind.AGENT_RESTART, 1),
            ]
        )
        sink = InMemorySink()
        outcome = run_nash_protocol_resilient(
            table1_small,
            schedule,
            tolerance=1e-8,
            checkpoint_interval=4,
            tracer=Tracer(sink),
        )
        assert outcome.crashes == 1
        kinds = {m.kind for m in outcome.transcript}
        assert kinds <= {MessageKind.TOKEN, MessageKind.TERMINATE}
        deliveries = [
            e for e in sink.events if e.name == "protocol.deliver"
        ]
        assert outcome.messages_sent == len(deliveries)
        assert outcome.messages_sent <= len(outcome.transcript)


class TestInitialStateSeeding:
    """Regression: the driver used to skip publishing/seeding whenever
    the starting profile was not row-stochastic, and crashed outright on
    a conserving-but-overloaded one — both paths are live and must match
    the sequential solver sweep for sweep."""

    def _assert_parity(self, system, init):
        sequential = compute_nash_equilibrium(system, init=init)
        protocol = run_nash_protocol(system, init=init)
        assert protocol.result.iterations == sequential.iterations
        np.testing.assert_allclose(
            protocol.result.norm_history,
            sequential.norm_history,
            atol=1e-12,
        )
        np.testing.assert_allclose(
            protocol.result.profile.fractions,
            sequential.profile.fractions,
            atol=1e-10,
        )

    def test_partial_profile_start(self, table1_small):
        # Non-conserving start: rows sum below 1. The sequential solver
        # publishes these flows as real starting state; the driver used
        # to silently ignore them.
        partial = StrategyProfile(
            np.full(
                (table1_small.n_users, table1_small.n_computers), 0.01
            )
        )
        self._assert_parity(table1_small, partial)

    def test_overloaded_conserving_start(self, table1_small):
        # A uniform split on the heterogeneous Table-1 system conserves
        # flow but overloads the slow computers: no finite expected
        # times. The driver used to crash here (uncaught ValueError);
        # now it adopts the solver's NASH_0 baseline convention.
        uniform = StrategyProfile.uniform(
            table1_small.n_users, table1_small.n_computers
        )
        with pytest.raises(ValueError):
            table1_small.user_response_times(uniform.fractions)
        self._assert_parity(table1_small, uniform)

    def test_resilient_driver_accepts_hostile_starts(self, table1_small):
        uniform = StrategyProfile.uniform(
            table1_small.n_users, table1_small.n_computers
        )
        outcome = run_nash_protocol_resilient(
            table1_small, init=uniform, tolerance=1e-8
        )
        sequential = compute_nash_equilibrium(
            table1_small, init=uniform, tolerance=1e-8
        )
        assert outcome.result.converged
        np.testing.assert_allclose(
            outcome.result.profile.fractions,
            sequential.profile.fractions,
            atol=1e-10,
        )
