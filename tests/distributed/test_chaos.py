"""Crash-fault tolerance tests: detection, recovery, degradation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.degradation import CapacityExhausted, degraded_equilibrium
from repro.core.nash import compute_nash_equilibrium
from repro.distributed.chaos import (
    CrashyMessageBus,
    FaultEvent,
    FaultKind,
    FaultSchedule,
    run_nash_protocol_resilient,
)
from repro.distributed.checkpoint import CheckpointStore
from repro.distributed.failure_detector import (
    ExponentialBackoff,
    HeartbeatFailureDetector,
)
from repro.distributed.messages import Message, MessageKind
from repro.distributed.runtime import run_nash_protocol
from repro.workloads.configs import paper_table1_system


def token(sender, receiver, sweep=1):
    return Message(
        kind=MessageKind.TOKEN, sender=sender, receiver=receiver, sweep=sweep
    )


@pytest.fixture(scope="module")
def system():
    return paper_table1_system(utilization=0.6, n_users=4)


class TestFaultSchedule:
    def test_events_sorted_and_queryable(self):
        schedule = FaultSchedule(
            [
                FaultEvent(20, FaultKind.AGENT_RESTART, 1),
                FaultEvent(5, FaultKind.AGENT_CRASH, 1),
                FaultEvent(5, FaultKind.COMPUTER_DOWN, 3),
            ]
        )
        assert schedule.n_events == 3
        assert schedule.max_step == 20
        assert len(schedule.events_at(5)) == 2
        assert schedule.events_at(7) == ()
        assert schedule.pending_restart(1, 5)
        assert not schedule.pending_restart(1, 20)

    def test_rejects_double_crash(self):
        with pytest.raises(ValueError, match="already down"):
            FaultSchedule(
                [
                    FaultEvent(5, FaultKind.AGENT_CRASH, 1),
                    FaultEvent(8, FaultKind.AGENT_CRASH, 1),
                ]
            )

    def test_rejects_restart_of_running_agent(self):
        with pytest.raises(ValueError, match="while running"):
            FaultSchedule([FaultEvent(5, FaultKind.AGENT_RESTART, 0)])

    def test_rejects_computer_toggle_mismatch(self):
        with pytest.raises(ValueError, match="restored while online"):
            FaultSchedule([FaultEvent(5, FaultKind.COMPUTER_UP, 0)])
        with pytest.raises(ValueError, match="already down"):
            FaultSchedule(
                [
                    FaultEvent(3, FaultKind.COMPUTER_DOWN, 2),
                    FaultEvent(9, FaultKind.COMPUTER_DOWN, 2),
                ]
            )

    def test_event_validation(self):
        with pytest.raises(ValueError, match="1-based"):
            FaultEvent(0, FaultKind.AGENT_CRASH, 1)
        with pytest.raises(ValueError, match="nonnegative"):
            FaultEvent(3, FaultKind.AGENT_CRASH, -1)

    def test_random_schedule_is_valid_and_reproducible(self):
        kwargs = dict(
            n_agents=4,
            seed=9,
            horizon=120,
            agent_crashes=2,
            computer_failures=1,
            computer_targets=(5, 6, 7),
        )
        a = FaultSchedule.random(**kwargs)
        b = FaultSchedule.random(**kwargs)
        assert a.events == b.events
        kinds = [event.kind for event in a.events]
        assert kinds.count(FaultKind.AGENT_CRASH) == 2
        assert kinds.count(FaultKind.AGENT_RESTART) == 2
        assert kinds.count(FaultKind.COMPUTER_DOWN) == 1
        down = [
            event for event in a.events
            if event.kind is FaultKind.COMPUTER_DOWN
        ]
        assert down[0].target in (5, 6, 7)


class TestCrashyMessageBus:
    def test_dead_rank_loses_mailbox_and_messages(self):
        bus = CrashyMessageBus(3)
        bus.send(token(0, 1))
        assert bus.mark_dead(1) == 1
        assert not bus.has_pending(1)
        bus.send(token(0, 1, sweep=2))
        assert bus.lost_to_crash == 1
        assert not bus.has_pending(1)
        bus.mark_alive(1)
        bus.send(token(0, 1, sweep=3))
        assert bus.has_pending(1)

    def test_is_dead(self):
        bus = CrashyMessageBus(2)
        assert not bus.is_dead(1)
        bus.mark_dead(1)
        assert bus.is_dead(1)


class TestFailureDetector:
    def test_suspects_after_silence(self):
        detector = HeartbeatFailureDetector(suspect_after=2)
        detector.beat(0, 0)
        detector.beat(1, 0)
        assert detector.check(2) == frozenset()
        assert detector.check(3) == frozenset({0, 1})
        assert detector.suspicions == 2

    def test_heartbeat_clears_suspicion(self):
        detector = HeartbeatFailureDetector(suspect_after=1)
        detector.beat(0, 0)
        detector.check(5)
        assert detector.is_suspected(0)
        detector.beat(0, 6)
        assert not detector.is_suspected(0)
        # Re-suspecting later counts as a new suspicion event.
        detector.check(20)
        assert detector.suspicions == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            HeartbeatFailureDetector(suspect_after=0)


class TestExponentialBackoff:
    def test_doubles_to_cap(self):
        backoff = ExponentialBackoff(base=2, cap=12)
        assert [backoff.advance() for _ in range(4)] == [2, 4, 8, 12]
        backoff.reset()
        assert backoff.current == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            ExponentialBackoff(base=0)
        with pytest.raises(ValueError):
            ExponentialBackoff(base=4, cap=2)


class TestCheckpointStore:
    def test_capture_restore_round_trip(self, system):
        # Run the reliable protocol halfway by hand to get real agents.
        from repro.distributed.faults import DedupingAgent
        from repro.distributed.node import ComputerBoard

        board = ComputerBoard(system.service_rates, system.n_users)
        bus = CrashyMessageBus(system.n_users)
        agents = [
            DedupingAgent(
                rank=j,
                job_rate=float(system.arrival_rates[j]),
                board=board,
                bus=bus,
                tolerance=1e-6,
                max_sweeps=100,
            )
            for j in range(system.n_users)
        ]
        agents[0].start()
        for _ in range(10):
            for rank in bus.pending_ranks():
                agents[rank].handle(bus.recv(rank))
        store = CheckpointStore()
        agent = agents[2]
        snapshot = store.capture(agent, board, step=10)
        saved_flows = board.flows[2].copy()
        saved_time = agent._previous_time
        saved_sweep = agent._last_acted_sweep
        # Simulate a crash: trash the volatile state.
        agent._previous_time = -1.0
        agent._last_acted_sweep = 999
        board.publish(2, np.zeros(system.n_computers))
        restored = store.restore(agent, board)
        assert restored is snapshot
        assert agent._previous_time == saved_time
        assert agent._last_acted_sweep == saved_sweep
        np.testing.assert_array_equal(board.flows[2], saved_flows)
        assert store.captures == 1 and store.restores == 1

    def test_stale_generation_clears_termination_flags(self, system):
        from repro.distributed.faults import DedupingAgent
        from repro.distributed.node import ComputerBoard

        board = ComputerBoard(system.service_rates, system.n_users)
        bus = CrashyMessageBus(system.n_users)
        agent = DedupingAgent(
            rank=1,
            job_rate=float(system.arrival_rates[1]),
            board=board,
            bus=bus,
            tolerance=1e-6,
            max_sweeps=100,
        )
        agent.finished = True
        store = CheckpointStore()
        store.capture(agent, board, step=5, generation=0)
        # Same generation: flags survive the restore.
        store.restore(agent, board, generation=0)
        assert agent.finished
        # The ring was reopened since the snapshot: flags are stale.
        store.restore(agent, board, generation=1)
        assert not agent.finished


class TestResilientProtocol:
    def test_no_faults_matches_reliable_protocol(self, system):
        resilient = run_nash_protocol_resilient(system, tolerance=1e-8)
        reliable = run_nash_protocol(system, tolerance=1e-8)
        assert resilient.result.converged
        assert resilient.crashes == 0 and resilient.degraded is False
        np.testing.assert_allclose(
            resilient.result.profile.fractions,
            reliable.result.profile.fractions,
            atol=1e-12,
        )

    def test_acceptance_chaos_run(self, system):
        """ISSUE acceptance: crash an agent mid-run AND take a computer
        offline; the run must terminate with the degraded equilibrium."""
        schedule = FaultSchedule(
            [
                FaultEvent(10, FaultKind.AGENT_CRASH, 2),
                FaultEvent(14, FaultKind.COMPUTER_DOWN, 4),
                FaultEvent(26, FaultKind.AGENT_RESTART, 2),
            ]
        )
        outcome = run_nash_protocol_resilient(
            system,
            schedule,
            drop=0.15,
            duplicate=0.05,
            fault_seed=2,
            tolerance=1e-8,
        )
        assert outcome.result.converged
        assert outcome.crashes == 1 and outcome.restarts == 1
        assert outcome.checkpoint_restores == 1
        assert outcome.computers_failed == (4,)
        assert outcome.degraded
        assert outcome.online_mask[4] is False
        reference = degraded_equilibrium(
            system, outcome.online_mask, tolerance=1e-8
        )
        gap = np.abs(
            outcome.result.profile.fractions - reference.profile.fractions
        ).max()
        assert gap <= 1e-6
        # Nothing still routes to the dead computer.
        assert np.all(outcome.result.profile.fractions[:, 4] == 0.0)

    @pytest.mark.parametrize("fault_seed", [0, 1, 2])
    def test_seeded_chaos_schedules(self, system, fault_seed):
        clean = run_nash_protocol_resilient(system, tolerance=1e-8)
        schedule = FaultSchedule.random(
            n_agents=system.n_users,
            seed=fault_seed,
            horizon=max(clean.steps, 48),
            agent_crashes=1,
            computer_failures=1,
            computer_targets=tuple(range(2, system.n_computers)),
        )
        outcome = run_nash_protocol_resilient(
            system,
            schedule,
            drop=0.1,
            duplicate=0.05,
            fault_seed=fault_seed,
            tolerance=1e-8,
        )
        assert outcome.result.converged
        reference = degraded_equilibrium(
            system, outcome.online_mask, tolerance=1e-8
        )
        gap = np.abs(
            outcome.result.profile.fractions - reference.profile.fractions
        ).max()
        assert gap <= 1e-6

    def test_capacity_exhausted_raises_not_hangs(self, system):
        schedule = FaultSchedule(
            [
                FaultEvent(5, FaultKind.COMPUTER_DOWN, 0),
                FaultEvent(8, FaultKind.COMPUTER_DOWN, 1),
                FaultEvent(11, FaultKind.COMPUTER_DOWN, 2),
            ]
        )
        with pytest.raises(CapacityExhausted) as excinfo:
            run_nash_protocol_resilient(system, schedule)
        assert excinfo.value.deficit > 0
        assert excinfo.value.offline == (0, 1, 2)

    def test_transient_outage_returns_to_full_equilibrium(self, system):
        schedule = FaultSchedule(
            [
                FaultEvent(8, FaultKind.COMPUTER_DOWN, 0),
                FaultEvent(24, FaultKind.COMPUTER_UP, 0),
            ]
        )
        outcome = run_nash_protocol_resilient(system, schedule, tolerance=1e-8)
        assert outcome.result.converged
        assert not outcome.degraded
        assert outcome.computers_restored == (0,)
        full = compute_nash_equilibrium(system, tolerance=1e-8)
        np.testing.assert_allclose(
            outcome.result.profile.fractions,
            full.profile.fractions,
            atol=1e-5,
        )

    def test_failure_during_terminate_wave_reopens_ring(self, system):
        clean = run_nash_protocol_resilient(system, tolerance=1e-8)
        # Strike while TERMINATE is circulating (the last few steps).
        schedule = FaultSchedule(
            [FaultEvent(clean.steps - 1, FaultKind.COMPUTER_DOWN, 5)]
        )
        outcome = run_nash_protocol_resilient(system, schedule, tolerance=1e-8)
        assert outcome.ring_reopens == 1
        assert outcome.result.converged
        reference = degraded_equilibrium(
            system, outcome.online_mask, tolerance=1e-8
        )
        gap = np.abs(
            outcome.result.profile.fractions - reference.profile.fractions
        ).max()
        assert gap <= 1e-6

    def test_deterministic_replay(self, system):
        schedule = FaultSchedule(
            [
                FaultEvent(9, FaultKind.AGENT_CRASH, 1),
                FaultEvent(22, FaultKind.AGENT_RESTART, 1),
            ]
        )
        a = run_nash_protocol_resilient(
            system, schedule, drop=0.2, fault_seed=4
        )
        b = run_nash_protocol_resilient(
            system, schedule, drop=0.2, fault_seed=4
        )
        assert a.steps == b.steps
        assert a.messages_sent == b.messages_sent
        assert a.retransmissions == b.retransmissions
        np.testing.assert_array_equal(
            a.result.profile.fractions, b.result.profile.fractions
        )

    def test_unrecoverable_crash_raises(self, system):
        # Crash with no scheduled restart: the ring must give up loudly.
        schedule = FaultSchedule([FaultEvent(10, FaultKind.AGENT_CRASH, 2)])
        with pytest.raises(RuntimeError, match="cannot recover"):
            run_nash_protocol_resilient(system, schedule)

    def test_suspicion_and_loss_accounting(self, system):
        schedule = FaultSchedule(
            [
                FaultEvent(10, FaultKind.AGENT_CRASH, 1),
                FaultEvent(30, FaultKind.AGENT_RESTART, 1),
            ]
        )
        outcome = run_nash_protocol_resilient(
            system, schedule, tolerance=1e-8, suspect_after=3
        )
        assert outcome.suspicions >= 1
        assert outcome.messages_lost_to_crash >= 1
        assert outcome.checkpoint_captures > 0
        assert outcome.events_applied == 2
        assert outcome.events_unapplied == 0

    def test_surviving_fractions_shape(self, system):
        schedule = FaultSchedule([FaultEvent(12, FaultKind.COMPUTER_DOWN, 6)])
        outcome = run_nash_protocol_resilient(system, schedule, tolerance=1e-8)
        sub = outcome.surviving_fractions()
        assert sub.shape == (system.n_users, system.n_computers - 1)
        np.testing.assert_allclose(sub.sum(axis=1), 1.0, atol=1e-9)
