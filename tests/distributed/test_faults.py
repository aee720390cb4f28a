"""Failure-injection tests for the distributed protocol."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.nash import compute_nash_equilibrium
from repro.distributed.faults import LossyMessageBus, run_nash_protocol_lossy
from repro.distributed.messages import Message, MessageKind
from repro.workloads.configs import paper_table1_system


def token(sender, receiver, sweep=1):
    return Message(
        kind=MessageKind.TOKEN, sender=sender, receiver=receiver, sweep=sweep
    )


class TestLossyMessageBus:
    def test_validation(self):
        with pytest.raises(ValueError):
            LossyMessageBus(2, drop=1.0)
        with pytest.raises(ValueError):
            LossyMessageBus(2, duplicate=-0.1)

    def test_zero_faults_is_reliable(self):
        bus = LossyMessageBus(2, drop=0.0, duplicate=0.0)
        for sweep in range(1, 50):
            bus.send(token(0, 1, sweep))
        count = 0
        while bus.has_pending(1):
            bus.recv(1)
            count += 1
        assert count == 49
        assert bus.dropped == 0 and bus.duplicated == 0

    def test_drop_rate_approximate(self):
        bus = LossyMessageBus(2, drop=0.3, seed=1)
        n = 5000
        for sweep in range(1, n + 1):
            bus.send(token(0, 1, sweep))
        assert bus.dropped == pytest.approx(0.3 * n, rel=0.1)

    def test_duplication_enqueues_twice(self):
        bus = LossyMessageBus(2, duplicate=0.5, seed=2)
        n = 2000
        for sweep in range(1, n + 1):
            bus.send(token(0, 1, sweep))
        delivered = 0
        while bus.has_pending(1):
            bus.recv(1)
            delivered += 1
        assert delivered == n + bus.duplicated
        assert bus.duplicated == pytest.approx(0.5 * n, rel=0.15)

    def test_fault_stream_reproducible(self):
        a = LossyMessageBus(2, drop=0.2, seed=7)
        b = LossyMessageBus(2, drop=0.2, seed=7)
        for sweep in range(1, 100):
            a.send(token(0, 1, sweep))
            b.send(token(0, 1, sweep))
        assert a.dropped == b.dropped


class TestLossyProtocol:
    @pytest.fixture(scope="class")
    def system(self):
        return paper_table1_system(utilization=0.5, n_users=4)

    @pytest.fixture(scope="class")
    def lossless(self, system):
        return compute_nash_equilibrium(system, tolerance=1e-6)

    def test_no_faults_matches_reliable_protocol(self, system, lossless):
        outcome = run_nash_protocol_lossy(
            system, drop=0.0, duplicate=0.0
        )
        assert outcome.result.iterations == lossless.iterations
        np.testing.assert_allclose(
            outcome.result.profile.fractions,
            lossless.profile.fractions,
            atol=1e-10,
        )

    @pytest.mark.parametrize("fault_seed", [0, 1, 2])
    def test_converges_despite_drops(self, system, lossless, fault_seed):
        outcome = run_nash_protocol_lossy(
            system, drop=0.2, duplicate=0.0, fault_seed=fault_seed
        )
        assert outcome.result.converged
        np.testing.assert_allclose(
            outcome.result.user_times, lossless.user_times, rtol=1e-5
        )

    def test_converges_despite_duplicates(self, system, lossless):
        outcome = run_nash_protocol_lossy(
            system, drop=0.0, duplicate=0.3, fault_seed=3
        )
        assert outcome.result.converged
        np.testing.assert_allclose(
            outcome.result.user_times, lossless.user_times, rtol=1e-5
        )

    def test_converges_with_both_fault_types(self, system, lossless):
        outcome = run_nash_protocol_lossy(
            system, drop=0.15, duplicate=0.15, fault_seed=4
        )
        assert outcome.result.converged
        np.testing.assert_allclose(
            outcome.result.user_times, lossless.user_times, rtol=1e-5
        )

    def test_faults_cost_messages_not_correctness(self, system):
        clean = run_nash_protocol_lossy(
            system, drop=0.0, duplicate=0.0
        )
        faulty = run_nash_protocol_lossy(
            system, drop=0.2, duplicate=0.1, fault_seed=5
        )
        # Same equilibrium, more traffic.
        assert faulty.messages_sent > clean.messages_sent
        np.testing.assert_allclose(
            faulty.result.user_times, clean.result.user_times, rtol=1e-5
        )

    def test_deterministic_replay(self, system):
        a = run_nash_protocol_lossy(system, drop=0.2, fault_seed=6)
        b = run_nash_protocol_lossy(system, drop=0.2, fault_seed=6)
        assert a.messages_sent == b.messages_sent
        np.testing.assert_array_equal(
            a.result.profile.fractions, b.result.profile.fractions
        )

    @pytest.mark.parametrize(
        "drop, fault_seed",
        [
            pytest.param(0.5, 7, id="many-stalls"),
            # Regression: the budget was checked once per stall, and this
            # run's single stall then resent to all four receivers.
            pytest.param(0.01, 0, id="one-stall"),
        ],
    )
    def test_retransmission_budget_enforced(self, system, drop, fault_seed):
        with pytest.raises(RuntimeError, match="budget"):
            run_nash_protocol_lossy(
                system, drop=drop, fault_seed=fault_seed, max_retransmissions=1
            )


class TestExtremeFaultRates:
    """The protocol must survive pathological networks, not just bad ones."""

    @pytest.fixture(scope="class")
    def system(self):
        return paper_table1_system(utilization=0.5, n_users=4)

    @pytest.fixture(scope="class")
    def lossless(self, system):
        return compute_nash_equilibrium(system, tolerance=1e-6)

    @pytest.mark.parametrize("fault_seed", [0, 1, 2])
    def test_drop_090(self, system, lossless, fault_seed):
        outcome = run_nash_protocol_lossy(
            system, drop=0.9, duplicate=0.0, fault_seed=fault_seed
        )
        assert outcome.result.converged
        np.testing.assert_allclose(
            outcome.result.user_times, lossless.user_times, rtol=1e-5
        )

    @pytest.mark.parametrize("fault_seed", [0, 1, 2])
    def test_duplicate_05(self, system, lossless, fault_seed):
        outcome = run_nash_protocol_lossy(
            system, drop=0.0, duplicate=0.5, fault_seed=fault_seed
        )
        assert outcome.result.converged
        np.testing.assert_allclose(
            outcome.result.user_times, lossless.user_times, rtol=1e-5
        )

    @pytest.mark.parametrize("fault_seed", [0, 1])
    def test_both_extreme(self, system, lossless, fault_seed):
        outcome = run_nash_protocol_lossy(
            system, drop=0.8, duplicate=0.5, fault_seed=fault_seed
        )
        assert outcome.result.converged
        np.testing.assert_allclose(
            outcome.result.user_times, lossless.user_times, rtol=1e-5
        )


class TestMessageAccounting:
    """Regression: messages_sent / retransmissions stay consistent."""

    @pytest.fixture(scope="class")
    def system(self):
        return paper_table1_system(utilization=0.5, n_users=4)

    def test_reliable_run_has_no_retransmissions(self, system):
        outcome = run_nash_protocol_lossy(system, drop=0.0, duplicate=0.0)
        assert outcome.retransmissions == 0

    @pytest.mark.parametrize(
        "drop, duplicate, fault_seed",
        [
            pytest.param(0.3, 0.2, 11, id="drops"),
            # One duplicate is still queued when the last agent finishes:
            # the run must deliver it before stopping.
            pytest.param(0.0, 0.5, 0, id="queued-duplicate"),
        ],
    )
    def test_counters_reconcile_with_transcript(
        self, system, drop, duplicate, fault_seed
    ):
        outcome = run_nash_protocol_lossy(
            system, drop=drop, duplicate=duplicate, fault_seed=fault_seed
        )
        # Only a lost message stalls the ring and triggers retransmission.
        assert (outcome.retransmissions > 0) == (drop > 0)
        # Every transcript entry was a successful delivery, and every
        # delivery was handled: the handled count equals the transcript.
        assert outcome.messages_sent == len(outcome.transcript)
        # The fault-free run needs m tokens per sweep plus the terminate
        # circulation; a faulty run can only exceed that floor through
        # retransmission or duplication, never out of thin air.
        clean = run_nash_protocol_lossy(system, drop=0.0, duplicate=0.0)
        floor = clean.messages_sent
        assert outcome.messages_sent > floor
        extra = outcome.messages_sent - floor
        duplicated_at_most = outcome.messages_sent  # duplicates re-deliver
        assert extra <= outcome.retransmissions + duplicated_at_most

    def test_terminate_not_retransmitted_to_finished_agents(self, system):
        """Regression for the old guard that kept re-sending TERMINATE."""
        outcome = run_nash_protocol_lossy(
            system, drop=0.0, duplicate=0.0
        )
        # With a perfectly reliable network the stall path never fires,
        # so no TERMINATE (or anything else) is ever re-sent.
        terminates = [
            msg for msg in outcome.transcript
            if msg.kind is MessageKind.TERMINATE
        ]
        assert len(terminates) == system.n_users - 1
