"""Power-of-k sampled best replies (:mod:`repro.core.sampled`).

Pins the three contracts the sampled mode is built on:

* ``sample_k >= n`` is the exact solver, **bit for bit**, for every
  update order, in both the per-user and the class-space solver;
* sampling is deterministic in ``(seed, sweep, index)`` — identical
  draws in-process and across process-pool workers;
* the certificate's poll accounting is exact (``k`` per reply plus the
  honestly counted widening probes).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.classes import ClassNashSolver, aggregate_users
from repro.core.nash import NashSolver
from repro.core.sampled import (
    SampleCertificate,
    check_seed,
    reply_set,
    sample_indices,
    sampled_best_reply,
    sampled_best_reply_batch,
    widen_reply_set,
)
from repro.core.waterfill import InfeasibleDemand
from repro.distributed.sampled import run_sampled_nash_protocol
from repro.experiments.parallel import parallel_map
from repro.workloads.configs import paper_table1_system

ORDERS = ("roundrobin", "random", "simultaneous")


class TestSampleIndices:
    def test_deterministic(self):
        a = sample_indices(7, 3, 2, 50, 5)
        b = sample_indices(7, 3, 2, 50, 5)
        np.testing.assert_array_equal(a, b)

    def test_sorted_unique_in_range(self):
        idx = sample_indices(0, 0, 0, 40, 8)
        assert idx.size == 8
        assert np.all(np.diff(idx) > 0)
        assert idx.min() >= 0 and idx.max() < 40

    def test_varies_with_sweep_and_index(self):
        base = sample_indices(1, 0, 0, 1000, 4)
        assert not np.array_equal(base, sample_indices(1, 1, 0, 1000, 4))
        assert not np.array_equal(base, sample_indices(1, 0, 1, 1000, 4))

    def test_k_at_least_n_is_arange(self):
        for k in (10, 11, 99):
            np.testing.assert_array_equal(
                sample_indices(0, 0, 0, 10, k), np.arange(10)
            )

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            sample_indices(0, 0, 0, 10, 0)


class TestReplySet:
    def test_union_of_support_and_sample(self):
        own = np.array([0.0, 2.0, 0.0, 1.0])
        chosen = reply_set(own, np.array([0, 1], dtype=np.intp))
        np.testing.assert_array_equal(chosen, [0, 1, 3])

    def test_empty_support_is_sample(self):
        chosen = reply_set(np.zeros(4), np.array([2], dtype=np.intp))
        np.testing.assert_array_equal(chosen, [2])

    def test_matches_union1d(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            n = int(rng.integers(1, 80))
            own = np.where(rng.random(n) < 0.3, rng.random(n), 0.0)
            indices = sample_indices(int(rng.integers(1000)), 0, 0, n,
                                     int(rng.integers(1, n + 1)))
            expected = np.union1d(np.flatnonzero(own > 0.0), indices)
            chosen = reply_set(own, indices)
            assert chosen.dtype == np.intp
            np.testing.assert_array_equal(chosen, expected)


class TestSeedValidation:
    def test_accepts_non_negative_integers(self):
        assert check_seed(0) == 0
        assert check_seed(np.int64(7)) == 7

    @pytest.mark.parametrize("seed", [-3, 1.5, "7", None])
    def test_rejects_the_rest(self, seed):
        with pytest.raises(ValueError, match="seed"):
            check_seed(seed)

    def test_sampled_protocol_rejects_a_negative_seed(self):
        system = paper_table1_system(utilization=0.6, n_users=4)
        with pytest.raises(ValueError, match="seed"):
            run_sampled_nash_protocol(system, sample_k=2, seed=-3)


class TestWidenReplySet:
    def test_no_widening_when_capacity_covers_demand(self):
        available = np.full(10, 5.0)
        reply = np.array([0, 1], dtype=np.intp)
        widened, polls = widen_reply_set(
            reply, available, 4.0, seed=0, sweep=0, index=0
        )
        assert polls == 0
        np.testing.assert_array_equal(widened, reply)

    def test_widens_until_capacity_exceeds_demand(self):
        available = np.full(100, 1.0)
        reply = np.array([3], dtype=np.intp)
        widened, polls = widen_reply_set(
            reply, available, 10.0, seed=0, sweep=0, index=0
        )
        assert polls > 0
        assert float(available[widened].sum()) > 10.0

    def test_infeasible_demand_raises(self):
        available = np.full(8, 1.0)
        reply = np.array([0], dtype=np.intp)
        with pytest.raises(InfeasibleDemand):
            widen_reply_set(reply, available, 100.0, seed=0, sweep=0, index=0)


class TestSampledReply:
    def test_conserves_and_respects_reply_set(self):
        available = np.array([9.0, 7.0, 5.0, 3.0, 2.0, 1.0])
        own = np.array([0.0, 1.0, 0.0, 0.0, 0.5, 0.0])
        reply = sampled_best_reply(
            available, own, 2.0, seed=0, sweep=0, index=0, k=2
        )
        assert reply.flows.sum() == pytest.approx(2.0)
        off = np.setdiff1d(np.arange(6), reply.reply_set)
        assert np.all(reply.flows[off] == 0.0)
        assert np.all(reply.flows <= available + 1e-12)
        assert reply.polls >= 2

    def test_batch_matches_scalar_replies(self):
        rng = np.random.default_rng(3)
        available = rng.uniform(1.0, 10.0, size=(4, 12))
        own = np.zeros((4, 12))
        own[:, :2] = 0.3
        rates = np.array([1.0, 2.0, 0.5, 1.5])
        batch = sampled_best_reply_batch(
            available, own, rates, seed=5, sweep=2, k=3
        )
        for j in range(4):
            scalar = sampled_best_reply(
                available[j],
                own[j],
                float(rates[j]),
                seed=5,
                sweep=2,
                index=j,
                k=3,
            )
            np.testing.assert_allclose(batch.flows[j], scalar.flows, atol=1e-12)


class TestFullInformationParity:
    """``sample_k >= n`` takes the exact code path — bit-for-bit."""

    @pytest.mark.parametrize("order", ORDERS)
    def test_per_user_solver(self, order):
        system = paper_table1_system(utilization=0.6, n_users=5)
        n = system.n_computers
        exact = NashSolver(order=order, seed=3, stop="norm").solve(system)
        sampled = NashSolver(order=order, seed=3, sample_k=n).solve(system)
        np.testing.assert_array_equal(
            sampled.profile.fractions, exact.profile.fractions
        )
        np.testing.assert_array_equal(
            sampled.norm_history, exact.norm_history
        )
        assert sampled.iterations == exact.iterations
        assert exact.sample is None
        certificate = sampled.sample
        assert isinstance(certificate, SampleCertificate)
        assert certificate.full_information
        assert certificate.k == n
        assert certificate.polls == (
            sampled.iterations * system.n_users * n
        )

    @pytest.mark.parametrize("order", ORDERS)
    def test_class_solver(self, order):
        system = paper_table1_system(utilization=0.7, n_users=12)
        aggregation = aggregate_users(system)
        n = aggregation.n_computers
        exact = ClassNashSolver(order=order, seed=3).solve(aggregation)
        sampled = ClassNashSolver(order=order, seed=3, sample_k=n + 7).solve(
            aggregation
        )
        np.testing.assert_array_equal(
            sampled.class_fractions, exact.class_fractions
        )
        np.testing.assert_array_equal(
            sampled.norm_history, exact.norm_history
        )
        assert exact.sample is None
        certificate = sampled.sample
        assert certificate is not None
        assert certificate.full_information and certificate.k == n
        assert certificate.polls == (
            sampled.iterations * aggregation.n_classes * n
        )


class TestSampledSolve:
    def test_reaches_equilibrium_with_small_k(self):
        system = paper_table1_system(utilization=0.6, n_users=4)
        result = NashSolver(tolerance=1e-8, seed=1, sample_k=2).solve(system)
        assert result.converged
        certificate = result.sample
        assert certificate is not None
        assert not certificate.full_information
        assert certificate.epsilon < 1e-6

    def test_zero_init_widens_and_converges(self):
        system = paper_table1_system(utilization=0.6, n_users=4)
        result = NashSolver(tolerance=1e-8, seed=1, sample_k=2).solve(
            system, init="zero"
        )
        assert result.converged
        assert result.sample is not None
        # The cold start cannot carry the demand on 2 sampled computers
        # alone, so the widening scan must have paid extra polls.
        assert result.sample.polls > result.iterations * system.n_users * 2

    def test_poll_accounting_exact_without_widening(self):
        system = paper_table1_system(utilization=0.6, n_users=4)
        result = NashSolver(tolerance=1e-8, seed=1, sample_k=3).solve(system)
        certificate = result.sample
        assert certificate is not None
        # Proportional init keeps every reply feasible on support alone:
        # exactly k polls per reply, no widening.
        assert certificate.polls == result.iterations * system.n_users * 3

    def test_deterministic_rerun(self):
        system = paper_table1_system(utilization=0.6, n_users=4)
        first = NashSolver(seed=9, sample_k=2).solve(system)
        second = NashSolver(seed=9, sample_k=2).solve(system)
        np.testing.assert_array_equal(
            first.profile.fractions, second.profile.fractions
        )

    def test_class_sampled_certified(self):
        system = paper_table1_system(utilization=0.6, n_users=12)
        aggregation = aggregate_users(system)
        result = ClassNashSolver(
            tolerance=1e-8, seed=1, sample_k=2
        ).solve(aggregation, init="zero")
        certificate = result.sample
        assert certificate is not None
        assert certificate.epsilon < 1e-6
        assert certificate.k == 2


def _sampled_fractions(seed: int) -> bytes:
    """Top-level so the process-pool workers can unpickle it."""
    system = paper_table1_system(utilization=0.6, n_users=4)
    result = NashSolver(seed=seed, sample_k=2).solve(system)
    return np.ascontiguousarray(result.profile.fractions).tobytes()


class TestPoolDeterminism:
    def test_sampling_identical_across_pool_workers(self):
        seeds = [0, 1, 2, 3]
        serial = [_sampled_fractions(s) for s in seeds]
        pooled = parallel_map(_sampled_fractions, seeds, n_workers=2)
        assert pooled == serial
