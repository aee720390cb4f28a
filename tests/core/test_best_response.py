"""Tests for the OPTIMAL best-response algorithm (paper Thm 2.1/2.2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.best_response import (
    best_response,
    optimal_fractions,
)
from repro.core.model import DistributedSystem
from repro.core.strategy import StrategyProfile


def user_cost(available, fractions, job_rate):
    """D_j = sum_i s_ji / (a_i - s_ji phi_j) evaluated directly."""
    available = np.asarray(available, dtype=float)
    fractions = np.asarray(fractions, dtype=float)
    x = fractions * job_rate
    used = fractions > 0
    # reprolint: allow=R003 independent oracle, deliberately not via repro.queueing
    return float((fractions[used] / (available[used] - x[used])).sum())


class TestOptimalFractions:
    def test_fractions_form_distribution(self):
        reply = optimal_fractions([10.0, 5.0, 2.0], 6.0)
        assert reply.fractions.sum() == pytest.approx(1.0)
        assert np.all(reply.fractions >= 0.0)

    def test_expected_time_consistent(self):
        available = [10.0, 5.0, 2.0]
        reply = optimal_fractions(available, 6.0)
        assert reply.expected_response_time == pytest.approx(
            user_cost(available, reply.fractions, 6.0)
        )

    def test_single_computer_everything_there(self):
        reply = optimal_fractions([10.0], 3.0)
        assert reply.fractions[0] == pytest.approx(1.0)
        assert reply.expected_response_time == pytest.approx(1.0 / 7.0)

    def test_homogeneous_even_split(self):
        reply = optimal_fractions([4.0, 4.0], 2.0)
        np.testing.assert_allclose(reply.fractions, 0.5)

    def test_tiny_rate_uses_fastest_only(self):
        reply = optimal_fractions([100.0, 1.0], 0.001)
        np.testing.assert_array_equal(reply.support, [0])
        assert reply.fractions[1] == 0.0

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError, match="job rate"):
            optimal_fractions([5.0], 0.0)

    def test_rejects_infeasible_rate(self):
        with pytest.raises(ValueError):
            optimal_fractions([2.0, 2.0], 5.0)

    def test_stability_of_own_allocation(self):
        available = np.array([9.0, 7.0, 2.0])
        reply = optimal_fractions(available, 8.0)
        assert np.all(reply.fractions * 8.0 < available)

    def test_faster_computers_get_larger_fractions(self):
        reply = optimal_fractions([12.0, 8.0, 4.0, 2.0], 10.0)
        diffs = np.diff(reply.fractions)
        assert np.all(diffs <= 1e-12)


class TestOptimality:
    """Theorem 2.2: the OPTIMAL output solves the convex program exactly."""

    def test_beats_dirichlet_samples(self, rng):
        available = np.array([20.0, 10.0, 6.0, 2.0])
        rate = 12.0
        reply = optimal_fractions(available, rate)
        for _ in range(300):
            s = rng.dirichlet(np.ones(4))
            if np.any(s * rate >= available):
                continue
            assert user_cost(available, s, rate) >= (
                reply.expected_response_time - 1e-10
            )

    def test_beats_perturbations(self, rng):
        available = np.array([15.0, 11.0, 3.0])
        rate = 9.0
        reply = optimal_fractions(available, rate)
        base = reply.fractions
        for _ in range(200):
            noise = rng.normal(scale=0.02, size=3)
            s = np.clip(base + noise, 0.0, None)
            if s.sum() == 0.0:  # reprolint: allow=R002 exact-sentinel
                continue
            s /= s.sum()
            if np.any(s * rate >= available):
                continue
            assert user_cost(available, s, rate) >= (
                reply.expected_response_time - 1e-10
            )

    def test_matches_scipy(self):
        from scipy import optimize

        available = np.array([14.0, 9.0, 5.0])
        rate = 10.0

        def objective(s):
            return user_cost(available, np.clip(s, 1e-15, None), rate)

        solution = optimize.minimize(
            objective,
            x0=np.full(3, 1.0 / 3.0),
            bounds=[(0.0, min(1.0, a / rate * (1 - 1e-9))) for a in available],
            constraints=[{"type": "eq", "fun": lambda s: s.sum() - 1.0}],
            method="SLSQP",
            options={"ftol": 1e-14, "maxiter": 500},
        )
        reply = optimal_fractions(available, rate)
        assert reply.expected_response_time <= solution.fun + 1e-9

    @given(
        st.lists(st.floats(1.0, 100.0), min_size=2, max_size=8),
        st.floats(0.05, 0.9),
        st.integers(0, 10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_no_profitable_two_computer_transfer(self, rates, frac, seed):
        """First-order optimality: moving mass between any two used/unused
        computers never helps."""
        available = np.asarray(rates)
        job_rate = frac * available.sum()
        reply = optimal_fractions(available, job_rate)
        base = reply.expected_response_time
        rng = np.random.default_rng(seed)
        for _ in range(20):
            i, k = rng.integers(0, available.size, size=2)
            if i == k or reply.fractions[i] <= 0.0:
                continue
            delta = min(reply.fractions[i], 0.01)
            s = reply.fractions.copy()
            s[i] -= delta
            s[k] += delta
            if np.any(s * job_rate >= available):
                continue
            assert user_cost(available, s, job_rate) >= base - 1e-9


class TestBestResponseOnSystems:
    def test_single_user_game_is_global_optimum(self, single_user):
        """With one user the best response equals GOS."""
        from repro.schemes.global_optimal import global_optimal_loads

        profile = StrategyProfile.zeros(1, 3)
        reply = best_response(single_user, profile, 0)
        expected = global_optimal_loads(single_user)
        np.testing.assert_allclose(
            reply.fractions * single_user.arrival_rates[0], expected, atol=1e-9
        )

    def test_reply_ignores_own_current_strategy(self, two_by_two):
        base = StrategyProfile(np.array([[1.0, 0.0], [0.5, 0.5]]))
        changed = base.with_user_strategy(0, [0.0, 1.0])
        reply_a = best_response(two_by_two, base, 0)
        reply_b = best_response(two_by_two, changed, 0)
        np.testing.assert_allclose(reply_a.fractions, reply_b.fractions)

    def test_reply_reacts_to_opponents(self, two_by_two):
        idle = StrategyProfile(np.array([[0.5, 0.5], [0.5, 0.5]]))
        crowded = StrategyProfile(np.array([[0.5, 0.5], [1.0, 0.0]]))
        reply_idle = best_response(two_by_two, idle, 0)
        reply_crowded = best_response(two_by_two, crowded, 0)
        # When user 1 crowds computer 0, user 0 shifts mass away from it.
        assert reply_crowded.fractions[0] < reply_idle.fractions[0]

    def test_improves_on_current_strategy(self, table1_medium):
        profile = StrategyProfile.proportional(table1_medium)
        current = table1_medium.user_response_times(profile.fractions)
        for j in range(table1_medium.n_users):
            reply = best_response(table1_medium, profile, j)
            assert reply.expected_response_time <= current[j] + 1e-12

    def test_complexity_is_sort_bound(self):
        """The algorithm handles thousands of computers instantly."""
        rng = np.random.default_rng(1)
        available = rng.uniform(1.0, 100.0, size=5000)
        reply = optimal_fractions(available, 0.5 * available.sum())
        assert reply.fractions.sum() == pytest.approx(1.0)
