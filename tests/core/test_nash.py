"""Tests for the NASH best-reply iteration (paper Sec. 3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.equilibrium import best_response_regrets, is_nash_equilibrium
from repro.core.model import DistributedSystem
from repro.core.nash import (
    NashSolver,
    compute_nash_equilibrium,
    initial_profile,
)
from repro.core.strategy import StrategyProfile
from repro.workloads.configs import paper_table1_system, random_system


class TestInitialProfile:
    def test_zero(self, two_by_two):
        profile = initial_profile(two_by_two, "zero")
        assert profile.fractions.sum() == 0.0

    def test_proportional(self, two_by_two):
        profile = initial_profile(two_by_two, "proportional")
        np.testing.assert_allclose(profile.fractions[0], [2 / 3, 1 / 3])

    def test_uniform(self, two_by_two):
        profile = initial_profile(two_by_two, "uniform")
        assert np.all(profile.fractions == 0.5)

    def test_custom_profile_passthrough(self, two_by_two):
        custom = StrategyProfile(np.array([[0.9, 0.1], [0.2, 0.8]]))
        assert initial_profile(two_by_two, custom) is custom

    def test_custom_profile_shape_checked(self, two_by_two):
        with pytest.raises(ValueError):
            initial_profile(two_by_two, StrategyProfile.uniform(3, 2))

    def test_unknown_init_rejected(self, two_by_two):
        with pytest.raises(ValueError, match="unknown"):
            initial_profile(two_by_two, "magic")


class TestSolverConfig:
    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            NashSolver(tolerance=0.0)

    def test_rejects_bad_sweeps(self):
        with pytest.raises(ValueError):
            NashSolver(max_sweeps=0)

    def test_rejects_unknown_stop_rule(self):
        with pytest.raises(ValueError, match="stop rule"):
            NashSolver(stop="sweeps")  # type: ignore[arg-type]


class TestConvergence:
    def test_converges_on_table1(self, table1_medium):
        result = compute_nash_equilibrium(table1_medium)
        assert result.converged
        assert result.final_norm <= 1e-6

    def test_result_is_feasible(self, table1_medium):
        result = compute_nash_equilibrium(table1_medium)
        result.profile.validate(table1_medium)

    def test_result_is_equilibrium(self, table1_medium):
        result = compute_nash_equilibrium(table1_medium, tolerance=1e-10)
        assert is_nash_equilibrium(table1_medium, result.profile, tol=1e-6)

    def test_zero_and_proportional_reach_same_equilibrium(self, table1_small):
        zero = compute_nash_equilibrium(
            table1_small, init="zero", tolerance=1e-10
        )
        prop = compute_nash_equilibrium(
            table1_small, init="proportional", tolerance=1e-10
        )
        assert zero.profile.distance_to(prop.profile) < 1e-4
        np.testing.assert_allclose(
            zero.user_times, prop.user_times, rtol=1e-6
        )

    def test_norm_history_matches_iterations(self, table1_small):
        result = compute_nash_equilibrium(table1_small)
        assert result.norm_history.size == result.iterations

    def test_norm_history_eventually_below_tolerance(self, table1_small):
        result = compute_nash_equilibrium(table1_small, tolerance=1e-5)
        assert result.norm_history[-1] <= 1e-5
        assert np.all(result.norm_history[:-1] > 1e-5)

    def test_sweep_budget_respected(self, table1_medium):
        result = compute_nash_equilibrium(
            table1_medium, init="zero", tolerance=1e-12, max_sweeps=3
        )
        assert not result.converged
        assert result.iterations == 3

    def test_record_history(self, table1_small):
        result = compute_nash_equilibrium(table1_small, record_history=True)
        assert len(result.profile_history) == result.iterations
        last = result.profile_history[-1]
        np.testing.assert_array_equal(
            last.fractions, result.profile.fractions
        )

    def test_history_off_by_default(self, table1_small):
        result = compute_nash_equilibrium(table1_small)
        assert result.profile_history == ()

    def test_user_times_consistent(self, table1_medium):
        result = compute_nash_equilibrium(table1_medium)
        np.testing.assert_allclose(
            result.user_times,
            table1_medium.user_response_times(result.profile.fractions),
        )

    def test_single_user_converges_immediately(self, single_user):
        result = compute_nash_equilibrium(single_user, init="zero")
        # Sweep 1 finds the optimum; sweep 2 confirms (zero norm).
        assert result.converged
        assert result.iterations <= 2

    def test_two_user_game(self, two_by_two):
        result = compute_nash_equilibrium(two_by_two, tolerance=1e-10)
        assert result.converged
        assert is_nash_equilibrium(two_by_two, result.profile, tol=1e-7)

    def test_warm_start_from_equilibrium_is_instant(self, table1_small):
        first = compute_nash_equilibrium(table1_small, tolerance=1e-9)
        again = compute_nash_equilibrium(
            table1_small, init=first.profile, tolerance=1e-6
        )
        assert again.converged
        assert again.iterations == 1

    def test_proportional_never_slower_than_zero(self):
        """NASH_P <= NASH_0 iterations — the claim of Figures 2-3."""
        for m in (4, 8, 16):
            system = paper_table1_system(utilization=0.6, n_users=m)
            zero = compute_nash_equilibrium(system, init="zero", tolerance=1e-4)
            prop = compute_nash_equilibrium(
                system, init="proportional", tolerance=1e-4
            )
            assert prop.iterations <= zero.iterations

    def test_converges_on_random_systems(self, rng):
        """The paper's open-problem hypothesis: convergence for m > 2."""
        for _ in range(5):
            system = random_system(rng, n_computers=8, n_users=5)
            result = compute_nash_equilibrium(system, tolerance=1e-7)
            assert result.converged
            cert = best_response_regrets(system, result.profile)
            assert cert.epsilon <= 1e-4

    def test_high_load_still_converges(self):
        system = paper_table1_system(utilization=0.9)
        result = compute_nash_equilibrium(system, max_sweeps=3000)
        assert result.converged
        result.profile.validate(system)

    def test_asymmetric_users(self):
        system = DistributedSystem(
            service_rates=[20.0, 10.0, 5.0],
            arrival_rates=[12.0, 6.0, 2.0],
        )
        result = compute_nash_equilibrium(system, tolerance=1e-10)
        assert result.converged
        # Heavier users cannot beat lighter users' times (they congest
        # themselves more): D_j nondecreasing in phi_j.
        times = result.user_times
        assert times[0] >= times[1] - 1e-9
        assert times[1] >= times[2] - 1e-9
