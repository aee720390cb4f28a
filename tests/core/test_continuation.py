"""Tests for warm-start continuation along parameter sweeps."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.continuation import SweepPredictor, warm_start_profile
from repro.core.equilibrium import best_response_regrets
from repro.core.model import DistributedSystem
from repro.core.nash import NashSolver
from repro.core.strategy import StrategyProfile
from repro.experiments.common import run_schemes_sweep
from repro.schemes import NashScheme
from repro.workloads.configs import paper_table1_system
from repro.workloads.sweeps import utilization_sweep


class TestWarmStartProfile:
    def test_feasible_previous_is_reused_verbatim(self, table1_small):
        previous = StrategyProfile.proportional(table1_small)
        warm = warm_start_profile(table1_small, previous)
        assert warm is not None
        np.testing.assert_array_equal(warm.fractions, previous.fractions)

    def test_infeasible_previous_is_blended_feasible(self):
        # The previous equilibrium piles everything on one computer; at
        # the new point that computer alone cannot carry the load, so the
        # repair must blend toward proportional rather than give up.
        system = DistributedSystem(
            service_rates=[5.0, 5.0], arrival_rates=[4.0, 3.0]
        )
        skewed = StrategyProfile(
            np.array([[1.0, 0.0], [1.0, 0.0]])
        )
        warm = warm_start_profile(system, skewed)
        assert warm is not None
        assert warm.is_feasible(system)
        # The blend keeps some of the skew rather than resetting fully.
        assert warm.fractions[0, 0] > 0.5

    def test_user_count_change_carries_aggregate_split(self):
        old = paper_table1_system(utilization=0.6, n_users=4)
        new = paper_table1_system(utilization=0.6, n_users=8)
        previous = NashSolver().solve(old, "proportional").profile
        warm = warm_start_profile(new, previous, previous_system=old)
        assert warm is not None
        assert warm.n_users == 8
        assert warm.is_feasible(new)
        # Aggregate loads are preserved up to the demand rescaling.
        old_split = old.loads(previous.fractions)
        new_split = new.loads(warm.fractions)
        np.testing.assert_allclose(
            new_split / new_split.sum(), old_split / old_split.sum()
        )

    def test_computer_count_change_returns_none(self, table1_small):
        other = DistributedSystem(
            service_rates=[10.0, 5.0], arrival_rates=[3.0] * 4
        )
        previous = StrategyProfile.proportional(other)
        assert warm_start_profile(table1_small, previous) is None
        # Columns carry no identity across fleets, with or without the
        # previous system.
        assert (
            warm_start_profile(table1_small, previous, previous_system=other)
            is None
        )

    def test_saturated_system_returns_none(self):
        system = DistributedSystem(
            service_rates=[5.0, 5.0], arrival_rates=[4.9, 4.9]
        )
        skewed = StrategyProfile(np.array([[1.0, 0.0], [1.0, 0.0]]))
        warm = warm_start_profile(system, skewed)
        # Near saturation any outcome must still be feasible if not None.
        if warm is not None:
            assert warm.is_feasible(system)


class TestSweepPredictor:
    def test_empty_history_predicts_none(self, table1_small):
        assert SweepPredictor().predict(0.5, table1_small) is None

    def test_single_point_falls_back_to_carry_over(self, table1_small):
        predictor = SweepPredictor()
        previous = StrategyProfile.proportional(table1_small)
        predictor.record(0.5, previous, table1_small)
        warm = predictor.predict(0.6, paper_table1_system(utilization=0.6, n_users=4))
        assert warm is not None
        np.testing.assert_array_equal(warm.fractions, previous.fractions)

    def test_extrapolation_beats_carry_over(self):
        # On a smooth sweep the Lagrange seed must start closer to the
        # next equilibrium than plain carry-over does.
        solver = NashSolver(tolerance=1e-9, max_sweeps=5000)
        predictor = SweepPredictor()
        for rho in (0.5, 0.6, 0.7):
            system = paper_table1_system(utilization=rho, n_users=4)
            result = solver.solve(system, "proportional")
            predictor.record(rho, result.profile, system)
        target_system = paper_table1_system(utilization=0.8, n_users=4)
        target = solver.solve(target_system, "proportional").profile
        seed = predictor.predict(0.8, target_system)
        assert seed is not None
        carry = predictor._history[-1][1]
        err_seed = np.abs(seed.fractions - target.fractions).max()
        err_carry = np.abs(carry.fractions - target.fractions).max()
        assert err_seed < err_carry

    def test_history_is_bounded_by_depth(self, table1_small):
        predictor = SweepPredictor(depth=2)
        profile = StrategyProfile.proportional(table1_small)
        for rho in (0.1, 0.2, 0.3, 0.4):
            predictor.record(rho, profile, table1_small)
        assert len(predictor._history) == 2

    def test_non_numeric_parameters_fall_back(self, table1_small):
        predictor = SweepPredictor()
        profile = StrategyProfile.proportional(table1_small)
        predictor.record("a", profile, table1_small)
        predictor.record("b", profile, table1_small)
        warm = predictor.predict("c", table1_small)
        assert warm is not None
        np.testing.assert_array_equal(warm.fractions, profile.fractions)

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            SweepPredictor(depth=0)


class TestContinuationSweep:
    def test_same_certificates_as_cold(self):
        # The acceptance criterion of the continuation feature: warm
        # sweeps must pass the exact same epsilon checks as cold solves.
        points = list(utilization_sweep((0.2, 0.4, 0.6, 0.8), n_users=4))
        schemes = (NashScheme(),)
        tolerance = NashScheme().tolerance
        cold = run_schemes_sweep(points, schemes)
        warm = run_schemes_sweep(points, schemes, continuation=True)
        for (rho_c, cold_res), (rho_w, warm_res) in zip(cold, warm):
            assert rho_c == rho_w
            system = dict(points)[rho_c]
            cert_cold = best_response_regrets(system, cold_res["NASH"].profile)
            cert_warm = best_response_regrets(system, warm_res["NASH"].profile)
            assert cert_cold.is_equilibrium(tolerance)
            assert cert_warm.is_equilibrium(tolerance)

    def test_warm_points_use_fewer_iterations(self):
        points = list(utilization_sweep(tuple(np.linspace(0.2, 0.8, 13)), n_users=4))
        schemes = (NashScheme(),)
        cold = run_schemes_sweep(points, schemes)
        warm = run_schemes_sweep(points, schemes, continuation=True)
        cold_total = sum(r["NASH"].extra["iterations"] for _, r in cold)
        warm_total = sum(r["NASH"].extra["iterations"] for _, r in warm)
        assert warm_total < cold_total
        # All but the cold-started first axis point are warm-started.
        warmed = [r["NASH"].extra["warm_started"] for _, r in warm]
        assert warmed.count(True) >= len(points) - 1

    def test_results_keep_input_order(self):
        points = list(utilization_sweep((0.6, 0.2, 0.4), n_users=4))
        warm = run_schemes_sweep(points, (NashScheme(),), continuation=True)
        assert [rho for rho, _ in warm] == [0.6, 0.2, 0.4]

    def test_continuation_rejects_workers(self):
        points = list(utilization_sweep((0.2, 0.4), n_users=4))
        with pytest.raises(ValueError):
            run_schemes_sweep(points, continuation=True, n_workers=2)

    def test_warm_started_scheme_solves_from_profile(self, table1_small):
        base = NashScheme()
        cold = base.allocate(table1_small)
        warmed = base.warm_started(cold.profile).allocate(table1_small)
        assert warmed.extra["init"] == "warm-start"
        # Starting at the equilibrium, the solve should converge at once.
        assert warmed.extra["iterations"] <= cold.extra["iterations"]
        np.testing.assert_allclose(
            warmed.profile.fractions, cold.profile.fractions, atol=1e-4
        )
