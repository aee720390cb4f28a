"""Tests for the water-filling solvers (paper Theorem 2.1 and the Wardrop fill)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.waterfill import response_time_waterfill, sqrt_waterfill


def capacities_and_demand():
    """Hypothesis strategy: positive capacities with a feasible demand."""
    return st.tuples(
        st.lists(st.floats(0.5, 200.0), min_size=1, max_size=12),
        st.floats(0.01, 0.95),
    )


class TestSqrtWaterfillBasics:
    def test_single_computer(self):
        result = sqrt_waterfill([10.0], 4.0)
        np.testing.assert_allclose(result.loads, [4.0])
        np.testing.assert_array_equal(result.support, [0])

    def test_zero_demand(self):
        result = sqrt_waterfill([10.0, 5.0], 0.0)
        np.testing.assert_array_equal(result.loads, [0.0, 0.0])
        assert result.support.size == 0

    def test_demand_conserved(self):
        result = sqrt_waterfill([10.0, 5.0, 2.0], 7.3)
        assert result.loads.sum() == pytest.approx(7.3)

    def test_loads_nonnegative(self):
        result = sqrt_waterfill([10.0, 5.0, 2.0], 0.5)
        assert np.all(result.loads >= 0.0)

    def test_small_demand_uses_only_fastest(self):
        # With tiny demand only the fastest computer should be used:
        # threshold test excludes all with sqrt(a_k) <= t.
        result = sqrt_waterfill([100.0, 1.0], 0.01)
        assert result.loads[1] == 0.0
        assert result.loads[0] == pytest.approx(0.01)

    def test_large_demand_uses_all(self):
        a = np.array([10.0, 8.0, 6.0])
        result = sqrt_waterfill(a, 23.0)
        assert np.all(result.loads > 0.0)
        assert np.all(result.loads < a)

    def test_homogeneous_split_evenly(self):
        result = sqrt_waterfill([5.0, 5.0, 5.0, 5.0], 10.0)
        np.testing.assert_allclose(result.loads, 2.5)

    def test_order_independence(self):
        a = [2.0, 10.0, 5.0]
        forward = sqrt_waterfill(a, 6.0).loads
        backward = sqrt_waterfill(a[::-1], 6.0).loads
        np.testing.assert_allclose(forward, backward[::-1], atol=1e-12)

    def test_closed_form_on_support(self):
        a = np.array([10.0, 8.0, 1.0])
        result = sqrt_waterfill(a, 5.0)
        t = result.threshold
        for i in result.support:
            assert result.loads[i] == pytest.approx(
                a[i] - t * np.sqrt(a[i]), rel=1e-9
            )

    def test_nonpositive_capacity_excluded(self):
        result = sqrt_waterfill([10.0, -3.0, 0.0], 2.0)
        assert result.loads[1] == 0.0
        assert result.loads[2] == 0.0
        assert result.loads[0] == pytest.approx(2.0)

    def test_rejects_infeasible_demand(self):
        with pytest.raises(ValueError, match="demand"):
            sqrt_waterfill([1.0, 1.0], 2.0)

    def test_rejects_negative_demand(self):
        with pytest.raises(ValueError):
            sqrt_waterfill([1.0], -0.5)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            sqrt_waterfill([[1.0, 2.0]], 0.5)
        with pytest.raises(ValueError):
            sqrt_waterfill([], 0.5)

    def test_rejects_nan_capacity(self):
        with pytest.raises(ValueError):
            sqrt_waterfill([np.nan, 1.0], 0.5)


class TestSqrtWaterfillOptimality:
    """The fill must satisfy the KKT conditions of min sum x/(a - x)."""

    @staticmethod
    def total_delay(a, x):
        used = x > 0
        return float((x[used] / (a[used] - x[used])).sum())

    def test_kkt_equal_marginals_on_support(self):
        a = np.array([30.0, 20.0, 10.0, 5.0])
        result = sqrt_waterfill(a, 20.0)
        x = result.loads
        marginals = a / (a - x) ** 2
        on = result.support
        np.testing.assert_allclose(
            marginals[on], marginals[on][0], rtol=1e-9
        )

    def test_kkt_excluded_marginals_higher(self):
        a = np.array([30.0, 1.0])
        result = sqrt_waterfill(a, 1.0)
        assert result.loads[1] == 0.0
        alpha = a[0] / (a[0] - result.loads[0]) ** 2
        assert 1.0 / a[1] >= alpha - 1e-12

    def test_beats_random_feasible_allocations(self, rng):
        a = np.array([25.0, 12.0, 7.0, 3.0])
        demand = 15.0
        best = sqrt_waterfill(a, demand)
        optimal = self.total_delay(a, best.loads)
        for _ in range(200):
            w = rng.dirichlet(np.ones(a.size))
            x = w * demand
            if np.any(x >= a):
                continue
            assert self.total_delay(a, x) >= optimal - 1e-9

    def test_matches_scipy_slsqp(self):
        from scipy import optimize

        a = np.array([18.0, 9.0, 4.0])
        demand = 12.0

        def objective(x):
            return float((x / (a - x)).sum())

        result = optimize.minimize(
            objective,
            x0=np.full(3, demand / 3),
            bounds=[(0.0, ai * (1 - 1e-9)) for ai in a],
            constraints=[{"type": "eq", "fun": lambda x: x.sum() - demand}],
            method="SLSQP",
            options={"ftol": 1e-14, "maxiter": 500},
        )
        fill = sqrt_waterfill(a, demand)
        assert objective(fill.loads) <= result.fun + 1e-9
        np.testing.assert_allclose(fill.loads, result.x, atol=1e-5)

    @given(capacities_and_demand())
    @settings(max_examples=120, deadline=None)
    def test_properties_hold_generically(self, case):
        capacities, load_factor = case
        a = np.asarray(capacities)
        demand = load_factor * a.sum()
        result = sqrt_waterfill(a, demand)
        x = result.loads
        assert x.sum() == pytest.approx(demand, rel=1e-9)
        assert np.all(x >= 0.0)
        assert np.all(x < a)
        # Faster computers never receive less load.
        order = np.argsort(-a, kind="stable")
        sorted_loads = x[order]
        assert np.all(np.diff(sorted_loads) <= 1e-9)


class TestResponseTimeWaterfill:
    def test_equal_response_times_on_support(self):
        a = np.array([20.0, 10.0, 5.0])
        result = response_time_waterfill(a, 18.0)
        x = result.loads
        on = result.support
        times = 1.0 / (a[on] - x[on])
        np.testing.assert_allclose(times, times[0], rtol=1e-9)
        assert times[0] == pytest.approx(result.threshold, rel=1e-9)

    def test_unused_slower_even_idle(self):
        a = np.array([50.0, 1.0])
        result = response_time_waterfill(a, 5.0)
        assert result.loads[1] == 0.0
        assert 1.0 / a[1] >= result.threshold - 1e-12

    def test_demand_conserved(self):
        result = response_time_waterfill([10.0, 6.0, 3.0], 11.0)
        assert result.loads.sum() == pytest.approx(11.0)

    def test_zero_demand(self):
        result = response_time_waterfill([4.0], 0.0)
        assert result.loads[0] == 0.0

    def test_full_usage_threshold_closed_form(self):
        # With all computers used: 1/tau = (sum(mu) - demand) / n.
        a = np.array([10.0, 9.0, 8.0])
        demand = 24.0
        result = response_time_waterfill(a, demand)
        assert np.all(result.loads > 0.0)
        expected_tau = a.size / (a.sum() - demand)
        assert result.threshold == pytest.approx(expected_tau, rel=1e-9)

    def test_rejects_infeasible(self):
        with pytest.raises(ValueError):
            response_time_waterfill([2.0], 2.0)

    @pytest.mark.parametrize(
        ("capacities", "demand", "fastest"),
        [([2.0, 2.0, 2.0], 1e-16, [0, 1, 2]), ([4.0, 4.0], 1e-300, [0, 1]),
         ([3.0, 2.0], 1e-17, [0])],
    )
    def test_demand_below_round_off_splits_over_the_fastest_ties(
        self, capacities, demand, fastest
    ):
        # No support prefix passes a_c > (sum a - demand) / c here: the
        # demand vanishes in the rates' round-off.
        result = response_time_waterfill(capacities, demand)
        expected = np.zeros(len(capacities))
        expected[fastest] = demand / len(fastest)
        np.testing.assert_array_equal(result.loads, expected)
        np.testing.assert_array_equal(result.support, fastest)
        assert result.threshold == pytest.approx(1.0 / capacities[0], rel=1e-12)

    @given(capacities_and_demand())
    @settings(max_examples=120, deadline=None)
    def test_wardrop_conditions_generic(self, case):
        capacities, load_factor = case
        a = np.asarray(capacities)
        demand = load_factor * a.sum()
        result = response_time_waterfill(a, demand)
        x = result.loads
        assert x.sum() == pytest.approx(demand, rel=1e-9)
        assert np.all(x < a)
        if demand > 0:
            tau = result.threshold
            used = x > 1e-12
            if np.any(used):
                np.testing.assert_allclose(
                    1.0 / (a[used] - x[used]), tau, rtol=1e-6
                )
            idle = ~used & (a > 0)
            assert np.all(1.0 / a[idle] >= tau * (1 - 1e-9))
