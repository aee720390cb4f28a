"""Parity tests for the one batched best-reply kernel.

``optimal_fractions_batch`` is the batched sqrt water-fill of Theorem
2.1.  Each of its rows must carry the *same numbers* as the scalar
solvers on that row — flows, fractions, expected time and support — on
randomized heterogeneous instances, including rows with unavailable
(nonpositive-rate) computers.  These are the property-style guarantees
the vectorized NASH core rests on (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.best_response import (
    optimal_fractions,
    optimal_fractions_batch,
)
from repro.core.waterfill import InfeasibleDemand, sqrt_waterfill


def random_instances(rng, m: int, n: int):
    """Randomized heterogeneous (capacities, demands) with unusable slots."""
    a = rng.uniform(0.5, 60.0, size=(m, n))
    # Knock out a sprinkling of computers per row (nonpositive capacity).
    knockout = rng.random((m, n)) < 0.15
    a[knockout] = rng.choice([-1.0, 0.0], size=int(knockout.sum()))
    capacity = np.where(a > 0.0, a, 0.0).sum(axis=1)
    d = rng.uniform(0.05, 0.9, size=m) * capacity
    return a, d


class TestSqrtWaterfillBatchParity:
    """Row flows ``fractions * d`` against the scalar ``sqrt_waterfill``."""

    @pytest.mark.parametrize("m,n", [(1, 1), (7, 3), (40, 13), (120, 29)])
    def test_matches_scalar_loop(self, rng, m, n):
        a, d = random_instances(rng, m, n)
        batch = optimal_fractions_batch(a, d)
        for j in range(m):
            scalar = sqrt_waterfill(a[j], float(d[j]))
            np.testing.assert_allclose(
                batch.fractions[j] * d[j], scalar.loads, rtol=1e-12, atol=1e-12
            )
            np.testing.assert_array_equal(
                np.flatnonzero(batch.fractions[j] > 0.0), scalar.support
            )

    def test_zero_demand_rows(self, rng):
        # A best reply needs a positive job rate; a zero row is rejected
        # rather than answered with an empty strategy.
        a, d = random_instances(rng, 6, 5)
        d[2] = 0.0
        with pytest.raises(ValueError, match="strictly positive"):
            optimal_fractions_batch(a, d)

    def test_unusable_computers_get_nothing(self, rng):
        a, d = random_instances(rng, 10, 8)
        batch = optimal_fractions_batch(a, d)
        assert not batch.fractions[a <= 0.0].any()
        assert np.all(np.isfinite(batch.expected_response_times))

    def test_demands_met_exactly(self, rng):
        a, d = random_instances(rng, 30, 6)
        batch = optimal_fractions_batch(a, d)
        np.testing.assert_allclose(
            (batch.fractions * d[:, None]).sum(axis=1), d, rtol=1e-12
        )
        assert np.all(batch.fractions >= 0.0)


class TestSqrtWaterfillBatchValidation:
    def test_infeasible_row_reports_user(self):
        a = np.array([[4.0, 4.0], [1.0, 1.0]])
        with pytest.raises(InfeasibleDemand) as excinfo:
            optimal_fractions_batch(a, [2.0, 5.0])
        err = excinfo.value
        assert err.user == 1
        assert err.demand == pytest.approx(5.0)
        assert err.capacity == pytest.approx(2.0)
        assert "user 1" in str(err)

    def test_infeasible_is_a_value_error(self):
        a = np.array([[1.0, 1.0]])
        with pytest.raises(ValueError):
            optimal_fractions_batch(a, [7.0])
        # A row whose computers are all unusable has no capacity at all.
        with pytest.raises(InfeasibleDemand) as excinfo:
            optimal_fractions_batch(np.array([[2.0, 1.0], [0.0, -1.0]]), [1.0, 0.5])
        assert excinfo.value.user == 1
        assert excinfo.value.capacity == 0.0

    def test_shape_validation(self):
        with pytest.raises(ValueError, match=r"\(m, n\) matrix"):
            optimal_fractions_batch(np.ones(3), [1.0])
        with pytest.raises(ValueError, match=r"\(m, n\) matrix"):
            optimal_fractions_batch(np.ones((0, 3)), [])
        with pytest.raises(ValueError, match="one entry per"):
            optimal_fractions_batch(np.ones((2, 3)), [1.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            optimal_fractions_batch(np.array([[np.inf, 1.0]]), [0.5])
        with pytest.raises(ValueError, match="finite and strictly positive"):
            optimal_fractions_batch(np.ones((1, 2)), [np.nan])
        with pytest.raises(ValueError, match="finite and strictly positive"):
            optimal_fractions_batch(np.ones((1, 2)), [-0.5])


class TestInfeasibleDemandScalar:
    def test_scalar_waterfill_raises_typed_error(self):
        with pytest.raises(InfeasibleDemand) as excinfo:
            sqrt_waterfill(np.array([2.0, 3.0]), 10.0)
        err = excinfo.value
        assert err.user is None
        assert err.demand == pytest.approx(10.0)
        assert err.capacity == pytest.approx(5.0)

    def test_optimal_fractions_raises_typed_error(self):
        with pytest.raises(InfeasibleDemand):
            optimal_fractions(np.array([1.0, 1.0]), 3.0)


class TestOptimalFractionsBatchParity:
    """Each row against the scalar ``optimal_fractions``."""

    def test_matches_scalar_loop(self, rng):
        a, d = random_instances(rng, 25, 9)
        batch = optimal_fractions_batch(a, d)
        for j in range(25):
            scalar = optimal_fractions(a[j], float(d[j]))
            np.testing.assert_allclose(
                batch.fractions[j], scalar.fractions, rtol=1e-12, atol=1e-12
            )
            assert batch.expected_response_times[j] == pytest.approx(
                scalar.expected_response_time, rel=1e-12
            )
            np.testing.assert_array_equal(
                np.flatnonzero(batch.fractions[j] > 0.0), scalar.support
            )

    def test_fractions_rows_sum_to_one(self, rng):
        a = rng.uniform(1.0, 50.0, size=(12, 5))
        d = 0.4 * a.sum(axis=1)
        batch = optimal_fractions_batch(a, d)
        np.testing.assert_allclose(batch.fractions.sum(axis=1), 1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="strictly positive"):
            optimal_fractions_batch(np.ones((2, 3)), [1.0, 0.0])
        with pytest.raises(ValueError, match=r"\(m, n\) matrix"):
            optimal_fractions_batch(np.ones(3), [1.0])
