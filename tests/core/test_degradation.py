"""Tests for graceful degradation onto a surviving computer set."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.degradation import (
    CapacityExhausted,
    degraded_equilibrium,
    embed_profile,
    project_profile,
    surviving_subsystem,
)
from repro.core.nash import compute_nash_equilibrium
from repro.workloads.configs import paper_table1_system


@pytest.fixture(scope="module")
def system():
    return paper_table1_system(utilization=0.6, n_users=4)


class TestSurvivingSubsystem:
    def test_subsets_computers(self, system):
        mask = np.ones(system.n_computers, dtype=bool)
        mask[[3, 7]] = False
        sub = surviving_subsystem(system, mask)
        assert sub.n_computers == system.n_computers - 2
        np.testing.assert_array_equal(
            sub.service_rates, system.service_rates[mask]
        )
        np.testing.assert_array_equal(
            sub.arrival_rates, system.arrival_rates
        )

    def test_full_mask_is_identity(self, system):
        sub = surviving_subsystem(
            system, np.ones(system.n_computers, dtype=bool)
        )
        np.testing.assert_array_equal(
            sub.service_rates, system.service_rates
        )

    def test_infeasible_raises_with_diagnostics(self, system):
        # Killing both 100 jobs/s computers and a 50 leaves 260 < 306.
        mask = np.ones(system.n_computers, dtype=bool)
        mask[[0, 1, 2]] = False
        with pytest.raises(CapacityExhausted) as excinfo:
            surviving_subsystem(system, mask)
        exc = excinfo.value
        assert exc.total_arrival_rate == pytest.approx(306.0)
        assert exc.surviving_capacity == pytest.approx(260.0)
        assert exc.deficit == pytest.approx(46.0)
        assert exc.offline == (0, 1, 2)
        assert "deficit" in str(exc)

    def test_no_survivors_raises(self, system):
        with pytest.raises(CapacityExhausted):
            surviving_subsystem(
                system, np.zeros(system.n_computers, dtype=bool)
            )

    def test_wrong_mask_shape_rejected(self, system):
        with pytest.raises(ValueError, match="one entry per computer"):
            surviving_subsystem(system, [True, False])


class TestProjectProfile:
    def test_preserves_row_totals(self, system):
        eq = compute_nash_equilibrium(system)
        mask = np.ones(system.n_computers, dtype=bool)
        mask[5] = False
        projected = project_profile(eq.profile.fractions, mask)
        np.testing.assert_allclose(projected.sum(axis=1), 1.0)
        assert np.all(projected[:, 5] == 0.0)

    def test_flows_space_preserves_phi(self, system):
        eq = compute_nash_equilibrium(system)
        flows = eq.profile.fractions * system.arrival_rates[:, None]
        mask = np.ones(system.n_computers, dtype=bool)
        mask[[0, 8]] = False
        projected = project_profile(flows, mask)
        np.testing.assert_allclose(
            projected.sum(axis=1), system.arrival_rates
        )

    def test_stranded_row_uses_fallback_rates(self):
        # All of user 0's mass sits on the (dying) first computer.
        matrix = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]])
        mask = np.array([False, True, True])
        projected = project_profile(
            matrix, mask, fallback_rates=[10.0, 30.0, 10.0]
        )
        np.testing.assert_allclose(projected[0], [0.0, 0.75, 0.25])
        np.testing.assert_allclose(projected[1], [0.0, 0.5, 0.5])

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_non_positive_or_non_finite_fallback_rejected(self, bad):
        with pytest.raises(ValueError, match="fallback rates"):
            project_profile(
                [[0.0, 0.0, 1.0]],
                [True, True, False],
                fallback_rates=[1.0, bad, 2.0],
            )

    def test_stranded_row_uniform_without_fallback(self):
        matrix = np.array([[1.0, 0.0, 0.0]])
        mask = np.array([False, True, True])
        projected = project_profile(matrix, mask)
        np.testing.assert_allclose(projected[0], [0.0, 0.5, 0.5])

    def test_zero_row_stays_zero(self):
        # An all-zero row is NASH_0's "not yet allocated", not stranded.
        matrix = np.zeros((1, 3))
        mask = np.array([True, True, False])
        np.testing.assert_array_equal(
            project_profile(matrix, mask), np.zeros((1, 3))
        )

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="empty computer set"):
            project_profile(np.ones((1, 2)), [False, False])


class TestEmbedProfile:
    def test_round_trip(self):
        sub = np.array([[0.25, 0.75], [0.5, 0.5]])
        mask = np.array([True, False, True])
        full = embed_profile(sub, mask)
        assert full.shape == (2, 3)
        np.testing.assert_array_equal(full[:, 1], 0.0)
        np.testing.assert_array_equal(full[:, [0, 2]], sub)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="width"):
            embed_profile(np.ones((1, 3)), [True, False, True])


class TestDegradedEquilibrium:
    def test_matches_subsystem_solve(self, system):
        mask = np.ones(system.n_computers, dtype=bool)
        mask[[2, 10]] = False
        result = degraded_equilibrium(system, mask, tolerance=1e-8)
        sub = surviving_subsystem(system, mask)
        direct = compute_nash_equilibrium(sub, tolerance=1e-8)
        assert result.converged
        np.testing.assert_allclose(
            result.profile.fractions[:, mask],
            direct.profile.fractions,
            atol=1e-12,
        )
        assert np.all(result.profile.fractions[:, ~mask] == 0.0)

    def test_full_mask_matches_full_solve(self, system):
        mask = np.ones(system.n_computers, dtype=bool)
        result = degraded_equilibrium(system, mask, tolerance=1e-8)
        full = compute_nash_equilibrium(system, tolerance=1e-8)
        np.testing.assert_allclose(
            result.profile.fractions, full.profile.fractions, atol=1e-12
        )

    def test_infeasible_mask_raises(self, system):
        mask = np.ones(system.n_computers, dtype=bool)
        mask[[0, 1, 2]] = False
        with pytest.raises(CapacityExhausted):
            degraded_equilibrium(system, mask)
