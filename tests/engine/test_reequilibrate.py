"""Bounded re-equilibration: sweep budgets and certificate early stops."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.equilibrium import best_response_regrets
from repro.core.nash import NashSolver
from repro.engine import reequilibrate
from repro.engine.reequilibrate import converge_bounded
from repro.workloads import paper_table1_system

SYSTEM = paper_table1_system(utilization=0.7, n_users=8)
TOL = 1e-6


@pytest.fixture
def no_polish(monkeypatch):
    """Every Newton polish fails, so the chunked sweeps do all the work."""
    monkeypatch.setattr(reequilibrate, "newton_polish", lambda *args: None)


class TestBoundedConvergence:
    def test_certifies_at_target_epsilon(self):
        outcome = converge_bounded(
            SYSTEM,
            "proportional",
            tolerance=TOL,
            epsilon=TOL,
            sweep_budget=500,
            certify_every=16,
        )
        assert outcome.certified
        assert outcome.certificate is not None
        assert outcome.epsilon <= TOL
        assert outcome.result.converged

    def test_polish_certifies_after_one_sweep(self):
        outcome = converge_bounded(
            SYSTEM,
            "proportional",
            tolerance=TOL,
            epsilon=TOL,
            sweep_budget=500,
            certify_every=16,
        )
        assert outcome.certified
        assert outcome.sweeps == 1
        assert len(outcome.result.norm_history) == 1
        cert = best_response_regrets(SYSTEM, outcome.result.profile)
        assert cert.epsilon <= TOL

    def test_sweep_budget_is_a_hard_cap(self, no_polish):
        # Without the polish, 1e-14 is out of reach in 7 sweeps (the
        # polish certifies it at ~1e-17 after one).
        outcome = converge_bounded(
            SYSTEM,
            "proportional",
            tolerance=1e-14,
            epsilon=1e-14,
            sweep_budget=7,
            certify_every=3,
        )
        assert outcome.sweeps <= 7
        assert not outcome.certified

    def test_early_stop_beats_sweep_norm_criterion(self):
        # A loose epsilon certifies long before the tight sweep norm.
        outcome = converge_bounded(
            SYSTEM,
            "proportional",
            tolerance=1e-12,
            epsilon=1e-3,
            sweep_budget=500,
            certify_every=4,
        )
        assert outcome.certified
        assert outcome.early_stopped
        full = NashSolver(tolerance=1e-12, stop="norm").solve(
            SYSTEM, "proportional"
        )
        assert outcome.sweeps < full.iterations

    def test_unchunked_path_matches_plain_solver_exactly(self):
        outcome = converge_bounded(
            SYSTEM,
            "proportional",
            tolerance=TOL,
            epsilon=TOL,
            sweep_budget=500,
            certify_every=None,
        )
        plain = NashSolver(tolerance=TOL, max_sweeps=500, stop="norm").solve(
            SYSTEM, "proportional"
        )
        assert outcome.result.iterations == plain.iterations
        assert np.array_equal(
            outcome.result.profile.fractions, plain.profile.fractions
        )
        assert np.array_equal(
            outcome.result.norm_history, plain.norm_history
        )

    def test_chunked_profile_is_a_true_equilibrium(self):
        outcome = converge_bounded(
            SYSTEM,
            "uniform",
            tolerance=TOL,
            epsilon=TOL,
            sweep_budget=500,
            certify_every=8,
        )
        cert = best_response_regrets(SYSTEM, outcome.result.profile)
        assert cert.epsilon <= TOL

    def test_norm_history_accumulates_across_chunks(self, no_polish):
        # The polish stops after one sweep; without it the chunks run.
        outcome = converge_bounded(
            SYSTEM,
            "proportional",
            tolerance=TOL,
            epsilon=TOL,
            sweep_budget=500,
            certify_every=8,
        )
        assert len(outcome.result.norm_history) == outcome.sweeps
        assert outcome.sweeps > 8  # needed more than one chunk

    def test_invalid_budgets_rejected(self):
        with pytest.raises(ValueError):
            converge_bounded(
                SYSTEM, "proportional", tolerance=TOL, epsilon=TOL,
                sweep_budget=0, certify_every=None,
            )
        with pytest.raises(ValueError):
            converge_bounded(
                SYSTEM, "proportional", tolerance=TOL, epsilon=TOL,
                sweep_budget=10, certify_every=0,
            )
