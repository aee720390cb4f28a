"""Bounded re-equilibration: sweep budgets and certificate early stops."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import classes
from repro.core.equilibrium import best_response_regrets
from repro.core.nash import NashSolver
from repro.engine import reequilibrate
from repro.engine.events import PhiDrift
from repro.engine.reequilibrate import converge_bounded
from repro.engine.service import OnlineEquilibriumEngine
from repro.workloads import paper_table1_system

SYSTEM = paper_table1_system(utilization=0.7, n_users=8)
TOL = 1e-6


@pytest.fixture
def no_polish(monkeypatch):
    """Every Newton polish fails, so the sweeps do all the work."""
    monkeypatch.setattr(classes, "newton_polish", lambda *args: None)


class TestBoundedConvergence:
    def test_certifies_at_target_epsilon(self):
        outcome = converge_bounded(
            SYSTEM,
            "proportional",
            tolerance=TOL,
            sweep_budget=500,
            stop="certificate",
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
            sweep_budget=500,
            stop="certificate",
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
            sweep_budget=7,
            stop="certificate",
        )
        assert outcome.sweeps <= 7
        assert not outcome.certified

    def test_early_stop_beats_sweep_norm_criterion(self, no_polish):
        # Even without the polish, the certificate of a sweep iterate
        # meets the tolerance sweeps before the sweep norm does.
        outcome = converge_bounded(
            SYSTEM,
            "proportional",
            tolerance=TOL,
            sweep_budget=500,
            stop="certificate",
        )
        norm = converge_bounded(
            SYSTEM,
            "proportional",
            tolerance=TOL,
            sweep_budget=500,
            stop="norm",
        )
        assert outcome.certified and norm.certified
        assert outcome.result.certificate is not None
        assert outcome.sweeps < norm.sweeps

    def test_unchunked_path_matches_plain_solver_exactly(self):
        outcome = converge_bounded(
            SYSTEM,
            "proportional",
            tolerance=TOL,
            sweep_budget=500,
            stop="norm",
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
            sweep_budget=500,
            stop="certificate",
        )
        cert = best_response_regrets(SYSTEM, outcome.result.profile)
        assert cert.epsilon <= TOL

    def test_norm_history_spans_power_of_two_checks(self, no_polish):
        # Without the polish the certificate fails at sweeps 1, 2, 4, ...
        # until the sweep iterate itself certifies; one history covers
        # every sweep, and the solve ends on a check.
        outcome = converge_bounded(
            SYSTEM,
            "proportional",
            tolerance=TOL,
            sweep_budget=500,
            stop="certificate",
        )
        assert outcome.certified
        assert len(outcome.result.norm_history) == outcome.sweeps
        assert outcome.sweeps > 8  # past several failed checks
        assert outcome.sweeps & (outcome.sweeps - 1) == 0
        assert outcome.result.final_norm > TOL  # the certificate stopped it

    def test_invalid_budgets_rejected(self):
        with pytest.raises(ValueError):
            converge_bounded(
                SYSTEM, "proportional", tolerance=TOL,
                sweep_budget=0, stop="certificate",
            )


class TestReusedCertificate:
    def test_certified_epoch_is_not_certified_twice(self, monkeypatch):
        engine = OnlineEquilibriumEngine(SYSTEM)
        calls = []

        def counting(aggregation, fractions):
            calls.append(1)
            return classes.certificate_or_none(aggregation, fractions)

        monkeypatch.setattr(reequilibrate, "certificate_or_none", counting)
        report = engine.process_epoch(PhiDrift(factor=1.05))
        assert report.warm_started and report.certified
        assert calls == []
        assert report.certificate is report.result.certificate

    def test_norm_stop_is_certified_afresh(self):
        outcome = converge_bounded(
            SYSTEM,
            "proportional",
            tolerance=TOL,
            sweep_budget=500,
            stop="norm",
        )
        assert outcome.result.certificate is None
        assert outcome.certificate is not None
        expected = best_response_regrets(SYSTEM, outcome.result.profile)
        assert outcome.epsilon == expected.epsilon
