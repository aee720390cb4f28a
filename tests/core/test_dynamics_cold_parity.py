"""Cold dynamic re-balancing is a sequence of independent paper solves."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dynamics import run_dynamic_balancing
from repro.core.nash import NashSolver
from repro.workloads.configs import paper_table1_system


@pytest.mark.parametrize("init", ["zero", "proportional", "uniform"])
def test_cold_episodes_equal_independent_solves(init):
    systems = [
        paper_table1_system(utilization=rho, n_users=users)
        for rho, users in ((0.4, 4), (0.7, 4), (0.55, 6), (0.8, 6))
    ]
    result = run_dynamic_balancing(systems, warm_start=False, cold_init=init)
    solver = NashSolver(stop="norm")
    for system, episode in zip(systems, result.episodes):
        expected = solver.solve(system, init)
        assert episode.iterations == expected.iterations
        np.testing.assert_array_equal(
            episode.result.profile.fractions, expected.profile.fractions
        )
        np.testing.assert_array_equal(
            episode.result.norm_history, expected.norm_history
        )
