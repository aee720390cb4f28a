"""Parity between the vectorized solver and the frozen reference driver.

The production :class:`~repro.core.nash.NashSolver` maintains the
aggregate load incrementally and batches the Jacobi sweep; the frozen
:func:`~repro.core.reference.reference_solve` recomputes everything from
scratch.  On the paper's configurations (and randomized systems) the two
must agree on norm histories, iteration counts and final profiles for
every update order — the guarantee that the optimization changed the
cost, not the algorithm.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.equilibrium import best_response_regrets
from repro.core.best_response import best_response
from repro.core.model import DistributedSystem
from repro.core.nash import NashSolver
from repro.core.reference import reference_solve
from repro.workloads import paper_table1_system

ORDERS = ("roundrobin", "random", "simultaneous")


def assert_parity(system, *, order, init="proportional", max_sweeps=500):
    solver = NashSolver(
        order=order, max_sweeps=max_sweeps, record_history=True, stop="norm"
    )
    fast = solver.solve(system, init)
    slow = reference_solve(
        system, init, order=order, max_sweeps=max_sweeps, record_history=True
    )
    assert fast.iterations == slow.iterations
    assert fast.converged == slow.converged
    np.testing.assert_allclose(
        fast.norm_history, slow.norm_history, rtol=0.0, atol=1e-9
    )
    np.testing.assert_allclose(
        fast.profile.fractions, slow.profile.fractions, atol=1e-10
    )
    for fast_p, slow_p in zip(fast.profile_history, slow.profile_history):
        np.testing.assert_allclose(
            fast_p.fractions, slow_p.fractions, atol=1e-10
        )


class TestSolverParityTable1:
    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("utilization", [0.3, 0.6, 0.9])
    def test_table1_parity(self, order, utilization):
        system = paper_table1_system(utilization=utilization)
        # The Jacobi order can oscillate at high load; cap its budget so
        # both solvers walk the same fixed number of sweeps.
        max_sweeps = 40 if order == "simultaneous" else 500
        assert_parity(system, order=order, max_sweeps=max_sweeps)

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("init", ["zero", "proportional"])
    def test_initializations(self, table1_small, order, init):
        max_sweeps = 40 if order == "simultaneous" else 500
        assert_parity(table1_small, order=order, init=init, max_sweeps=max_sweeps)

    def test_randomized_heterogeneous_system(self, rng):
        mu = rng.uniform(5.0, 120.0, size=11)
        phi = rng.uniform(0.2, 2.0, size=23)
        phi *= 0.7 * mu.sum() / phi.sum()
        system = DistributedSystem(service_rates=mu, arrival_rates=phi)
        for order in ORDERS:
            max_sweeps = 25 if order == "simultaneous" else 500
            assert_parity(system, order=order, max_sweeps=max_sweeps)


class TestRegretsVectorizationParity:
    def test_certificate_matches_per_user_loop(self, table1_medium):
        result = NashSolver().solve(table1_medium)
        cert = best_response_regrets(table1_medium, result.profile)
        looped = np.array(
            [
                best_response(
                    table1_medium, result.profile, j
                ).expected_response_time
                for j in range(table1_medium.n_users)
            ]
        )
        np.testing.assert_allclose(
            cert.best_response_times, looped, rtol=1e-12
        )
        assert cert.epsilon <= 1e-5
