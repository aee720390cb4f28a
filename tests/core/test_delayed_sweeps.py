"""The delayed game on the class engine's sweep loop.

``DelayedNashSolver`` runs :meth:`ClassNashSolver.run_sweeps` with the
delays as ``offsets``; these tests pin the combinations the engine
refuses and that a Jacobi sweep is every user's delayed best reply.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.best_response import optimal_fractions
from repro.core.classes import ClassAggregation, ClassNashSolver
from repro.core.comm_delay import DelayedGame, DelayedNashSolver, delayed_best_response
from repro.workloads.configs import paper_table1_system


@pytest.fixture(scope="module")
def game():
    system = paper_table1_system(utilization=0.6, n_users=4)
    distance = system.service_rates / system.service_rates.min() - 1.0
    return DelayedGame(system, 0.05 * distance)


def _run(solver, game, **kwargs):
    users = ClassAggregation.of_users(game.system)
    return solver.run_sweeps(
        users, users.proportional_fractions(), offsets=game.delays, **kwargs
    )


@pytest.mark.parametrize(
    "solver",
    [
        ClassNashSolver(),  # certificate stop
        ClassNashSolver(stop="norm", sample_k=3),
    ],
    ids=["certificate_stop", "sample_k_below_n"],
)
def test_offsets_refuse_the_certificate_and_sampled_replies(solver, game):
    with pytest.raises(ValueError, match="offsets"):
        _run(solver, game)


def test_simultaneous_sweep_is_every_users_delayed_reply(game):
    # One Jacobi sweep: every user replies to the proportional start.
    system = game.system
    start = np.tile(system.service_rates / system.total_processing_rate, (4, 1))
    run = _run(ClassNashSolver(max_sweeps=1, order="simultaneous", stop="norm"), game)
    for j in range(system.n_users):
        available = system.available_rates(start, j)
        phi = float(system.arrival_rates[j])
        np.testing.assert_allclose(
            run.flows[j] / phi,
            delayed_best_response(available, game.delays[j], phi),
            rtol=0.0,
            atol=1e-12,
        )


def test_zero_delays_give_the_water_fill():
    a = np.array([20.0, 10.0, 5.0, 0.0, -1.0])
    reply = delayed_best_response(a, np.zeros(5), 12.0)
    np.testing.assert_allclose(reply, optimal_fractions(a, 12.0).fractions, atol=1e-14)
