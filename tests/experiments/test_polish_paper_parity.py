"""The paper's code paths never reach the Newton polish.

Fig. 2 and Fig. 3 count the paper's best-reply sweeps, and every paper
artifact must stay bit-identical, so the paper's entry points solve with
``stop="norm"`` and the polish is confined to solves with the default
certificate stop, engine epochs among them.  Here the polish
raises wherever it is bound: each paper entry point must still run, and
produce exactly what it produces with the polish in place.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import classes
from repro.core.dynamics import run_dynamic_balancing
from repro.core.nash import compute_nash_equilibrium
from repro.engine import reequilibrate
from repro.experiments import ext_dynamics, fig2_convergence, fig3_users
from repro.schemes import NashScheme
from repro.workloads import paper_table1_system


def _unreachable(*args):
    raise AssertionError("a paper code path reached the Newton polish")


def _ban_polish(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setattr(classes, "newton_polish", _unreachable)


def _nash():
    result = compute_nash_equilibrium(paper_table1_system(utilization=0.7))
    return result.profile.fractions, result.norm_history, result.iterations


def _dynamics():
    systems = [
        paper_table1_system(utilization=0.5 + 0.05 * k, n_users=4)
        for k in range(4)
    ]
    result = run_dynamic_balancing(systems)
    return (
        result.iterations_per_episode,
        result.user_time_trajectory,
        [episode.result.profile.fractions for episode in result.episodes],
    )


def _nash_scheme():
    allocation = NashScheme().allocate(paper_table1_system(utilization=0.7))
    return allocation.profile.fractions, allocation.extra


def _converge_unchunked():
    outcome = reequilibrate.converge_bounded(
        paper_table1_system(utilization=0.7),
        "proportional",
        tolerance=1e-6,
        sweep_budget=500,
        stop="norm",
    )
    result = outcome.result
    return result.profile.fractions, result.norm_history, result.iterations


ENTRY_POINTS = {
    "abl3_update_order": lambda: ext_dynamics.run_update_order_ablation().rows,
    "compute_nash_equilibrium": _nash,
    "converge_bounded_unchunked": _converge_unchunked,
    "fig2_convergence": lambda: fig2_convergence.run().rows,
    "fig3_users": lambda: fig3_users.run().rows,
    "nash_scheme_allocate": _nash_scheme,
    "run_dynamic_balancing": _dynamics,
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_paper_path_never_polishes(name, monkeypatch):
    with_polish = ENTRY_POINTS[name]()
    _ban_polish(monkeypatch)
    without_polish = ENTRY_POINTS[name]()
    np.testing.assert_equal(without_polish, with_polish)
