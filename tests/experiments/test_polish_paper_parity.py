"""The paper's code paths never reach the Newton polish.

Fig. 2 and Fig. 3 count the paper's best-reply sweeps, and every paper
artifact must stay bit-identical, so the polish is confined to the
engine's chunked solves and multi-member exact class solves.  Here the
polish raises wherever it is bound: each paper entry point must still
run, and produce exactly what it produces with the polish in place.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import classes
from repro.core.dynamics import run_dynamic_balancing
from repro.core.nash import compute_nash_equilibrium
from repro.engine import reequilibrate
from repro.experiments import fig2_convergence, fig3_users
from repro.workloads import paper_table1_system


def _unreachable(*args):
    raise AssertionError("a paper code path reached the Newton polish")


def _ban_polish(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setattr(classes, "newton_polish", _unreachable)
    monkeypatch.setattr(reequilibrate, "newton_polish", _unreachable)


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


ENTRY_POINTS = {
    "compute_nash_equilibrium": _nash,
    "fig2_convergence": lambda: fig2_convergence.run().rows,
    "fig3_users": lambda: fig3_users.run().rows,
    "run_dynamic_balancing": _dynamics,
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_paper_path_never_polishes(name, monkeypatch):
    with_polish = ENTRY_POINTS[name]()
    _ban_polish(monkeypatch)
    without_polish = ENTRY_POINTS[name]()
    np.testing.assert_equal(without_polish, with_polish)
