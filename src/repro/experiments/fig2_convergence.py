"""F2 — the paper's Figure 2 (norm vs number of iterations).

Runs the NASH best-reply algorithm on the Table-1 system (16 computers,
10 users) from both initializations and reports the convergence norm
after every sweep.  The paper's qualitative claim: NASH_P (proportional
initialization) starts much closer to the equilibrium and needs
substantially fewer iterations than NASH_0 at any acceptance tolerance.
"""

from __future__ import annotations

import numpy as np

from repro.core.nash import NashSolver
from repro.experiments.common import ExperimentTable
from repro.workloads.configs import paper_table1_system

__all__ = ["run"]


def run(
    *,
    utilization: float = 0.6,
    n_users: int = 10,
    tolerance: float = 1e-8,
    max_sweeps: int = 500,
) -> ExperimentTable:
    """Norm trajectory per sweep for NASH_0 and NASH_P.

    ``tolerance`` is set tight so both trajectories are traced far past
    any practical stopping point, as in the paper's semi-log plot.
    """
    system = paper_table1_system(utilization=utilization, n_users=n_users)
    solver = NashSolver(
        tolerance=tolerance, max_sweeps=max_sweeps, stop="norm"
    )
    trajectories = {
        "NASH_0": solver.solve(system, "zero").norm_history,
        "NASH_P": solver.solve(system, "proportional").norm_history,
    }
    length = max(h.size for h in trajectories.values())
    rows = []
    for i in range(length):
        row: dict[str, object] = {"iteration": i + 1}
        for name, history in trajectories.items():
            row[f"norm_{name.lower()}"] = (
                float(history[i]) if i < history.size else None
            )
        rows.append(row)

    def iters_below(history: np.ndarray, eps: float) -> int:
        below = np.flatnonzero(history <= eps)
        return int(below[0]) + 1 if below.size else -1

    notes = [
        f"system: Table 1, {n_users} users, utilization {utilization:.0%}",
    ]
    for eps in (1e-2, 1e-4, 1e-6):
        n0 = iters_below(trajectories["NASH_0"], eps)
        np_ = iters_below(trajectories["NASH_P"], eps)
        notes.append(f"iterations to norm <= {eps:g}: NASH_0={n0}, NASH_P={np_}")
    return ExperimentTable(
        experiment_id="F2",
        title="Figure 2 — convergence norm vs iterations (NASH_0 vs NASH_P)",
        columns=("iteration", "norm_nash_0", "norm_nash_p"),
        rows=tuple(rows),
        notes=tuple(notes),
    )
