"""F3 — the paper's Figure 3 (iterations to equilibrium vs number of users).

Sweeps the user population of the Table-1 system from 4 to 32 users at a
constant total arrival rate, and counts the best-reply sweeps each
initialization needs to reach the acceptance tolerance.  The paper's
claim: NASH_P needs fewer iterations than NASH_0 at every population
size, and the iteration count grows with the number of users.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.continuation import SweepPredictor
from repro.core.model import DistributedSystem
from repro.core.nash import Initialization, NashResult, NashSolver
from repro.core.strategy import StrategyProfile
from repro.experiments.common import ExperimentTable
from repro.experiments.parallel import parallel_map
from repro.workloads.sweeps import DEFAULT_USER_COUNTS, user_count_sweep

__all__ = ["run"]


def _solve_point(
    point: tuple[int, DistributedSystem, float, int],
) -> dict[str, object]:
    # Top-level function so sweep points pickle under the spawn method.
    m, system, tolerance, max_sweeps = point
    solver = NashSolver(
        tolerance=tolerance, max_sweeps=max_sweeps, stop="norm"
    )
    zero = solver.solve(system, "zero")
    prop = solver.solve(system, "proportional")
    if not (zero.converged and prop.converged):
        raise RuntimeError(f"best-reply iteration did not converge for m={m}")
    return {
        "users": m,
        "iterations_nash_0": zero.iterations,
        "iterations_nash_p": prop.iterations,
        "saving": 1.0 - prop.iterations / zero.iterations,
    }


def _run_continuation(
    points: list[tuple[int, DistributedSystem, float, int]],
) -> list[dict[str, object]]:
    """Warm-started sweep: each population size continues the previous one.

    Both columns keep their cold-start *first* point; subsequent points
    are seeded with the preceding equilibrium re-spread over the new user
    count (the aggregate split carries over; see
    :mod:`repro.core.continuation`), so the iteration counts measure the
    continuation cost rather than the paper's cold-start cost.
    """
    rows: list[dict[str, object]] = []
    predictors: dict[str, SweepPredictor] = {
        "zero": SweepPredictor(),
        "prop": SweepPredictor(),
    }
    cold_inits: tuple[tuple[str, Initialization], ...] = (
        ("zero", "zero"),
        ("prop", "proportional"),
    )
    for m, system, tolerance, max_sweeps in points:
        solver = NashSolver(
            tolerance=tolerance, max_sweeps=max_sweeps, stop="norm"
        )
        results: dict[str, NashResult] = {}
        for column, cold_init in cold_inits:
            init: Initialization | StrategyProfile = cold_init
            warm = predictors[column].predict(m, system)
            if warm is not None:
                init = warm
            result = solver.solve(system, init)
            if not result.converged:
                raise RuntimeError(
                    f"best-reply iteration did not converge for m={m}"
                )
            predictors[column].record(m, result.profile, system)
            results[column] = result
        rows.append(
            {
                "users": m,
                "iterations_nash_0": results["zero"].iterations,
                "iterations_nash_p": results["prop"].iterations,
                "saving": 1.0
                - results["prop"].iterations / results["zero"].iterations,
            }
        )
    return rows


def run(
    *,
    user_counts: Sequence[int] = DEFAULT_USER_COUNTS,
    utilization: float = 0.6,
    tolerance: float = 1e-4,
    max_sweeps: int = 2000,
    n_workers: int = 1,
    continuation: bool = False,
) -> ExperimentTable:
    """Iterations to convergence per user count, for both initializations.

    ``n_workers > 1`` evaluates the sweep points over a process pool.
    ``continuation=True`` warm-starts each population size from the
    previous one's equilibrium — note this *changes the meaning* of the
    iteration columns (continuation cost, not the paper's cold-start
    cost), which is why the figure defaults to cold starts.
    """
    points = [
        (m, system, tolerance, max_sweeps)
        for m, system in user_count_sweep(user_counts, utilization=utilization)
    ]
    if continuation:
        if n_workers != 1:
            raise ValueError(
                "continuation sweeps are sequential; use n_workers=1"
            )
        rows = _run_continuation(points)
    else:
        rows = parallel_map(_solve_point, points, n_workers=n_workers)
    notes = [
        f"Table-1 computers, utilization {utilization:.0%}, "
        f"tolerance {tolerance:g}",
    ]
    if continuation:
        notes.append(
            "continuation mode: points after the first are warm-started "
            "from the previous population's equilibrium, so iteration "
            "counts measure continuation cost, not cold-start cost"
        )
    return ExperimentTable(
        experiment_id="F3",
        title="Figure 3 — iterations to equilibrium vs number of users",
        columns=("users", "iterations_nash_0", "iterations_nash_p", "saving"),
        rows=tuple(rows),
        notes=tuple(notes),
    )
