"""EXT2/ABL3/ABL4 — dynamics-oriented extensions and ablations.

* **EXT2 (static vs dynamic dispatch)** — how much could the paper's
  static NASH equilibrium gain from live queue-state information?  The
  event engine simulates the classical dynamic policies (JSQ, least
  expected delay, power-of-two choices) against the static schemes on the
  same job streams — the paper's "dynamic load balancing" future work,
  quantified.
* **ABL3 (best-reply update order)** — the paper serializes updates
  round-robin.  This ablation compares round-robin (Gauss-Seidel), random
  permutations, and simultaneous (Jacobi) updates; the last oscillates,
  demonstrating that the serialization is load-bearing.
* **ABL4 (observation noise)** — the paper's users estimate available
  rates from run-queue lengths.  This ablation injects lognormal
  observation noise into the best-reply dynamics and measures the
  distance-to-equilibrium plateau, with and without EMA smoothing.
* **EXT3 (cooperative bargaining)** — the Nash Bargaining Solution next
  to NASH/GOS/PS, completing the paper's intro taxonomy (global /
  cooperative / noncooperative).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.nash import NashSolver
from repro.core.uncertainty import NoisyNashSolver
from repro.experiments.common import ExperimentTable
from repro.schemes import (
    GlobalOptimalScheme,
    IndividualOptimalScheme,
    NashScheme,
    ProportionalScheme,
)
from repro.schemes.cooperative import CooperativeScheme
from repro.simengine import (
    JoinShortestQueue,
    LeastExpectedDelay,
    PowerOfTwoChoices,
    simulate_policy,
    simulate_profile,
)
from repro.workloads.configs import paper_table1_system

__all__ = [
    "run_dynamic_policies",
    "run_update_order_ablation",
    "run_noise_ablation",
    "run_cooperative",
]


def run_dynamic_policies(
    *,
    utilization: float = 0.6,
    n_users: int = 10,
    horizon: float = 400.0,
    warmup: float = 40.0,
    seed: int = 11,
) -> ExperimentTable:
    """EXT2: simulated mean response time, static schemes vs dynamic policies."""
    system = paper_table1_system(utilization=utilization, n_users=n_users)
    rows = []

    static = {
        "NASH (static)": NashScheme().allocate(system).profile,
        "PS (static)": ProportionalScheme().allocate(system).profile,
    }
    for name, profile in static.items():
        result = simulate_profile(
            system, profile, horizon=horizon, warmup=warmup, seed=seed
        )
        rows.append(
            {
                "policy": name,
                "mean_response_time": result.overall_mean_response_time(),
                "jobs": result.total_jobs,
            }
        )

    dynamic = {
        "JSQ (dynamic)": JoinShortestQueue(),
        "LED (dynamic)": LeastExpectedDelay(),
        "Po2 (dynamic)": PowerOfTwoChoices(),
    }
    for name, policy in dynamic.items():
        result = simulate_policy(
            system, policy, horizon=horizon, warmup=warmup, seed=seed
        )
        rows.append(
            {
                "policy": name,
                "mean_response_time": result.overall_mean_response_time(),
                "jobs": result.total_jobs,
            }
        )
    return ExperimentTable(
        experiment_id="EXT2",
        title="Static schemes vs dynamic dispatch policies (simulated)",
        columns=("policy", "mean_response_time", "jobs"),
        rows=tuple(rows),
        notes=(
            f"Table-1 system, utilization {utilization:.0%}, event-driven "
            f"simulation over {horizon:g}s (warm-up {warmup:g}s), shared "
            "seed; dynamic policies observe exact global queue state — an "
            "idealized upper bound on dynamic information",
        ),
    )


def run_update_order_ablation(
    *,
    utilization: float = 0.6,
    n_users: int = 10,
    tolerance: float = 1e-6,
    max_sweeps: int = 500,
) -> ExperimentTable:
    """ABL3: round-robin vs random vs simultaneous best replies."""
    system = paper_table1_system(utilization=utilization, n_users=n_users)
    rows = []
    for order in ("roundrobin", "random", "simultaneous"):
        solver = NashSolver(
            tolerance=tolerance,
            max_sweeps=max_sweeps,
            order=order,  # type: ignore[arg-type]
            seed=7,
            stop="norm",
        )
        result = solver.solve(system, "proportional")
        rows.append(
            {
                "order": order,
                "converged": result.converged,
                "iterations": result.iterations,
                "final_norm": result.final_norm,
            }
        )
    return ExperimentTable(
        experiment_id="ABL3",
        title="Ablation — best-reply update order (the ring is load-bearing)",
        columns=("order", "converged", "iterations", "final_norm"),
        rows=tuple(rows),
        notes=(
            "simultaneous (Jacobi) replies herd onto the same computers "
            "and oscillate; the paper's round-robin token ring is what "
            "makes the dynamics converge",
        ),
    )


def run_noise_ablation(
    *,
    utilization: float = 0.6,
    n_users: int = 10,
    noises: Sequence[float] = (0.0, 0.05, 0.1, 0.2, 0.3),
    sweeps: int = 40,
    seed: int = 5,
) -> ExperimentTable:
    """ABL4: best-reply dynamics under observation noise."""
    system = paper_table1_system(utilization=utilization, n_users=n_users)
    rows = []
    for noise in noises:
        raw = NoisyNashSolver(
            noise=float(noise), smoothing=1.0, sweeps=sweeps, seed=seed
        ).solve(system)
        smoothed = NoisyNashSolver(
            noise=float(noise), smoothing=0.3, sweeps=sweeps, seed=seed
        ).solve(system)
        rows.append(
            {
                "noise": float(noise),
                "final_regret_raw": raw.mean_final_regret,
                "final_regret_smoothed": smoothed.mean_final_regret,
                "projections_raw": raw.projections,
            }
        )
    return ExperimentTable(
        experiment_id="ABL4",
        title="Ablation — observation noise on available-rate estimates",
        columns=(
            "noise",
            "final_regret_raw",
            "final_regret_smoothed",
            "projections_raw",
        ),
        rows=tuple(rows),
        notes=(
            "regret = max benefit of a unilateral deviation after the "
            f"transient ({sweeps} sweeps); smoothing = EMA(0.3) on each "
            "user's rate estimates — the paper's 'statistical estimation "
            "of the run queue length'",
        ),
    )


def run_cooperative(
    *,
    utilization: float = 0.6,
    n_users: int = 10,
) -> ExperimentTable:
    """EXT3: the Nash Bargaining Solution vs the paper's schemes."""
    system = paper_table1_system(utilization=utilization, n_users=n_users)
    schemes = (
        NashScheme(),
        CooperativeScheme(),
        GlobalOptimalScheme(),
        IndividualOptimalScheme(),
        ProportionalScheme(),
    )
    rows = []
    for scheme in schemes:
        result = scheme.allocate(system)
        rows.append(
            {
                "scheme": result.scheme,
                "overall_time": result.overall_time,
                "fairness": result.fairness,
                "worst_user_time": float(result.user_times.max()),
            }
        )
    return ExperimentTable(
        experiment_id="EXT3",
        title="Cooperative bargaining (NBS) vs the paper's schemes",
        columns=("scheme", "overall_time", "fairness", "worst_user_time"),
        rows=tuple(rows),
        notes=(
            f"Table-1 system, utilization {utilization:.0%}; NBS uses the "
            "PS allocation as the disagreement point",
        ),
    )
