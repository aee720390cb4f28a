"""CLASS-SCALE — million-user solves in user-class space.

The class aggregation's value proposition, measured two ways:

* ``test_bench_class_scale_million`` — the headline: aggregate
  ``m = 1_000_000`` users (256 distinct job rates) over ``n = 1024``
  computers and solve to the standard certificate in ``(c, n)`` state.
  The per-user path cannot even allocate this instance's profile
  history on a laptop; the class path finishes in well under a second.
* ``..._m1e5_peruser`` / ``..._m1e5_classspace`` — an apples-to-apples
  speedup pair at ``m = 100_000``: both sides run the *same* fixed
  budget of round-robin best-reply sweeps on the same system, one per
  user and one per class, under the paper's ``stop="norm"`` rule (the
  certificate stop and its Newton polish would end either side after
  its first sweep).  The recorded ``class_scale_m1e5`` speedup is
  gated in CI at >= 5x via ``benchmarks/bench_gate.py
  --min-class-speedup`` (measured orders of magnitude higher; the floor
  is deliberately loose for noisy CI machines).

See docs/PERFORMANCE.md for the scaling discussion.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.classes import (
    ClassNashSolver,
    aggregate_users,
    class_best_response_regrets,
)
from repro.core.model import DistributedSystem
from repro.core.nash import NashSolver

class_scale = pytest.mark.benchmark(group="class-scale")

#: Fixed sweep budget for the m=1e5 speedup pair — identical on both
#: sides, so the ratio measures per-sweep cost, not convergence luck.
SMOKE_SWEEPS = 4
SMOKE_USERS = 100_000
SMOKE_COMPUTERS = 128
SMOKE_CLASSES = 100

MILLION_USERS = 1_000_000
MILLION_COMPUTERS = 1024
MILLION_CLASSES = 256


def _class_structured_system(
    n_users: int, n_computers: int, n_classes: int, *, seed: int = 42
) -> DistributedSystem:
    """``n_users`` users drawn from ``n_classes`` distinct job rates."""
    rng = np.random.default_rng(seed)
    mu = rng.uniform(50.0, 150.0, size=n_computers)
    rates = rng.uniform(0.5, 2.0, size=n_classes)
    phi = rates[np.arange(n_users) % n_classes]
    phi = phi * (0.6 * mu.sum() / phi.sum())
    return DistributedSystem(service_rates=mu, arrival_rates=phi)


@class_scale
def test_bench_class_scale_million(benchmark):
    system = _class_structured_system(
        MILLION_USERS, MILLION_COMPUTERS, MILLION_CLASSES
    )

    def solve():
        aggregation = aggregate_users(system)
        result = ClassNashSolver().solve(aggregation, "proportional")
        return aggregation, result

    aggregation, result = benchmark.pedantic(solve, rounds=3, iterations=1)
    assert aggregation.n_classes == MILLION_CLASSES
    assert aggregation.n_users == MILLION_USERS
    assert result.converged
    certificate = class_best_response_regrets(
        aggregation, result.class_fractions
    )
    assert certificate.epsilon <= 1e-6


@class_scale
def test_bench_class_scale_m1e5_peruser(benchmark):
    system = _class_structured_system(
        SMOKE_USERS, SMOKE_COMPUTERS, SMOKE_CLASSES
    )
    solver = NashSolver(max_sweeps=SMOKE_SWEEPS, tolerance=1e-12, stop="norm")
    result = benchmark.pedantic(
        lambda: solver.solve(system, "proportional"), rounds=3, iterations=1
    )
    # Fixed budget: the run exhausts its sweeps rather than converging.
    assert result.iterations == SMOKE_SWEEPS


@class_scale
def test_bench_class_scale_m1e5_classspace(benchmark):
    system = _class_structured_system(
        SMOKE_USERS, SMOKE_COMPUTERS, SMOKE_CLASSES
    )
    aggregation = aggregate_users(system)
    assert aggregation.n_classes == SMOKE_CLASSES
    solver = ClassNashSolver(
        max_sweeps=SMOKE_SWEEPS, tolerance=1e-12, stop="norm"
    )
    result = benchmark.pedantic(
        lambda: solver.solve(aggregation, "proportional"),
        rounds=3,
        iterations=1,
    )
    assert result.iterations == SMOKE_SWEEPS
