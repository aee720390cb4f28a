"""NASH-CORE — the perf-regression benchmarks behind ``BENCH_nash.json``.

Every benchmark in this module is in group ``nash-core``; the session
plugin in ``conftest.py`` serializes their timings (plus the speedups of
the ``_legacy``/``_vectorized`` pairs) into ``BENCH_nash.json``, which CI
diffs against the committed baseline with ``benchmarks/bench_gate.py``.

The headline pair is the m=1000-user, n=64-computer NASH solve: the
``_legacy`` side runs the frozen O(m^2 n)-per-sweep driver from
:mod:`repro.core.reference`, the ``_vectorized`` side the production
solver (incremental load accounting + batched water-fill).  Both sides
run the *same fixed sweep budget* so the ratio measures per-sweep cost,
not convergence luck: the production side solves with the paper's
``stop="norm"`` rule, as ``reference_solve`` does, so no certificate
stop or Newton polish cuts its budget short.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.best_response import optimal_fractions, optimal_fractions_batch
from repro.core.classes import (
    ClassAggregation,
    ClassNashSolver,
    class_best_response_regrets,
    newton_polish,
)
from repro.core.model import DistributedSystem
from repro.core.nash import NashSolver
from repro.core.reference import reference_solve
from repro.simengine.fastpath import mm1_lindley_waits
from repro.workloads import paper_table1_system

#: Fixed sweep budgets for the legacy/vectorized pairs (neither order
#: converges on the large instance within these budgets, so both sides
#: always run the full budget).
ROUNDROBIN_SWEEPS = 3
SIMULTANEOUS_SWEEPS = 5

nash_core = pytest.mark.benchmark(group="nash-core")


def _large_system(m: int = 1000, n: int = 64) -> DistributedSystem:
    """A heterogeneous cluster-scale instance at 60% utilization."""
    rng = np.random.default_rng(7)
    mu = rng.uniform(10.0, 100.0, size=n)
    phi = rng.uniform(0.1, 1.0, size=m)
    phi *= 0.6 * mu.sum() / phi.sum()
    return DistributedSystem(service_rates=mu, arrival_rates=phi)


# ----------------------------------------------------------------------
# Single kernels
# ----------------------------------------------------------------------
@nash_core
def test_bench_nash_solver_table1(benchmark):
    """Full equilibrium solve on the paper's flagship configuration."""
    system = paper_table1_system(utilization=0.6)
    solver = NashSolver(tolerance=1e-6)
    result = benchmark(lambda: solver.solve(system, "proportional"))
    assert result.converged


@nash_core
def test_bench_optimal_kernel(benchmark):
    """One scalar OPTIMAL best response at n=64 computers."""
    rng = np.random.default_rng(0)
    available = rng.uniform(1.0, 100.0, size=64)
    demand = 0.6 * float(available.sum())
    reply = benchmark(lambda: optimal_fractions(available, demand))
    assert reply.fractions.sum() == pytest.approx(1.0)


@nash_core
def test_bench_waterfill_batch_m1000_n64(benchmark):
    """The batched best-reply kernel: 1000 users in one call."""
    rng = np.random.default_rng(3)
    a = rng.uniform(1.0, 100.0, size=(1000, 64))
    d = 0.3 * a.sum(axis=1)
    result = benchmark(lambda: optimal_fractions_batch(a, d))
    np.testing.assert_allclose(result.fractions.sum(axis=1), 1.0, rtol=1e-9)


@nash_core
def test_bench_lindley_fastpath(benchmark):
    """The vectorized Lindley recursion over one million jobs."""
    rng = np.random.default_rng(1)
    n = 1_000_000
    gaps = rng.exponential(1.0, size=n)
    services = rng.exponential(0.6, size=n)
    waits = benchmark(lambda: mm1_lindley_waits(gaps, services))
    assert waits.size == n


@nash_core
def test_bench_newton_polish_wide(benchmark):
    """One Newton polish of a one-sweep iterate at the widest cold-solve
    shape: 44 users (singleton classes) on 250 computers at 85% load,
    whose steps take the c x c Woodbury form."""
    rng = np.random.default_rng(5)
    mu = 10.0 ** rng.uniform(1.0, 2.0, size=250)
    phi = rng.uniform(0.5, 2.0, size=44)
    phi *= 0.85 * mu.sum() / phi.sum()
    users = ClassAggregation.of_users(
        DistributedSystem(service_rates=mu, arrival_rates=phi)
    )
    run = ClassNashSolver(max_sweeps=1, record_history=True, stop="norm").solve(users)
    flows = run.history[-1] * users.demands[:, None]
    polished = benchmark(lambda: newton_polish(users, flows))
    assert polished is not None
    certificate = class_best_response_regrets(users, polished / users.demands[:, None])
    assert certificate.epsilon <= 1e-6


# ----------------------------------------------------------------------
# Legacy vs vectorized pairs (same fixed sweep budget on both sides)
# ----------------------------------------------------------------------
@nash_core
def test_bench_nash_m1000_n64_roundrobin_legacy(benchmark):
    system = _large_system()
    result = benchmark.pedantic(
        lambda: reference_solve(system, max_sweeps=ROUNDROBIN_SWEEPS),
        rounds=3,
        iterations=1,
    )
    assert result.iterations == ROUNDROBIN_SWEEPS


@nash_core
def test_bench_nash_m1000_n64_roundrobin_vectorized(benchmark):
    system = _large_system()
    solver = NashSolver(max_sweeps=ROUNDROBIN_SWEEPS, stop="norm")
    result = benchmark.pedantic(
        lambda: solver.solve(system), rounds=3, iterations=1
    )
    assert result.iterations == ROUNDROBIN_SWEEPS


@nash_core
def test_bench_nash_m1000_n64_simultaneous_legacy(benchmark):
    system = _large_system()
    result = benchmark.pedantic(
        lambda: reference_solve(
            system, order="simultaneous", max_sweeps=SIMULTANEOUS_SWEEPS
        ),
        rounds=3,
        iterations=1,
    )
    assert result.iterations == SIMULTANEOUS_SWEEPS


@nash_core
def test_bench_nash_m1000_n64_simultaneous_vectorized(benchmark):
    system = _large_system()
    solver = NashSolver(
        order="simultaneous", max_sweeps=SIMULTANEOUS_SWEEPS, stop="norm"
    )
    result = benchmark.pedantic(
        lambda: solver.solve(system), rounds=3, iterations=1
    )
    assert result.iterations == SIMULTANEOUS_SWEEPS
