"""ENGINE-CHURN — the engine's certificate stop vs the paper's norm rule.

The online engine's value proposition, measured: the same 40-epoch
day-in-production churn trace (diurnal demand, phi drift, a failure/
reopen window, a flash crowd) is re-equilibrated epoch by epoch either

* ``_cold`` — legacy service mode: every epoch runs to full sweep-norm
  convergence (``stop='norm'``: the paper's rule alone), or
* ``_warm`` — engine mode (the default ``EngineConfig``): every epoch
  stops as soon as the epsilon-Nash certificate of a sweep iterate, or
  of its Newton polish, meets the same epsilon.

Both sides share the engine's one warm-start rule: an epoch starts from
the previous equilibrium, restricted to the computers online now, when
that is a feasible profile of the epoch's game, and cold otherwise.
Both certify every epoch at the solver's standard 1e-6 epsilon —
``tests/engine/test_online_engine.py::TestCertificateParityWithColdSolves``
pins the certificate parity — so the recorded ``_cold``/``_warm``
speedup measures the stop rule's savings, not accuracy traded away.  CI
gates the ratio at >= 2x via ``benchmarks/bench_gate.py
--min-churn-speedup`` (see docs/PERFORMANCE.md for the last recorded
ratio).
"""

from __future__ import annotations

import pytest

from repro.engine import EngineConfig, OnlineEquilibriumEngine
from repro.workloads import day_in_production_trace, paper_table1_system

engine_churn = pytest.mark.benchmark(group="engine-churn")

#: Trace shape: ~half a diurnal period over 40 epochs in the 0.55-0.9
#: utilization band — adjacent epochs are similar (where warm starts
#: pay) but never identical (drift keeps every epoch a real re-solve).
N_EPOCHS = 40
TRACE_KWARGS = dict(
    period=96, low=0.55, high=0.9, drift_volatility=0.01, seed=7
)
N_USERS = 16


def _run(config: EngineConfig):
    system = paper_table1_system(utilization=0.5, n_users=N_USERS)
    trace = day_in_production_trace(N_EPOCHS, **TRACE_KWARGS)
    engine = OnlineEquilibriumEngine(system, config=config)
    return engine.run(trace)


@engine_churn
def test_bench_engine_churn_cold(benchmark):
    run = benchmark.pedantic(
        lambda: _run(EngineConfig(stop="norm")),
        rounds=3,
        iterations=1,
    )
    assert run.n_epochs == N_EPOCHS + 1
    assert run.all_certified


@engine_churn
def test_bench_engine_churn_warm(benchmark):
    run = benchmark.pedantic(
        lambda: _run(EngineConfig()),
        rounds=3,
        iterations=1,
    )
    assert run.n_epochs == N_EPOCHS + 1
    assert run.all_certified
    # Every epoch, warm or cold, certifies after one sweep.
    assert run.total_sweeps == N_EPOCHS + 1
