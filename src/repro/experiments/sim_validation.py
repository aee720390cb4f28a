"""SIM — Section 4.1's simulation methodology, validated.

The paper measured its schemes with an event-driven simulation (Sim++),
5 replications with independent random streams, and accepted runs whose
standard error stayed below 5%.  This experiment reruns that methodology
with the reproduction's simulation engine on the NASH allocation and
compares the simulated per-user expected response times against the
analytic M/M/1 values — the check that the simulated substrate and the
analytic game agree.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import ExperimentTable
from repro.experiments.replication import simulate_batch_parallel
from repro.schemes import NashScheme
from repro.simengine.stats import replicate
from repro.workloads.configs import paper_table1_system

__all__ = ["run"]


def run(
    *,
    utilization: float = 0.6,
    n_users: int = 10,
    horizon: float = 4000.0,
    warmup: float = 400.0,
    n_replications: int = 5,
    seed: int = 2002,
    n_workers: int = 1,
) -> ExperimentTable:
    """Simulated vs analytic per-user expected response times (NASH).

    The default horizon generates roughly ``0.6 * 510 * 3600 ~ 1.1M``
    counted jobs across the replications, matching the paper's "1 to 2
    millions jobs typically".  ``n_workers > 1`` fans the replications
    over the process pool, each worker drawing its own runs' random
    streams from their seeds (:mod:`repro.experiments.replication`) —
    bit-identical to the serial batch.
    """
    system = paper_table1_system(utilization=utilization, n_users=n_users)
    allocation = NashScheme().allocate(system)

    def measure_batch(seeds) -> np.ndarray:
        # All replications in one vectorized pass (chunked across the
        # pool when n_workers > 1) — bit-identical to looping
        # simulate_profile_fast over the seed tree, just faster.
        results = simulate_batch_parallel(
            system,
            allocation.profile,
            horizon=horizon,
            warmup=warmup,
            seeds=seeds,
            n_workers=n_workers,
        )
        return np.stack([r.user_mean_response_times for r in results])

    stats = replicate(
        simulate_batch=measure_batch, n_replications=n_replications, seed=seed
    )
    analytic = allocation.user_times
    rows = []
    for j in range(n_users):
        rows.append(
            {
                "user": j + 1,
                "analytic": float(analytic[j]),
                "simulated": float(stats.mean[j]),
                "std_error": float(stats.std_error[j]),
                "rel_error": float(
                    abs(stats.mean[j] - analytic[j]) / analytic[j]
                ),
            }
        )
    return ExperimentTable(
        experiment_id="SIM",
        title="Sec 4.1 — simulation vs analytic (NASH allocation)",
        columns=("user", "analytic", "simulated", "std_error", "rel_error"),
        rows=tuple(rows),
        notes=(
            f"{n_replications} replications, horizon {horizon:g}s "
            f"(warm-up {warmup:g}s), independent PCG64 streams",
            "paper acceptance criterion (std error < 5%): "
            + ("met" if stats.within_relative_error(0.05) else "NOT met"),
        ),
    )
