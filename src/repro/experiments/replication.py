"""Parallel batched replication studies.

:func:`repro.simengine.fastpath.simulate_profile_fast_batch` already
collapses a replication study into a handful of vectorized passes, but a
single process still executes them.  This module fans the replications
out over the experiment process pool: each worker receives the system,
the profile, a contiguous slice of the seeds and the scalar settings —
a few kilobytes — and draws its own runs' uniform demand from those
seeds.  Sending the seeds and letting the workers draw in parallel beats
drawing the whole block on the coordinator and shipping it: at the SIM
default the block is ~149 MB.

Bit-identity is compositional: a run's samples never depend on which
other runs share a batch (the fastpath's documented slot-layout
property, each run drawing from its own seed's stream), so any chunking
of the seed list yields the same
:class:`~repro.simengine.simulator.SimulationResult` list as one serial
batch, pinned by the parity tests.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.core.model import DistributedSystem
from repro.core.strategy import StrategyProfile
from repro.experiments.parallel import default_workers, parallel_map
from repro.simengine.fastpath import simulate_profile_fast_batch
from repro.simengine.simulator import SimulationResult

__all__ = ["simulate_batch_parallel"]

#: One worker task: the study (system and profile, custom names riding
#: inside the pickled system), the chunk's seeds, and the scalar run
#: configuration ``(horizon, warmup, service_distributions)``.
ReplicationChunk = tuple[
    DistributedSystem,
    StrategyProfile,
    "Sequence[int | np.random.SeedSequence]",
    float,
    float,
    Any,
]


def _simulate_chunk(chunk: ReplicationChunk) -> list[SimulationResult]:
    """Simulate one contiguous slice of the replications (pool worker)."""
    system, profile, seeds, horizon, warmup, service_distributions = chunk
    return simulate_profile_fast_batch(
        system,
        profile,
        horizon=horizon,
        warmup=warmup,
        seeds=seeds,
        service_distributions=service_distributions,
    )


def _chunk_bounds(n_runs: int, n_chunks: int) -> list[tuple[int, int]]:
    """Contiguous, balanced ``[start, stop)`` ranges covering the runs."""
    n_chunks = max(1, min(n_chunks, n_runs))
    base, remainder = divmod(n_runs, n_chunks)
    bounds = []
    start = 0
    for index in range(n_chunks):
        stop = start + base + (1 if index < remainder else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def simulate_batch_parallel(
    system: DistributedSystem,
    profile: StrategyProfile,
    *,
    horizon: float,
    warmup: float = 0.0,
    seeds: Sequence[int | np.random.SeedSequence],
    n_workers: int | None = None,
    service_distributions: Any = None,
) -> list[SimulationResult]:
    """Fan a replication study out over the process pool.

    Semantically identical to
    ``simulate_profile_fast_batch(system, profile, ..., seeds=seeds)``
    — same results in the same order, bit for bit — with the
    replications split into one contiguous chunk per worker.  Each
    worker draws its own runs' uniforms from their seeds, so a task
    payload carries only the study, the seed slice and scalars.

    ``n_workers=1`` (or a single seed) stays serial with no pool.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seeds must be nonempty")
    if n_workers is None:
        n_workers = default_workers()
    if n_workers < 1:
        raise ValueError("n_workers must be at least 1")
    # One chunk (n_workers=1 or a single seed) runs in-process:
    # parallel_map's serial path.
    chunks: list[ReplicationChunk] = [
        (
            system,
            profile,
            seeds[start:stop],
            horizon,
            warmup,
            service_distributions,
        )
        for start, stop in _chunk_bounds(len(seeds), n_workers)
    ]
    per_chunk = parallel_map(
        _simulate_chunk, chunks, n_workers=n_workers, chunksize=1
    )
    return [result for chunk_results in per_chunk for result in chunk_results]
