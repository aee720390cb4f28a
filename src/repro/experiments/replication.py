"""Parallel batched replication studies over the zero-copy data plane.

:func:`repro.simengine.fastpath.simulate_profile_fast_batch` already
collapses a replication study into a handful of vectorized passes, but a
single process still executes them.  This module fans the replications
out over the experiment process pool *without* re-pickling the heavy
inputs per task: the coordinator pre-draws the entire uniform demand
block once (:func:`~repro.simengine.fastpath.predraw_uniform_pool`),
publishes it — together with the system's rate vectors and the profile's
fraction matrix — to the shared-memory plane
(:mod:`repro.experiments.shm`), and each worker simulates a contiguous
slice of the replications against read-only views of those blocks.

Bit-identity is compositional: a run's samples never depend on which
other runs share a batch (the fastpath's documented slot-layout
property), and a pre-drawn pool row reproduces exactly the draws the
run would have made itself — so any chunking of the seed list yields
the same :class:`~repro.simengine.simulator.SimulationResult` list as
one serial batch, pinned by the parity tests.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.core.model import DistributedSystem
from repro.core.strategy import StrategyProfile
from repro.experiments.parallel import default_workers, parallel_map
from repro.experiments.shm import (
    ArrayRef,
    SharedArrayPlane,
    rehydrate,
    resolve,
    shm_available,
)
from repro.simengine.fastpath import (
    predraw_uniform_pool,
    simulate_profile_fast_batch,
)
from repro.simengine.simulator import SimulationResult

__all__ = ["simulate_batch_parallel"]

#: One worker task: its seed slice bounds, the slice's seeds, shared
#: handles for (mu, phi, fractions, uniform pool), custom names when the
#: system has any, and the scalar run configuration.
ReplicationChunk = tuple[
    int,
    int,
    "Sequence[int | np.random.SeedSequence]",
    "ArrayRef | np.ndarray",
    "ArrayRef | np.ndarray",
    "ArrayRef | np.ndarray",
    "ArrayRef | np.ndarray",
    tuple[tuple[str, ...], tuple[str, ...]] | None,
    float,
    float,
    Any,
]


def _rebuild_study(
    mu: np.ndarray, phi: np.ndarray, fractions: np.ndarray
) -> tuple[DistributedSystem, StrategyProfile]:
    # rehydrate() factory: validated once per worker per content token.
    return (
        DistributedSystem(service_rates=mu, arrival_rates=phi),
        StrategyProfile(fractions),
    )


def _simulate_chunk(chunk: ReplicationChunk) -> list[SimulationResult]:
    """Simulate one contiguous slice of the replications (pool worker)."""
    (
        start,
        stop,
        seeds,
        mu_handle,
        phi_handle,
        fractions_handle,
        pool_handle,
        names,
        horizon,
        warmup,
        service_distributions,
    ) = chunk
    if names is None:
        system, profile = rehydrate(
            _rebuild_study, mu_handle, phi_handle, fractions_handle
        )
    else:
        system = DistributedSystem(
            service_rates=resolve(mu_handle),
            arrival_rates=resolve(phi_handle),
            computer_names=names[0],
            user_names=names[1],
        )
        profile = StrategyProfile(resolve(fractions_handle))
    # Row slices of the shared pool are zero-copy views; each run reads
    # only its own row, so the slice is exactly the block a chunk-local
    # predraw would have produced.
    pool = resolve(pool_handle)[start:stop]
    return simulate_profile_fast_batch(
        system,
        profile,
        horizon=horizon,
        warmup=warmup,
        seeds=list(seeds),
        service_distributions=service_distributions,
        uniform_pool=pool,
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
    use_shm: bool | None = None,
    service_distributions: Any = None,
) -> list[SimulationResult]:
    """Fan a replication study out over the process pool, zero-copy.

    Semantically identical to
    ``simulate_profile_fast_batch(system, profile, ..., seeds=seeds)``
    — same results in the same order, bit for bit — with the
    replications split into one contiguous chunk per worker.  The
    uniform demand block is drawn once here and shared through the
    zero-copy plane, so worker payloads carry only seed objects and
    scalars.

    ``n_workers=1`` (or a single seed) stays serial with no plane and no
    pool.  ``use_shm=False`` keeps the fan-out but ships the pre-drawn
    pool and arrays by pickle — the apples-to-apples baseline the
    ``shm-plane`` benchmarks measure.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seeds must be nonempty")
    if n_workers is None:
        n_workers = default_workers()
    if n_workers < 1:
        raise ValueError("n_workers must be at least 1")
    if n_workers == 1 or len(seeds) == 1:
        return simulate_profile_fast_batch(
            system,
            profile,
            horizon=horizon,
            warmup=warmup,
            seeds=seeds,
            service_distributions=service_distributions,
        )
    if use_shm is None:
        use_shm = shm_available()
    pool = predraw_uniform_pool(
        system,
        profile,
        horizon=horizon,
        seeds=seeds,
        service_distributions=service_distributions,
    )
    defaults = system.has_default_names
    names = (
        None
        if defaults[0] and defaults[1]
        else (system.computer_names, system.user_names)
    )
    bounds = _chunk_bounds(len(seeds), n_workers)
    with SharedArrayPlane(enabled=use_shm) as plane:
        handles = (
            plane.publish(system.service_rates),
            plane.publish(system.arrival_rates),
            plane.publish(profile.fractions),
            plane.publish(pool),
        )
        plane.account_fanout(handles, len(bounds))
        chunks: list[ReplicationChunk] = [
            (
                start,
                stop,
                seeds[start:stop],
                *handles,
                names,
                horizon,
                warmup,
                service_distributions,
            )
            for start, stop in bounds
        ]
        per_chunk = parallel_map(
            _simulate_chunk,
            chunks,
            n_workers=n_workers,
            chunksize=1,
        )
    return [result for chunk_results in per_chunk for result in chunk_results]
