"""Parallel execution of experiment sweeps.

Every sweep in this harness is embarrassingly parallel (independent
(parameter, system) points), so regenerating all artifacts can use every
core.  This module provides a small process-pool map with a serial
fallback, plus a parallel front end over the experiment registry.

The pattern follows the message-passing discipline of the HPC guides:
work units are pure functions of picklable inputs, results return to the
coordinator, and no shared state crosses process boundaries.  (Real MPI
deployments would replace the executor with rank-sliced loops; the
call-site code is identical.)

Process pools are *reused*: spawning workers (fork/spawn + interpreter
startup + module imports) costs far more than a typical sweep point, and
``repro-experiments --all`` runs many sweeps back to back.
:func:`parallel_map` therefore keeps one lazily created executor per
worker count and hands it to every subsequent call, shutting them all
down at interpreter exit (see :func:`shutdown_pools`).
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

__all__ = [
    "adaptive_chunksize",
    "parallel_map",
    "run_experiments_parallel",
    "default_workers",
    "shutdown_pools",
]

T = TypeVar("T")
R = TypeVar("R")

#: Lazily created executors, keyed by worker count.  Guarded by a lock
#: so concurrent callers (e.g. threaded test runners) never
#: double-create.
_POOLS: dict[int, ProcessPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def _shared_pool(n_workers: int) -> ProcessPoolExecutor:
    """The reusable executor for ``n_workers``, created lazily."""
    with _POOLS_LOCK:
        pool = _POOLS.get(n_workers)
        if pool is None:
            pool = ProcessPoolExecutor(max_workers=n_workers)
            _POOLS[n_workers] = pool
        return pool


def shutdown_pools() -> None:
    """Shut down every shared executor (registered via ``atexit``).

    Safe to call eagerly — e.g. from tests, or before forking — the next
    :func:`parallel_map` call simply recreates what it needs.
    """
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True, cancel_futures=True)


atexit.register(shutdown_pools)


def default_workers() -> int:
    """A sensible worker count: all cores but one, at least one."""
    return max(1, (os.cpu_count() or 2) - 1)


def adaptive_chunksize(n_items: int, n_workers: int) -> int:
    """Default chunk size for :func:`parallel_map`.

    Four chunks per worker balances the IPC overhead of many tiny
    submissions (the old ``chunksize=1`` behaviour, which thrashes the
    pool on sweeps of cheap points) against load imbalance from chunks
    that are too coarse.

    The result is additionally clamped so there are always at least
    ``min(n_items, n_workers)`` chunks: when ``n_items < n_workers``
    (or rounding would otherwise coarsen chunks past one-per-worker) a
    single chunk must never collect a whole batch behind one worker
    while the rest of the pool idles.  Equivalently:
    ``n_items <= n_workers`` always yields 1.
    """
    if n_workers < 1:
        raise ValueError("n_workers must be at least 1")
    if n_items <= n_workers:
        return 1
    chunk = max(1, n_items // (4 * n_workers))
    # ceil(n_items / n_workers): the coarsest chunking that still gives
    # every worker a chunk.
    return min(chunk, -(-n_items // n_workers))


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    *,
    n_workers: int | None = None,
    chunksize: int | None = None,
) -> list[R]:
    """Order-preserving map over a process pool.

    ``n_workers=1`` (or a single item) degrades to a plain serial loop —
    no pool overhead, easier debugging, identical semantics.  ``fn`` and
    the items must be picklable for the parallel path.  When ``chunksize``
    is omitted it is computed adaptively from the item and worker counts
    (see :func:`adaptive_chunksize`).

    Pass ``chunksize`` explicitly when per-item costs are *skewed*, or
    when each item is already a worker-sized batch: the adaptive
    heuristic assumes many roughly uniform items, and a coarse chunk
    that collects several expensive items serializes them behind one
    worker while the rest of the pool idles.
    :func:`repro.experiments.replication.simulate_batch_parallel`, which
    hands each worker one contiguous block of seeds to draw and
    simulate, pins ``chunksize=1`` for that reason.  An explicit chunk size must be a
    positive integer; invalid values raise ``ValueError`` up front
    rather than surfacing as an opaque pool error mid-sweep.

    The parallel path draws on a shared per-worker-count executor that
    persists across calls (workers are expensive to spawn; sweeps are
    not), so back-to-back sweeps — ``repro-experiments --all``, the
    fig3/fig4/fig6 trio — pay pool startup once.
    """
    items = list(items)
    if n_workers is None:
        n_workers = default_workers()
    if n_workers < 1:
        raise ValueError("n_workers must be at least 1")
    if chunksize is not None and chunksize < 1:
        raise ValueError("chunksize must be at least 1")
    if n_workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    if chunksize is None:
        chunksize = adaptive_chunksize(len(items), n_workers)
    pool = _shared_pool(min(n_workers, len(items)))
    return list(pool.map(fn, items, chunksize=chunksize))


def _run_one(experiment_id: str):
    # Top-level function so it pickles under the spawn start method too.
    from repro.experiments.runner import run_experiment

    return experiment_id, run_experiment(experiment_id)


def run_experiments_parallel(
    experiment_ids: Sequence[str], *, n_workers: int | None = None
):
    """Regenerate several artifacts concurrently.

    Returns ``{experiment_id: ExperimentTable}`` in input order.  Unknown
    ids raise before any work is dispatched.
    """
    from repro.experiments.runner import EXPERIMENTS

    normalized = [experiment_id.lower() for experiment_id in experiment_ids]
    unknown = [e for e in normalized if e not in EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiments: {', '.join(unknown)}")
    results = parallel_map(_run_one, normalized, n_workers=n_workers)
    return dict(results)
