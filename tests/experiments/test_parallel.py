"""Tests for the parallel sweep executor."""

from __future__ import annotations

import os

import pytest

from repro.experiments.parallel import (
    _POOLS,
    adaptive_chunksize,
    default_workers,
    parallel_map,
    run_experiments_parallel,
    shutdown_pools,
)


def square(x: int) -> int:
    return x * x


class TestParallelMap:
    def test_serial_path(self):
        assert parallel_map(square, [1, 2, 3], n_workers=1) == [1, 4, 9]

    def test_single_item_stays_serial(self):
        assert parallel_map(square, [5], n_workers=8) == [25]

    def test_parallel_path_preserves_order(self):
        result = parallel_map(square, list(range(20)), n_workers=2)
        assert result == [x * x for x in range(20)]

    def test_empty_input(self):
        assert parallel_map(square, [], n_workers=4) == []

    def test_worker_validation(self):
        with pytest.raises(ValueError):
            parallel_map(square, [1], n_workers=0)

    def test_default_workers_positive(self):
        assert default_workers() >= 1
        assert default_workers() <= (os.cpu_count() or 2)

    def test_explicit_chunksize_still_honoured(self):
        result = parallel_map(
            square, list(range(10)), n_workers=2, chunksize=5
        )
        assert result == [x * x for x in range(10)]

    def test_chunksize_one_for_skewed_items(self):
        # Batch-sized items (e.g. replication chunks) pin chunksize=1 so
        # no expensive item queues behind another; semantics unchanged.
        result = parallel_map(
            square, list(range(10)), n_workers=2, chunksize=1
        )
        assert result == [x * x for x in range(10)]

    @pytest.mark.parametrize("chunksize", [0, -1])
    def test_chunksize_validation(self, chunksize):
        with pytest.raises(ValueError, match="chunksize"):
            parallel_map(
                square, [1, 2, 3], n_workers=2, chunksize=chunksize
            )

    def test_chunksize_validated_even_on_serial_path(self):
        # The serial fallback still rejects nonsense chunk sizes so the
        # bug does not hide until a sweep first runs with n_workers > 1.
        with pytest.raises(ValueError, match="chunksize"):
            parallel_map(square, [1, 2, 3], n_workers=1, chunksize=0)


class TestPoolReuse:
    def test_executor_is_reused_across_calls(self):
        shutdown_pools()
        parallel_map(square, list(range(8)), n_workers=2)
        first = _POOLS[2]
        parallel_map(square, list(range(8)), n_workers=2)
        assert _POOLS[2] is first

    def test_shutdown_then_recreate(self):
        parallel_map(square, list(range(8)), n_workers=2)
        assert _POOLS
        shutdown_pools()
        assert not _POOLS
        # The next call transparently builds a fresh pool.
        assert parallel_map(square, [1, 2, 3, 4], n_workers=2) == [1, 4, 9, 16]
        shutdown_pools()

    def test_serial_path_creates_no_pool(self):
        shutdown_pools()
        parallel_map(square, [1, 2, 3], n_workers=1)
        assert not _POOLS

    def test_pool_capped_by_item_count(self):
        shutdown_pools()
        parallel_map(square, [1, 2], n_workers=16)
        assert list(_POOLS) == [2]
        shutdown_pools()

    def test_shutdown_midflight_then_immediate_reuse(self):
        # Lifecycle: shutting the shared pools down while results from a
        # previous call are still in hand must not poison the next call —
        # parallel_map transparently rebuilds what it needs.
        shutdown_pools()
        first = parallel_map(square, list(range(12)), n_workers=2)
        shutdown_pools()
        assert not _POOLS
        second = parallel_map(square, list(range(12)), n_workers=2)
        assert first == second == [x * x for x in range(12)]
        shutdown_pools()


class TestAdaptiveChunksize:
    def test_four_chunks_per_worker(self):
        assert adaptive_chunksize(80, 4) == 5
        assert adaptive_chunksize(1000, 8) == 31

    def test_small_sweeps_floor_at_one(self):
        assert adaptive_chunksize(3, 8) == 1
        assert adaptive_chunksize(0, 2) == 1

    def test_fewer_items_than_workers_never_batches(self):
        # Boundary: with n_items < n_workers, rounding used to hand a
        # whole batch to one worker as a single chunk.  Every item
        # must be its own chunk so the pool actually fans out.
        for n_items in range(1, 8):
            assert adaptive_chunksize(n_items, 8) == 1

    def test_items_equal_workers_is_one_per_worker(self):
        assert adaptive_chunksize(8, 8) == 1

    def test_chunk_never_coarser_than_one_per_worker(self):
        # Just above the boundary the chunk may grow, but never past
        # ceil(n_items / n_workers) — each worker always gets a chunk.
        for n_items in range(9, 40):
            chunk = adaptive_chunksize(n_items, 8)
            assert 1 <= chunk <= -(-n_items // 8)

    def test_worker_validation(self):
        with pytest.raises(ValueError):
            adaptive_chunksize(10, 0)

    def test_parallel_map_uses_adaptive_default(self):
        # 40 items / (4 * 2 workers) => chunksize 5; results must still be
        # complete and ordered.
        result = parallel_map(square, list(range(40)), n_workers=2)
        assert result == [x * x for x in range(40)]


class TestParallelExperiments:
    def test_runs_fast_experiments(self):
        results = run_experiments_parallel(["t1", "f5"], n_workers=2)
        assert set(results) == {"t1", "f5"}
        assert results["t1"].experiment_id == "T1"
        assert results["f5"].experiment_id == "F5"

    def test_serial_equivalent(self):
        parallel = run_experiments_parallel(["t1"], n_workers=1)
        assert parallel["t1"].rows == run_experiments_parallel(
            ["t1"], n_workers=2
        )["t1"].rows

    def test_unknown_id_rejected_before_dispatch(self):
        with pytest.raises(KeyError, match="unknown"):
            run_experiments_parallel(["t1", "nope"])
