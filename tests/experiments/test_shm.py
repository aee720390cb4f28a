"""Tests for the zero-copy shared-memory data plane."""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest

from repro.experiments.shm import (
    DEFAULT_MIN_BYTES,
    ArrayRef,
    SharedArrayPlane,
    clear_worker_cache,
    rehydrate,
    resolve,
    shm_available,
    sweep_planes,
    worker_cache_stats,
)
from repro.telemetry.sinks import InMemorySink
from repro.telemetry.trace import Tracer

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="shared memory unavailable on this platform"
)


@pytest.fixture(autouse=True)
def _clean_worker_cache():
    clear_worker_cache()
    yield
    clear_worker_cache()


def big_array(seed: int = 0, shape: tuple[int, ...] = (256, 64)) -> np.ndarray:
    return np.random.default_rng(seed).random(shape)


class TestPublish:
    def test_large_array_returns_handle(self):
        with SharedArrayPlane() as plane:
            array = big_array()
            handle = plane.publish(array)
            assert isinstance(handle, ArrayRef)
            assert handle.shape == array.shape
            assert handle.nbytes == array.nbytes
            assert np.dtype(handle.dtype) == array.dtype

    def test_small_array_falls_back_inline(self):
        with SharedArrayPlane() as plane:
            small = np.arange(4, dtype=float)
            out = plane.publish(small)
            assert isinstance(out, np.ndarray)
            assert plane.stats().fallbacks == 1

    def test_disabled_plane_always_falls_back(self):
        with SharedArrayPlane(enabled=False) as plane:
            out = plane.publish(big_array())
            assert isinstance(out, np.ndarray)
            assert plane.stats().blocks == 0

    def test_equal_content_dedupes_to_one_block(self):
        with SharedArrayPlane() as plane:
            first = plane.publish(big_array(1))
            second = plane.publish(big_array(1).copy())
            assert first is second or first == second
            stats = plane.stats()
            assert stats.blocks == 1
            assert stats.cache_hits == 1
            assert stats.bytes_saved >= first.nbytes

    def test_distinct_content_gets_distinct_blocks(self):
        with SharedArrayPlane() as plane:
            a = plane.publish(big_array(1))
            b = plane.publish(big_array(2))
            assert isinstance(a, ArrayRef) and isinstance(b, ArrayRef)
            assert a.token != b.token
            assert plane.stats().blocks == 2

    def test_min_bytes_threshold_is_tunable(self):
        with SharedArrayPlane(min_bytes=0) as plane:
            handle = plane.publish(np.arange(3, dtype=float))
            assert isinstance(handle, ArrayRef)

    def test_publish_after_close_raises(self):
        plane = SharedArrayPlane()
        plane.close()
        with pytest.raises(RuntimeError, match="closed"):
            plane.publish(big_array())

    def test_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM", "0")
        assert not shm_available()
        with SharedArrayPlane() as plane:
            assert isinstance(plane.publish(big_array()), np.ndarray)


class TestResolve:
    def test_plain_array_passes_through(self):
        array = np.arange(10, dtype=float)
        assert resolve(array) is array

    def test_handle_resolves_bit_identical_readonly_view(self):
        with SharedArrayPlane() as plane:
            array = big_array(3)
            handle = plane.publish(array)
            view = resolve(handle)
            np.testing.assert_array_equal(view, array)
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[0, 0] = 1.0

    def test_repeat_resolution_hits_worker_cache(self):
        with SharedArrayPlane() as plane:
            handle = plane.publish(big_array(4))
            first = resolve(handle)
            before = worker_cache_stats()["hits"]
            second = resolve(handle)
            assert second is first
            assert worker_cache_stats()["hits"] == before + 1

    def test_rehydrate_memoizes_construction(self):
        calls = []

        def factory(a, b):
            calls.append(1)
            return float(a.sum() + b.sum())

        with SharedArrayPlane() as plane:
            ha = plane.publish(big_array(5))
            hb = plane.publish(big_array(6))
            first = rehydrate(factory, ha, hb)
            second = rehydrate(factory, ha, hb)
            assert first == second
            assert len(calls) == 1

    def test_rehydrate_fallback_arrays_not_cached(self):
        calls = []

        def factory(a):
            calls.append(1)
            return float(a.sum())

        inline = np.arange(8, dtype=float)
        rehydrate(factory, inline)
        rehydrate(factory, inline)
        assert len(calls) == 2


class TestLifecycle:
    def test_close_is_idempotent(self):
        plane = SharedArrayPlane()
        plane.publish(big_array(8))
        plane.close()
        plane.close()
        assert plane.closed

    def test_close_unlinks_blocks(self):
        plane = SharedArrayPlane()
        handle = plane.publish(big_array(9))
        plane.close()
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=handle.name)

    def test_stats_survive_close(self):
        plane = SharedArrayPlane()
        plane.publish(big_array(10))
        plane.close()
        stats = plane.stats()
        assert stats.blocks == 1
        assert stats.bytes_shared > 0

    def test_sweep_planes_reaps_unclosed(self):
        plane = SharedArrayPlane()
        plane.publish(big_array(11))
        assert sweep_planes() >= 1
        assert plane.closed

    def test_min_bytes_validation(self):
        with pytest.raises(ValueError, match="min_bytes"):
            SharedArrayPlane(min_bytes=-1)


class TestTelemetry:
    def test_publish_and_close_emit_declared_events(self):
        sink = InMemorySink()
        tracer = Tracer(sink)
        with SharedArrayPlane(tracer=tracer) as plane:
            plane.publish(big_array(12))
            plane.publish(big_array(12))
        kinds = [event.name for event in sink.events]
        assert "pool.shm.publish" in kinds
        assert "pool.shm.close" in kinds
        close_event = next(
            event for event in sink.events if event.name == "pool.shm.close"
        )
        assert close_event.fields["blocks"] == 1
        assert close_event.fields["cache_hits"] == 1

    def test_counters_accumulate(self):
        tracer = Tracer()
        with SharedArrayPlane(tracer=tracer) as plane:
            handle = plane.publish(big_array(13))
        counters = tracer.registry.snapshot()["counters"]
        assert counters["pool.shm.blocks"] == 1
        assert counters["pool.shm.bytes_shared"] == handle.nbytes


ATEXIT_SCRIPT = """
import warnings
warnings.simplefilter("error")  # resource_tracker leaks warn at exit

import numpy as np
from repro.experiments import parallel, shm

plane = shm.SharedArrayPlane()
array = np.random.default_rng(0).random((512, 64))
handle = plane.publish(array)
assert isinstance(handle, shm.ArrayRef)
print("BLOCK", handle.name)
# Deliberately no close(): the atexit sweep must unlink the block
# before the interpreter (and its resource tracker) shuts down.
"""


class TestAtexitOrdering:
    def test_unclosed_plane_is_swept_without_leaks(self, tmp_path):
        """A crashing caller must not leak blocks or tracker warnings."""
        result = subprocess.run(
            [sys.executable, "-c", ATEXIT_SCRIPT],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        # resource_tracker prints leak warnings to stderr at exit; any
        # mention of leaked shared_memory objects is a failure.
        assert "leaked shared_memory" not in result.stderr
        assert "resource_tracker" not in result.stderr
        block_name = result.stdout.split()[-1]
        # The block must be gone from the system namespace as well.
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=block_name)


WORKER_ATTACH_SCRIPT = """
import sys

from repro.experiments import sim_validation
from repro.experiments.parallel import parallel_map

if sys.argv[1] == "pool-first":
    # Workers forked before the coordinator's resource tracker exists
    # would each start a tracker of their own on their first attach.
    parallel_map(abs, [1, 2, 3], n_workers=2)
sim_validation.run(n_workers=2, horizon=400.0, warmup=40.0)
"""


class TestWorkerAttach:
    @pytest.mark.parametrize("ordering", ["pool-first", "plane-first"])
    def test_worker_attaches_leave_no_tracker_noise(self, ordering):
        """Workers never own blocks, so no tracker may claim them."""
        result = subprocess.run(
            [sys.executable, "-c", WORKER_ATTACH_SCRIPT, ordering],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert "leaked shared_memory" not in result.stderr
        # A worker that unregistered a block from a tracker it shares
        # with the coordinator makes the coordinator's unlink fail there.
        assert "resource_tracker" not in result.stderr
