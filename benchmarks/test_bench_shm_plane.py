"""SHM-PLANE — the zero-copy data plane versus per-task pickling.

The plane (:mod:`repro.experiments.shm`) publishes the coordinator's
big read-only arrays into ``multiprocessing.shared_memory`` once and
ships workers picklable :class:`~repro.experiments.shm.ArrayRef`
handles instead of array bytes.  This group measures it both ways on
the scheme-evaluation sweep, fanned out point-per-task:

* ``test_bench_plane_fanout_pickled`` / ``..._shmplane`` — the sweep
  with the per-point rate vectors pickled versus shared.  The
  proportional scheme keeps the per-point compute in microseconds, so
  the pair isolates dispatch cost — exactly what the plane removes.
* ``test_bench_plane_coordinator_bytes`` — the deterministic gate
  metric: the coordinator-side serialization bytes of the same sweep,
  measured by pickling every task payload on both paths.  The recorded
  ``shm_plane_bytes_reduction`` ratio is gated in CI at >= 2x via
  ``benchmarks/bench_gate.py --min-shm-speedup`` (bytes are
  machine-independent, so the floor is exact where wall-clock speedups
  on shared CI machines are noisy).  The same measurement pins
  bit-identity of the two paths.

See the "Zero-copy data plane" section of docs/PERFORMANCE.md.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.experiments import common
from repro.experiments.common import run_schemes_sweep
from repro.experiments.shm import clear_worker_cache, shm_available
from repro.schemes.proportional import ProportionalScheme
from repro.workloads.sweeps import sweep_points

shm_plane = pytest.mark.benchmark(group="shm-plane")

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="no POSIX shared memory on this platform"
)

#: Fan-out sweep geometry: 32768 users puts the per-point arrival-rate
#: vector (256 KiB) well above the plane's 32 KiB sharing threshold.
SWEEP_USERS = 32_768
SWEEP_RHOS = (0.4, 0.5, 0.6, 0.7)


def _sweep_once(points, *, use_shm: bool):
    return run_schemes_sweep(
        points, [ProportionalScheme()], n_workers=2, use_shm=use_shm
    )


@pytest.fixture(scope="module")
def sweep_point_list():
    return sweep_points("utilization", SWEEP_RHOS, n_users=SWEEP_USERS)


@shm_plane
def test_bench_plane_fanout_pickled(benchmark, sweep_point_list):
    results = benchmark.pedantic(
        lambda: _sweep_once(sweep_point_list, use_shm=False),
        rounds=3,
        iterations=1,
    )
    assert len(results) == len(SWEEP_RHOS)


@shm_plane
def test_bench_plane_fanout_shmplane(benchmark, sweep_point_list):
    results = benchmark.pedantic(
        lambda: _sweep_once(sweep_point_list, use_shm=True),
        rounds=3,
        iterations=1,
    )
    assert len(results) == len(SWEEP_RHOS)


class _MeteredMap:
    """In-process ``parallel_map`` stand-in that weighs every payload.

    Running the worker callables inline keeps the measurement exact and
    machine-independent: the bytes a payload pickles to are what the
    real pool would push through the task pipe per dispatch.
    """

    def __init__(self):
        self.bytes_sent = 0

    def __call__(self, fn, items, **kwargs):
        items = list(items)
        self.bytes_sent += sum(
            len(pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL))
            for item in items
        )
        return [fn(item) for item in items]


@shm_plane
def test_bench_plane_coordinator_bytes(
    benchmark, sweep_point_list, monkeypatch, record_speedup
):
    def measure():
        meters = {}
        results = {}
        for label, use_shm in (("pickled", False), ("shmplane", True)):
            meter = _MeteredMap()
            monkeypatch.setattr(common, "parallel_map", meter)
            try:
                results[label] = _sweep_once(sweep_point_list, use_shm=use_shm)
            finally:
                monkeypatch.undo()
                clear_worker_cache()
            meters[label] = meter.bytes_sent
        return meters, results

    meters, results = benchmark.pedantic(measure, rounds=1, iterations=1)
    # Both dispatch paths evaluate the same allocations, bit for bit.
    for (rho, pickled), (rho_shm, shared) in zip(
        results["pickled"], results["shmplane"]
    ):
        assert rho == rho_shm
        for name, result in pickled.items():
            np.testing.assert_array_equal(
                result.profile.fractions, shared[name].profile.fractions
            )
            np.testing.assert_array_equal(
                result.user_times, shared[name].user_times
            )
    reduction = meters["pickled"] / meters["shmplane"]
    record_speedup("shm_plane_bytes_reduction", reduction)
    assert reduction >= 2.0
