"""Tests for the parallel replication layer and the pre-drawn pool."""

from __future__ import annotations

import pickle
import tracemalloc

import numpy as np
import pytest

from repro.core.model import DistributedSystem
from repro.experiments import replication
from repro.experiments.replication import (
    _chunk_bounds,
    simulate_batch_parallel,
)
from repro.schemes import NashScheme
from repro.simengine.fastpath import (
    predraw_uniform_pool,
    simulate_profile_fast_batch,
)
from repro.simengine.rng import replication_seeds
from repro.simengine.service import from_scv
from repro.telemetry.sinks import InMemorySink
from repro.telemetry.trace import Tracer, use_tracer
from repro.workloads.configs import paper_table1_system


@pytest.fixture(scope="module")
def study():
    system = paper_table1_system(utilization=0.6, n_users=6)
    profile = NashScheme().allocate(system).profile
    return system, profile


def _assert_results_equal(actual, expected):
    assert len(actual) == len(expected)
    for a, b in zip(actual, expected):
        np.testing.assert_array_equal(
            a.user_mean_response_times, b.user_mean_response_times
        )
        np.testing.assert_array_equal(a.user_job_counts, b.user_job_counts)
        np.testing.assert_array_equal(
            a.computer_utilizations, b.computer_utilizations
        )
        np.testing.assert_array_equal(
            a.computer_job_counts, b.computer_job_counts
        )


class TestPredrawnPool:
    def test_external_pool_is_bit_identical(self, study):
        system, profile = study
        seeds = replication_seeds(7, 4)
        baseline = simulate_profile_fast_batch(
            system, profile, horizon=50.0, warmup=5.0, seeds=seeds
        )
        pool = predraw_uniform_pool(
            system, profile, horizon=50.0, seeds=seeds
        )
        pooled = simulate_profile_fast_batch(
            system,
            profile,
            horizon=50.0,
            warmup=5.0,
            seeds=seeds,
            uniform_pool=pool,
        )
        _assert_results_equal(pooled, baseline)

    def test_row_slice_of_pool_matches_seed_slice(self, study):
        # The chunking property the parallel layer relies on: any
        # contiguous (seeds, pool-rows) slice reproduces the full
        # batch's corresponding results exactly.
        system, profile = study
        seeds = replication_seeds(7, 5)
        baseline = simulate_profile_fast_batch(
            system, profile, horizon=50.0, seeds=seeds
        )
        pool = predraw_uniform_pool(
            system, profile, horizon=50.0, seeds=seeds
        )
        sliced = simulate_profile_fast_batch(
            system,
            profile,
            horizon=50.0,
            seeds=seeds[2:5],
            uniform_pool=pool[2:5],
        )
        _assert_results_equal(sliced, baseline[2:5])

    def test_pool_shape_validated(self, study):
        system, profile = study
        seeds = replication_seeds(7, 3)
        pool = predraw_uniform_pool(
            system, profile, horizon=50.0, seeds=seeds
        )
        with pytest.raises(ValueError, match="one row per seed"):
            simulate_profile_fast_batch(
                system,
                profile,
                horizon=50.0,
                seeds=seeds,
                uniform_pool=pool[:2],
            )
        with pytest.raises(ValueError, match="too narrow"):
            simulate_profile_fast_batch(
                system,
                profile,
                horizon=50.0,
                seeds=seeds,
                uniform_pool=pool[:, : pool.shape[1] // 2],
            )

    def test_predraw_rejects_bad_inputs(self, study):
        system, profile = study
        with pytest.raises(ValueError, match="horizon"):
            predraw_uniform_pool(system, profile, horizon=0.0, seeds=[1])
        with pytest.raises(ValueError, match="seeds"):
            predraw_uniform_pool(system, profile, horizon=10.0, seeds=[])


class TestSimulateBatchParallel:
    def test_serial_path_matches_plain_batch(self, study):
        system, profile = study
        seeds = replication_seeds(11, 4)
        baseline = simulate_profile_fast_batch(
            system, profile, horizon=50.0, warmup=5.0, seeds=seeds
        )
        serial = simulate_batch_parallel(
            system,
            profile,
            horizon=50.0,
            warmup=5.0,
            seeds=seeds,
            n_workers=1,
        )
        _assert_results_equal(serial, baseline)

    def test_parallel_shm_bit_identical(self, study):
        # The fan-out no longer goes through the shared-memory plane:
        # the results stay bit-identical and nothing is published.
        system, profile = study
        seeds = replication_seeds(11, 5)
        baseline = simulate_profile_fast_batch(
            system, profile, horizon=50.0, warmup=5.0, seeds=seeds
        )
        sink = InMemorySink()
        with use_tracer(Tracer(sink)) as tracer:
            parallel = simulate_batch_parallel(
                system,
                profile,
                horizon=50.0,
                warmup=5.0,
                seeds=seeds,
                n_workers=2,
            )
        _assert_results_equal(parallel, baseline)
        assert not [e for e in sink.events if e.name.startswith("pool.shm.")]
        counters = tracer.registry.snapshot()["counters"]
        assert counters.get("pool.shm.bytes_shared", 0) == 0

    def test_parallel_pickle_fallback_bit_identical(self, study):
        # Pickled chunks, once the fallback, are now the only transport.
        system, profile = study
        seeds = replication_seeds(11, 4)
        baseline = simulate_profile_fast_batch(
            system, profile, horizon=50.0, seeds=seeds
        )
        parallel = simulate_batch_parallel(
            system, profile, horizon=50.0, seeds=seeds, n_workers=2
        )
        _assert_results_equal(parallel, baseline)

    def test_custom_names_reach_the_workers(self):
        system = DistributedSystem(
            service_rates=[9.0, 5.0, 3.0],
            arrival_rates=[4.0, 2.5],
            computer_names=("alpha", "beta", "gamma"),
            user_names=("ann", "bob"),
        )
        profile = NashScheme().allocate(system).profile
        seeds = replication_seeds(23, 4)
        baseline = simulate_profile_fast_batch(
            system, profile, horizon=60.0, seeds=seeds
        )
        parallel = simulate_batch_parallel(
            system, profile, horizon=60.0, seeds=seeds, n_workers=2
        )
        _assert_results_equal(parallel, baseline)
        # The names travel inside the pickled system, not beside it.
        shipped = pickle.loads(pickle.dumps(system))
        assert shipped.computer_names == ("alpha", "beta", "gamma")
        assert shipped.user_names == ("ann", "bob")
        assert shipped.has_default_names == (False, False)

    def test_general_service_times_bit_identical(self, study):
        # General service distributions read each run's stream directly
        # (no service stage in the uniform block), so the workers'
        # streams must sit exactly where a serial batch leaves them.
        system, profile = study
        distributions = [
            from_scv(float(rate), 2.0) for rate in system.service_rates
        ]
        seeds = replication_seeds(31, 4)
        baseline = simulate_profile_fast_batch(
            system,
            profile,
            horizon=50.0,
            warmup=5.0,
            seeds=seeds,
            service_distributions=distributions,
        )
        parallel = simulate_batch_parallel(
            system,
            profile,
            horizon=50.0,
            warmup=5.0,
            seeds=seeds,
            n_workers=2,
            service_distributions=distributions,
        )
        _assert_results_equal(parallel, baseline)

    def test_more_workers_than_seeds_bit_identical(self, study):
        system, profile = study
        seeds = replication_seeds(41, 2)
        baseline = simulate_profile_fast_batch(
            system, profile, horizon=50.0, seeds=seeds
        )
        parallel = simulate_batch_parallel(
            system, profile, horizon=50.0, seeds=seeds, n_workers=3
        )
        _assert_results_equal(parallel, baseline)

    def test_rejects_bad_inputs(self, study):
        system, profile = study
        with pytest.raises(ValueError, match="seeds"):
            simulate_batch_parallel(
                system, profile, horizon=10.0, seeds=[], n_workers=2
            )
        with pytest.raises(ValueError, match="n_workers"):
            simulate_batch_parallel(
                system, profile, horizon=10.0, seeds=[1, 2], n_workers=0
            )


class TestCoordinatorTraffic:
    def test_sim_default_study_ships_seeds_not_draws(self, monkeypatch):
        # The SIM default study: the coordinator must neither draw the
        # replications' uniforms (~149 MB at this size) nor pickle them
        # into the task payloads.
        system = paper_table1_system(utilization=0.6, n_users=10)
        profile = NashScheme().allocate(system).profile
        seeds = replication_seeds(2002, 5)
        captured = []

        def capture(fn, items, **kwargs):
            captured.extend(items)
            return []

        monkeypatch.setattr(replication, "parallel_map", capture)
        tracemalloc.start()
        try:
            simulate_batch_parallel(
                system,
                profile,
                horizon=4000.0,
                warmup=400.0,
                seeds=seeds,
                n_workers=2,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(captured) == 2
        assert peak < 16 * 2**20
        shipped = sum(len(pickle.dumps(chunk)) for chunk in captured)
        assert shipped < 64 * 2**10


class TestChunkBounds:
    def test_covers_all_runs_contiguously(self):
        for n_runs in (1, 2, 5, 7, 16):
            for n_chunks in (1, 2, 3, 8, 32):
                bounds = _chunk_bounds(n_runs, n_chunks)
                assert bounds[0][0] == 0
                assert bounds[-1][1] == n_runs
                for (_, stop), (start, _) in zip(bounds, bounds[1:]):
                    assert stop == start
                sizes = [stop - start for start, stop in bounds]
                assert max(sizes) - min(sizes) <= 1
                assert min(sizes) >= 1


class TestSimValidationWorkers:
    def test_run_accepts_n_workers_and_matches_serial(self):
        from repro.experiments.sim_validation import run

        serial = run(horizon=40.0, warmup=4.0, n_replications=3, n_workers=1)
        parallel = run(
            horizon=40.0, warmup=4.0, n_replications=3, n_workers=2
        )
        assert serial.rows == parallel.rows
