"""Tests of the benchmark's own code: seeded inputs and wrapper hygiene.

    PYTHONPATH=src python -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import inputs  # noqa: E402
import layer_map  # noqa: E402
import workloads  # noqa: E402
from layers import LayerTrace  # noqa: E402
from worker import HostSpeed  # noqa: E402
from repro.core import NashSolver  # noqa: E402
from repro.distributed.chaos import FaultSchedule  # noqa: E402
from repro.workloads.configs import paper_table1_system  # noqa: E402
from repro.workloads.traces import day_in_production_trace  # noqa: E402


def _solve_key(seed):
    return [
        (i.kind, i.n_classes, i.sample_k, i.service_rates.tobytes(), i.arrival_rates.tobytes())
        for i in inputs.solve_instances(seed)
    ]


def _churn_key(seed):
    return [
        (spec, day_in_production_trace(inputs.CHURN_EPOCHS, seed=spec.trace_seed))
        for spec in inputs.churn_specs(seed)
    ]


def _schedules(seed):
    return [
        FaultSchedule.random(**inputs.resilient_schedule_args(run)).events
        for run in inputs.ring_runs(seed)
        if run.driver == "resilient"
    ]


def test_same_seed_same_inputs():
    assert _solve_key(7) == _solve_key(7)
    assert _churn_key(7) == _churn_key(7)
    assert inputs.ring_runs(7) == inputs.ring_runs(7)
    assert _schedules(7) == _schedules(7)
    assert inputs.paper_order(7) == inputs.paper_order(7)


def test_different_seeds_different_inputs():
    assert _solve_key(7) != _solve_key(8)
    assert _churn_key(7) != _churn_key(8)
    assert inputs.ring_runs(7) != inputs.ring_runs(8)
    assert _schedules(7) != _schedules(8)
    assert inputs.paper_order(7) != inputs.paper_order(8)


def test_solve_instances_cover_the_ranges():
    stream = inputs.solve_instances(3)
    users = [i for i in stream if i.kind == "users" and i.sample_k is None]
    classes = [i for i in stream if i.kind == "classes" and i.sample_k is None]
    # Stratum midpoints: the extremes sit half a stratum inside the range.
    assert min(i.arrival_rates.size for i in users) == 4
    assert max(i.arrival_rates.size for i in users) >= 40
    assert all(0.5 <= i.utilization <= 0.9 for i in users)
    assert all(10**3 <= i.arrival_rates.size <= 10**5 for i in classes)
    for i in stream:
        u = i.arrival_rates.sum() / i.service_rates.sum()
        assert np.isclose(u, i.utilization)


def test_wrappers_record_and_are_removed():
    originals = {}
    with LayerTrace(layer_map.BOUNDARIES).install() as trace:
        for holder, attr, original in trace.patched:
            originals[(id(holder), attr)] = original
            assert holder.__dict__[attr] is not original
        NashSolver().solve(paper_table1_system(n_users=4))
    assert trace.restored()
    for holder, attr, original in trace.patched:
        assert holder.__dict__[attr] is originals[(id(holder), attr)]
    assert trace.recorder.calls["core.nash.solve"] == 1
    assert trace.recorder.counts["core.nash.sweeps"] > 0


def test_functions_are_wrapped_where_callers_imported_them():
    # nash.py imports sampled_best_reply by name; the traced run must see
    # the calls made through that name.
    import repro.core.nash as nash
    import repro.core.sampled as sampled

    original = sampled.sampled_best_reply
    with LayerTrace(layer_map.BOUNDARIES).install():
        assert nash.sampled_best_reply is sampled.sampled_best_reply
        assert nash.sampled_best_reply is not original
    assert nash.sampled_best_reply is original


def test_workloads_are_registered():
    assert set(workloads.WORKLOADS) == {"solve", "churn", "ring", "paper"}


def test_host_speed_reuses_a_fresh_sample():
    host = HostSpeed()
    first = host.factor()
    assert host.factor() == first
    assert len(host.samples) == 1
    assert first == HostSpeed.REFERENCE_S / host.samples[0]
