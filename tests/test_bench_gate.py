"""Tests for the perf-regression gate ``benchmarks/bench_gate.py``."""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def gate():
    path = ROOT / "benchmarks" / "bench_gate.py"
    spec = importlib.util.spec_from_file_location("bench_gate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def committed():
    return json.loads((ROOT / "BENCH_nash.json").read_text())


def _with_speedups(payload, **changes):
    speedups = dict(payload["speedups"])
    for key, value in changes.items():
        if value is None:
            speedups.pop(key)
        else:
            speedups[key] = value
    return {**payload, "speedups": speedups}


def test_committed_baseline_passes_against_itself(gate, committed):
    assert gate.compare(committed, committed) == []


def test_every_floor_names_a_recorded_key(gate, committed):
    assert set(gate.default_floors()) <= set(committed["speedups"])


def test_floors_match_keys_exactly_not_by_substring(gate, committed):
    # Keys that merely contain a floor's old token ("sample", "shm",
    # "simultaneous", ...) stay ungated however low they fall.
    fresh = _with_speedups(
        committed,
        test_bench_knash=0.5,
        test_bench_nash_m1000_n64_roundrobin=0.5,
        test_bench_plane_fanout=0.5,
        test_bench_shm_sample_simultaneous_class=0.5,
    )
    assert gate.compare(committed, fresh) == []
    assert "test_bench_shm_sample_simultaneous_class" in gate.ungated(fresh)


def test_floored_key_below_its_floor_fails(gate, committed):
    fresh = _with_speedups(committed, test_bench_fig4_sweep=1.9)
    failures = gate.compare(committed, fresh)
    assert len(failures) == 1
    assert failures[0].startswith("test_bench_fig4_sweep:")
    assert "2x floor" in failures[0]


def test_missing_floored_key_fails(gate, committed):
    fresh = _with_speedups(committed, test_bench_replications_r16=None)
    failures = gate.compare(committed, fresh)
    assert failures == [
        "test_bench_replications_r16: floored at 4x but missing from the "
        "fresh run"
    ]


def test_custom_floors_replace_the_defaults(gate, committed):
    floors = {"test_bench_knash": 2.0}
    failures = gate.compare(committed, committed, floors=floors)
    assert len(failures) == 1
    assert failures[0].startswith("test_bench_knash:")
    assert "test_bench_fig4_sweep" in gate.ungated(committed, floors)


def test_timing_regression_beyond_max_ratio_fails(gate, committed):
    first, *rest = committed["benchmarks"]
    slow = dict(first, mean=first["mean"] * 3)
    fresh = {**committed, "benchmarks": [slow, *rest]}
    failures = gate.compare(committed, fresh, max_ratio=2.0)
    assert len(failures) == 1
    assert "3.00x slower" in failures[0]


def test_cli_lists_ungated_keys_and_honours_floor_options(
    gate, committed, tmp_path, capsys
):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(committed))
    argv = ["--baseline", str(path), "--fresh", str(path)]
    assert gate.main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("bench-gate: OK")
    assert (
        "ungated: test_bench_knash, test_bench_nash_m1000_n64_roundrobin, "
        "test_bench_plane_fanout)" in out
    )
    assert gate.main([*argv, "--min-churn-speedup", "100"]) == 1
    assert "test_bench_engine_churn" in capsys.readouterr().out
