"""Perf-regression gate over ``BENCH_nash.json`` snapshots.

Compares a freshly generated benchmark JSON (written by the session
plugin in ``benchmarks/conftest.py``) against the committed baseline and
fails when

* any shared benchmark regressed by more than ``--max-ratio``
  (default 2x — generous because CI machines are noisy; the trajectory,
  not single-digit percents, is what the gate protects);
* any recorded speedup pair fell below its floor:
  ``--min-speedup`` (default 10x) for the m=1000, n=64 simultaneous
  NASH solve, ``--min-batch-speedup`` (default 4x) for batched versus
  looped replications, ``--min-warm-speedup`` (default 2x) for the
  warm-started versus cold Figure-4 sweep, ``--min-churn-speedup``
  (default 2x) for the online engine's incremental re-equilibration
  versus cold re-solves over the churn trace,
  ``--min-class-speedup`` (default 5x) for the class-space versus
  per-user fixed-budget NASH solve at m=100k users,
  ``--min-sample-msg-reduction`` (default 10x) for the sampled
  (power-of-k) ring protocol's per-sweep message reduction against the
  full-information baseline, and ``--min-shm-speedup`` (default 2x)
  for the zero-copy data plane's coordinator-serialization-bytes
  reduction on the fanned-out scheme sweep (a deterministic byte
  ratio, not a timing — exact on any machine).

Usage::

    python benchmarks/bench_gate.py \
        --baseline BENCH_nash.json --fresh /tmp/BENCH_fresh.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys


def _load(path: pathlib.Path) -> dict:
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        raise SystemExit(f"bench-gate: missing benchmark file {path}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"bench-gate: invalid JSON in {path}: {exc}")
    if "benchmarks" not in payload:
        raise SystemExit(f"bench-gate: {path} has no 'benchmarks' key")
    return payload


def compare(
    baseline: dict,
    fresh: dict,
    *,
    max_ratio: float,
    min_speedup: float,
    min_batch_speedup: float = 4.0,
    min_warm_speedup: float = 2.0,
    min_churn_speedup: float = 2.0,
    min_class_speedup: float = 5.0,
    min_sample_msg_reduction: float = 10.0,
    min_shm_speedup: float = 2.0,
) -> list[str]:
    """Return a list of human-readable gate violations (empty = pass)."""
    failures = []
    base_means = {b["name"]: b["mean"] for b in baseline["benchmarks"]}
    fresh_means = {b["name"]: b["mean"] for b in fresh["benchmarks"]}
    for name in sorted(set(base_means) & set(fresh_means)):
        ratio = fresh_means[name] / base_means[name]
        if ratio > max_ratio:
            failures.append(
                f"{name}: {ratio:.2f}x slower than baseline "
                f"({fresh_means[name]:.6g}s vs {base_means[name]:.6g}s, "
                f"limit {max_ratio:g}x)"
            )
    floors = (
        ("simultaneous", min_speedup),
        ("replications", min_batch_speedup),
        ("churn", min_churn_speedup),
        ("class", min_class_speedup),
        ("sweep", min_warm_speedup),
        ("sample", min_sample_msg_reduction),
        ("shm", min_shm_speedup),
    )
    for key, speedup in sorted(fresh.get("speedups", {}).items()):
        for token, floor in floors:
            if token in key and speedup < floor:
                failures.append(
                    f"{key}: recorded speedup {speedup:.2f}x fell below "
                    f"the {floor:g}x floor"
                )
                break
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline", type=pathlib.Path, required=True,
        help="committed BENCH_nash.json to compare against",
    )
    parser.add_argument(
        "--fresh", type=pathlib.Path, required=True,
        help="freshly generated BENCH_nash.json",
    )
    parser.add_argument("--max-ratio", type=float, default=2.0)
    parser.add_argument("--min-speedup", type=float, default=10.0)
    parser.add_argument("--min-batch-speedup", type=float, default=4.0)
    parser.add_argument("--min-warm-speedup", type=float, default=2.0)
    parser.add_argument("--min-churn-speedup", type=float, default=2.0)
    parser.add_argument("--min-class-speedup", type=float, default=5.0)
    parser.add_argument(
        "--min-sample-msg-reduction", type=float, default=10.0
    )
    parser.add_argument("--min-shm-speedup", type=float, default=2.0)
    args = parser.parse_args(argv)

    baseline = _load(args.baseline)
    fresh = _load(args.fresh)
    failures = compare(
        baseline, fresh,
        max_ratio=args.max_ratio, min_speedup=args.min_speedup,
        min_batch_speedup=args.min_batch_speedup,
        min_warm_speedup=args.min_warm_speedup,
        min_churn_speedup=args.min_churn_speedup,
        min_class_speedup=args.min_class_speedup,
        min_sample_msg_reduction=args.min_sample_msg_reduction,
        min_shm_speedup=args.min_shm_speedup,
    )
    if failures:
        print("bench-gate: FAIL")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    shared = {b["name"] for b in baseline["benchmarks"]} & {
        b["name"] for b in fresh["benchmarks"]
    }
    print(
        f"bench-gate: OK ({len(shared)} benchmarks within {args.max_ratio:g}x, "
        f"speedups {fresh.get('speedups', {})})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
