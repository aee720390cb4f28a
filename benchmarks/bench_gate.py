"""Perf-regression gate over ``BENCH_nash.json`` snapshots.

Compares a freshly generated benchmark JSON (written by the session
plugin in ``benchmarks/conftest.py``) against the committed baseline and
fails when

* any shared benchmark regressed by more than ``--max-ratio``
  (default 2x — generous because CI machines are noisy; the trajectory,
  not single-digit percents, is what the gate protects);
* any floored speedup fell below its floor, or is missing from the
  fresh run (a renamed or dropped benchmark must not escape its
  floor).  Each floor gates exactly one ``speedups`` key (see
  :data:`FLOORS`): ``--min-speedup`` (default 10x) for the m=1000,
  n=64 simultaneous NASH solve, ``--min-batch-speedup`` (default 4x)
  for batched versus looped replications, ``--min-warm-speedup``
  (default 2x) for the warm-started versus cold Figure-4 sweep,
  ``--min-churn-speedup`` (default 2x) for the online engine's
  incremental re-equilibration versus cold re-solves over the churn
  trace, ``--min-class-speedup`` (default 5x) for the class-space
  versus per-user fixed-budget NASH solve at m=100k users,
  ``--min-sample-msg-reduction`` (default 10x) for the sampled
  (power-of-k) ring protocol's per-sweep message reduction against
  the full-information baseline, and ``--min-shm-speedup`` (default
  2x) for the zero-copy data plane's coordinator-serialization-bytes
  reduction on the fanned-out scheme sweep (a deterministic byte
  ratio, not a timing — exact on any machine).

Recorded speedups with no floor are listed as ungated on the OK line.

Usage::

    python benchmarks/bench_gate.py \
        --baseline BENCH_nash.json --fresh /tmp/BENCH_fresh.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Mapping


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


#: Every speedup floor: the exact ``speedups`` key it gates, the CLI
#: option that overrides it, and its default.
FLOORS: tuple[tuple[str, str, float], ...] = (
    ("test_bench_nash_m1000_n64_simultaneous", "--min-speedup", 10.0),
    ("test_bench_replications_r16", "--min-batch-speedup", 4.0),
    ("test_bench_fig4_sweep", "--min-warm-speedup", 2.0),
    ("test_bench_engine_churn", "--min-churn-speedup", 2.0),
    ("test_bench_class_scale_m1e5", "--min-class-speedup", 5.0),
    ("sampled_msg_reduction", "--min-sample-msg-reduction", 10.0),
    ("shm_plane_bytes_reduction", "--min-shm-speedup", 2.0),
)


def default_floors() -> dict[str, float]:
    """The default floor of every gated ``speedups`` key."""
    return {key: floor for key, _, floor in FLOORS}


def compare(
    baseline: dict,
    fresh: dict,
    *,
    max_ratio: float = 2.0,
    floors: Mapping[str, float] | None = None,
) -> list[str]:
    """Return a list of human-readable gate violations (empty = pass).

    ``floors`` maps exact ``speedups`` keys to their minimum; it
    defaults to :func:`default_floors`.
    """
    if floors is None:
        floors = default_floors()
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
    speedups = fresh.get("speedups", {})
    for key, floor in sorted(floors.items()):
        if key not in speedups:
            failures.append(
                f"{key}: floored at {floor:g}x but missing from the fresh run"
            )
        elif speedups[key] < floor:
            failures.append(
                f"{key}: recorded speedup {speedups[key]:.2f}x fell below "
                f"the {floor:g}x floor"
            )
    return failures


def ungated(fresh: dict, floors: Mapping[str, float] | None = None) -> list[str]:
    """Recorded ``speedups`` keys that no floor gates."""
    if floors is None:
        floors = default_floors()
    return sorted(set(fresh.get("speedups", {})) - set(floors))


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
    for key, option, floor in FLOORS:
        parser.add_argument(
            option, dest=key, type=float, default=floor, metavar="X",
            help=f"floor of the {key} speedup (default {floor:g}x)",
        )
    args = parser.parse_args(argv)

    baseline = _load(args.baseline)
    fresh = _load(args.fresh)
    floors = {key: getattr(args, key) for key, _, _ in FLOORS}
    failures = compare(
        baseline, fresh, max_ratio=args.max_ratio, floors=floors
    )
    if failures:
        print("bench-gate: FAIL")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    shared = {b["name"] for b in baseline["benchmarks"]} & {
        b["name"] for b in fresh["benchmarks"]
    }
    speedups = fresh.get("speedups", {})
    gated = ", ".join(
        f"{key} {speedups[key]:.2f}x >= {floor:g}x"
        for key, floor in sorted(floors.items())
    )
    print(
        f"bench-gate: OK ({len(shared)} benchmarks within {args.max_ratio:g}x; "
        f"gated: {gated}; ungated: {', '.join(ungated(fresh, floors)) or 'none'})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
