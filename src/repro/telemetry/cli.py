"""The ``repro-trace`` command-line interface.

Renders summaries of a JSONL trace file (see docs/OBSERVABILITY.md)::

    repro-trace summary run.trace.jsonl          # event/metric overview
    repro-trace convergence run.trace.jsonl      # norm history per sweep
    repro-trace protocol run.trace.jsonl --json  # message accounting

Exit status: 0 on success, 1 when the trace holds no data for the
requested view, 2 on usage errors (missing/corrupt trace file).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Sequence

from repro.telemetry.analysis import (
    engine_summary,
    pool_summary,
    protocol_summary,
    reconstruct_norm_history,
    sim_summary,
    solver_summary,
    sweep_summary,
    trace_summary,
)
from repro.telemetry.events import TraceEvent
from repro.telemetry.sinks import read_trace

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description=(
            "Summarize a repro telemetry trace (JSONL) — convergence "
            "norms, protocol message accounting, simulation counters."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, description in (
        ("summary", "event counts, metrics snapshot, per-layer overview"),
        (
            "convergence",
            "reconstructed norm history, one line per sweep, and why the "
            "last solve stopped",
        ),
        ("protocol", "per-kind message counts and overhead accounting"),
        ("engine", "online-engine epochs, degraded windows, SLA totals"),
    ):
        sub = subparsers.add_parser(command, help=description)
        sub.add_argument("trace", help="path to a .trace.jsonl file")
        sub.add_argument(
            "--json",
            action="store_true",
            help="emit machine-readable JSON instead of text",
        )
    return parser


def _format_bytes(n: int) -> str:
    """Human-scale byte count (binary units, one decimal)."""
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024.0 or unit == "GiB":
            return f"{value:.1f}{unit}" if unit != "B" else f"{n}B"
        value /= 1024.0
    return f"{n}B"  # pragma: no cover - unreachable


def _render_summary(events: list[TraceEvent]) -> tuple[dict[str, Any], str]:
    payload: dict[str, Any] = trace_summary(events)
    solver = solver_summary(events)
    protocol = protocol_summary(events)
    sim = sim_summary(events)
    lines = [f"events: {payload['n_events']}"]
    for name, count in payload["event_counts"].items():
        lines.append(f"  {name:<24} {count}")
    if solver["sweeps"]:
        lines.append(
            f"solver: {solver['n_solves']} solves, "
            f"{len(solver['sweeps'])} sweeps, "
            f"final norm {solver['norm_history'][-1]:.3g}, "
            f"{solver['total_elapsed_s']:.4f}s in best replies; last "
            f"{solver['classes']} classes / {solver['users']} users "
            f"({solver['compression']:.0f}x)"
        )
    if solver["sample"] is not None:
        sample = solver["sample"]
        lines.append(
            f"sampled: k={sample.get('k')}/{sample.get('computers')} "
            f"computers, {sample.get('polls')} polls, "
            f"true epsilon {float(sample.get('epsilon', 0.0)):.3g}"
        )
    if protocol["messages_delivered"]:
        kinds = ", ".join(
            f"{kind}={count}"
            for kind, count in protocol["messages_by_kind"].items()
        )
        lines.append(
            f"protocol: {protocol['messages_delivered']} messages "
            f"({kinds}), {protocol['retransmissions']} retransmissions"
        )
    if sim["runs"]:
        lines.append(
            f"sim: {len(sim['runs'])} runs, {sim['arrivals']} arrivals, "
            f"{sim['completions']} completions "
            f"({sim['warmup_discards']} warm-up discards), "
            f"{len(sim['outage_windows'])} outage edges"
        )
    sweeps = sweep_summary(events)
    if sweeps["n_points"]:
        per_scheme = ", ".join(
            f"{scheme}={entry['points']}p/{entry['iterations']}it"
            + (f"/{entry['warm_started']}warm" if entry["warm_started"] else "")
            for scheme, entry in sorted(sweeps["by_scheme"].items())
        )
        mode = "continuation" if sweeps["continuation"] else "cold"
        lines.append(
            f"sweeps: {sweeps['n_points']} point solves ({mode}): {per_scheme}"
        )
    pool = pool_summary(events)
    if pool["n_blocks"] or pool["n_planes"]:
        lines.append(
            f"shm-plane: {pool['n_planes']} planes, "
            f"{pool['n_blocks']} blocks / "
            f"{_format_bytes(pool['bytes_shared'])} shared, "
            f"{_format_bytes(pool['bytes_saved'])} saved "
            f"({pool['cache_hits']} dedupe hits, "
            f"{pool['fallbacks']} fallbacks)"
        )
    engine = engine_summary(events)
    if engine["n_epochs"]:
        lines.append(
            f"engine: {engine['n_epochs']} epochs "
            f"({engine['degraded_mode_epochs']} degraded-mode), "
            f"{engine['sla_violations']} SLA violations, "
            f"{engine['total_sweeps']} sweeps"
        )
    if payload["metrics"] is not None:
        counters = payload["metrics"].get("counters", {})
        for name, value in counters.items():
            lines.append(f"  counter {name:<28} {value:g}")
    return payload, "\n".join(lines)


def _render_convergence(
    events: list[TraceEvent],
) -> tuple[dict[str, Any], str]:
    norms = reconstruct_norm_history(events)
    # A later solve's sweeps overwrite the history from index 0, so the
    # view is of the last solve, and so is its stop reason.
    stopped_by = None
    for event in events:
        if event.name == "solver.done":
            stopped_by = event.fields.get("stopped_by")
    payload = {
        "iterations": len(norms),
        "norm_history": norms,
        "final_norm": norms[-1] if norms else None,
        "stopped_by": stopped_by,
    }
    lines = [f"{'iteration':>9}  norm"]
    for index, norm in enumerate(norms, start=1):
        lines.append(f"{index:>9}  {norm:.6e}")
    if stopped_by is not None:
        lines.append(f"stopped by: {stopped_by}")
    return payload, "\n".join(lines)


def _render_protocol(
    events: list[TraceEvent],
) -> tuple[dict[str, Any], str]:
    payload = protocol_summary(events)
    lines = ["messages by kind:"]
    for kind, count in payload["messages_by_kind"].items():
        lines.append(f"  {kind:<12} {count}")
    lines.append(f"delivered total: {payload['messages_delivered']}")
    lines.append(f"token hops: {payload['token_hops']}")
    lines.append(f"retransmissions: {payload['retransmissions']}")
    if payload["suspicions"] or payload["faults"]:
        lines.append(
            f"suspicions: {payload['suspicions']}, "
            f"faults applied: {len(payload['faults'])}, "
            f"ring reopens: {payload['ring_reopens']}"
        )
        lines.append(
            f"checkpoints: {payload['checkpoint_captures']} captured, "
            f"{payload['checkpoint_restores']} restored"
        )
    if payload["outcome"] is not None:
        lines.append(f"outcome: {payload['outcome']}")
    return payload, "\n".join(lines)


def _render_engine(
    events: list[TraceEvent],
) -> tuple[dict[str, Any], str]:
    payload = engine_summary(events)
    status_counts = ", ".join(
        f"{status}={count}"
        for status, count in payload["status_counts"].items()
    )
    lines = [
        f"epochs: {payload['n_epochs']} ({status_counts})",
        f"warm-started: {payload['warm_started']}, certified: "
        f"{payload['certified']}/{payload['solvable_epochs']} "
        f"({'all' if payload['all_certified'] else 'NOT all'} certified)",
    ]
    if payload["degraded_windows"]:
        windows = ", ".join(
            f"[{start}..{end}]" for start, end in payload["degraded_windows"]
        )
        lines.append(
            f"degraded-mode windows: {windows} "
            f"({payload['degraded_mode_epochs']} epochs)"
        )
    lines.append(
        f"SLA: {payload['sla_violations']} violations over "
        f"{payload['sla_violation_epochs']} epochs"
    )
    lines.append(
        f"sweeps: {payload['total_sweeps']} total; per-epoch histogram:"
    )
    for bucket, count in payload["sweeps_histogram"].items():
        lines.append(f"  {bucket:>8}  {count}")
    if payload["polished_epochs"]:
        outcomes = ", ".join(
            f"{outcome}={count}"
            for outcome, count in payload["polish_outcomes"].items()
        )
        lines.append(
            f"Newton polish: {outcomes}; fallback to sweeps in "
            f"{payload['polish_fallback_epochs']}/{payload['polished_epochs']} "
            f"epochs ({payload['polish_fallback_rate']:.1%})"
        )
    lines.append(
        f"re-equilibration latency: {payload['total_latency_s']:.4f}s total, "
        f"{payload['max_latency_s']:.4f}s worst epoch"
    )
    for error in payload["errors"]:
        lines.append(f"error: {error}")
    return payload, "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        events = read_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(f"repro-trace: {exc}", file=sys.stderr)
        return 2

    if args.command == "summary":
        payload, text = _render_summary(events)
        empty = not events
    elif args.command == "convergence":
        payload, text = _render_convergence(events)
        empty = not payload["norm_history"]
    elif args.command == "engine":
        payload, text = _render_engine(events)
        empty = not payload["n_epochs"]
    else:
        payload, text = _render_protocol(events)
        empty = not payload["messages_delivered"]

    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)
    if empty:
        print(
            f"repro-trace: no {args.command} data in {args.trace}",
            file=sys.stderr,
        )
        return 1
    return 0
