"""Trace post-processing: the read side of the observability layer.

Pure functions from an ordered event sequence (as loaded by
:func:`repro.telemetry.sinks.read_trace`) to the summaries the
``repro-trace`` CLI renders.  The key guarantee, pinned by the test
suite: a traced run's convergence history and per-kind message counts
are reconstructible from the JSONL trace *alone* — byte-identical norms
(floats round-trip exactly through JSON) and counts that sum to the
driver's ``ProtocolOutcome.messages_sent``.
"""

from __future__ import annotations

from collections import Counter as TallyCounter
from typing import Any, Iterable, Mapping, Sequence

from repro.telemetry.events import TraceEvent

__all__ = [
    "engine_summary",
    "event_counts",
    "metrics_snapshot",
    "reconstruct_norm_history",
    "pool_summary",
    "protocol_summary",
    "sim_summary",
    "solver_summary",
    "sweep_summary",
    "trace_summary",
]

#: Event names carrying one completed sweep's convergence norm.
_SWEEP_EVENTS = ("solver.sweep", "protocol.sweep")


def event_counts(events: Iterable[TraceEvent]) -> dict[str, int]:
    """How many times each event name occurs, sorted by name."""
    tally: TallyCounter[str] = TallyCounter(e.name for e in events)
    return dict(sorted(tally.items()))


def metrics_snapshot(
    events: Iterable[TraceEvent],
) -> Mapping[str, Any] | None:
    """The last ``telemetry.metrics`` snapshot in the trace, if any."""
    snapshot: Mapping[str, Any] | None = None
    for event in events:
        if event.name == "telemetry.metrics":
            snapshot = event.fields
    return snapshot


def reconstruct_norm_history(events: Sequence[TraceEvent]) -> list[float]:
    """Rebuild the run's ``norm_history`` from sweep events alone.

    ``solver.sweep`` / ``protocol.sweep`` events carry ``index`` (the
    history position) and ``norm``.  A ``protocol.restore`` of the
    initiator (rank 0) rolls its history back to the checkpointed prefix
    — ``norm_history_length`` — after which re-executed sweeps append
    again, exactly as :class:`~repro.distributed.checkpoint.CheckpointStore`
    replays the live object.
    """
    norms: list[float] = []
    for event in events:
        if event.name == "protocol.restore":
            if int(event.fields.get("rank", -1)) == 0:
                length = int(
                    event.fields.get("norm_history_length", len(norms))
                )
                del norms[length:]
        elif event.name in _SWEEP_EVENTS:
            index = int(event.fields["index"])
            norm = float(event.fields["norm"])
            if index == len(norms):
                norms.append(norm)
            elif index < len(norms):
                # Redo of a rolled-back sweep: overwrite and truncate.
                norms[index] = norm
                del norms[index + 1:]
            else:
                raise ValueError(
                    f"trace skips norm history index {len(norms)} "
                    f"(got {index}): events missing or out of order"
                )
    return norms


def protocol_summary(events: Sequence[TraceEvent]) -> dict[str, Any]:
    """Message/overhead accounting of the distributed protocol run(s)."""
    per_kind: TallyCounter[str] = TallyCounter()
    token_hops = 0
    retransmissions = 0
    suspicions = 0
    checkpoints = 0
    restores = 0
    faults: list[dict[str, Any]] = []
    reopens = 0
    done: dict[str, Any] | None = None
    for event in events:
        if event.name == "protocol.deliver":
            kind = str(event.fields["kind"])
            per_kind[kind] += 1
            if kind == "token":
                token_hops += 1
        elif event.name == "protocol.sample":
            # One event per circulation of the sampled protocol, carrying
            # that sweep's ring-wide poll cost: folding the polls into the
            # per-kind tally makes ``messages_delivered`` equal the
            # sampled driver's honest ``messages_sent`` (bus + probes).
            per_kind["probe"] += int(event.fields.get("polls", 0))
        elif event.name == "protocol.retransmit":
            retransmissions += 1
        elif event.name == "protocol.suspect":
            suspicions += 1
        elif event.name == "protocol.checkpoint":
            checkpoints += 1
        elif event.name == "protocol.restore":
            restores += 1
        elif event.name == "protocol.fault":
            faults.append(dict(event.fields))
        elif event.name == "protocol.reopen":
            reopens += 1
        elif event.name == "protocol.done":
            done = dict(event.fields)
    return {
        "messages_by_kind": dict(sorted(per_kind.items())),
        "messages_delivered": int(sum(per_kind.values())),
        "token_hops": token_hops,
        "retransmissions": retransmissions,
        "suspicions": suspicions,
        "checkpoint_captures": checkpoints,
        "checkpoint_restores": restores,
        "faults": faults,
        "ring_reopens": reopens,
        "norm_history": reconstruct_norm_history(events),
        "outcome": done,
    }


def solver_summary(events: Sequence[TraceEvent]) -> dict[str, Any]:
    """Convergence/timing view of the sequential solves' sweeps.

    Every per-user, class-space and delayed solve emits the same
    ``solver.*`` events; ``norm_history`` and ``total_elapsed_s`` run
    over all their sweeps, the shape fields (``classes``, ``users``,
    ``computers``, ``compression``) come from the last ``solver.start``
    and ``outcome`` is the last ``solver.done``.
    """
    start: dict[str, Any] = {}
    sweeps: list[dict[str, Any]] = []
    done: dict[str, Any] | None = None
    n_solves = 0
    sample: dict[str, Any] | None = None
    for event in events:
        if event.name == "solver.start":
            start = dict(event.fields)
        elif event.name == "solver.sweep":
            sweeps.append(dict(event.fields))
        elif event.name == "solver.done":
            done = dict(event.fields)
            n_solves += 1
        elif event.name == "solver.sample":
            sample = dict(event.fields)
    return {
        "sweeps": sweeps,
        "norm_history": [float(s["norm"]) for s in sweeps],
        "total_elapsed_s": float(
            sum(float(s.get("elapsed_s", 0.0)) for s in sweeps)
        ),
        "n_solves": n_solves,
        "classes": int(start.get("classes", 0)),
        "users": int(start.get("users", 0)),
        "computers": int(start.get("computers", 0)),
        "compression": float(start.get("compression", 0.0)),
        "sample": sample,
        "outcome": done,
    }


def sim_summary(events: Sequence[TraceEvent]) -> dict[str, Any]:
    """Arrival/completion/outage accounting of simulation runs."""
    outages: list[dict[str, Any]] = []
    runs: list[dict[str, Any]] = []
    for event in events:
        if event.name == "sim.outage":
            outages.append(dict(event.fields))
        elif event.name == "sim.run":
            runs.append(dict(event.fields))
    return {
        "runs": runs,
        "arrivals": int(sum(int(r.get("arrivals", 0)) for r in runs)),
        "completions": int(
            sum(int(r.get("completions", 0)) for r in runs)
        ),
        "warmup_discards": int(
            sum(int(r.get("warmup_discards", 0)) for r in runs)
        ),
        "outage_windows": outages,
    }


def sweep_summary(events: Sequence[TraceEvent]) -> dict[str, Any]:
    """Parameter-sweep view: per-point solves recorded by the harness.

    Rolls up the ``sweep.point`` events
    :func:`repro.experiments.common.run_schemes_sweep` emits — one per
    (sweep point, scheme) — into per-scheme point/iteration/warm-start
    totals, so saved sweeps are visible in ``repro-trace summary``.
    """
    points: list[dict[str, Any]] = []
    for event in events:
        if event.name == "sweep.point":
            points.append(dict(event.fields))
    by_scheme: dict[str, dict[str, Any]] = {}
    for point in points:
        scheme = str(point.get("scheme", "?"))
        entry = by_scheme.setdefault(
            scheme, {"points": 0, "iterations": 0, "warm_started": 0}
        )
        entry["points"] += 1
        iterations = point.get("iterations")
        if iterations is not None:
            entry["iterations"] += int(iterations)
        if point.get("warm_started"):
            entry["warm_started"] += 1
    return {
        "points": points,
        "n_points": len(points),
        "by_scheme": by_scheme,
        "continuation": any(p.get("continuation") for p in points),
    }


def pool_summary(events: Sequence[TraceEvent]) -> dict[str, Any]:
    """Zero-copy data-plane view (:mod:`repro.experiments.shm`).

    Rolls up the ``pool.shm.publish`` events (one per shared block) and
    the ``pool.shm.close`` events (one per plane lifetime, carrying the
    plane's final :class:`~repro.experiments.shm.PlaneStats`) into one
    overview: blocks and bytes actually shared, bytes saved by content
    dedupe (versus publishing the same bytes again), and how often the
    plane fell back to inline arrays.
    """
    publishes: list[dict[str, Any]] = []
    closes: list[dict[str, Any]] = []
    for event in events:
        if event.name == "pool.shm.publish":
            publishes.append(dict(event.fields))
        elif event.name == "pool.shm.close":
            closes.append(dict(event.fields))
    return {
        "publishes": publishes,
        "n_blocks": len(publishes),
        "bytes_published": sum(int(p.get("nbytes", 0)) for p in publishes),
        "n_planes": len(closes),
        "bytes_shared": sum(int(c.get("bytes_shared", 0)) for c in closes),
        "bytes_saved": sum(int(c.get("bytes_saved", 0)) for c in closes),
        "cache_hits": sum(int(c.get("cache_hits", 0)) for c in closes),
        "fallbacks": sum(int(c.get("fallbacks", 0)) for c in closes),
    }


#: Sweeps-per-epoch histogram bucket upper edges (powers of two).
_SWEEP_BUCKETS = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256)


def _sweep_bucket_label(sweeps: int) -> str:
    previous = None
    for edge in _SWEEP_BUCKETS:
        if sweeps <= edge:
            if previous is None or previous + 1 == edge:
                return str(edge)
            return f"{previous + 1}-{edge}"
        previous = edge
    return f">{_SWEEP_BUCKETS[-1]}"


def engine_summary(events: Sequence[TraceEvent]) -> dict[str, Any]:
    """Online-engine view: epoch statuses, degraded windows, SLA totals.

    Rolls up the ``engine.epoch`` events the
    :class:`repro.engine.OnlineEquilibriumEngine` emits — one per
    processed epoch — into the operational overview ``repro-trace
    engine`` renders: status counts, contiguous degraded-mode windows
    (epoch index ranges where part or all of the fleet was down),
    SLA-violation totals, warm-start/certification coverage, a
    power-of-two sweeps-per-epoch histogram, and the Newton polish
    tally: ``solver.polish`` outcomes, and the share of polished epochs
    whose first polish did not certify (``polish_fallback_rate`` — the
    epochs that went on sweeping).
    """
    epochs: list[dict[str, Any]] = []
    polish_outcomes: TallyCounter[str] = TallyCounter()
    first_polish: str | None = None
    polished_epochs = fallback_epochs = 0
    for event in events:
        if event.name == "solver.polish":
            outcome = str(event.fields.get("outcome", "?"))
            polish_outcomes[outcome] += 1
            if first_polish is None:
                first_polish = outcome
        elif event.name == "engine.epoch":
            epochs.append(dict(event.fields))
            if first_polish is not None:
                polished_epochs += 1
                fallback_epochs += first_polish != "certified"
                first_polish = None
    statuses = [str(e.get("status", "?")) for e in epochs]
    status_counts: TallyCounter[str] = TallyCounter(statuses)
    windows: list[tuple[int, int]] = []
    for epoch, status in zip(epochs, statuses):
        index = int(epoch.get("index", len(windows)))
        if status in ("degraded", "exhausted"):
            if windows and windows[-1][1] == index - 1:
                windows[-1] = (windows[-1][0], index)
            else:
                windows.append((index, index))
    solvable = [e for e, s in zip(epochs, statuses) if s in ("ok", "degraded")]
    histogram: TallyCounter[str] = TallyCounter(
        _sweep_bucket_label(int(e.get("sweeps", 0))) for e in epochs
    )
    latencies = [float(e.get("latency_s", 0.0)) for e in epochs]
    return {
        "epochs": epochs,
        "n_epochs": len(epochs),
        "status_counts": dict(sorted(status_counts.items())),
        "degraded_windows": [list(window) for window in windows],
        "degraded_mode_epochs": int(
            status_counts["degraded"] + status_counts["exhausted"]
        ),
        "sla_violations": int(
            sum(int(e.get("sla_violations", 0)) for e in epochs)
        ),
        "sla_violation_epochs": int(
            sum(1 for e in epochs if e.get("sla_violations"))
        ),
        "warm_started": int(sum(1 for e in epochs if e.get("warm_started"))),
        "certified": int(sum(1 for e in solvable if e.get("certified"))),
        "solvable_epochs": len(solvable),
        "all_certified": all(e.get("certified") for e in solvable),
        "total_sweeps": int(sum(int(e.get("sweeps", 0)) for e in epochs)),
        "sweeps_histogram": dict(
            sorted(
                histogram.items(),
                key=lambda item: float(
                    item[0].lstrip(">").split("-")[-1]
                ),
            )
        ),
        "polish_outcomes": dict(sorted(polish_outcomes.items())),
        "polished_epochs": polished_epochs,
        "polish_fallback_epochs": fallback_epochs,
        "polish_fallback_rate": (
            fallback_epochs / polished_epochs if polished_epochs else 0.0
        ),
        "total_latency_s": float(sum(latencies)),
        "max_latency_s": float(max(latencies, default=0.0)),
        "errors": [
            str(e["error"]) for e in epochs if e.get("error") is not None
        ],
    }


def trace_summary(events: Sequence[TraceEvent]) -> dict[str, Any]:
    """Top-level overview: event counts plus the final metrics snapshot."""
    return {
        "n_events": len(events),
        "event_counts": event_counts(events),
        "metrics": metrics_snapshot(events),
    }
