"""Structured trace events.

A trace is an ordered sequence of :class:`TraceEvent` records; each
carries a monotone sequence number (assigned by the
:class:`~repro.telemetry.trace.Tracer`), a dotted event name
(``solver.sweep``, ``protocol.deliver``, ``sim.outage`` …) and a flat
mapping of JSON-serializable fields.  The JSONL wire form flattens the
fields into the top-level object next to the two reserved keys::

    {"seq": 12, "event": "solver.sweep", "index": 3, "norm": 0.0125}

Floats survive the round-trip exactly: ``json`` serializes them with
``repr``, whose shortest-round-trip guarantee means a reloaded trace
reconstructs the very ``norm_history`` values the solver recorded — the
property the acceptance tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

__all__ = ["DECLARED_EVENTS", "RESERVED_KEYS", "TraceEvent", "jsonable"]

#: Top-level JSONL keys that belong to the envelope, not the payload.
RESERVED_KEYS: frozenset[str] = frozenset({"seq", "event"})

#: The trace vocabulary: every event kind any instrumented layer may
#: emit, mapped to the ``repro-trace`` view that surfaces it.  This is
#: the observability contract repro-lint's R010 enforces — an event
#: emitted under a name missing from this mapping is invisible to all
#: trace analysis, so adding an emit site requires declaring the kind
#: here (and teaching the covering view about it).
DECLARED_EVENTS: dict[str, str] = {
    # online equilibrium engine (docs/OPERATIONS.md)
    "engine.start": "engine",
    "engine.event": "engine",
    "engine.epoch": "engine",
    # distributed NASH protocol drivers (faults/chaos/node)
    "protocol.start": "protocol",
    "protocol.sweep": "protocol",
    "protocol.deliver": "protocol",
    "protocol.retransmit": "protocol",
    "protocol.suspect": "protocol",
    "protocol.checkpoint": "protocol",
    "protocol.restore": "protocol",
    "protocol.fault": "protocol",
    "protocol.reopen": "protocol",
    # sampled (power-of-k) protocol: per-circulation poll accounting
    "protocol.sample": "protocol",
    "protocol.done": "protocol",
    # the sweep engine (ClassNashSolver.run_sweeps): every per-user,
    # class-space and delayed solve
    "solver.start": "summary",
    "solver.sweep": "convergence",
    "solver.done": "summary",
    # sampled (power-of-k) solve certificate: k, polls, true epsilon
    "solver.sample": "summary",
    # Newton polish before a certificate (engine epochs, class solves)
    "solver.polish": "engine",
    # simulation engine
    "sim.run": "summary",
    "sim.outage": "summary",
    # sweep evaluator and metrics flushes
    "sweep.point": "summary",
    "telemetry.metrics": "summary",
    # zero-copy shared-memory data plane (repro.experiments.shm)
    "pool.shm.publish": "summary",
    "pool.shm.close": "summary",
}


def jsonable(value: Any) -> Any:
    """Coerce numpy scalars/arrays (recursively) into JSON-native types."""
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, Mapping):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One structured observation in a trace."""

    seq: int
    name: str
    fields: Mapping[str, Any]

    def __post_init__(self) -> None:
        if self.seq < 0:
            raise ValueError("sequence numbers are nonnegative")
        if not self.name:
            raise ValueError("event name must be nonempty")
        clash = RESERVED_KEYS & set(self.fields)
        if clash:
            raise ValueError(
                f"fields shadow reserved keys: {sorted(clash)}"
            )

    def to_json_object(self) -> dict[str, Any]:
        """The flat JSONL object form."""
        record: dict[str, Any] = {"seq": self.seq, "event": self.name}
        for key, value in self.fields.items():
            record[key] = jsonable(value)
        return record

    @classmethod
    def from_json_object(cls, record: Mapping[str, Any]) -> "TraceEvent":
        try:
            seq = int(record["seq"])
            name = str(record["event"])
        except KeyError as missing:
            raise ValueError(
                f"trace record is missing reserved key {missing}"
            ) from None
        fields = {
            key: value
            for key, value in record.items()
            if key not in RESERVED_KEYS
        }
        return cls(seq=seq, name=name, fields=fields)
