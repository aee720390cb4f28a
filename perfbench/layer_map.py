"""Which public names the traced run wraps, and the per-layer metrics.

README.md has the same map as a table, with the end-to-end metric each
layer metric should move.  Times are reported per pass (the fixed op list
a run repeats), so runs that fit a different number of passes compare.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from inputs import PAPER_ARTIFACTS
from layers import Boundary, SpanRecorder
from workloads import ARTIFACT_MODULES


def _nash_solve(rec: SpanRecorder, result: Any) -> None:
    rec.count("core.nash.sweeps", result.iterations)
    rec.count("core.nash.replies", result.iterations * result.profile.fractions.shape[0])


def _class_solve(rec: SpanRecorder, result: Any) -> None:
    rec.count("core.classes.sweeps", result.iterations)
    rec.count("core.classes.replies", result.iterations * result.class_fractions.shape[0])


def _certificate(rec: SpanRecorder, result: Any) -> None:
    if rec.active("engine.reequilibrate"):
        rec.count("engine.reequilibrate.certificates")


def _batch(rec: SpanRecorder, result: Any) -> None:
    rec.count("core.best_response.batch_rows", np.shape(result.expected_response_times)[0])


def _polls(rec: SpanRecorder, result: Any) -> None:
    rec.count("core.sampled.polls", result.polls)


def _reequilibrate(rec: SpanRecorder, result: Any) -> None:
    rec.count("engine.reequilibrate.sweeps", result.sweeps)


def _epoch(rec: SpanRecorder, result: Any) -> None:
    rec.count("engine.service.warm", bool(result.warm_started))


def _driver(rec: SpanRecorder, result: Any) -> None:
    rec.count("distributed.network.messages", result.messages_sent)
    # Availability polls of the sampled ring agents (only that driver's
    # outcome has them).
    rec.count("core.sampled.polls", getattr(result, "polls", 0))
    rec.count("distributed.network.retransmissions", getattr(result, "retransmissions", 0))
    rec.count("distributed.chaos.restores", getattr(result, "checkpoint_restores", 0))


def _map_items(rec: SpanRecorder, result: Any) -> None:
    rec.count("experiments.parallel.items", len(result))


def _publish(rec: SpanRecorder, result: Any) -> None:
    # A plane hands back the array itself when it falls back to inline
    # pickling; only handles travel through shared memory.
    if not isinstance(result, np.ndarray):
        rec.count("experiments.shm.bytes_published", result.nbytes)


_SCHEMES = {
    "NASH": ("repro.schemes.nash_scheme", "NashScheme"),
    "GOS": ("repro.schemes.global_optimal", "GlobalOptimalScheme"),
    "IOS": ("repro.schemes.individual_optimal", "IndividualOptimalScheme"),
    "PS": ("repro.schemes.proportional", "ProportionalScheme"),
}

BOUNDARIES: list[Boundary] = [
    Boundary("core.nash.solve", "repro.core.nash", "solve", "NashSolver", _nash_solve),
    Boundary("core.classes.aggregate", "repro.core.classes", "aggregate_users"),
    Boundary("core.classes.solve", "repro.core.classes", "solve", "ClassNashSolver", _class_solve),
    Boundary("core.classes.certificate", "repro.core.classes", "class_best_response_regrets"),
    Boundary("core.equilibrium.certificate", "repro.core.equilibrium", "best_response_regrets",
             observe=_certificate),
    Boundary("core.best_response.batch", "repro.core.best_response", "optimal_fractions_batch",
             observe=_batch),
    Boundary("core.sampled.reply", "repro.core.sampled", "sampled_best_reply", observe=_polls),
    Boundary("core.sampled.reply", "repro.core.sampled", "sampled_best_reply_batch",
             observe=_polls),
    # The sampled ring agent inlines its reply (sample, reply set, widen,
    # water-fill) instead of calling sampled_best_reply.
    Boundary("core.sampled.reply", "repro.distributed.sampled", "_update_delta",
             "SampledUserAgent"),
    Boundary("core.continuation.warm_start", "repro.core.continuation", "warm_start_profile"),
    Boundary("engine.state.apply", "repro.engine.state", "apply", "FleetState"),
    Boundary("engine.state.effective", "repro.engine.state", "effective_system", "FleetState"),
    Boundary("engine.reequilibrate", "repro.engine.reequilibrate", "converge_bounded",
             observe=_reequilibrate),
    Boundary("engine.service.epoch", "repro.engine.service", "process_epoch",
             "OnlineEquilibriumEngine", _epoch),
    Boundary("engine.sla.record", "repro.engine.sla", "record_epoch", "SLAAccountant"),
    Boundary("engine.sla.record", "repro.engine.sla", "record_unserved", "SLAAccountant"),
    *[
        Boundary("distributed.network.bus", "repro.distributed.network", attr, "MessageBus")
        for attr in ("send", "resend", "recv")
    ],
    Boundary("distributed.node.handle", "repro.distributed.node", "handle", "UserAgent"),
    Boundary("distributed.node.handle", "repro.distributed.faults", "handle", "DedupingAgent"),
    *[
        Boundary("distributed.node.board", "repro.distributed.node", attr, "ComputerBoard")
        for attr in ("publish", "available_rates", "available_rates_at")
    ],
    Boundary("distributed.driver", "repro.distributed.runtime", "run_nash_protocol",
             observe=_driver),
    Boundary("distributed.driver", "repro.distributed.faults", "run_nash_protocol_lossy",
             observe=_driver),
    Boundary("distributed.driver", "repro.distributed.chaos", "run_nash_protocol_resilient",
             observe=_driver),
    Boundary("distributed.driver", "repro.distributed.sampled", "run_sampled_nash_protocol",
             observe=_driver),
    *[
        Boundary(f"experiments.runner.{a}", ARTIFACT_MODULES[a].__name__, "run")
        for a in PAPER_ARTIFACTS
    ],
    Boundary("experiments.common.sweep", "repro.experiments.common", "run_schemes_sweep"),
    Boundary("experiments.parallel.map", "repro.experiments.parallel", "parallel_map",
             observe=_map_items),
    Boundary("experiments.shm.publish", "repro.experiments.shm", "publish",
             "SharedArrayPlane", _publish),
    *[
        Boundary(f"schemes.{name}.allocate", module, "allocate", owner)
        for name, (module, owner) in _SCHEMES.items()
    ],
    Boundary("simengine.fastpath.predraw", "repro.simengine.fastpath", "predraw_uniform_pool"),
]

#: Every per-layer metric: name -> (unit, better).
PER_LAYER: dict[str, tuple[str, str]] = {
    "core.nash.solve_s": ("s", "lower"),
    "core.nash.sweeps": ("count", "lower"),
    "core.nash.us_per_reply": ("us", "lower"),
    "core.classes.aggregate_s": ("s", "lower"),
    "core.classes.solve_s": ("s", "lower"),
    "core.classes.sweeps": ("count", "lower"),
    "core.classes.us_per_reply": ("us", "lower"),
    "core.classes.certificate_s": ("s", "lower"),
    "core.equilibrium.certificate_s": ("s", "lower"),
    "core.equilibrium.calls": ("count", "lower"),
    "core.best_response.batch_s": ("s", "lower"),
    "core.best_response.batch_rows": ("count", "lower"),
    "core.sampled.reply_s": ("s", "lower"),
    "core.sampled.polls": ("count", "lower"),
    "core.continuation.warm_start_s": ("s", "lower"),
    "engine.state.apply_s": ("s", "lower"),
    "engine.state.effective_s": ("s", "lower"),
    "engine.reequilibrate.self_s": ("s", "lower"),
    "engine.reequilibrate.sweeps_per_epoch": ("sweep/epoch", "lower"),
    "engine.reequilibrate.certificates_per_epoch": ("cert/epoch", "lower"),
    "engine.service.epoch_self_s": ("s", "lower"),
    "engine.service.warm_frac": ("ratio", "higher"),
    "engine.sla.record_s": ("s", "lower"),
    "distributed.network.bus_s": ("s", "lower"),
    "distributed.network.messages": ("count", "lower"),
    "distributed.network.retransmit_frac": ("ratio", "lower"),
    "distributed.node.handle_self_s": ("s", "lower"),
    "distributed.node.board_s": ("s", "lower"),
    "distributed.node.us_per_message": ("us", "lower"),
    "distributed.driver_self_s": ("s", "lower"),
    "distributed.chaos.restores": ("count", "lower"),
    **{f"experiments.runner.{a}_s": ("s", "lower") for a in PAPER_ARTIFACTS},
    "experiments.common.sweep_s": ("s", "lower"),
    "experiments.parallel.map_s": ("s", "lower"),
    "experiments.parallel.items": ("count", "lower"),
    "experiments.shm.publish_s": ("s", "lower"),
    "experiments.shm.bytes_published": ("bytes", "lower"),
    "experiments.shm.leak_warnings": ("count", "lower"),
    **{f"schemes.{name}.allocate_s": ("s", "lower") for name in _SCHEMES},
    "simengine.fastpath.predraw_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: SpanRecorder, passes: int) -> dict[str, float]:
    """Per-pass layer metrics from a recorder (0 for layers not reached).

    ``experiments.shm.leak_warnings`` and ``trace.overhead_frac`` are
    measured outside the recorder and filled in by the caller.
    """
    inc, own, calls, cnt = rec.inclusive, rec.self_time, rec.calls, rec.counts
    epochs = calls["engine.service.epoch"]
    per_pass = {
        "core.nash.solve_s": inc["core.nash.solve"],
        "core.nash.sweeps": cnt["core.nash.sweeps"],
        "core.classes.aggregate_s": inc["core.classes.aggregate"],
        "core.classes.solve_s": inc["core.classes.solve"],
        "core.classes.sweeps": cnt["core.classes.sweeps"],
        "core.classes.certificate_s": inc["core.classes.certificate"],
        "core.equilibrium.certificate_s": inc["core.equilibrium.certificate"],
        "core.equilibrium.calls": calls["core.equilibrium.certificate"],
        "core.best_response.batch_s": own["core.best_response.batch"],
        "core.best_response.batch_rows": cnt["core.best_response.batch_rows"],
        "core.sampled.reply_s": inc["core.sampled.reply"],
        "core.sampled.polls": cnt["core.sampled.polls"],
        "core.continuation.warm_start_s": inc["core.continuation.warm_start"],
        "engine.state.apply_s": inc["engine.state.apply"],
        "engine.state.effective_s": inc["engine.state.effective"],
        "engine.reequilibrate.self_s": own["engine.reequilibrate"],
        "engine.service.epoch_self_s": own["engine.service.epoch"],
        "engine.sla.record_s": inc["engine.sla.record"],
        "distributed.network.bus_s": inc["distributed.network.bus"],
        "distributed.network.messages": cnt["distributed.network.messages"],
        "distributed.node.handle_self_s": own["distributed.node.handle"],
        "distributed.node.board_s": inc["distributed.node.board"],
        "distributed.driver_self_s": own["distributed.driver"],
        "distributed.chaos.restores": cnt["distributed.chaos.restores"],
        **{f"experiments.runner.{a}_s": inc[f"experiments.runner.{a}"] for a in PAPER_ARTIFACTS},
        "experiments.common.sweep_s": inc["experiments.common.sweep"],
        "experiments.parallel.map_s": inc["experiments.parallel.map"],
        "experiments.parallel.items": cnt["experiments.parallel.items"],
        "experiments.shm.publish_s": inc["experiments.shm.publish"],
        "experiments.shm.bytes_published": cnt["experiments.shm.bytes_published"],
        **{f"schemes.{n}.allocate_s": inc[f"schemes.{n}.allocate"] for n in _SCHEMES},
        "simengine.fastpath.predraw_s": inc["simengine.fastpath.predraw"],
    }
    out = {name: float(value) / passes for name, value in per_pass.items()}
    out.update(
        {
            "core.nash.us_per_reply": 1e6 * _ratio(
                inc["core.nash.solve"], cnt["core.nash.replies"]
            ),
            "core.classes.us_per_reply": 1e6 * _ratio(
                inc["core.classes.solve"], cnt["core.classes.replies"]
            ),
            "engine.reequilibrate.sweeps_per_epoch": _ratio(
                cnt["engine.reequilibrate.sweeps"], epochs
            ),
            "engine.reequilibrate.certificates_per_epoch": _ratio(
                cnt["engine.reequilibrate.certificates"], epochs
            ),
            "engine.service.warm_frac": _ratio(cnt["engine.service.warm"], epochs),
            "distributed.network.retransmit_frac": _ratio(
                cnt["distributed.network.retransmissions"],
                cnt["distributed.network.messages"],
            ),
            "distributed.node.us_per_message": 1e6 * _ratio(
                inc["distributed.node.handle"], calls["distributed.node.handle"]
            ),
        }
    )
    return out
