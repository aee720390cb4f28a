"""EXT10 — a day in production for the online equilibrium engine.

The paper computes one equilibrium for one static system; a deployment
re-equilibrates continuously while users churn, demand drifts with the
time of day, and computers fail and come back.  This experiment drives
:class:`repro.engine.OnlineEquilibriumEngine` through the canonical
:func:`repro.workloads.traces.day_in_production_trace` and, at sampled
epochs, *closes the loop against the event simulator*: the epoch's
equilibrium profile is replayed on the nominal fleet with the offline
computers down for the whole run (``ServerOutage`` windows), and the
measured mean response time is compared with the analytic M/M/1
prediction the equilibrium was computed from.

Columns worth reading:

* ``sweeps``/``warm`` — the incremental re-equilibration cost per epoch
  (compare the cold bootstrap row);
* ``eps`` — the certificate epsilon; every sampled epoch, including the
  degraded ones solved on the surviving subsystem, is certified at the
  solver's standard target;
* ``sim_time`` vs ``pred_time`` — the simulator replay of the same
  allocation under outages, validating that degraded-mode equilibria
  describe the queues that actually remain.
"""

from __future__ import annotations

import numpy as np

from repro.core.model import DistributedSystem
from repro.engine.service import EngineConfig, EpochReport, OnlineEquilibriumEngine
from repro.engine.sla import SLAPolicy
from repro.experiments.common import ExperimentTable
from repro.simengine.outages import ServerOutage
from repro.simengine.simulator import simulate_profile
from repro.workloads.configs import paper_table1_system
from repro.workloads.traces import day_in_production_trace

__all__ = ["run_online_service"]


def _offered_utilization(report: EpochReport) -> float:
    assert report.system is not None
    return float(
        report.system.total_arrival_rate
        / report.system.total_processing_rate
    )


def run_online_service(
    *,
    n_epochs: int = 48,
    n_users: int = 12,
    utilization: float = 0.5,
    sla_target: float = 0.5,
    seed: int = 0,
    sim_every: int = 8,
    horizon: float = 600.0,
    warmup: float = 100.0,
) -> ExperimentTable:
    """Run the day-in-production trace and validate sampled epochs in-sim.

    Every ``sim_every``-th epoch — plus the first epoch of each
    degraded-mode window — is replayed in the event simulator on the
    *nominal* fleet with :class:`~repro.simengine.outages.ServerOutage`
    windows covering the offline computers.
    """
    base = paper_table1_system(utilization=utilization, n_users=n_users)
    trace = day_in_production_trace(n_epochs, seed=seed)
    engine = OnlineEquilibriumEngine(
        base,
        config=EngineConfig(sla=SLAPolicy(target_response_time=sla_target)),
    )
    run = engine.run(trace)

    sampled: list[EpochReport] = []
    previous_degraded = False
    for report in run.reports:
        fresh_degradation = report.degraded and not previous_degraded
        if report.index % sim_every == 0 or fresh_degradation:
            if report.status in ("ok", "degraded"):
                sampled.append(report)
        previous_degraded = report.degraded

    columns = (
        "epoch",
        "status",
        "online",
        "users",
        "rho_offered",
        "sweeps",
        "warm",
        "eps",
        "pred_time",
        "sim_time",
        "rel_err",
        "sla_violations",
    )
    rows: list[dict[str, object]] = []
    for report in sampled:
        assert report.system is not None and report.result is not None
        assert report.profile is not None
        # Replay on the nominal fleet: offline computers are outage
        # windows spanning the whole run, the profile's columns there
        # are zero by construction.
        full_system = DistributedSystem(
            service_rates=engine.state.service_rates,
            arrival_rates=report.system.arrival_rates,
            computer_names=engine.state.computer_names,
            user_names=report.system.user_names,
        )
        outages = [
            ServerOutage(computer, 0.0, float("inf"))
            for computer, alive in enumerate(report.online)
            if not alive
        ]
        sim = simulate_profile(
            full_system,
            report.profile,
            horizon=horizon,
            warmup=warmup,
            seed=np.random.SeedSequence((seed, report.index)),
            outages=outages or None,
        )
        phi = report.system.arrival_rates
        predicted = float(np.sum(phi * report.result.user_times) / phi.sum())
        counts = sim.user_job_counts
        measured = float(
            np.sum(counts * sim.user_mean_response_times) / counts.sum()
        )
        rows.append(
            {
                "epoch": report.index,
                "status": report.status,
                "online": int(report.online.sum()),
                "users": report.n_users,
                "rho_offered": round(_offered_utilization(report), 4),
                "sweeps": report.sweeps,
                "warm": report.warm_started,
                "eps": round(float(report.epsilon), 12),
                "pred_time": round(predicted, 5),
                "sim_time": round(measured, 5),
                "rel_err": round(abs(measured - predicted) / predicted, 4),
                "sla_violations": report.sla_violations,
            }
        )

    sla = run.sla
    assert sla is not None
    return ExperimentTable(
        experiment_id="EXT10",
        title=(
            "Online equilibrium engine: a day in production under churn "
            "(extension beyond the paper)"
        ),
        columns=columns,
        rows=tuple(rows),
        notes=(
            f"Table-1 fleet, {n_users} base users, {n_epochs}-epoch "
            f"diurnal trace with failure/reopen, phi drift and a flash "
            f"crowd (seed {seed}).",
            f"Full run: {run.n_epochs} epochs, "
            f"{run.degraded_epochs} degraded, "
            f"{run.exhausted_epochs} exhausted, "
            f"{run.warm_epochs} warm-started, "
            f"{run.total_sweeps} total sweeps, "
            f"all certified: {run.all_certified}.",
            f"SLA (target {sla.target_response_time}s): "
            f"{sla.violations} user-epoch violations over "
            f"{sla.violation_epochs} epochs; worst time "
            f"{sla.worst_time:.4f}s.",
            "sim_time replays the epoch's profile on the nominal fleet "
            "with ServerOutage windows over the offline computers "
            "(event-driven M/M/1 network).",
        ),
    )
