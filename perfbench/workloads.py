"""The four workloads: set-up, the ops of one pass, and the output checks.

A workload's ``setup(seed)`` turns the seeded inputs of
:mod:`perfbench.inputs` into ``repro`` objects (and bootstraps engines or
starts the process pool), ``new_pass()`` returns the ops of one pass as
zero-argument callables, and ``check(index, output)`` returns ``None``
for a correct output or the reason it is wrong.  Checks run after the
timed phase, on the outputs the ops returned.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

import inputs
# Traced functions are called as attributes of their package (core.X,
# runtime.X, ...): the traced run replaces them in repro's modules only.
from repro import core
from repro.core import ClassNashSolver, DistributedSystem, NashSolver
from repro.distributed import chaos, faults, runtime
from repro.distributed import sampled as sampled_protocol
from repro.engine.service import EngineConfig, OnlineEquilibriumEngine
from repro.engine.sla import SLAPolicy
from repro.experiments import (
    fig2_convergence,
    fig3_users,
    fig4_utilization,
    fig5_per_user,
    fig6_heterogeneity,
    parallel,
    sim_validation,
    table1,
)
from repro.workloads.configs import paper_table1_system
from repro.workloads.traces import day_in_production_trace

#: Certificate every exact op must meet.
EPSILON = 1e-6
#: Sampled ring runs must match the sequential sampled solver this closely
#: (the tolerance tests/distributed/test_sampled_protocol.py pins).
SAMPLED_PARITY_ATOL = 1e-10
#: Process-pool width of the paper artifacts that fan out.
N_WORKERS = 2

Op = Callable[[], Any]


class Workload:
    """Interface shared by the four workloads."""

    name = ""

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def new_pass(self) -> list[Op]:
        raise NotImplementedError

    def describe(self, index: int) -> str:
        raise NotImplementedError

    def check(self, index: int, output: Any) -> str | None:
        raise NotImplementedError

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# solve — cold solves to the 1e-6 certificate
# ----------------------------------------------------------------------
def _solve_users(system: DistributedSystem, sample_k: int | None):
    result = NashSolver(sample_k=sample_k).solve(system)
    if sample_k is not None:
        return result, None
    return result, core.best_response_regrets(system, result.profile)


def _solve_classes(system: DistributedSystem, sample_k: int | None):
    aggregation = core.aggregate_users(system)
    result = ClassNashSolver(sample_k=sample_k).solve(aggregation)
    if sample_k is not None:
        return result, None
    return result, core.class_best_response_regrets(aggregation, result.class_fractions)


def _feasible_classes(result) -> bool:
    f = result.class_fractions
    loads = result.aggregation.loads(f)
    return bool(
        np.all(f >= -1e-12)
        and np.allclose(f.sum(axis=1), 1.0, atol=1e-9)
        and np.all(loads < result.aggregation.service_rates)
    )


class SolveWorkload(Workload):
    name = "solve"

    def setup(self, seed: int) -> None:
        self.instances = inputs.solve_instances(seed)
        self.systems = [
            DistributedSystem(service_rates=i.service_rates, arrival_rates=i.arrival_rates)
            for i in self.instances
        ]

    def new_pass(self) -> list[Op]:
        ops: list[Op] = []
        for instance, system in zip(self.instances, self.systems):
            solve = _solve_users if instance.kind == "users" else _solve_classes
            ops.append(lambda s=solve, y=system, k=instance.sample_k: s(y, k))
        return ops

    def describe(self, index: int) -> str:
        return self.instances[index].describe()

    def check(self, index: int, output: Any) -> str | None:
        instance = self.instances[index]
        result, certificate = output
        if instance.sample_k is None:
            if certificate.epsilon > EPSILON:
                return f"epsilon {certificate.epsilon:.3e} > {EPSILON:g}"
            return None
        if instance.kind == "users":
            feasible = result.profile.is_feasible(self.systems[index])
        else:
            feasible = _feasible_classes(result)
        return None if feasible else "sampled profile infeasible"


# ----------------------------------------------------------------------
# churn — engine epochs over the day-in-production trace
# ----------------------------------------------------------------------
def _engine_config() -> EngineConfig:
    # The EXT10 configuration.
    return EngineConfig(sla=SLAPolicy(target_response_time=0.5))


class ChurnWorkload(Workload):
    name = "churn"

    def setup(self, seed: int) -> None:
        self.specs = inputs.churn_specs(seed)
        self.bases = [
            paper_table1_system(utilization=0.5, n_users=spec.n_users)
            for spec in self.specs
        ]
        self.traces = [
            day_in_production_trace(inputs.CHURN_EPOCHS, seed=spec.trace_seed)
            for spec in self.specs
        ]
        self.labels = [
            f"{spec.describe()} epoch={k + 1}"
            for spec, trace in zip(self.specs, self.traces)
            for k in range(len(trace))
        ]
        self._engines = self._bootstrap()

    def _bootstrap(self) -> list[OnlineEquilibriumEngine]:
        return [
            OnlineEquilibriumEngine(base, config=_engine_config())
            for base in self.bases
        ]

    def new_pass(self) -> list[Op]:
        engines = self._engines if self._engines is not None else self._bootstrap()
        self._engines = None
        return [
            (lambda e=engine, ep=epoch: e.process_epoch(ep))
            for engine, trace in zip(engines, self.traces)
            for epoch in trace
        ]

    def describe(self, index: int) -> str:
        return self.labels[index]

    def check(self, index: int, output: Any) -> str | None:
        if output.status == "exhausted":
            return f"exhausted epoch: {output.error}"
        if output.status in ("ok", "degraded") and not output.certified:
            return f"uncertified {output.status} epoch, epsilon {output.epsilon:.3e}"
        return None


# ----------------------------------------------------------------------
# ring — protocol runs to termination on the Table-1 fleet
# ----------------------------------------------------------------------
def _run_protocol(run: inputs.RingRun, system: DistributedSystem, schedule) -> Any:
    if run.driver == "reliable":
        return runtime.run_nash_protocol(system)
    if run.driver == "lossy":
        return faults.run_nash_protocol_lossy(
            system, drop=0.1, duplicate=0.05, fault_seed=run.fault_seed
        )
    if run.driver == "resilient":
        return chaos.run_nash_protocol_resilient(
            system, schedule, fault_seed=run.fault_seed
        )
    return sampled_protocol.run_sampled_nash_protocol(
        system, sample_k=3, seed=run.fault_seed
    )


class RingWorkload(Workload):
    name = "ring"

    def setup(self, seed: int) -> None:
        self.runs = inputs.ring_runs(seed)
        self.systems = [
            paper_table1_system(utilization=run.utilization, n_users=run.n_users)
            for run in self.runs
        ]
        self.schedules = [
            chaos.FaultSchedule.random(**inputs.resilient_schedule_args(run))
            if run.driver == "resilient"
            else None
            for run in self.runs
        ]

    def new_pass(self) -> list[Op]:
        return [
            (lambda r=run, y=system, s=schedule: _run_protocol(r, y, s))
            for run, system, schedule in zip(self.runs, self.systems, self.schedules)
        ]

    def describe(self, index: int) -> str:
        return self.runs[index].describe()

    def check(self, index: int, output: Any) -> str | None:
        run, system = self.runs[index], self.systems[index]
        result = output.result
        if run.driver == "sampled":
            sequential = NashSolver(sample_k=3, seed=run.fault_seed).solve(system)
            if sequential.iterations != result.iterations:
                return (
                    f"sweeps {result.iterations} != sequential "
                    f"{sequential.iterations}"
                )
            gap = float(np.abs(result.profile.fractions - sequential.profile.fractions).max())
            if gap > SAMPLED_PARITY_ATOL:
                return f"profile differs from the sequential solver by {gap:.3e}"
            return None
        if not result.converged:
            return "did not converge"
        epsilon = core.best_response_regrets(system, result.profile).epsilon
        if epsilon > EPSILON:
            return f"epsilon {epsilon:.3e} > {EPSILON:g}"
        return None


# ----------------------------------------------------------------------
# paper — the artifacts of repro-experiments t1 f2 f3 f4 f5 f6 sim
# ----------------------------------------------------------------------
ARTIFACT_MODULES = {
    "t1": table1,
    "f2": fig2_convergence,
    "f3": fig3_users,
    "f4": fig4_utilization,
    "f5": fig5_per_user,
    "f6": fig6_heterogeneity,
    "sim": sim_validation,
}


def _check_artifact(artifact_id: str, table) -> str | None:
    """The qualitative claims of benchmarks/test_bench_<artifact>.py."""
    col = table.column
    if artifact_id == "t1":
        ok = col("number_of_computers") == [6, 5, 3, 2] and sum(
            r * c * 10.0
            for r, c in zip(col("relative_processing_rate"), col("number_of_computers"))
        ) == 510.0
    elif artifact_id == "f2":
        n0 = [v for v in col("norm_nash_0") if v is not None]
        np_ = [v for v in col("norm_nash_p") if v is not None]
        ok = n0[-1] <= 1e-8 and np_[-1] <= 1e-8 and len(np_) <= len(n0) and np_[0] < n0[0]
    elif artifact_id == "f3":
        zero, prop = col("iterations_nash_0"), col("iterations_nash_p")
        ok = (
            all(p <= z for p, z in zip(prop, zero))
            and zero == sorted(zero)
            and prop == sorted(prop)
            and all(s > 0.0 for s in col("saving"))
        )
    elif artifact_id == "f4":
        rows = {round(r["utilization"], 2): r for r in table.rows}
        low, mid, high = rows[0.2], rows[0.5], rows[0.9]
        trio = [low["ert_nash"], low["ert_gos"], low["ert_ios"]]
        ok = (
            (max(trio) - min(trio)) / min(trio) < 0.15
            and low["ert_ps"] > 1.2 * max(trio)
            and (mid["ert_nash"] - mid["ert_gos"]) / mid["ert_gos"] < 0.15
            and (mid["ert_ps"] - mid["ert_nash"]) / mid["ert_ps"] > 0.2
            and abs(high["ert_ios"] - high["ert_ps"]) <= 1e-9 * high["ert_ps"]
            and high["ert_gos"] <= high["ert_nash"] <= high["ert_ios"] + 1e-12
            and all(
                abs(r["fairness_ps"] - 1.0) < 1e-6
                and abs(r["fairness_ios"] - 1.0) < 1e-6
                and r["fairness_nash"] > 0.999
                for r in table.rows
            )
            and rows[0.9]["fairness_gos"] < rows[0.1]["fairness_gos"]
        )
    elif artifact_id == "f5":
        ps, ios, gos, nash = col("ert_ps"), col("ert_ios"), col("ert_gos"), col("ert_nash")
        ok = (
            max(ps) - min(ps) < 1e-9
            and max(ios) - min(ios) < 1e-9
            and max(gos) > 1.5 * min(gos)
            and max(nash) - min(nash) < 1e-4 * min(nash)
            and all(
                r["ert_nash"] <= r["ert_ios"] + 1e-9 and r["ert_nash"] <= r["ert_ps"] + 1e-9
                for r in table.rows
            )
        )
    elif artifact_id == "f6":
        first, last, mid = table.rows[0], table.rows[-1], table.rows[2]
        trio = [first["ert_nash"], first["ert_gos"], first["ert_ios"], first["ert_ps"]]
        ok = (
            bool(np.allclose(trio, trio[0], rtol=1e-6, atol=0.0))
            and last["ert_nash"] <= 1.05 * last["ert_gos"]
            and last["ert_ios"] <= 1.05 * last["ert_gos"]
            and last["ert_ps"] > 1.5 * last["ert_nash"]
            and abs(mid["ert_ios"] - mid["ert_ps"]) < 1e-9
        )
    else:
        ok = all(r["rel_error"] < 0.05 for r in table.rows)
    return None if ok else f"{artifact_id}: a claim of the paper does not hold"


class PaperWorkload(Workload):
    name = "paper"

    def setup(self, seed: int) -> None:
        self.order, self.sim_seed = inputs.paper_order(seed)
        # Pool start-up is set-up: restart the shared pool and make it
        # fork its workers now.
        parallel.shutdown_pools()
        parallel.parallel_map(abs, [1, 2], n_workers=N_WORKERS)

    def _run(self, artifact_id: str):
        run = ARTIFACT_MODULES[artifact_id].run
        if artifact_id in ("f4", "f6"):
            return run(n_workers=N_WORKERS)
        if artifact_id == "sim":
            return run(n_workers=N_WORKERS, seed=self.sim_seed)
        return run()

    def new_pass(self) -> list[Op]:
        return [(lambda a=artifact_id: self._run(a)) for artifact_id in self.order]

    def describe(self, index: int) -> str:
        return f"artifact={self.order[index]} sim_seed={self.sim_seed}"

    def check(self, index: int, output: Any) -> str | None:
        return _check_artifact(self.order[index], output)

    def close(self) -> None:
        parallel.shutdown_pools()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (SolveWorkload, ChurnWorkload, RingWorkload, PaperWorkload)
}
