"""Seeded input generators of the four workloads.

Every generator is a pure function of its seed and returns plain values
(numpy arrays, ints, floats, tuples): the workload code turns them into
``repro`` objects.

The geometry of a pass (problem sizes, utilizations, user counts) is a
fixed Latin-hypercube design, the same for every seed: each parameter
takes the midpoint of each equal-probability stratum of its range once,
with the strata paired across parameters by a fixed shuffle.  The seed
draws everything else: service and job rates, class rates, fault and
trace seeds, and the request order.  Runs with different seeds thus
measure the same mix of sizes with different numbers in it, which keeps
their timings comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Instances per solve pass, by kind.
SOLVE_USERS = 56
SOLVE_CLASSES = 8
SOLVE_SAMPLED_USERS = 4
SOLVE_SAMPLED_CLASSES = 2
#: Epochs of each churn trace and the user counts of one churn pass.
CHURN_EPOCHS = 48
CHURN_USERS = (12, 15, 18, 21, 24)
#: Protocol runs per ring pass, and the driver rotation.
RING_RUNS = 56
RING_DRIVERS = ("reliable", "lossy", "resilient", "sampled")
#: The paper artifacts, as ``repro-experiments t1 f2 f3 f4 f5 f6 sim``.
PAPER_ARTIFACTS = ("t1", "f2", "f3", "f4", "f5", "f6", "sim")


#: Seed of the fixed design shuffles (not the workload seed).
_DESIGN_SEED = 2002


def _design(tag: int) -> np.random.Generator:
    return np.random.default_rng([_DESIGN_SEED, tag])


def _strata(rng: np.random.Generator, count: int, lo: float, hi: float,
            *, law: str = "uniform", jitter: bool = False) -> np.ndarray:
    """One value in each of ``count`` equal-probability strata of
    ``[lo, hi]``, in shuffled order: the midpoints, or with ``jitter`` a
    uniform draw inside each stratum.

    ``law`` is the density: ``"uniform"``, ``"log"`` (uniform in log x)
    or ``"harmonic"`` (uniform in 1/x, density proportional to x^-2).
    """
    u = (np.arange(count) + (rng.random(count) if jitter else 0.5)) / count
    rng.shuffle(u)
    if law == "log":
        return lo * (hi / lo) ** u
    if law == "harmonic":
        return 1.0 / (1.0 / lo - u * (1.0 / lo - 1.0 / hi))
    return lo + (hi - lo) * u


@dataclass(frozen=True)
class SolveInstance:
    """One solve request: rates, kind and the solver's ``sample_k``."""

    kind: str  # "users" or "classes"
    service_rates: np.ndarray
    arrival_rates: np.ndarray
    utilization: float
    n_classes: int
    sample_k: int | None

    def describe(self) -> str:
        return (
            f"kind={self.kind} m={self.arrival_rates.size} "
            f"n={self.service_rates.size} c={self.n_classes} "
            f"u={self.utilization:.4f} sample_k={self.sample_k}"
        )


def _user_instance(rng, m, n, u, sample_k) -> SolveInstance:
    # Distinct job rates over the Table-1 speed range (10x).  Rates are
    # stratified draws too, so every instance spans its whole range.
    mu = _strata(rng, n, 10.0, 100.0, law="log", jitter=True)
    weights = _strata(rng, m, 0.5, 2.0, jitter=True)
    phi = weights / weights.sum() * u * mu.sum()
    return SolveInstance("users", mu, phi, float(u), m, sample_k)


def _class_instance(rng, m, c, n, u, sample_k) -> SolveInstance:
    # The class-scale benchmark's geometry: mu ~ U(50, 150), c distinct
    # job rates with users assigned round-robin.
    mu = _strata(rng, n, 50.0, 150.0, jitter=True)
    rates = _strata(rng, c, 0.5, 2.0, jitter=True)
    phi = rates[np.arange(m) % c]
    phi = phi * (u * mu.sum() / phi.sum())
    return SolveInstance("classes", mu, phi, float(u), c, sample_k)


def solve_instances(seed: int) -> list[SolveInstance]:
    """The instance stream of one solve pass, in request order."""
    design, rng = _design(1), np.random.default_rng([seed, 1])
    out: list[SolveInstance] = []
    # Solve time grows about as m^2, so m is drawn with density 1/m^2:
    # every size in [4, 48] is present without the largest dominating.
    ms = np.rint(_strata(design, SOLVE_USERS, 4, 48, law="harmonic")).astype(int)
    ns = np.rint(_strata(design, SOLVE_USERS, 16, 256, law="log")).astype(int)
    us = _strata(design, SOLVE_USERS, 0.5, 0.9)
    for m, n, u in zip(ms, ns, us):
        out.append(_user_instance(rng, int(m), int(n), u, None))
    # Class populations stay at c <= 8 and u <= 0.8: beyond that the
    # default 500-sweep budget ends above the 1e-6 certificate.
    ms = np.rint(_strata(design, SOLVE_CLASSES, 1e3, 1e5, law="log")).astype(int)
    cs = np.rint(_strata(design, SOLVE_CLASSES, 4, 8)).astype(int)
    ns = np.rint(_strata(design, SOLVE_CLASSES, 16, 256, law="log")).astype(int)
    us = _strata(design, SOLVE_CLASSES, 0.5, 0.8)
    for m, c, n, u in zip(ms, cs, ns, us):
        out.append(_class_instance(rng, int(m), int(c), int(n), u, None))
    # sample_k=5 requests, small enough that the sampled sweeps stay cheap.
    ms = np.rint(_strata(design, SOLVE_SAMPLED_USERS, 4, 12)).astype(int)
    ns = np.rint(_strata(design, SOLVE_SAMPLED_USERS, 16, 64, law="log")).astype(int)
    us = _strata(design, SOLVE_SAMPLED_USERS, 0.5, 0.8)
    for m, n, u in zip(ms, ns, us):
        out.append(_user_instance(rng, int(m), int(n), u, 5))
    ms = np.rint(_strata(design, SOLVE_SAMPLED_CLASSES, 1e3, 1e5, law="log")).astype(int)
    ns = np.rint(_strata(design, SOLVE_SAMPLED_CLASSES, 16, 64, law="log")).astype(int)
    us = _strata(design, SOLVE_SAMPLED_CLASSES, 0.5, 0.8)
    for m, n, u in zip(ms, ns, us):
        out.append(_class_instance(rng, int(m), 4, int(n), u, 5))
    order = rng.permutation(len(out))
    return [out[i] for i in order]


@dataclass(frozen=True)
class ChurnSpec:
    """One engine of a churn pass: base users and the trace seed."""

    n_users: int
    trace_seed: int

    def describe(self) -> str:
        return f"users={self.n_users} trace_seed={self.trace_seed}"


def churn_specs(seed: int) -> list[ChurnSpec]:
    """The engines of one churn pass (user counts 12 to 24, step 3)."""
    rng = np.random.default_rng([seed, 2])
    seeds = rng.integers(0, 2**31, len(CHURN_USERS))
    order = rng.permutation(len(CHURN_USERS))
    return [ChurnSpec(CHURN_USERS[i], int(seeds[i])) for i in order]


@dataclass(frozen=True)
class RingRun:
    """One protocol run on the Table-1 fleet."""

    driver: str
    n_users: int
    utilization: float
    fault_seed: int

    def describe(self) -> str:
        return (
            f"driver={self.driver} m={self.n_users} "
            f"u={self.utilization:.4f} fault_seed={self.fault_seed}"
        )


def ring_runs(seed: int) -> list[RingRun]:
    """The protocol runs of one ring pass, drivers in rotation."""
    design, rng = _design(3), np.random.default_rng([seed, 3])
    users = np.resize(np.arange(6, 13), RING_RUNS)
    design.shuffle(users)
    us = _strata(design, RING_RUNS, 0.5, 0.8)
    fault_seeds = rng.integers(0, 2**31, RING_RUNS)
    return [
        RingRun(
            RING_DRIVERS[i % len(RING_DRIVERS)],
            int(users[i]),
            float(us[i]),
            int(fault_seeds[i]),
        )
        for i in range(RING_RUNS)
    ]


def resilient_schedule_args(run: RingRun) -> dict:
    """``FaultSchedule.random`` arguments: one agent crash and restart.

    The horizon approximates a clean run's supervisor steps (about one
    per token hop) so the crash lands mid-run.
    """
    return {
        "n_agents": run.n_users,
        "seed": run.fault_seed,
        "horizon": max(48, 16 * run.n_users),
        "agent_crashes": 1,
    }


def paper_order(seed: int) -> tuple[tuple[str, ...], int]:
    """Artifact order of the paper passes and the SIM replication seed."""
    rng = np.random.default_rng([seed, 4])
    order = tuple(PAPER_ARTIFACTS[i] for i in rng.permutation(len(PAPER_ARTIFACTS)))
    return order, int(rng.integers(0, 2**31))
