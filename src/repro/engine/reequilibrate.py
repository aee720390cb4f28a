"""Bounded incremental re-equilibration: one epoch's solve, capped.

The engine must never let one bad epoch stall the loop, so every solve
runs under two independent brakes:

* a **sweep budget** — the hard cap on best-reply sweeps spent on the
  epoch, spread over chunks of ``certify_every`` sweeps;
* an **epsilon-certificate early stop** — after each chunk the profile
  is certified with :func:`repro.core.equilibrium.best_response_regrets`
  (one batched OPTIMAL call, about the cost of a single sweep) and the
  solve stops as soon as the maximum regret falls to the target
  ``epsilon``, even if the solver's sweep-norm criterion has not
  triggered yet.

Chunked solving is exact, not approximate: restarting best-reply sweeps
from the current profile continues the same iteration (the only
difference is that the restart re-reads the users' *actual* expected
times instead of the per-sweep stale ones, which only affects the
stopping norm, never the iterates).

The certificate is checked on a Newton polish first.  Best-reply sweeps
converge linearly and slowly near the equilibrium (a warm churn epoch
used to spend about 38 sweeps reaching epsilon = 1e-6), so the solve
runs one sweep, hands the iterate to
:func:`repro.core.classes.newton_polish` — Newton steps on the Theorem
2.1 KKT system, quadratic near the equilibrium — and certifies the
polished profile.  When the polish fails or misses ``epsilon``, the
sweep iterate is certified as before and the solve falls back to chunks
of ``certify_every`` sweeps, polishing again before each certificate.
The polish never changes the sweep iterates, and the result counts
sweeps only.  ``certify_every=None`` disables both chunking and the
polish — a single solver call followed by one certification — which is
what the legacy snapshot driver uses for bit-exact parity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.classes import (
    ClassAggregation,
    PolishStats,
    emit_polish,
    newton_polish,
)
from repro.core.equilibrium import EquilibriumCertificate, best_response_regrets
from repro.core.model import DistributedSystem
from repro.core.nash import Initialization, NashResult, NashSolver
from repro.core.strategy import StrategyProfile
from repro.telemetry.trace import Tracer, current_tracer

__all__ = ["ReequilibrationOutcome", "converge_bounded"]


@dataclass(frozen=True)
class ReequilibrationOutcome:
    """One epoch's solve: the combined result plus its certificate.

    Attributes
    ----------
    result:
        Solver outcome over all chunks (iterations and norm history
        count sweeps, accumulated across chunks; the profile is the
        Newton polish of the last sweep iterate when that certified).
    certificate:
        Regret certificate of the final profile, or ``None`` when the
        final profile could not be certified (infeasible — only
        reachable when the budget expires mid-repair of a bad seed).
    certified:
        Whether the certificate's epsilon met the target.
    early_stopped:
        Whether the certificate stopped the solve before the solver's
        own sweep-norm criterion did.
    """

    result: NashResult
    certificate: EquilibriumCertificate | None
    certified: bool
    early_stopped: bool

    @property
    def sweeps(self) -> int:
        return self.result.iterations

    @property
    def epsilon(self) -> float:
        if self.certificate is None:
            return float("inf")
        return self.certificate.epsilon


def _certify(
    system: DistributedSystem, profile: StrategyProfile
) -> EquilibriumCertificate | None:
    try:
        return best_response_regrets(system, profile)
    except ValueError:
        # Infeasible profile (budget expired mid-repair): no certificate.
        return None


def _polish(
    system: DistributedSystem,
    users: ClassAggregation,
    profile: StrategyProfile,
    epsilon: float,
    tracer: Tracer,
) -> tuple[StrategyProfile, EquilibriumCertificate] | None:
    """The Newton polish of a sweep iterate, when it certifies."""
    phi = users.demands
    stats = PolishStats()
    flows = newton_polish(users, profile.fractions * phi[:, None], stats)
    polished = None if flows is None else StrategyProfile(flows / phi[:, None])
    certificate = None if polished is None else _certify(system, polished)
    reached = float("inf") if certificate is None else certificate.epsilon
    emit_polish(tracer, stats, flows, reached, epsilon)
    if polished is None or certificate is None or reached > epsilon:
        return None
    return polished, certificate


def converge_bounded(
    system: DistributedSystem,
    init: Initialization | StrategyProfile,
    *,
    tolerance: float,
    epsilon: float,
    sweep_budget: int,
    certify_every: int | None,
    tracer: Tracer | None = None,
) -> ReequilibrationOutcome:
    """Best-reply sweeps under a sweep budget with certificate early stop.

    ``tracer`` (default: the ambient tracer) receives one
    ``solver.polish`` event per polish.
    """
    if sweep_budget < 1:
        raise ValueError("sweep_budget must be at least 1")
    if certify_every is not None and certify_every < 1:
        raise ValueError("certify_every must be at least 1 (or None)")

    if certify_every is None:
        solver = NashSolver(
            tolerance=tolerance, max_sweeps=sweep_budget, stop="norm"
        )
        result = solver.solve(system, init)
        certificate = _certify(system, result.profile)
        certified = certificate is not None and certificate.epsilon <= epsilon
        return ReequilibrationOutcome(
            result=result,
            certificate=certificate,
            certified=certified,
            early_stopped=False,
        )

    users = ClassAggregation.of_users(system)
    tracer = tracer if tracer is not None else current_tracer()
    remaining = sweep_budget
    chunk = 1  # polish after the first sweep, then every certify_every
    seed: Initialization | StrategyProfile = init
    norms: list[float] = []
    last: NashResult | None = None
    profile: StrategyProfile | None = None
    certificate: EquilibriumCertificate | None = None
    early_stopped = False
    while remaining > 0:
        solver = NashSolver(
            tolerance=tolerance, max_sweeps=min(chunk, remaining), stop="norm"
        )
        last = solver.solve(system, seed)
        norms.extend(float(n) for n in last.norm_history)
        remaining -= last.iterations
        chunk = certify_every
        seed = last.profile
        polished = _polish(system, users, last.profile, epsilon, tracer)
        if polished is not None:
            profile, certificate = polished
        else:
            profile, certificate = last.profile, _certify(system, last.profile)
        if certificate is not None and certificate.epsilon <= epsilon:
            early_stopped = not last.converged
            break
        if last.converged:
            break
    assert last is not None and profile is not None  # sweep_budget >= 1
    certified = certificate is not None and certificate.epsilon <= epsilon
    combined = NashResult(
        profile=profile,
        converged=last.converged or certified,
        iterations=len(norms),
        norm_history=np.asarray(norms, dtype=float),
        user_times=(
            certificate.user_times if certificate is not None else last.user_times
        ),
    )
    return ReequilibrationOutcome(
        result=combined,
        certificate=certificate,
        certified=certified,
        early_stopped=early_stopped,
    )
