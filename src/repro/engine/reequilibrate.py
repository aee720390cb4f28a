"""Bounded incremental re-equilibration: one epoch's solve, capped.

The engine must never let one bad epoch stall the loop, so every epoch
is one :class:`~repro.core.nash.NashSolver` solve whose ``max_sweeps``
is the epoch's **sweep budget**.  Under the solver's default
``stop="certificate"`` the solve also stops on the **epsilon-Nash
certificate**: checked after sweeps 1, 2, 4, 8, ..., first on the sweep
iterate and then on its Newton polish
(:func:`repro.core.classes.newton_polish`, quadratic near the
equilibrium where the sweeps converge linearly), so a churn epoch, warm
or cold, typically certifies after a single sweep.  The certificate that stopped
the solve is the epoch's certificate; only a solve that the norm rule or
the budget ended is certified afresh, with the same certificate
(:func:`repro.core.classes.class_best_response_regrets` on singleton
classes).  ``stop="norm"`` is the paper's sweep-norm rule alone, which
the legacy snapshot driver uses for bit-exact parity.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.classes import ClassAggregation, certificate_or_none
from repro.core.equilibrium import EquilibriumCertificate
from repro.core.model import DistributedSystem
from repro.core.nash import Initialization, NashResult, NashSolver, StopRule
from repro.core.strategy import StrategyProfile
from repro.telemetry.trace import Tracer

__all__ = ["ReequilibrationOutcome", "converge_bounded"]


@dataclass(frozen=True)
class ReequilibrationOutcome:
    """One epoch's solve: the solver result plus its certificate.

    Attributes
    ----------
    result:
        Solver outcome (the profile is the Newton polish of the last
        sweep iterate when that is what certified).
    certificate:
        Regret certificate of the final profile, or ``None`` when the
        final profile could not be certified (infeasible — only
        reachable when the budget expires mid-repair of a bad seed).
    certified:
        Whether the certificate's epsilon met the tolerance.
    """

    result: NashResult
    certificate: EquilibriumCertificate | None
    certified: bool

    @property
    def sweeps(self) -> int:
        return self.result.iterations

    @property
    def epsilon(self) -> float:
        if self.certificate is None:
            return float("inf")
        return self.certificate.epsilon


def converge_bounded(
    system: DistributedSystem,
    init: Initialization | StrategyProfile,
    *,
    tolerance: float,
    sweep_budget: int,
    stop: StopRule,
    tracer: Tracer | None = None,
) -> ReequilibrationOutcome:
    """One solve of at most ``sweep_budget`` sweeps, and its certificate.

    ``tracer`` (default: the ambient tracer) receives the solver's
    events, one ``solver.polish`` event per polish among them.
    """
    solver = NashSolver(tolerance=tolerance, max_sweeps=sweep_budget, stop=stop)
    result = solver.solve(system, init, tracer=tracer)
    certificate = result.certificate
    if certificate is None:
        # None for an infeasible profile (budget expired mid-repair).
        certificate = certificate_or_none(
            ClassAggregation.of_users(system), result.profile.fractions
        )
    return ReequilibrationOutcome(
        result=result,
        certificate=certificate,
        certified=certificate is not None and certificate.epsilon <= tolerance,
    )
