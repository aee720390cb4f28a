"""NASH — the paper's noncooperative scheme behind the common interface.

Wraps the best-reply iteration of :mod:`repro.core.nash` as a
:class:`~repro.schemes.base.LoadBalancingScheme`, so the evaluation
harness can sweep NASH next to PS, GOS and IOS.  The resulting profile is
verified to be an epsilon-Nash equilibrium before being reported — the
scheme's defining guarantee ("optimality of allocation for each user").
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.core.classes import (
    ClassNashSolver,
    aggregate_users,
    class_best_response_regrets,
)
from repro.core.equilibrium import best_response_regrets
from repro.core.model import DistributedSystem
from repro.core.nash import (
    DEFAULT_MAX_SWEEPS,
    DEFAULT_TOLERANCE,
    Initialization,
    NashSolver,
)
from repro.core.strategy import StrategyProfile
from repro.schemes.base import LoadBalancingScheme, SchemeResult, evaluate_profile

__all__ = ["NashScheme"]


@dataclass(frozen=True)
class NashScheme(LoadBalancingScheme):
    """The paper's distributed noncooperative scheme.

    Parameters
    ----------
    init:
        ``"proportional"`` for NASH_P (default — the faster variant the
        paper recommends), ``"zero"`` for NASH_0, or a feasible
        :class:`~repro.core.strategy.StrategyProfile` to warm-start the
        best-reply iteration from (continuation across sweep points; see
        :mod:`repro.core.continuation`).  Warm starts converge to the
        same tolerance and are certified by the same
        :func:`~repro.core.equilibrium.best_response_regrets` check.
    tolerance, max_sweeps:
        Forwarded to :class:`~repro.core.nash.NashSolver`.
    aggregate:
        Solve in user-class space (:mod:`repro.core.classes`): users are
        grouped by job rate, the best-reply iteration runs with
        ``(c, n)`` state, and the reported epsilon is the class-space
        certificate — which *is* the per-user epsilon for exact
        grouping.  Identical results on seed sizes, and the only path
        that scales to millions of users (see docs/PERFORMANCE.md).
        Warm starts are contracted into class space first, so sweep
        continuation composes with aggregation.
    """

    init: Initialization | StrategyProfile = "proportional"
    tolerance: float = DEFAULT_TOLERANCE
    max_sweeps: int = DEFAULT_MAX_SWEEPS
    aggregate: bool = False
    name: str = "NASH"

    def warm_started(self, profile: StrategyProfile) -> "NashScheme":
        """This scheme, seeded with ``profile`` instead of its named init."""
        return dataclasses.replace(self, init=profile)

    def allocate(self, system: DistributedSystem) -> SchemeResult:
        if self.aggregate:
            return self._allocate_aggregate(system)
        solver = NashSolver(
            tolerance=self.tolerance, max_sweeps=self.max_sweeps, stop="norm"
        )
        result = solver.solve(system, self.init)
        certificate = best_response_regrets(system, result.profile)
        return evaluate_profile(
            system,
            result.profile,
            self.name,
            extra={
                "init": (
                    self.init
                    if isinstance(self.init, str)
                    else "warm-start"
                ),
                "iterations": result.iterations,
                "converged": result.converged,
                "final_norm": result.final_norm,
                "epsilon": certificate.epsilon,
            },
        )

    def _allocate_aggregate(self, system: DistributedSystem) -> SchemeResult:
        """Class-space solve: aggregate, iterate on ``(c, n)``, expand."""
        aggregation = aggregate_users(system)
        solver = ClassNashSolver(
            tolerance=self.tolerance, max_sweeps=self.max_sweeps
        )
        if isinstance(self.init, StrategyProfile):
            # Contract a user-space warm start (e.g. sweep continuation)
            # into per-class rows before iterating in class space.
            result = solver.solve(
                aggregation, init=aggregation.contract(self.init)
            )
        else:
            result = solver.solve(aggregation, init=self.init)
        certificate = class_best_response_regrets(
            aggregation, result.class_fractions
        )
        return evaluate_profile(
            system,
            result.expand(),
            self.name,
            extra={
                "init": (
                    self.init
                    if isinstance(self.init, str)
                    else "warm-start"
                ),
                "iterations": result.iterations,
                "converged": result.converged,
                "final_norm": result.final_norm,
                "epsilon": certificate.epsilon,
                "aggregate": True,
                "n_classes": aggregation.n_classes,
                "compression": aggregation.compression,
            },
        )
