"""The load balancing game with communication delays (model extension).

The IPDPS paper's model charges a job only its queueing delay at the
chosen computer.  The authors' extended journal treatment (and the
routing literature the paper builds on — Orda et al., Korilis et al.)
adds a **communication delay** ``t_i`` for shipping a job to computer
``i``, so user ``j``'s cost becomes

    D_j(s) = sum_i s_ji * ( 1/(mu_i - lambda_i) + t_ji )

With delays the best response is still the unique solution of a convex
program, but the square-root water-fill closed form no longer applies:
the KKT conditions become

    a_i / (a_i - x_i)^2 + t_i = alpha        on the support,
    1/a_i + t_i >= alpha                     off the support,

so ``x_i(alpha) = a_i - sqrt(a_i / (alpha - t_i))`` on a support that
is a prefix in ``1/a_i + t_i`` order, with ``alpha`` fixed by flow
conservation and no closed form once the delays differ.  The reply is
the one-member symmetric class fill with the delays as its offset
(:func:`repro.core.classes._symmetric_class_fill`), and
:class:`DelayedNashSolver` runs the class engine's sweep loop under the
paper's norm rule: no equilibrium certificate knows the delays yet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.classes import ClassAggregation, ClassNashSolver, _symmetric_class_fill
from repro.core.model import DistributedSystem
from repro.core.strategy import StrategyProfile

__all__ = [
    "DelayedGame",
    "delayed_best_response",
    "DelayedNashResult",
    "DelayedNashSolver",
]


@dataclass(frozen=True)
class DelayedGame:
    """A distributed system plus per-user-per-computer communication delays.

    Parameters
    ----------
    system:
        The underlying queueing system.
    delays:
        ``t_ji`` — nonnegative ``(m, n)`` matrix of communication delays
        (seconds added to every job user ``j`` ships to computer ``i``).
        A 1-D vector is broadcast to all users (delays that depend only on
        the computer's location).
    """

    system: DistributedSystem
    delays: np.ndarray

    def __post_init__(self) -> None:
        t = np.array(self.delays, dtype=float, copy=True)
        m, n = self.system.n_users, self.system.n_computers
        if t.ndim == 1:
            if t.shape != (n,):
                raise ValueError("1-D delays must have one entry per computer")
            t = np.tile(t, (m, 1))
        if t.shape != (m, n):
            raise ValueError(f"delays must have shape ({m}, {n})")
        if np.any(t < 0.0) or not np.all(np.isfinite(t)):
            raise ValueError("delays must be finite and nonnegative")
        t.setflags(write=False)
        object.__setattr__(self, "delays", t)

    def user_costs(self, profile: StrategyProfile) -> np.ndarray:
        """``D_j`` including communication delays."""
        times = self.system.response_times(profile.fractions)
        queueing = profile.fractions @ times
        shipping = (profile.fractions * self.delays).sum(axis=1)
        return queueing + shipping

    def overall_cost(self, profile: StrategyProfile) -> float:
        phi = self.system.arrival_rates
        return float(self.user_costs(profile) @ phi / phi.sum())


def delayed_best_response(
    available_rates, delays, job_rate: float
) -> np.ndarray:
    """Optimal fractions for one user of the delayed game.

    Solves ``min sum_i x_i/(a_i - x_i) + t_i x_i`` over ``x >= 0`` with
    ``sum x = phi_j`` and returns ``x / phi_j``: validates, then runs the
    one-member class fill with the delays as its offset.  With all delays
    zero this is the paper's OPTIMAL water-fill (the tests pin it down).
    """
    a = np.asarray(available_rates, dtype=float)
    t = np.asarray(delays, dtype=float)
    if a.shape != t.shape or a.ndim != 1:
        raise ValueError("rates and delays must be equal-length vectors")
    if job_rate <= 0.0:
        raise ValueError("job rate must be positive")
    loads, _ = _symmetric_class_fill(a, float(job_rate), 1.0, t)
    return loads / job_rate


@dataclass(frozen=True)
class DelayedNashResult:
    """Outcome of best-reply iteration on the delayed game."""

    profile: StrategyProfile
    converged: bool
    iterations: int
    user_costs: np.ndarray


@dataclass(frozen=True)
class DelayedNashSolver:
    """Round-robin best replies for the communication-delay game."""

    tolerance: float = 1e-6
    max_sweeps: int = 500

    def __post_init__(self) -> None:
        self._sweeps()  # ClassNashSolver validates tolerance and max_sweeps

    def _sweeps(self) -> ClassNashSolver:
        return ClassNashSolver(self.tolerance, self.max_sweeps, stop="norm")

    def solve(self, game: DelayedGame) -> DelayedNashResult:
        """Sweeps from the proportional profile until the norm of the
        users' costs (delays included) reaches ``tolerance``, traced on
        the ambient tracer like every sweep-engine solve."""
        users = ClassAggregation.of_users(game.system)
        run = self._sweeps().run_sweeps(
            users, users.proportional_fractions(), offsets=game.delays
        )
        return DelayedNashResult(
            profile=StrategyProfile(run.fractions),
            converged=run.converged,
            iterations=len(run.norms),
            user_costs=run.times,
        )
