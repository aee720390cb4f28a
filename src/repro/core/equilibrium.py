"""Equilibrium verification (paper Definition 2.1).

A strategy profile is a Nash equilibrium when no user can lower its
expected response time by a unilateral feasible deviation.  Because each
user's problem is convex with the exact solver available (OPTIMAL), the
verification is *constructive*: compare every user's current cost against
its best-response cost.  The largest improvement any user could gain — the
**regret** — certifies how far a profile is from equilibrium.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._typing import FloatArray
from repro.core.best_response import optimal_fractions_batch
from repro.core.model import DistributedSystem
from repro.core.strategy import StrategyProfile
from repro.queueing.mm1 import expected_response_time

__all__ = [
    "EquilibriumCertificate",
    "best_response_regrets",
    "verify_equilibrium",
    "is_nash_equilibrium",
]


@dataclass(frozen=True)
class EquilibriumCertificate:
    """Constructive evidence about a profile's equilibrium quality.

    Attributes
    ----------
    regrets:
        ``D_j(profile) - D_j(best response)`` per user; nonnegative up to
        round-off, zero at an exact equilibrium.
    user_times:
        Expected response time of each user (of each class's members, for
        a class-space certificate) under the profile.
    best_response_times:
        Each user's unilaterally achievable optimum.
    epsilon:
        The maximum regret — the profile is an ``epsilon``-Nash
        equilibrium.
    """

    regrets: np.ndarray
    user_times: np.ndarray
    best_response_times: np.ndarray
    epsilon: float

    def is_equilibrium(self, tol: float) -> bool:
        return self.epsilon <= tol


def _regret_certificate(
    service_rates: FloatArray,
    demands: FloatArray,
    rates: FloatArray,
    fractions: FloatArray,
) -> EquilibriumCertificate:
    """The regrets of players who each route ``demands[k]`` along row ``k``.

    Row ``k`` stands for the members of a class, each with job rate
    ``rates[k]``; a user is a class of one (``demands == rates``).  One
    member's opponents are everyone else, classmates included, so its
    available rates are the aggregate headroom plus its own flow
    ``mu - lam + rates_k f_k``.  All rows reply in one batched OPTIMAL
    call.  Raises ``ValueError`` if the profile overloads a computer.
    """
    lam = demands @ fractions
    headroom = service_rates - lam
    if np.any(headroom <= 0.0):
        raise ValueError("strategy profile violates per-computer stability")
    current = fractions @ expected_response_time(lam, service_rates)
    available = headroom[None, :] + rates[:, None] * fractions
    best = optimal_fractions_batch(available, rates).expected_response_times
    regrets = current - best
    return EquilibriumCertificate(
        regrets=regrets,
        user_times=current,
        best_response_times=best,
        epsilon=float(regrets.max()),
    )


def best_response_regrets(
    system: DistributedSystem, profile: StrategyProfile
) -> EquilibriumCertificate:
    """Per-user regret certificate for ``profile``: the singleton-class
    case of :func:`repro.core.classes.class_best_response_regrets`."""
    profile.validate(system)
    phi = system.arrival_rates
    return _regret_certificate(
        system.service_rates, phi, phi, profile.fractions
    )


def verify_equilibrium(
    system: DistributedSystem, profile: StrategyProfile, *, tol: float = 1e-6
) -> EquilibriumCertificate:
    """Raise ``ValueError`` unless ``profile`` is a ``tol``-Nash equilibrium."""
    cert = best_response_regrets(system, profile)
    if not cert.is_equilibrium(tol):
        worst = int(np.argmax(cert.regrets))
        raise ValueError(
            f"not a {tol:g}-Nash equilibrium: user {worst} can improve its "
            f"expected response time by {cert.regrets[worst]:.3e}"
        )
    return cert


def is_nash_equilibrium(
    system: DistributedSystem, profile: StrategyProfile, *, tol: float = 1e-6
) -> bool:
    """Predicate form of :func:`verify_equilibrium`."""
    return best_response_regrets(system, profile).is_equilibrium(tol)
