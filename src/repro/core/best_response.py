"""The OPTIMAL algorithm — a user's best response (paper Sec. 2).

Given the strategies of all other users, user ``j`` faces a single-user
allocation problem over computers whose *available* processing rates are
``a_i = mu_i - sum_{k != j} s_ki phi_k``.  Theorem 2.1 of the paper gives
the closed-form water-filling solution; the OPTIMAL algorithm computes it
in ``O(n log n)``:

1. sort computers by available rate, descending;
2. shrink the candidate support from the slowest end while the threshold
   ``t = (sum a_i - phi_j) / (sum sqrt(a_i))`` would drive the slowest
   included computer negative;
3. assign ``s_ji = (a_i - t sqrt(a_i)) / phi_j`` on the final support.

Theorem 2.2 proves this solves the (convex) optimization problem OPT_j
exactly, so the result is the user's *global* best response, not a local
improvement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.model import DistributedSystem
from repro.core.strategy import StrategyProfile
from repro.core.waterfill import (
    InfeasibleDemand,
    _validate_inputs,
    sqrt_waterfill_batch,
    sqrt_waterfill_inplace,
)
from repro.queueing.mm1 import expected_response_time as mm1_response_time

__all__ = [
    "BestResponse",
    "BatchBestResponse",
    "InfeasibleDemand",
    "optimal_fractions",
    "optimal_fractions_batch",
    "best_response",
    "best_response_value",
]


@dataclass(frozen=True)
class BestResponse:
    """Result of the OPTIMAL algorithm for one user.

    Attributes
    ----------
    fractions:
        The user's optimal strategy row ``(s_j1 .. s_jn)``.
    expected_response_time:
        The user's expected response time ``D_j`` under its new strategy
        (with the opponents' strategies held fixed).
    support:
        Indices of computers receiving a positive fraction.
    threshold:
        The water-fill threshold ``t`` of Theorem 2.1.
    """

    fractions: np.ndarray
    expected_response_time: float
    support: np.ndarray
    threshold: float


def optimal_fractions(available_rates, job_rate: float) -> BestResponse:
    """Run OPTIMAL on explicit inputs (paper's pseudocode signature).

    Parameters
    ----------
    available_rates:
        ``a_i`` — processing rate of each computer left over for this user
        once all other users' flows are subtracted.
    job_rate:
        ``phi_j`` — the user's total job arrival rate; must be strictly
        below ``sum(max(a_i, 0))``.

    Validates, then runs :func:`~repro.core.waterfill.sqrt_waterfill_inplace`.

    Returns
    -------
    BestResponse
        The optimal fractions and the resulting expected response time.

    Raises
    ------
    InfeasibleDemand
        If ``job_rate`` is not strictly below the total positive available
        rate; the exception names both the demand and the capacity.
    """
    if job_rate <= 0.0:
        raise ValueError("job rate must be strictly positive")
    a = _validate_inputs(available_rates, job_rate)
    flows = np.empty_like(a)
    d_j, t, support = sqrt_waterfill_inplace(a, float(job_rate), flows)
    return BestResponse(
        fractions=flows / job_rate,
        expected_response_time=d_j,
        support=np.sort(support),
        threshold=t,
    )


@dataclass(frozen=True)
class BatchBestResponse:
    """Results of the OPTIMAL algorithm for ``m`` users at once.

    Attributes
    ----------
    fractions:
        ``(m, n)`` matrix of per-user optimal strategy rows.
    expected_response_times:
        ``(m,)`` vector of each user's expected response time ``D_j``
        under its new strategy (opponents held fixed).
    support_mask:
        ``(m, n)`` boolean matrix of the optimal supports.
    thresholds:
        ``(m,)`` water-fill thresholds ``t_j`` of Theorem 2.1.
    """

    fractions: np.ndarray
    expected_response_times: np.ndarray
    support_mask: np.ndarray
    thresholds: np.ndarray


def optimal_fractions_batch(available_rates, job_rates) -> BatchBestResponse:
    """Run OPTIMAL for ``m`` independent users in one vectorized call.

    Row ``j`` of ``available_rates`` is user ``j``'s available-rate vector
    ``a_i = mu_i - sum_{k != j} s_ki phi_k``; ``job_rates[j]`` is its
    demand ``phi_j``.  Produces the same numbers as looping
    :func:`optimal_fractions` over the rows (to floating-point round-off)
    at a fraction of the cost — this is the kernel behind the Jacobi
    sweep of :class:`~repro.core.nash.NashSolver`, the vectorized
    equilibrium certificate and the scheme evaluation harness.

    Raises
    ------
    InfeasibleDemand
        If some user's demand cannot fit under its available capacity;
        carries the user index.
    """
    a = np.asarray(available_rates, dtype=float)
    d = np.asarray(job_rates, dtype=float)
    if a.ndim != 2:
        raise ValueError("available rates must be an (m, n) matrix")
    if np.any(d <= 0.0):
        raise ValueError("job rates must be strictly positive")
    fill = sqrt_waterfill_batch(a, d)
    fractions = fill.loads / d[:, None]
    mask = fill.support_mask
    # Expected times on each support through the audited M/M/1 helper;
    # off-support entries contribute nothing (zero fraction).
    times = np.zeros_like(fractions)
    times[mask] = mm1_response_time(fill.loads[mask], a[mask])
    expected = (fractions * times).sum(axis=1)
    return BatchBestResponse(
        fractions=fractions,
        expected_response_times=expected,
        support_mask=mask,
        thresholds=fill.thresholds,
    )


def best_response(
    system: DistributedSystem, profile: StrategyProfile, user: int
) -> BestResponse:
    """Best response of ``user`` against the other rows of ``profile``.

    The opponents' strategies are read from ``profile``; the user's own
    current row is irrelevant (it is replaced wholesale).
    """
    available = system.available_rates(profile.fractions, user)
    return optimal_fractions(available, float(system.arrival_rates[user]))


def best_response_value(
    system: DistributedSystem, profile: StrategyProfile, user: int
) -> float:
    """The lowest expected response time ``user`` can achieve unilaterally."""
    return best_response(system, profile, user).expected_response_time
