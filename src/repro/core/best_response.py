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
    sqrt_waterfill_inplace,
)

__all__ = [
    "BestResponse",
    "BatchBestResponse",
    "InfeasibleDemand",
    "optimal_fractions",
    "optimal_fractions_batch",
    "best_response",
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
    """

    fractions: np.ndarray
    expected_response_times: np.ndarray


def optimal_fractions_batch(available_rates, job_rates) -> BatchBestResponse:
    """Run OPTIMAL for ``m`` independent users in one vectorized call.

    Row ``j`` of ``available_rates`` is user ``j``'s available-rate vector
    ``a_i = mu_i - sum_{k != j} s_ki phi_k``; ``job_rates[j]`` is its
    demand ``phi_j``.  All rows are solved together with axis-wise
    ``argsort``/``cumsum`` — no Python loop over rows — and each row
    gets the numbers :func:`optimal_fractions` gives it (to round-off in
    the time).  Nonpositive rates are unavailable per row, as in the
    scalar kernel.  This is the one batched Theorem 2.1 kernel: the
    Jacobi sweep of :class:`~repro.core.nash.NashSolver`, the sampled
    batch reply and the equilibrium certificate all run it.

    Raises
    ------
    InfeasibleDemand
        If some user's demand cannot fit under its available capacity;
        carries the user index as ``.user``.
    """
    a = np.asarray(available_rates, dtype=float)
    d = np.asarray(job_rates, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("available rates must be a nonempty (m, n) matrix")
    if d.shape != (a.shape[0],):
        raise ValueError("job rates must have one entry per available-rate row")
    if not np.all(np.isfinite(a)):
        raise ValueError("available rates must be finite")
    if not np.all(np.isfinite(d)) or np.any(d <= 0.0):
        raise ValueError("job rates must be finite and strictly positive")
    n = a.shape[1]

    usable = a > 0.0
    a_usable = np.where(usable, a, 0.0)
    capacity = a_usable.sum(axis=1)
    infeasible = d >= capacity
    if np.any(infeasible):
        j = int(np.flatnonzero(infeasible)[0])
        raise InfeasibleDemand(float(d[j]), float(capacity[j]), user=j)

    # Sort each row's usable computers by rate, descending; unusable ones
    # (zero rate, sort key 0 against the usable ones' negative keys)
    # sink to the end in index order.
    order = np.argsort(np.negative(a_usable), axis=1, kind="stable")
    a_sorted = np.take_along_axis(a_usable, order, axis=1)
    roots = np.sqrt(a_sorted)

    # Per-row threshold for every candidate support prefix {1..c}:
    #   t_c = (sum_{i<=c} a_i - d) / (sum_{i<=c} sqrt(a_i)),
    # and the support is the largest prefix whose slowest member still
    # gets a positive share (see sqrt_waterfill_inplace).  Every row has
    # a usable first computer, so the denominators are positive.
    thresholds = (np.cumsum(a_sorted, axis=1) - d[:, None]) / np.cumsum(roots, axis=1)
    valid = roots > thresholds
    valid[:, 0] = True  # t_1 < sqrt(a_1) unless d is below round-off
    cuts = n - valid[:, ::-1].argmax(axis=1)
    t = np.take_along_axis(thresholds, (cuts - 1)[:, None], axis=1)
    support = np.arange(n) < cuts[:, None]
    flows = np.where(support, a_sorted - t * roots, 0.0)
    # Guard against tiny negative round-off on each boundary computer,
    # then rescale each row so it meets its demand exactly.
    np.maximum(flows, 0.0, out=flows)
    # A demand below its rates' round-off loses every flow: it goes to its
    # row's fastest computers, split evenly over ties.
    totals = flows.sum(axis=1)
    lost = totals <= 0.0
    if lost.any():
        support[lost] = fastest = a_sorted[lost] == a_sorted[lost, :1]
        flows[lost] = fastest * (d[lost] / fastest.sum(axis=1))[:, None]
        totals[lost] = d[lost]
    flows *= (d / totals)[:, None]

    # D_j = (1/phi_j) sum_i x_i / (a_i - x_i) over the support, computed
    # in sorted space like the scalar kernel.
    gap = np.where(support, a_sorted - flows, 1.0)
    expected = (flows / gap).sum(axis=1) / d  # reprolint: allow=R003 hot path; gap > 0 on the support
    fractions = np.empty_like(a)
    np.put_along_axis(fractions, order, flows, axis=1)
    fractions /= d[:, None]
    return BatchBestResponse(
        fractions=fractions, expected_response_times=expected
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

