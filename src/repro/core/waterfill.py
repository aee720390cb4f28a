"""Closed-form water-filling solvers behind the paper's algorithms.

Two related allocation problems over parallel M/M/1 queues admit
sorted-prefix closed forms, and both appear in the paper:

* **sqrt water-fill** — minimize total delay ``sum_i x_i / (a_i - x_i)``
  subject to ``sum x_i = d``, ``x_i >= 0``.  KKT equalizes the marginal
  delay ``a_i / (a_i - x_i)^2`` over the support, giving
  ``x_i = a_i - t * sqrt(a_i)`` with a single threshold ``t``.  This is the
  core of the paper's Theorem 2.1 (user best response, ``a`` = available
  rates) and, applied to the whole system (``a = mu``, ``d = Phi``), the
  aggregate loads of the Global Optimal Scheme (Tantawi & Towsley 1985,
  Kim & Kameda 1992, Tang & Chanson 2000).

* **response-time water-fill** — the Wardrop condition of the Individual
  Optimal Scheme: all *used* computers have equal expected response time
  ``1/(a_i - x_i) = tau`` and unused ones are slower even when idle,
  giving ``x_i = a_i - 1/tau``.

Both run in ``O(n log n)`` (the sort dominates) and are fully vectorized:
the threshold for every candidate support prefix is computed with
cumulative sums and the valid prefix selected with a mask, with no Python
loop over computers.

Every scalar sqrt fill, best replies included, runs one unvalidated
kernel, :func:`sqrt_waterfill_inplace`; :func:`sqrt_waterfill` is its
validating front end.

The batched form, ``m`` independent best replies on an ``(m, n)``
matrix of available rates, is
:func:`repro.core.best_response.optimal_fractions_batch`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from repro._typing import FloatArray

__all__ = [
    "InfeasibleDemand",
    "WaterfillResult",
    "sqrt_waterfill",
    "sqrt_waterfill_inplace",
    "response_time_waterfill",
]


class InfeasibleDemand(ValueError):
    """A water-fill demand at or above the total available capacity.

    Subclasses :class:`ValueError`, so existing ``except ValueError``
    call sites keep working; new code should catch this type and read the
    diagnostics off the exception instead of parsing the message.

    Attributes
    ----------
    demand:
        The offered demand (jobs/sec).
    capacity:
        Total strictly-positive available rate the demand had to fit under.
    user:
        Index of the offending row in a batched fill, ``None`` for the
        scalar solvers.
    """

    def __init__(self, demand: float, capacity: float, user: int | None = None):
        self.demand = float(demand)
        self.capacity = float(capacity)
        self.user = user
        prefix = "demand" if user is None else f"user {user}: demand"
        super().__init__(
            "%s %.6g must be strictly below the total available rate %.6g"
            % (prefix, self.demand, self.capacity)
        )


@dataclass(frozen=True)
class WaterfillResult:
    """Solution of a water-filling problem.

    Attributes
    ----------
    loads:
        Optimal allocation ``x`` in the *original* (unsorted) computer
        order; zero outside the support.
    threshold:
        The Lagrangian threshold — ``t`` for the sqrt fill (so that
        ``x_i = a_i - t sqrt(a_i)`` on the support), or the common response
        time ``tau`` for the Wardrop fill.
    support:
        Sorted array of original indices of the computers that receive a
        strictly positive load.
    """

    loads: np.ndarray
    threshold: float
    support: np.ndarray


def _validate_inputs(capacities, demand: float) -> np.ndarray:
    a = np.asarray(capacities, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise ValueError("capacities must be a nonempty 1-D vector")
    if not np.all(np.isfinite(a)):
        raise ValueError("capacities must be finite")
    if not np.isfinite(demand) or demand < 0.0:
        raise ValueError("demand must be finite and nonnegative")
    return a


def sqrt_waterfill_inplace(
    available: FloatArray, demand: float, out: FloatArray
) -> tuple[float, float, npt.NDArray[np.intp]]:
    """Theorem 2.1's water-fill of ``demand`` over ``available``, into ``out``.

    The one scalar kernel behind every best reply.  ``out`` receives the
    optimal flows ``x``, zero off the support; returns ``(D, t,
    support)``: the expected response time ``D = (1/demand) sum_i x_i /
    (a_i - x_i)``, the threshold ``t`` and the support's indices in
    descending-rate order.  It trusts its caller (finite 1-D
    ``available``, ``demand > 0``).  Computers with nonpositive rate
    sort to the tail of the stable descending order and are cut off
    there.  Raises :class:`InfeasibleDemand`, leaving ``out`` untouched,
    if ``demand`` is not strictly below the total positive rate.
    """
    # add.accumulate/add.reduce/argsort skip the Python-level dispatch of
    # np.cumsum/np.sum/np.argsort (same results, bit for bit).
    order = np.negative(available).argsort(kind="stable")
    a_sorted = available[order]
    if a_sorted[-1] <= 0.0:
        usable = int(np.count_nonzero(a_sorted > 0.0))
        if usable == 0:
            raise InfeasibleDemand(demand, 0.0)
        order = order[:usable]
        a_sorted = a_sorted[:usable]
    roots = np.sqrt(a_sorted)
    cum_a = np.add.accumulate(a_sorted)
    if demand >= cum_a[-1]:
        raise InfeasibleDemand(demand, float(cum_a[-1]))

    # Threshold t_c for every candidate support {1..c}:
    #   t_c = (sum_{i<=c} a_i - demand) / (sum_{i<=c} sqrt(a_i)).
    # The optimal support is the largest prefix in which the slowest
    # included computer still gets a positive share, sqrt(a_c) > t_c
    # (the paper's OPTIMAL while-loop, scanned from below).  c = 1 is
    # always valid: t_1 = (a_1 - d)/sqrt(a_1) < sqrt(a_1).
    thresholds = cum_a - demand
    thresholds /= np.add.accumulate(roots)
    valid = roots > thresholds
    valid[0] = True  # fails only when demand is below a_1's round-off
    cut = a_sorted.size - int(valid[::-1].argmax())

    t = thresholds[cut - 1]
    a_support = a_sorted[:cut]
    x = roots[:cut] * t
    np.subtract(a_support, x, out=x)
    # Guard against tiny negative round-off on the boundary computer,
    # then rescale so the flows meet the demand exactly.
    np.maximum(x, 0.0, out=x)
    total = np.add.reduce(x)
    if total > 0.0:
        x *= demand / total
    else:  # demand below the rates' round-off: split over the fastest ties
        cut = int(np.count_nonzero(a_sorted == a_sorted[0]))
        a_support = a_sorted[:cut]
        x = np.full(cut, demand / cut)
        t = float((a_support[0] - x[0]) / roots[0])
    gap = a_support - x
    d = float(np.add.reduce(x / gap)) / demand  # reprolint: allow=R003 hot path; gap > 0 by the water-fill support
    support = order[:cut]
    out.fill(0.0)
    out[support] = x
    return d, float(t), support


def sqrt_waterfill(capacities, demand: float) -> WaterfillResult:
    """Delay-minimizing allocation of ``demand`` over parallel M/M/1 servers.

    Solves ``min sum_i x_i / (a_i - x_i)  s.t.  sum_i x_i = demand,
    x_i >= 0`` where ``a_i`` are the (available) processing rates.  This is
    the optimization problem OPT_j of the paper, whose solution structure
    is Theorem 2.1: validates, then runs :func:`sqrt_waterfill_inplace`.

    Computers with nonpositive capacity are treated as unavailable (they
    can legitimately occur transiently if a caller constructs available
    rates from an infeasible profile) and always receive zero load.

    Raises
    ------
    ValueError
        If ``demand`` is not strictly less than the total positive
        capacity (the allocation would be infeasible/unstable).
    """
    a = _validate_inputs(capacities, demand)
    loads = np.zeros_like(a)
    if demand == 0.0:  # reprolint: allow=R002 exact-sentinel
        return WaterfillResult(loads=loads, threshold=float("inf"),
                               support=np.array([], dtype=np.intp))
    _, t, support = sqrt_waterfill_inplace(a, float(demand), loads)
    return WaterfillResult(loads=loads, threshold=t, support=np.sort(support))


def response_time_waterfill(capacities, demand: float) -> WaterfillResult:
    """Wardrop (individually optimal) allocation over parallel M/M/1 servers.

    Finds loads such that every used computer has the same expected
    response time ``tau = 1 / (a_i - x_i)`` while every unused computer is
    slower even when empty (``1/a_k >= tau``).  This is the equilibrium the
    paper's IOS baseline computes (Kameda et al. 1997): the limit of
    selfish optimization by individual *jobs* rather than users.
    """
    a = _validate_inputs(capacities, demand)
    loads = np.zeros_like(a)
    if demand == 0.0:  # reprolint: allow=R002 exact-sentinel
        return WaterfillResult(loads=loads, threshold=float("inf"),
                               support=np.array([], dtype=np.intp))

    usable = a > 0.0
    if demand >= a[usable].sum():
        raise InfeasibleDemand(demand, float(a[usable].sum()))

    idx = np.flatnonzero(usable)
    order = idx[np.argsort(-a[idx], kind="stable")]
    a_sorted = a[order]

    # For support {1..c} the common residual rate is
    #   g_c = 1/tau_c = (sum_{i<=c} a_i - demand) / c,
    # and inclusion of computer c is consistent iff a_c > g_c.
    counts = np.arange(1, a_sorted.size + 1, dtype=float)
    residual = (np.cumsum(a_sorted) - demand) / counts
    valid = a_sorted > residual
    if valid.any():
        cut = int(np.flatnonzero(valid).max()) + 1
        g = float(residual[cut - 1])
        support = order[:cut]
        loads[support] = a[support] - g
        np.maximum(loads, 0.0, out=loads)
        loads *= demand / loads.sum()
    else:  # demand below the rates' round-off: split over the fastest ties
        cut = int(np.count_nonzero(a_sorted == a_sorted[0]))
        support = order[:cut]
        loads[support] = demand / cut
        g = float(a_sorted[0] - demand / cut)
    return WaterfillResult(loads=loads, threshold=1.0 / g, support=np.sort(support))
