"""Graceful degradation on a partially failed computer set.

When computers go offline mid-run the load balancing game does not stop —
it becomes the *same* game on the surviving computer set, provided that
set still has enough aggregate capacity (``Phi < sum of surviving mu_i``,
the stability condition of paper Sec. 2 restricted to the live machines).
This module gives the failure-handling layers one vocabulary for that
transition:

* :class:`CapacityExhausted` — the typed error raised when the surviving
  capacity cannot carry the offered load, with full diagnostics attached;
* :func:`surviving_subsystem` — the degraded
  :class:`~repro.core.model.DistributedSystem` on the online computers;
* :func:`project_profile` — re-project a strategy (or flow) matrix onto
  the online computer set, preserving each user's total;
* :func:`embed_profile` — lift a degraded-system profile back to the full
  computer width (zero columns on offline computers);
* :func:`degraded_equilibrium` — the Nash equilibrium of the degraded
  game, expressed at full width so it compares directly against a
  recovering protocol run.

The degraded-equilibrium guarantee proved useful in the fault-tolerance
experiments: a protocol run that loses computers mid-flight converges to
exactly the equilibrium a from-scratch solve on the survivors computes.
"""

from __future__ import annotations

import numpy as np

from repro.core.model import DistributedSystem
from repro.core.nash import (
    DEFAULT_MAX_SWEEPS,
    DEFAULT_TOLERANCE,
    Initialization,
    NashResult,
    compute_nash_equilibrium,
)
from repro.core.strategy import FEASIBILITY_ATOL, StrategyProfile

__all__ = [
    "CapacityExhausted",
    "surviving_subsystem",
    "project_profile",
    "embed_profile",
    "degraded_equilibrium",
]


class CapacityExhausted(RuntimeError):
    """The surviving computers cannot carry the offered load.

    Raised instead of silently iterating toward an infeasible fixed point
    when ``Phi >= sum of surviving mu_i``.  Diagnostics are attached as
    attributes so supervisors can log or act on them.

    Attributes
    ----------
    total_arrival_rate:
        The offered load ``Phi`` (jobs/sec).
    surviving_capacity:
        Aggregate processing rate of the online computers.
    deficit:
        ``Phi - surviving_capacity`` (nonnegative).
    offline:
        Indices of the offline computers.
    """

    def __init__(
        self,
        total_arrival_rate: float,
        surviving_capacity: float,
        offline: tuple[int, ...],
    ):
        self.total_arrival_rate = float(total_arrival_rate)
        self.surviving_capacity = float(surviving_capacity)
        self.deficit = self.total_arrival_rate - self.surviving_capacity
        self.offline = tuple(offline)
        super().__init__(
            "surviving capacity exhausted: offered load %.6g jobs/s exceeds "
            "the %.6g jobs/s left after computers %s went offline "
            "(deficit %.6g)"
            % (
                self.total_arrival_rate,
                self.surviving_capacity,
                list(self.offline),
                self.deficit,
            )
        )


def _as_online_mask(online_mask, n_computers: int) -> np.ndarray:
    mask = np.asarray(online_mask, dtype=bool)
    if mask.shape != (n_computers,):
        raise ValueError(
            f"online mask must have one entry per computer "
            f"({n_computers}), got shape {mask.shape}"
        )
    return mask


def surviving_subsystem(
    system: DistributedSystem, online_mask
) -> DistributedSystem:
    """The degraded system on the online computers, same user population.

    Raises
    ------
    CapacityExhausted
        If the total arrival rate is not strictly below the surviving
        aggregate processing rate (including the no-survivors case).

    >>> from repro.workloads import paper_table1_system
    >>> full = paper_table1_system(utilization=0.5)
    >>> mask = [True] * full.n_computers
    >>> mask[0] = False
    >>> surviving_subsystem(full, mask).n_computers
    15
    """
    mask = _as_online_mask(online_mask, system.n_computers)
    capacity = float(system.service_rates[mask].sum()) if mask.any() else 0.0
    offered = system.total_arrival_rate
    if not offered < capacity:
        raise CapacityExhausted(
            offered, capacity, tuple(np.flatnonzero(~mask).tolist())
        )
    names = tuple(
        name for name, alive in zip(system.computer_names, mask) if alive
    )
    return DistributedSystem(
        service_rates=system.service_rates[mask],
        arrival_rates=system.arrival_rates,
        computer_names=names,
        user_names=system.user_names,
    )


def project_profile(
    matrix,
    online_mask,
    *,
    fallback_rates=None,
    atol: float = FEASIBILITY_ATOL,
) -> np.ndarray:
    """Re-project a per-user allocation matrix onto the online computers.

    Works in either fractions space (rows summing to 1) or flows space
    (rows summing to ``phi_j``): offline columns are zeroed and each row
    is rescaled so its total is preserved.  A row whose entire mass sat on
    offline computers is redistributed proportionally to
    ``fallback_rates`` over the online set (service rates, typically);
    without fallback rates it is spread uniformly.  Rows that were already
    (numerically) zero stay zero — an all-zero row is the NASH_0 "not yet
    allocated" state, not a stranded allocation.
    """
    s = np.array(matrix, dtype=float, copy=True)
    if s.ndim != 2:
        raise ValueError("allocation matrix must be 2-D")
    mask = _as_online_mask(online_mask, s.shape[1])
    if not mask.any():
        raise ValueError("cannot project onto an empty computer set")
    original_totals = s.sum(axis=1)
    s[:, ~mask] = 0.0
    surviving_totals = s.sum(axis=1)

    if fallback_rates is not None:
        weights = np.asarray(fallback_rates, dtype=float)[mask]
        if not np.all(np.isfinite(weights) & (weights > 0.0)):
            raise ValueError("fallback rates must be positive and finite")
    else:
        weights = np.ones(int(mask.sum()))
    fallback_row = np.zeros(s.shape[1])
    fallback_row[mask] = weights / weights.sum()

    # Row-wise, without a Python loop: rows with mass (``allocated``) are
    # rescaled to their original total; rows whose surviving mass vanished
    # (``stranded``) are replaced by the fallback row; never-allocated rows
    # stay untouched.
    allocated = original_totals > atol
    stranded = allocated & (surviving_totals <= atol * original_totals)
    rescale = allocated & ~stranded
    scale = np.ones_like(original_totals)
    np.divide(
        original_totals, surviving_totals, out=scale, where=rescale
    )
    s[rescale] *= scale[rescale, None]
    s[stranded] = fallback_row[None, :] * original_totals[stranded, None]
    return s


def embed_profile(sub_fractions, online_mask) -> np.ndarray:
    """Lift a degraded-system ``(m, n_online)`` matrix to full width.

    Offline columns come back as zeros, so the result is a feasible
    profile of the *full* system that routes nothing to dead computers.
    """
    sub = np.asarray(sub_fractions, dtype=float)
    mask = np.asarray(online_mask, dtype=bool)
    if sub.ndim != 2 or sub.shape[1] != int(mask.sum()):
        raise ValueError(
            "sub-profile width must equal the number of online computers"
        )
    full = np.zeros((sub.shape[0], mask.size))
    full[:, mask] = sub
    return full


def degraded_equilibrium(
    system: DistributedSystem,
    online_mask,
    *,
    init: Initialization | StrategyProfile = "proportional",
    tolerance: float = DEFAULT_TOLERANCE,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> NashResult:
    """Nash equilibrium of the degraded game, at full computer width.

    Solves the game from scratch on the surviving subsystem and embeds
    the profile back over all computers (zero on the offline ones) — the
    reference a recovering protocol run must reproduce.

    Raises
    ------
    CapacityExhausted
        If the surviving capacity cannot carry the offered load.
    """
    mask = _as_online_mask(online_mask, system.n_computers)
    sub = surviving_subsystem(system, mask)
    result = compute_nash_equilibrium(
        sub, init=init, tolerance=tolerance, max_sweeps=max_sweeps
    )
    full = StrategyProfile(embed_profile(result.profile.fractions, mask))
    return NashResult(
        profile=full,
        converged=result.converged,
        iterations=result.iterations,
        norm_history=result.norm_history,
        user_times=result.user_times,
    )
