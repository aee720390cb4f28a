"""Warm-start continuation along parameter sweeps.

Adjacent points of the paper's sweeps — utilization 0.1 → 0.2 → … (Fig.
4), user count 4 → 8 → … (Fig. 3), skewness 1 → 2 → … (Fig. 6) — have
nearly identical Nash equilibria: the best-reply map contracts around
each equilibrium and the equilibrium varies smoothly in the sweep
parameter (the neighbourhood-convergence structure distributed selfish
load-balancing analyses exploit).  Continuation therefore seeds each
point's solve from the preceding equilibria instead of a cold
proportional start.  Because the best-reply iteration converges
geometrically, the sweeps saved are proportional to the *decades* of
initial error removed — so the predictor matters:

* carry-over (:func:`warm_start_profile`) reuses the previous
  equilibrium directly: error ``O(h)`` in the step size ``h``;
* the :class:`SweepPredictor` extrapolates through the last up-to-3
  equilibria (Lagrange, in the sweep parameter): error ``O(h^3)``,
  which on a dense sweep starts the solve several decades closer and
  roughly triples sweep throughput (docs/PERFORMANCE.md has measured
  numbers).

Warm starts trade no accuracy: the solver runs to the *same* tolerance
and every point is certified by
:func:`repro.core.equilibrium.best_response_regrets` exactly as a cold
solve would be.

Feasibility of the seed is repaired, not assumed:

* predicted fractions are clipped to the simplex (nonnegative rows
  renormalized to 1);
* a seed that violates stability (e.g. utilization swept up past a hot
  computer's capacity share) is blended toward the always-feasible
  proportional profile — loads are *linear* in fractions, so the convex
  blend that caps every computer strictly below capacity is feasible by
  construction;
* as a last resort the overloaded computers are masked out via
  :func:`repro.core.degradation.project_profile`;
* if nothing feasible remains, ``None`` is returned and the caller
  cold-starts;
* a user-count change rebuilds the seed from the previous *aggregate*
  loads, rescaled to the new total arrival rate, via
  :meth:`~repro.core.strategy.StrategyProfile.from_loads` (per-user
  identity is lost but the aggregate split — what the equilibrium
  essentially determines for identical users — carries over).

A computer-count change returns ``None`` (cold start): columns carry
no identity across fleets.
"""

from __future__ import annotations

import numpy as np

from repro.core.degradation import project_profile
from repro.core.model import DistributedSystem
from repro.core.strategy import FEASIBILITY_ATOL, StrategyProfile

__all__ = ["warm_start_profile", "SweepPredictor"]

#: Blended seeds keep every computer's load at or below this fraction of
#: its service rate — strictly stable, with enough headroom that the
#: first best-reply sweep is well-conditioned.
_BLEND_CAP = 1.0 - 1e-3


def _blend_toward_proportional(
    system: DistributedSystem, fractions: np.ndarray
) -> StrategyProfile | None:
    """Largest convex blend of ``fractions`` with the proportional profile
    whose loads stay strictly below capacity.

    Loads are linear in fractions, so for blend weight ``a`` the loads
    are ``a * loads_prev + (1 - a) * loads_prop``; the proportional
    profile's loads are ``rho * mu`` (strictly stable), hence a suitable
    ``a`` exists whenever the system itself is stable.
    """
    proportional = StrategyProfile.proportional(system).fractions
    loads_prev = system.loads(fractions)
    loads_prop = system.loads(proportional)
    cap = system.service_rates * _BLEND_CAP
    if np.any(loads_prop >= cap):
        return None  # system too close to saturation for a margin
    tight = loads_prev > cap
    if not tight.any():
        weight = 1.0
    else:
        # reprolint: allow=R003 convex blend weight, not an M/M/1 delay
        ratios = (cap[tight] - loads_prop[tight]) / (
            loads_prev[tight] - loads_prop[tight]
        )
        weight = float(np.clip(ratios.min(), 0.0, 1.0))
    blended = weight * fractions + (1.0 - weight) * proportional
    candidate = StrategyProfile(blended)
    if candidate.is_feasible(system):
        return candidate
    return None


def _mask_overloaded(
    system: DistributedSystem, fractions: np.ndarray
) -> StrategyProfile | None:
    """Last-resort repair: project all mass off the overloaded computers."""
    loads = system.loads(fractions)
    online = loads < system.service_rates
    if not online.any():
        return None
    repaired = project_profile(
        fractions,
        online,
        fallback_rates=system.service_rates,
        atol=FEASIBILITY_ATOL,
    )
    candidate = StrategyProfile(repaired)
    if candidate.is_feasible(system):
        return candidate
    return None


def _repair(
    system: DistributedSystem, fractions: np.ndarray
) -> StrategyProfile | None:
    """Feasible profile nearest in spirit to ``fractions``, or ``None``."""
    candidate = StrategyProfile(np.array(fractions, dtype=float, copy=True))
    if candidate.is_feasible(system):
        return candidate
    blended = _blend_toward_proportional(system, fractions)
    if blended is not None:
        return blended
    return _mask_overloaded(system, fractions)


def warm_start_profile(
    system: DistributedSystem,
    previous: StrategyProfile,
    *,
    previous_system: DistributedSystem | None = None,
) -> StrategyProfile | None:
    """Previous sweep point's equilibrium, adapted as an init for ``system``.

    Returns a feasible :class:`~repro.core.strategy.StrategyProfile` to
    seed :meth:`repro.core.nash.NashSolver.solve` with, or ``None`` when
    no usable warm start exists (the caller then cold-starts).  When the
    user count changes across the sweep, ``previous_system`` (if given)
    supplies the arrival rates used to form the previous point's
    traffic-weighted aggregate split; otherwise users are weighted
    equally — exact for the identical-user sweeps of Fig. 3.  A change
    in the *computer* count returns ``None``.
    """
    fractions = previous.fractions
    if previous.n_computers != system.n_computers:
        return None
    if previous.n_users == system.n_users:
        return _repair(system, fractions)
    # User count changed: carry over the aggregate split, rescaled to the
    # new total demand.
    if previous_system is not None and previous_system.n_users == previous.n_users:
        previous_loads = previous_system.arrival_rates @ fractions
    else:
        previous_loads = np.sum(fractions, axis=0)
    total = float(previous_loads.sum())
    if total <= 0.0:
        return None
    scaled = previous_loads * (system.total_arrival_rate / total)
    profile = StrategyProfile.from_loads(system, scaled)
    return _repair(system, profile.fractions)


def _clip_to_simplex(fractions: np.ndarray) -> np.ndarray:
    """Nearest row-stochastic matrix by clipping and renormalizing."""
    clipped = np.clip(fractions, 0.0, None)
    totals = clipped.sum(axis=1, keepdims=True)
    uniform = np.full_like(clipped, 1.0 / clipped.shape[1])
    with np.errstate(invalid="ignore"):
        normalized = np.where(totals > 0.0, clipped / totals, uniform)
    return normalized


class SweepPredictor:
    """Predicts each sweep point's equilibrium from the points before it.

    Feed it the sweep's solved points in axis order via :meth:`record`;
    :meth:`predict` then proposes a feasible init for the next point —
    Lagrange extrapolation through the last up-to-``depth`` same-shape
    equilibria when the parameter is numeric, the
    :func:`warm_start_profile` carry-over otherwise — or ``None`` when
    the sweep has no usable history (cold start).

    >>> from repro.workloads import paper_table1_system
    >>> from repro.core.nash import NashSolver
    >>> predictor, solver = SweepPredictor(), NashSolver()
    >>> for rho in (0.1, 0.2, 0.3):
    ...     system = paper_table1_system(utilization=rho)
    ...     init = predictor.predict(rho, system) or "proportional"
    ...     result = solver.solve(system, init)
    ...     predictor.record(rho, result.profile, system)
    """

    def __init__(self, depth: int = 3):
        if depth < 1:
            raise ValueError("depth must be at least 1")
        self.depth = int(depth)
        self._history: list[
            tuple[float | None, StrategyProfile, DistributedSystem]
        ] = []

    @staticmethod
    def _as_axis_value(parameter: object) -> float | None:
        if isinstance(parameter, (int, float)) and not isinstance(
            parameter, bool
        ):
            return float(parameter)
        return None

    def record(
        self,
        parameter: object,
        profile: StrategyProfile,
        system: DistributedSystem,
    ) -> None:
        """Remember one solved sweep point (call in sweep-axis order)."""
        self._history.append((self._as_axis_value(parameter), profile, system))
        if len(self._history) > self.depth:
            del self._history[0]

    def predict(
        self, parameter: object, system: DistributedSystem
    ) -> StrategyProfile | None:
        """Feasible init for the point at ``parameter``, or ``None``."""
        if not self._history:
            return None
        axis = self._as_axis_value(parameter)
        usable = [
            (value, profile)
            for value, profile, _ in self._history
            if value is not None
            and profile.fractions.shape
            == (system.n_users, system.n_computers)
        ]
        if axis is not None and len(usable) >= 2:
            values = [value for value, _ in usable]
            if len(set(values)) == len(values) and axis not in values:
                extrapolated = np.zeros(
                    (system.n_users, system.n_computers)
                )
                for i, (value_i, profile_i) in enumerate(usable):
                    weight = 1.0
                    for j, (value_j, _) in enumerate(usable):
                        if i != j:
                            weight *= (axis - value_j) / (value_i - value_j)
                    extrapolated += weight * profile_i.fractions
                seed = _repair(system, _clip_to_simplex(extrapolated))
                if seed is not None:
                    return seed
        previous_profile, previous_system = (
            self._history[-1][1],
            self._history[-1][2],
        )
        return warm_start_profile(
            system, previous_profile, previous_system=previous_system
        )
