"""User-class aggregation: million-user equilibria in class space.

The best reply of user ``j`` (paper Theorem 2.1) depends only on the
user's own job rate ``phi_j`` and the aggregate load the *other* users
put on each computer.  Users with identical ``phi`` therefore share one
equilibrium strategy by symmetry — the aggregation insight exploited by
Berenbrink et al. for weighted task classes — so an instance with
``m = 10^6`` users drawn from ``c`` distinct job rates collapses to a
``(c, n)`` problem with ``c << m``.  This module provides that collapse
end to end:

* :func:`aggregate_users` groups users into weighted
  :class:`ClassAggregation` classes — exact grouping by ``phi`` by
  default, with a relative-tolerance knob for nearly-identical rates —
  with weighted demand accounting (a class's demand is the sum of its
  members' rates; its representative per-member rate is the weighted
  mean);
* :class:`ClassNashSolver` runs the best-reply iteration entirely in
  class space with ``(c, n)`` state, so cost per sweep is
  ``O(c n log n)`` instead of ``O(m n log n)`` and memory ``O(c n)``
  instead of ``O(m n)``.  Its sweep engine
  (:meth:`ClassNashSolver.run_sweeps`) is the repository's one
  implementation of the NASH loop: :class:`~repro.core.nash.NashSolver`
  is a front end that runs it on singleton classes in user order;
* :func:`class_best_response_regrets` evaluates the *per-user*
  epsilon-Nash certificate in class space: every member of a class has
  the same regret, so ``c`` batched best responses certify all ``m``
  users (the epsilon-Nash early-stop knob of Chakraborty et al.'s
  approximate congestion games).

Exactness.  A class-uniform profile expanded by
:meth:`ClassAggregation.expand` puts identical rows on all members of a
class, so the expanded aggregate loads equal the class-space loads and
the class-space certificate *is* the user-space certificate (exactly for
exact grouping, up to the grouping tolerance otherwise).  A singleton
class replies with the paper's Theorem 2.1 water-fill; a multi-member
class lands on its symmetric intra-class equilibrium.  With every class
a singleton the solve is the per-user solve, bit for bit (the parity
tests pin this against ``aggregate_users`` of sorted-rate systems).

The sweep *norm* is user-weighted (``sum_k count_k |D_k^{(l)} -
D_k^{(l-1)}|``) so ``tolerance`` means the same thing it means for the
per-user solver on the expanded system.  That norm lags the profile's
quality (it stalls for multi-member classes, and even a per-user solve
runs ~2.5x the sweeps the certificate needs), so by default
(``stop="certificate"``) an exact solve is also ``converged`` once the
certificate is within ``tolerance``, whatever its ``final_norm``.  The
certificate is checked after sweeps 1, 2, 4, 8, ...: first on the sweep
iterate, then, when that fails, on its :func:`newton_polish` — Newton
steps on the Theorem 2.1 KKT system, which close the slow last gap of
the linearly converging sweeps in a few quadratic steps.  A sampled
(``sample_k < n``) solve with a multi-member class stops instead on the
regret its classes observe over the computers they polled, at the same
checks.  ``stop="norm"`` is the paper's rule alone: the sweep norm,
nothing else.

See docs/PERFORMANCE.md ("Class-space solving") for when aggregation
wins and measured numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterable, Literal

import numpy as np

from repro._typing import FloatArray
from repro.core.best_response import optimal_fractions_batch
from repro.core.equilibrium import EquilibriumCertificate, _regret_certificate
from repro.core.model import DistributedSystem
from repro.core.sampled import (
    SampleCertificate,
    check_seed,
    sampled_best_reply,
    sampled_best_reply_batch,
    sampled_reply_set,
)
from repro.core.strategy import StrategyProfile
from repro.core.waterfill import InfeasibleDemand, sqrt_waterfill_inplace
from repro.queueing.mm1 import expected_response_time
from repro.telemetry.trace import Tracer, current_tracer

__all__ = [
    "DEFAULT_MAX_SWEEPS",
    "DEFAULT_TOLERANCE",
    "UpdateOrder",
    "ClassAggregation",
    "ClassNashResult",
    "ClassNashSolver",
    "PolishStats",
    "StopRule",
    "aggregate_users",
    "class_best_response_regrets",
    "emit_polish",
    "newton_polish",
]

IntArray = np.ndarray

#: Default acceptance tolerance ``eps`` on the per-sweep norm.
DEFAULT_TOLERANCE = 1e-6
#: Default cap on best-reply sweeps before declaring non-convergence.
DEFAULT_MAX_SWEEPS = 500

ClassInitialization = Literal["zero", "proportional", "uniform"]
UpdateOrder = Literal["roundrobin", "random", "simultaneous"]
StopRule = Literal["certificate", "norm"]


@dataclass(frozen=True)
class ClassAggregation:
    """Users grouped into weighted classes over a fixed computer fleet.

    Attributes
    ----------
    service_rates:
        ``mu`` — per-computer processing rates, length ``n``.
    class_rates:
        Representative per-*member* job rate of each class (the weighted
        mean of its members' rates), length ``c``.
    counts:
        Number of users in each class, length ``c``.
    demands:
        Total demand of each class — the *exact sum of its members' job
        rates*, never re-derived from the representative rate.  Summing
        keeps ``demands.sum()`` equal to the system's total arrival rate
        (up to summation order), so a feasible system stays feasible
        after aggregation even at the capacity boundary; the re-derived
        ``class_rates * counts`` form drifts by rounding and used to
        push boundary systems over the feasibility check.
    class_of:
        Per-user class index, length ``m`` (``None`` for synthetic
        aggregations such as the per-user solver's singleton classes,
        which never expand).
    member_rates:
        The original per-user job rates, length ``m`` (``None`` for
        synthetic aggregations).
    grouping_tol:
        The relative tolerance the grouping was built with (0 = exact).
    """

    service_rates: FloatArray
    class_rates: FloatArray
    counts: IntArray
    demands: FloatArray
    class_of: IntArray | None = None
    member_rates: FloatArray | None = None
    grouping_tol: float = 0.0

    def __post_init__(self) -> None:
        mu = np.asarray(self.service_rates, dtype=float)
        rates = np.asarray(self.class_rates, dtype=float)
        counts = np.asarray(self.counts, dtype=np.intp)
        demands = np.asarray(self.demands, dtype=float)
        if mu.ndim != 1 or mu.size == 0 or (mu <= 0.0).any():
            raise ValueError("service_rates must be a positive 1-D vector")
        if rates.ndim != 1 or rates.size == 0 or (rates <= 0.0).any():
            raise ValueError("class_rates must be a positive 1-D vector")
        if counts.shape != rates.shape or (counts < 1).any():
            raise ValueError("counts must be positive, one per class")
        if demands.shape != rates.shape or (demands <= 0.0).any():
            raise ValueError("demands must be positive, one per class")
        if float(demands.sum()) >= float(mu.sum()):
            raise ValueError(
                "aggregate demand must be strictly below total capacity"
            )
        object.__setattr__(self, "service_rates", mu)
        object.__setattr__(self, "class_rates", rates)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "demands", demands)
        if self.class_of is not None:
            class_of = np.asarray(self.class_of, dtype=np.intp)
            if class_of.ndim != 1 or class_of.size == 0:
                raise ValueError("class_of must be a 1-D vector")
            if class_of.min() < 0 or class_of.max() >= rates.size:
                raise ValueError("class_of holds out-of-range class indices")
            object.__setattr__(self, "class_of", class_of)
        if self.member_rates is not None:
            member = np.asarray(self.member_rates, dtype=float)
            if self.class_of is None or member.shape != self.class_of.shape:
                raise ValueError(
                    "member_rates requires a matching class_of vector"
                )
            object.__setattr__(self, "member_rates", member)

    @classmethod
    def of_users(cls, system: DistributedSystem) -> "ClassAggregation":
        """Every user of ``system`` its own class, in user order.

        Not :func:`aggregate_users`, which sorts users and merges equal
        rates into symmetric-fill classes.  Synthetic: it never expands.
        """
        phi = system.arrival_rates
        return cls(
            service_rates=system.service_rates,
            class_rates=phi,
            counts=np.ones(phi.size, dtype=np.intp),
            demands=phi,
        )

    # ------------------------------------------------------------------
    # Shape and aggregate properties
    # ------------------------------------------------------------------
    @property
    def n_classes(self) -> int:
        """Number of user classes ``c``."""
        return int(self.class_rates.size)

    @property
    def n_computers(self) -> int:
        return int(self.service_rates.size)

    @property
    def n_users(self) -> int:
        """Number of underlying users ``m`` (``sum counts`` when synthetic)."""
        if self.class_of is not None:
            return int(self.class_of.size)
        return int(self.counts.sum())

    @property
    def compression(self) -> float:
        """``m / c`` — the state-size reduction the aggregation buys."""
        return self.n_users / self.n_classes

    @property
    def total_demand(self) -> float:
        return float(self.demands.sum())

    # ------------------------------------------------------------------
    # Class-space quantities
    # ------------------------------------------------------------------
    def loads(self, class_fractions: FloatArray) -> FloatArray:
        """Aggregate flow into each computer under a class profile."""
        f = self._validated(class_fractions)
        lam: FloatArray = self.demands @ f
        return lam

    def class_times(self, class_fractions: FloatArray) -> FloatArray:
        """Expected response time of one member of each class."""
        f = self._validated(class_fractions)
        lam = self.demands @ f
        if np.any(self.service_rates - lam <= 0.0):
            raise ValueError("class profile violates per-computer stability")
        times: FloatArray = f @ expected_response_time(lam, self.service_rates)
        return times

    def proportional_fractions(self) -> FloatArray:
        """Every class splits along capacity — the NASH_P seed."""
        row = self.service_rates / self.service_rates.sum()
        tiled: FloatArray = np.tile(row, (self.n_classes, 1))
        return tiled

    # ------------------------------------------------------------------
    # Expansion / contraction between user and class space
    # ------------------------------------------------------------------
    def expand(self, class_fractions: FloatArray) -> StrategyProfile:
        """Materialize the ``(m, n)`` per-user profile (every member adopts
        its class row).

        This is the only O(m·n) operation in the class path — at
        ``m = 10^6, n = 1024`` the matrix alone is ~8 GB, so callers at
        scale should stay in class space and expand only slices.
        """
        if self.class_of is None:
            raise ValueError("synthetic aggregation has no user mapping")
        f = self._validated(class_fractions)
        return StrategyProfile(f[self.class_of])

    def contract(self, profile: StrategyProfile | FloatArray) -> FloatArray:
        """Demand-weighted class rows from an ``(m, n)`` per-user profile.

        The adjoint of :meth:`expand`: for a class-uniform profile it
        recovers the common row exactly; otherwise it returns each
        class's traffic-weighted mean row — the seed
        :class:`ClassNashSolver` warm starts from (continuation across
        sweep points in class space).
        """
        if self.class_of is None or self.member_rates is None:
            raise ValueError("synthetic aggregation has no user mapping")
        fractions = (
            profile.fractions
            if isinstance(profile, StrategyProfile)
            else np.asarray(profile, dtype=float)
        )
        if fractions.shape != (self.n_users, self.n_computers):
            raise ValueError(
                f"profile must have shape ({self.n_users}, "
                f"{self.n_computers}), got {fractions.shape}"
            )
        weighted = np.zeros((self.n_classes, self.n_computers))
        np.add.at(
            weighted, self.class_of, fractions * self.member_rates[:, None]
        )
        totals = np.zeros(self.n_classes)
        np.add.at(totals, self.class_of, self.member_rates)
        contracted: FloatArray = weighted / totals[:, None]
        return contracted

    def _validated(self, class_fractions: FloatArray) -> FloatArray:
        f = np.asarray(class_fractions, dtype=float)
        if f.shape != (self.n_classes, self.n_computers):
            raise ValueError(
                f"class profile must have shape ({self.n_classes}, "
                f"{self.n_computers}), got {f.shape}"
            )
        return f

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ClassAggregation(n_classes={self.n_classes}, "
            f"n_users={self.n_users}, n_computers={self.n_computers}, "
            f"compression={self.compression:.1f}x)"
        )


def aggregate_users(
    system: DistributedSystem, *, tol: float = 0.0
) -> ClassAggregation:
    """Group ``system``'s users into weighted classes by job rate.

    ``tol`` is the *relative* grouping tolerance: users whose rates lie
    within ``tol`` (relatively) of a class's anchor rate join that class.
    ``tol=0`` groups exactly equal rates only, for which the class-space
    equilibrium certificate equals the per-user one exactly; ``tol > 0``
    trades an O(tol)-sized certificate slack for fewer classes.

    >>> from repro.workloads import paper_table1_system
    >>> agg = aggregate_users(paper_table1_system(n_users=10))
    >>> agg.n_classes, agg.n_users          # 10 identical users
    (1, 10)
    """
    if tol < 0.0:
        raise ValueError("grouping tolerance must be nonnegative")
    phi = system.arrival_rates
    m = phi.size
    if tol == 0.0:  # reprolint: allow=R002 exact-sentinel: 0 selects exact grouping
        values, inverse, counts = np.unique(
            phi, return_inverse=True, return_counts=True
        )
        class_of = inverse.astype(np.intp)
        # True member-rate sums (values * counts re-rounds and can drift
        # from the system's total demand at the feasibility boundary).
        raw_demands = np.bincount(class_of, weights=phi, minlength=values.size)
        class_rates = values
    else:
        order = np.argsort(phi, kind="stable")
        sorted_phi = phi[order]
        edges = []
        start = 0
        while start < m:
            anchor = float(sorted_phi[start])
            stop = int(
                np.searchsorted(sorted_phi, anchor * (1.0 + tol), side="right")
            )
            stop = max(stop, start + 1)
            edges.append((start, stop))
            start = stop
        class_of = np.empty(m, dtype=np.intp)
        counts = np.empty(len(edges), dtype=np.intp)
        raw_demands = np.empty(len(edges))
        for k, (lo, hi) in enumerate(edges):
            class_of[order[lo:hi]] = k
            counts[k] = hi - lo
            raw_demands[k] = float(sorted_phi[lo:hi].sum())
        class_rates = raw_demands / counts
    return ClassAggregation(
        service_rates=system.service_rates,
        class_rates=class_rates,
        counts=counts,
        # The true member-rate sums: re-deriving ``class_rates * counts``
        # here drifts from ``phi.sum()`` by rounding, which can push a
        # boundary-feasible system over the capacity check (see the
        # regression tests in tests/core/test_classes.py).
        demands=raw_demands,
        class_of=class_of,
        member_rates=phi,
        grouping_tol=float(tol),
    )


# ----------------------------------------------------------------------
# Equilibrium certificate in class space
# ----------------------------------------------------------------------
def class_best_response_regrets(
    aggregation: ClassAggregation, class_fractions: FloatArray
) -> EquilibriumCertificate:
    """Certify a class profile with ``c`` batched best responses.

    Row ``k``'s available rates are ``mu - lam + phi_k f_k`` — the
    aggregate minus everyone else's flow *including the classmates'* —
    so this is the exact per-user certificate evaluated once per class:
    its entries are per class (``user_times`` holds each class's member
    time) and its ``epsilon`` is the per-user epsilon of the expanded
    profile (exactly for exact grouping).
    """
    return _regret_certificate(
        aggregation.service_rates,
        aggregation.demands,
        aggregation.class_rates,
        aggregation._validated(class_fractions),
    )


def certificate_or_none(
    aggregation: ClassAggregation, class_fractions: FloatArray
) -> EquilibriumCertificate | None:
    """The certificate; ``None`` for a profile that overloads a computer."""
    try:
        return class_best_response_regrets(aggregation, class_fractions)
    except ValueError:
        return None


# ----------------------------------------------------------------------
# The class-space best-reply solver
# ----------------------------------------------------------------------
_FILL_MAX_ITERS = 80
_FILL_RTOL = 1e-14
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


def _symmetric_class_fill(
    m: FloatArray,
    demand: float,
    count: float,
    offset: FloatArray | None = None,
) -> tuple[FloatArray, float]:
    """Symmetric intra-class equilibrium fill of ``demand`` over rates ``m``.

    ``m`` holds the class's foreign-free rates (``mu - foreign load``);
    its ``count`` members, each with job rate ``demand / count``, play a
    symmetric Nash equilibrium among themselves against the frozen rest
    of the world, paying ``offset[i]`` more per job sent to computer
    ``i`` (the delays of :mod:`repro.core.comm_delay`).  The member KKT
    condition gives the gap ``g_i = m_i - y_i`` (``y`` the class total)
    as the root of ``c s_i g^2 - (c - 1) g - m_i = 0`` with ``s_i =
    alpha - t_i``, and the support is a prefix in ``b_i = 1/m_i + t_i``
    order.  The fill finds that prefix first (testing the one a
    closed-form guess of ``alpha`` picks; on a miss, galloping away from
    it and bisecting over the breakpoints), then runs Newton in
    ``log(alpha - max t_i)`` on that smooth piece from the guess,
    bisecting steps that leave the piece (docs/THEORY.md §7).  A demand
    below the rates' round-off goes to the cheapest computers, split
    evenly over ties.

    Returns the class-total allocation ``y`` (zeros off the support) and
    the member cost (expected response time plus mean offset).  Raises
    :class:`InfeasibleDemand` when ``demand`` is at or above the total
    positive capacity.  Landing each class on its internal equilibrium,
    not moving all members to the member best reply at once (intra-class
    Jacobi, which oscillates), lets the outer Gauss-Seidel inherit the
    per-user iteration's contraction.
    """
    pos = m > 0.0
    mp = m[pos]
    cap = float(mp.sum())
    if demand >= cap:
        raise InfeasibleDemand(demand, cap)
    c = float(count)
    c1 = c - 1.0
    b = 1.0 / mp
    t = None if offset is None else offset[pos]
    if t is not None:
        b += t
    order = b.argsort()
    ms = mp[order]
    b = b[order]
    if t is not None:
        t = t[order]
    n = ms.size
    cum_m = np.add.accumulate(ms)

    # alpha for every prefix from the first that can carry the demand:
    # mean offset + ((c - 1) G k + R^2) / (c G^2), G and R the sums of
    # gaps and roots (exact for c = 1 with equal offsets, equal rates).
    first = int(np.searchsorted(cum_m, demand, side="right"))
    roots = np.sqrt(ms)
    cum_r = np.add.accumulate(roots)
    gap_sum = cum_m[first:] - demand
    guess = c1 * gap_sum * np.arange(first + 1, n + 1) + cum_r[first:] ** 2
    guess /= c * gap_sum * gap_sum
    if t is not None:
        guess += (np.add.accumulate(t * roots) / cum_r)[first:]
    inside = b[first:] < guess
    k = n - int(inside[::-1].argmax()) if inside.any() else first + 1

    def gaps(s: float | FloatArray, size: int) -> tuple[FloatArray, FloatArray]:
        # g_i and R_i at s_i = alpha - t_i over the first ``size`` computers.
        root = np.sqrt(c1 * c1 + 4.0 * c * s * ms[:size])
        return (c1 + root) / (2.0 * c * s), root

    # Support size k: prefix k falls short of the demand at alpha = b_k,
    # prefix k + 1 does not at b_{k+1}.  Gallop from the guess, then bisect.
    lo_k, hi_k, step = first + 1, n + 1, 1
    while hi_k - lo_k > 1:
        s = b[k - 1] if t is None else b[k - 1] - t[:k]
        if gaps(s, k)[0].sum() > cum_m[k - 1] - demand:
            lo_k, k = k, k + step
        else:
            hi_k, k = k, k - step
        step *= 2
        if not lo_k < k < hi_k:
            k = (lo_k + hi_k) // 2
    k = lo_k

    mk = ms[:k]
    tau = 0.0 if t is None else float(t[:k].max())
    delta: float | FloatArray = 0.0 if t is None else tau - t[:k]
    target = float(cum_m[k - 1]) - demand
    # alpha - tau stays positive on the piece: b_k > t_i for i < k.
    lo = math.log(max(float(b[k - 1]) - tau, _TINY))
    hi = math.inf if k == n else math.log(max(float(b[k]) - tau, _TINY))
    start = float(guess[k - 1 - first]) - tau
    v = math.log(start) if start > 0.0 and lo < math.log(start) < hi else lo
    tol = _FILL_RTOL * demand + 8.0 * _EPS * float(cum_m[k - 1])
    for _ in range(_FILL_MAX_ITERS):
        e = math.exp(v)
        g, root = gaps(e + delta, k)
        total_gap = float(g.sum())
        lo, hi = (v, hi) if total_gap > target else (lo, v)
        if abs(total_gap - target) <= tol:
            break
        # d(log sum g)/dv = -(c sum g^2 / R) e / sum g.
        slope = c * float((g * g / root).sum()) * e / total_gap
        v_next = v + math.log(total_gap / target) / slope
        if not lo < v_next < hi:
            v_next = v + 1.0 if hi == math.inf else 0.5 * (lo + hi)
        if abs(v_next - v) <= 4.0 * _EPS * max(1.0, abs(v)):
            break
        v = v_next
    y = mk - g
    np.maximum(y, 0.0, out=y)
    total = float(y.sum())
    if total > 0.0:
        y *= demand / total  # exact conservation
    else:
        cheapest = b[:k] == b[0]
        y = np.where(cheapest, demand / np.count_nonzero(cheapest), 0.0)
    d = float((y / (mk - y)).sum())  # reprolint: allow=R003 y < m on the support by construction
    if t is not None:
        d += float(y @ t[:k])
    out = np.zeros(m.shape[0])
    out[np.flatnonzero(pos)[order[:k]]] = y
    return out, d / demand


def _fused_class_reply_inplace(
    mu: FloatArray,
    count: float,
    demand: float,
    own: FloatArray,
    lam: FloatArray,
    avail: FloatArray,
    offset: FloatArray | None = None,
) -> float:
    """One class's equilibrium reply with in-place aggregate bookkeeping.

    ``own`` is the class's *total* flow row inside the ``(c, n)`` flow
    matrix and ``lam`` the running aggregate ``sum_k flows_k``; both are
    updated in place (``lam += new_own - old_own``, the rank-1 delta that
    makes a sweep ``O(c n log n)``), so ``mu - lam + own`` are the
    class's foreign-free rates.  ``avail`` is a preallocated ``(n,)``
    scratch buffer.  ``demand`` is the class's true member-rate sum
    (``ClassAggregation.demands[k]``, *not* re-derived as ``rate *
    count`` — see :func:`aggregate_users`).  ``offset`` is the class's
    per-job cost row (communication delays).  Returns the member's new
    cost: expected response time plus mean offset.

    A singleton class without an offset (every user of a
    :class:`~repro.core.nash.NashSolver` solve) takes the Theorem 2.1
    water-fill, :func:`~repro.core.waterfill.sqrt_waterfill_inplace`,
    which writes its flows straight into ``own``; every other class
    takes :func:`_symmetric_class_fill`.
    """
    np.subtract(mu, lam, out=avail)
    avail += own
    if count > 1.0 or offset is not None:
        y, d = _symmetric_class_fill(avail, demand, count, offset)
        lam -= own
        own[:] = y
        lam += own
        return d
    lam -= own
    d, _, _ = sqrt_waterfill_inplace(avail, demand, own)
    lam += own
    return d


def _sampled_class_reply(
    avail: FloatArray,
    own: FloatArray,
    demand: float,
    count: float,
    *,
    seed: int,
    sweep: int,
    index: int,
    k: int,
    observe: bool = False,
) -> tuple[FloatArray, float, int, float]:
    """One class's reply restricted to ``support ∪ k-sample``.

    A singleton class *is* one player, so it goes through
    :func:`repro.core.sampled.sampled_best_reply` unchanged.  A
    multi-member class observes its own support for free, spends ``k``
    probes on the same seeded sample, and lands on its symmetric
    intra-class equilibrium over the union — widening deterministically
    when the sampled capacity cannot carry the demand (cold starts).
    Returns the new full-length class-total flow row, the member expected
    response time, the polls spent and, with ``observe``, the class's
    :func:`_observed_regret` before the reply (``nan`` otherwise).
    """
    regret = float("nan")
    if count <= 1.0:
        reply = sampled_best_reply(
            avail, own, demand, seed=seed, sweep=sweep, index=index, k=k
        )
        if observe:
            regret = _observed_regret(avail, own, demand, count, reply.reply_set)
        return reply.flows, reply.expected_response_time, reply.polls, regret
    chosen, polls = sampled_reply_set(
        avail, own, demand, seed=seed, sweep=sweep, index=index, k=k
    )
    if observe:
        regret = _observed_regret(avail, own, demand, count, chosen)
    flows = np.zeros(avail.shape[0])
    y, d = _symmetric_class_fill(avail[chosen], demand, count)
    flows[chosen] = y
    return flows, d, polls, regret


def _observed_regret(
    avail: FloatArray,
    own: FloatArray,
    demand: float,
    count: float,
    chosen: IntArray,
) -> float:
    """A class member's regret over the computers its class observed.

    ``avail`` holds the class's foreign-free rates and ``own`` its total
    flow row, both read only on the reply set ``chosen`` (support ∪
    sample), which the reply polls anyway.  The member's current expected
    time, minus its best reply over ``chosen``: one water-fill of
    ``demand / count`` over the member's foreign-free rates ``avail -
    own (1 - 1/count)``.  ``inf`` while the class carries no flow (a cold
    start) or a computer it uses has no headroom.
    """
    rates = avail[chosen]
    flows = own[chosen]
    headroom = rates - flows
    support = flows > 0.0
    if not support.any() or (headroom[support] <= 0.0).any():
        return float("inf")
    current = float((flows[support] / headroom[support]).sum()) / demand
    member = rates - flows * (1.0 - 1.0 / count)
    out = np.empty_like(member)
    best, _, _ = sqrt_waterfill_inplace(member, demand / count, out)
    return current - best


@dataclass(frozen=True)
class SweepRun:
    """Outcome of the sweep engine, which a front end wraps.

    ``flows`` are the final ``(c, n)`` class-total flows and
    ``fractions`` the same profile as class fractions, ``norms`` the
    user-weighted sweep norms, ``history`` the class fractions after
    each sweep (when recorded) and ``times`` each class member's
    expected response time under ``fractions`` (costs, offsets included,
    when the run had ``offsets``; ``inf`` and ``converged=False`` when
    the profile overloads a computer).  ``stopped_by`` says why the
    sweeps stopped (the ``solver.done`` field).  ``certificate`` is the
    certificate of the final profile of a converged exact
    certificate-stop run (``None`` otherwise).  ``sample`` is the
    :class:`SampleCertificate` of a ``sample_k`` solve.
    """

    flows: FloatArray
    fractions: FloatArray
    norms: list[float]
    converged: bool
    history: list[FloatArray]
    times: FloatArray
    stopped_by: str
    certificate: EquilibriumCertificate | None = None
    sample: SampleCertificate | None = None


@dataclass(frozen=True)
class ClassNashResult:
    """Outcome of the class-space best-reply iteration.

    ``class_fractions`` is the ``(c, n)`` equilibrium profile; every
    member of class ``k`` plays row ``k`` (call :meth:`expand` to
    materialize the per-user matrix — O(m·n) memory).  ``norm_history``
    is user-weighted, comparable with the per-user solver's.
    ``converged`` also covers a certificate stop (see
    :class:`ClassNashSolver`), whose ``final_norm`` can be large.
    """

    class_fractions: FloatArray
    converged: bool
    iterations: int
    norm_history: FloatArray
    class_times: FloatArray
    aggregation: ClassAggregation
    history: tuple[FloatArray, ...] = field(default=())
    sample: SampleCertificate | None = None

    @property
    def final_norm(self) -> float:
        return float(self.norm_history[-1]) if self.norm_history.size else 0.0

    def expand(self) -> StrategyProfile:
        """The per-user ``(m, n)`` profile (see the memory note above)."""
        return self.aggregation.expand(self.class_fractions)


@dataclass(frozen=True)
class ClassNashSolver:
    """Best-reply solver over user classes — ``(c, n)`` state, ``c << m``.

    The configuration mirrors :class:`~repro.core.nash.NashSolver`
    (tolerance on the user-weighted sweep norm, sweep budget, update
    order, seed for the ``"random"`` order), whose solves run on this
    class's sweep engine with every user a singleton class.

    ``stop`` picks the stopping rule.  ``"norm"`` is the paper's: the
    solve stops when the sweep norm reaches ``tolerance``.  Under
    ``"certificate"`` (the default) an exact solve also stops once the
    certificate (:func:`class_best_response_regrets`) does, checked
    after sweeps 1, 2, 4, 8, ...  A check that fails on the sweep
    iterate is retried on its :func:`newton_polish`, and a polish whose
    own certificate passes is the result.  Neither changes the sweep
    iterates; they only truncate them.  A ``sample_k`` solve never
    polishes: it models polled players.  A ``k < n`` solve with a
    multi-member class, whose players lack the information for the
    certificate, stops on the regret its classes observe over their
    reply sets instead (at the same checks, once two in a row are within
    ``tolerance``; reported as ``SampleCertificate.sampled_epsilon`` and
    ``stopped_by="observed"``).  A
    ``k >= n`` one checks the certificate on its sweep iterates, and a
    per-user sampled solve (all singletons) keeps the norm rule.

    ``sample_k`` switches to power-of-k sampled class replies
    (:mod:`repro.core.sampled`): each class best-responds over its
    current support plus ``k`` seeded probes per sweep.  ``k >= n`` runs
    the exact code path unchanged — bit-for-bit identical profiles —
    and only attaches the full-information
    :class:`~repro.core.sampled.SampleCertificate`.  A ``k < n`` solve
    with a multi-member class rejects ``order="simultaneous"`` with a
    ``ValueError``: its Jacobi replies oscillate and never converge.
    """

    tolerance: float = DEFAULT_TOLERANCE
    max_sweeps: int = DEFAULT_MAX_SWEEPS
    order: UpdateOrder = "roundrobin"
    seed: int = 0
    record_history: bool = False
    sample_k: int | None = None
    stop: StopRule = "certificate"

    def __post_init__(self) -> None:
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")
        if self.order not in ("roundrobin", "random", "simultaneous"):
            raise ValueError(f"unknown update order {self.order!r}")
        if self.stop not in ("certificate", "norm"):
            raise ValueError(f"unknown stop rule {self.stop!r}")
        if self.sample_k is not None and self.sample_k < 1:
            raise ValueError("sample_k must be at least 1 (or None)")
        check_seed(self.seed)

    def _initial_fractions(
        self,
        aggregation: ClassAggregation,
        init: ClassInitialization | FloatArray | StrategyProfile,
    ) -> FloatArray:
        c, n = aggregation.n_classes, aggregation.n_computers
        if isinstance(init, StrategyProfile):
            init = init.fractions
        if isinstance(init, np.ndarray):
            f = np.array(init, dtype=float, copy=True)
            if f.shape != (c, n):
                raise ValueError(
                    f"initial class profile must have shape ({c}, {n}), "
                    f"got {f.shape}"
                )
            return f
        if init == "zero":
            return np.zeros((c, n))
        if init == "proportional":
            return aggregation.proportional_fractions()
        if init == "uniform":
            return np.full((c, n), 1.0 / n)
        raise ValueError(f"unknown initialization {init!r}")

    def solve(
        self,
        aggregation: ClassAggregation,
        init: ClassInitialization | FloatArray | StrategyProfile = "proportional",
        *,
        tracer: Tracer | None = None,
    ) -> ClassNashResult:
        """Run class-space best-reply sweeps from the given initialization.

        The sweeps, their trace events and the result's times and sample
        certificate come from :meth:`run_sweeps`.
        """
        run = self.run_sweeps(
            aggregation, self._initial_fractions(aggregation, init), tracer=tracer
        )
        return ClassNashResult(
            class_fractions=run.fractions,
            converged=run.converged,
            iterations=len(run.norms),
            norm_history=np.asarray(run.norms, dtype=float),
            class_times=run.times,
            aggregation=aggregation,
            history=tuple(run.history),
            sample=run.sample,
        )

    def run_sweeps(
        self,
        aggregation: ClassAggregation,
        fractions: FloatArray,
        *,
        tracer: Tracer | None = None,
        offsets: FloatArray | None = None,
    ) -> SweepRun:
        """The sweep engine: best-reply sweeps from a ``(c, n)`` profile.

        The one implementation of the paper's NASH loop, shared by
        :meth:`solve`, :meth:`repro.core.nash.NashSolver.solve` and
        :meth:`repro.core.comm_delay.DelayedNashSolver.solve`.  Each
        sweep refreshes the aggregate ``lam`` (against incremental
        round-off drift), then either lets every class reply in turn to
        the freshest profile (Gauss-Seidel: ``"roundrobin"`` or
        ``"random"``) or all classes reply to the previous sweep's
        profile at once (Jacobi: ``"simultaneous"``, one batched kernel
        call for an all-singleton aggregation).  ``fractions`` is read,
        never written.  A certificate check that fails on the sweep
        iterate retries on its :func:`newton_polish`.

        It is also the one place a solve is traced and finished: on
        ``tracer`` (default: the ambient tracer) it emits
        ``solver.start``, one ``solver.sweep`` per sweep (its
        ``regrets`` hold each class's ``|D_k^{(l)} - D_k^{(l-1)}|``),
        ``solver.polish`` per polish, ``solver.sample`` and
        ``solver.done``, and it computes the final times and the
        ``sample_k`` :class:`SampleCertificate` (docs/OBSERVABILITY.md).

        ``offsets`` (``(c, n)``, the communication delays) adds a cost
        per job to every reply (:func:`_symmetric_class_fill` with the
        class's row) and to the costs the norm compares.  No certificate,
        polish or sampled reply knows them, so they need ``stop="norm"``
        and no ``sample_k < n``.
        """
        mu = aggregation.service_rates
        demands = aggregation.demands
        counts_f = aggregation.counts.astype(float)
        # Python scalars keep the per-reply loop free of NumPy scalar
        # arithmetic; the values (hence the iterates) are unchanged.
        counts = counts_f.tolist()
        demand_list = demands.tolist()
        singleton = bool((aggregation.counts == 1).all())
        c, n = aggregation.n_classes, aggregation.n_computers
        rng = np.random.default_rng(self.seed) if self.order == "random" else None
        # Power-of-k mode: k < n restricts every reply to support ∪
        # sample; k >= n runs the exact path unchanged (bit-for-bit
        # parity) and only the certificate accounting differs.
        sample_k = 0 if self.sample_k is None else self.sample_k
        sampling = 0 < sample_k < n
        rows: list[FloatArray | None] = [None] * c
        if offsets is not None:
            if sampling or self.stop != "norm":
                raise ValueError("offsets need stop='norm' and no sample_k < n")
            rows = list(offsets)
        if sampling and not singleton and self.order == "simultaneous":
            # Sampled classes replying at once herd onto the same probed
            # computers and oscillate: the budget ends unconverged.
            raise ValueError(
                f"order={self.order!r} with sample_k={sample_k} < n={n} "
                "oscillates on multi-member classes; use a Gauss-Seidel "
                "order ('roundrobin' or 'random') or sample_k=None"
            )
        # The norm lags the certificate (multi-member classes trade load
        # along directions that barely move anyone's cost, so theirs
        # stalls), so exact solves check the certificate unless the
        # caller asked for the paper's rule.  Sampled solves never do: a
        # sampled player lacks the information.  A k >= n per-user solve
        # keeps the norm rule, whose sweeps are the poll baseline.
        certify = self.stop == "certificate" and (
            self.sample_k is None or not (singleton or sampling)
        )
        # A k < n solve with a multi-member class stops instead on the
        # regret its classes observe over their reply sets, checked at
        # the same sweeps and trusted once two checks in a row pass (one
        # random sample often misses a profitable computer).  Per-user
        # sampled solves keep the norm rule: the sampled ring protocol
        # reproduces them sweep for sweep.
        observe = self.stop == "certificate" and sampling and not singleton
        observed_passes = 0
        sampled_epsilon: float | None = None
        # The polish is a centralised Newton solve: a sample_k solve, even
        # with k >= n, models what best-replying players observe and pay
        # for in polls, so it keeps to sweeps.
        polish = certify and self.sample_k is None
        seed = self.seed
        polls = 0
        tracer = tracer if tracer is not None else current_tracer()
        trace = tracer.enabled
        if trace:
            tracer.emit(
                "solver.start",
                order=self.order,
                users=aggregation.n_users,
                computers=n,
                tolerance=self.tolerance,
                max_sweeps=self.max_sweeps,
                classes=c,
                compression=aggregation.compression,
                grouping_tol=aggregation.grouping_tol,
            )

        # D_k^{(0)}: zero for classes with no allocation yet (NASH_0), the
        # actual member times otherwise.  An initial profile that
        # conserves flow but overloads some computer (e.g. a uniform split
        # on a heterogeneous system) has no finite expected times; treat
        # it like NASH_0 for norm purposes — the first sweep repairs it.
        last_times = np.zeros(c)
        if np.allclose(fractions.sum(axis=1), 1.0):
            try:
                last_times = aggregation.class_times(fractions)
            except ValueError:
                pass
            else:
                if offsets is not None:
                    last_times += (fractions * offsets).sum(axis=1)

        # Hot loop state: (c, n) class *total* flows and the running
        # aggregate, updated with a rank-1 delta per reply.
        flows = fractions * demands[:, None]
        avail = np.empty(n)

        norms: list[float] = []
        history: list[FloatArray] = []
        converged = False
        stopped_by = "budget"
        accepted: EquilibriumCertificate | None = None
        for sweep in range(self.max_sweeps):
            lam = flows.sum(axis=0)
            started = perf_counter() if trace else 0.0
            check = sweep & (sweep + 1) == 0  # after sweeps 1, 2, 4, 8, ...
            observing = observe and check
            worst = -np.inf
            if self.order == "simultaneous":
                available = (mu - lam)[None, :] + flows
                if singleton and sampling:
                    batch = sampled_best_reply_batch(
                        available,
                        flows,
                        aggregation.class_rates,
                        seed=seed,
                        sweep=sweep,
                        k=sample_k,
                    )
                    flows[:] = batch.flows
                    times = batch.expected_response_times
                    polls += batch.polls
                elif singleton and offsets is None:
                    replies = optimal_fractions_batch(
                        available, aggregation.class_rates
                    )
                    np.multiply(replies.fractions, demands[:, None], out=flows)
                    times = replies.expected_response_times
                else:
                    # Each class lands on its internal symmetric
                    # equilibrium (with offsets, its delayed reply)
                    # against the frozen aggregate.
                    times = np.empty(c)
                    for k in range(c):
                        flows[k], times[k] = _symmetric_class_fill(
                            available[k], demand_list[k], counts[k], rows[k]
                        )
                deltas = np.abs(times - last_times)
                norm = float((counts_f * deltas).sum())
                last_times = times
            else:
                schedule: Iterable[int] = (
                    rng.permutation(c).tolist() if rng is not None else range(c)
                )
                deltas = np.zeros(c)
                norm = 0.0
                for k in schedule:
                    if sampling:
                        np.subtract(mu, lam, out=avail)
                        avail += flows[k]
                        y, d, p, r = _sampled_class_reply(
                            avail,
                            flows[k],
                            demand_list[k],
                            counts[k],
                            seed=seed,
                            sweep=sweep,
                            index=k,
                            k=sample_k,
                            observe=observing,
                        )
                        polls += p
                        if observing:
                            worst = max(worst, r)
                        lam += y - flows[k]
                        flows[k] = y
                    else:
                        d = _fused_class_reply_inplace(
                            mu, counts[k], demand_list[k], flows[k], lam, avail, rows[k]
                        )
                    delta = abs(d - last_times[k])
                    norm += counts[k] * delta
                    deltas[k] = delta
                    last_times[k] = d
            norms.append(norm)
            if trace:
                elapsed = perf_counter() - started
                tracer.emit(
                    "solver.sweep",
                    index=sweep,
                    sweep=sweep + 1,
                    norm=norm,
                    elapsed_s=elapsed,
                    regrets=deltas,
                )
                tracer.count("solver.sweeps")
                tracer.count("solver.best_replies", c)
                tracer.observe("solver.sweep_seconds", elapsed)
            if self.record_history:
                history.append(flows / demands[:, None])
            if observing:
                sampled_epsilon = worst
                observed_passes = (
                    observed_passes + 1 if worst <= self.tolerance else 0
                )
            if norm <= self.tolerance:
                converged, stopped_by = True, "norm"
                if certify:
                    accepted = certificate_or_none(
                        aggregation, flows / demands[:, None]
                    )
                break
            if observed_passes == 2:
                converged, stopped_by = True, "observed"
                break
            if certify and check:
                certificate = certificate_or_none(
                    aggregation, flows / demands[:, None]
                )
                if certificate is not None and certificate.epsilon <= self.tolerance:
                    converged, accepted, stopped_by = True, certificate, "certificate"
                    break
                candidate = (
                    self._certified_polish(aggregation, flows, tracer)
                    if polish
                    else None
                )
                if candidate is not None:
                    flows, accepted = candidate
                    converged, stopped_by = True, "newton"
                    break

        final = flows / demands[:, None]
        if accepted is not None:
            member_times = accepted.user_times
        else:
            try:
                member_times = aggregation.class_times(final)
            except ValueError:
                # Only reachable with the simultaneous (Jacobi) order,
                # which can overshoot into an unstable joint profile
                # mid-oscillation.
                member_times = np.full(c, np.inf)
                converged = False
            else:
                if offsets is not None:
                    member_times += (final * offsets).sum(axis=1)
        sample: SampleCertificate | None = None
        if self.sample_k is not None:
            if not sampling:
                # Full-information bypass: every reply observed all n
                # computers — the poll baseline EXT11 measures against.
                polls = len(norms) * c * n
            # The true global epsilon of the final profile.
            true = certificate_or_none(aggregation, final)
            sample = SampleCertificate(
                k=min(sample_k, n),
                n_computers=n,
                sweeps=len(norms),
                polls=polls,
                sampled_norm=norms[-1],
                epsilon=float("inf") if true is None else true.epsilon,
                sampled_epsilon=sampled_epsilon,
            )
            if trace:
                tracer.emit(
                    "solver.sample",
                    k=sample.k,
                    computers=n,
                    sweeps=sample.sweeps,
                    polls=sample.polls,
                    sampled_norm=sample.sampled_norm,
                    epsilon=sample.epsilon,
                    sampled_epsilon=sample.sampled_epsilon,
                )
        if trace:
            tracer.emit(
                "solver.done",
                converged=converged,
                iterations=len(norms),
                final_norm=norms[-1],
                stopped_by=stopped_by,
            )
        return SweepRun(
            flows=flows,
            fractions=final,
            norms=norms,
            converged=converged,
            history=history,
            times=member_times,
            stopped_by=stopped_by,
            certificate=accepted,
            sample=sample,
        )

    def _certified_polish(
        self,
        aggregation: ClassAggregation,
        flows: FloatArray,
        tracer: Tracer,
    ) -> tuple[FloatArray, EquilibriumCertificate] | None:
        """The :func:`newton_polish` of ``flows`` and its certificate, if
        that certifies."""
        stats = PolishStats()
        candidate = newton_polish(aggregation, flows, stats)
        certificate = (
            None
            if candidate is None
            else certificate_or_none(
                aggregation, candidate / aggregation.demands[:, None]
            )
        )
        epsilon = float("inf") if certificate is None else certificate.epsilon
        emit_polish(tracer, stats, candidate, epsilon, self.tolerance)
        if candidate is None or certificate is None or epsilon > self.tolerance:
            return None
        return candidate, certificate


# ----------------------------------------------------------------------
# Newton polish on the Theorem 2.1 KKT system
# ----------------------------------------------------------------------
#: Newton steps one polish may take before it gives up.
_POLISH_MAX_STEPS = 30
#: A full step that moves no member flow ``x_ki`` by more than this,
#: relative to ``h_i + x_ki`` (the numerator of its marginal cost), ends
#: the polish: the next error is its square.
_POLISH_STEP_RTOL = 1e-10
#: An idle computer joins a class's support only when its marginal cost
#: at zero flow, ``1 / h_i``, undercuts ``nu_k`` by more than this
#: (relatively), so a computer on the support boundary cannot flicker in
#: and out forever.
_SUPPORT_RTOL = 1e-9
#: Fraction-to-boundary damping that keeps every headroom positive.
_HEADROOM_STEP = 0.99
#: A Newton step takes the ``c x c`` Woodbury form once the classes are
#: this many fewer than the computers: the measured crossover.  At n <=
#: 16 (every churn polish) its extra array calls cost more than the
#: smaller solve saves; at c = n - 16 it is 3-10% faster for n = 24 to
#: 128 (docs/PERFORMANCE.md, "Reduced Newton step").
_REDUCED_STEP_MARGIN = 16


def _load_step(
    weights: FloatArray,
    norm: FloatArray,
    slope: FloatArray,
    counts: FloatArray,
    rhs: FloatArray,
) -> FloatArray:
    """The load changes ``s`` of one Newton step of :func:`newton_polish`.

    ``s`` solves ``(D - U^T slope) s = rhs`` with ``D = diag(1 + counts @
    slope)`` and ``U = weights * counts / norm`` (rows are classes).  When
    the ``c`` classes are at least :data:`_REDUCED_STEP_MARGIN` fewer
    than the ``n`` computers and ``D`` is positive (it is ``>= 1`` near
    the equilibrium, where ``nu_k h_i >= 1`` on the support) the
    Woodbury identity reduces the step to one ``c x c`` solve, ``s =
    D^-1 rhs + D^-1 U^T (I - slope D^-1 U^T)^-1 slope D^-1 rhs``, in
    ``O(c^2 n + c^3)``; otherwise the dense ``n x n`` system is solved,
    in ``O(c n^2 + n^3)``.  Raises ``LinAlgError`` when the step is
    singular.
    """
    lift = weights * (counts / norm)[:, None]
    diagonal = 1.0 + counts @ slope
    if counts.size + _REDUCED_STEP_MARGIN <= rhs.size and (diagonal > 0.0).all():
        inverse = 1.0 / diagonal
        lift *= inverse
        direct = rhs * inverse
        capacitance = np.identity(counts.size) - slope @ lift.T
        correction = np.linalg.solve(capacitance, slope @ direct)
        reduced: FloatArray = direct + correction @ lift
        return reduced
    matrix = -lift.T @ slope
    matrix[np.diag_indices(rhs.size)] += diagonal
    dense: FloatArray = np.linalg.solve(matrix, rhs)
    return dense


@dataclass
class PolishStats:
    """What one :func:`newton_polish` call did (the ``solver.polish`` fields)."""

    steps: int = 0
    adds: int = 0
    drops: int = 0


def newton_polish(
    aggregation: ClassAggregation,
    flows: FloatArray,
    stats: PolishStats | None = None,
) -> FloatArray | None:
    """Newton steps from class-total ``flows`` to the equilibrium.

    With ``x_ki`` a class-``k`` member's flow on computer ``i`` and
    ``h_i = mu_i - lam_i`` the computer's headroom, a member's marginal
    cost there is ``(h_i + x_ki) / h_i^2`` (paper Theorem 2.1), so on a
    fixed support ``S`` the equilibrium solves the smooth system::

        F_ki = h_i + x_ki - nu_k h_i^2 = 0     (i in S_k)
        G_k  = sum_i x_ki - phi_k      = 0

    A Newton step eliminates ``dx`` and ``dnu`` through the load changes
    ``s_i = sum_k count_k dx_ki``: with ``a_ki = 2 nu_k h_i - 1``,
    ``dx_ki = -F_ki - a_ki s_i + h_i^2 dnu_k`` and ``dnu_k = (-G_k +
    sum_i F_ki + sum_i a_ki s_i) / sum_i h_i^2`` (sums over ``S_k``), so
    ``s`` solves one ``n x n`` system: a diagonal ``D = 1 + sum_k count_k
    a_ki`` minus a rank-``c`` term.  By the Woodbury identity that is one
    ``c x c`` solve at ``O(c^2 n + c^3)`` per step, taken when the
    classes are at least 16 fewer than the computers and ``D`` is
    positive (always, near the equilibrium); otherwise the dense ``n x
    n`` solve runs, at ``O(c n^2 + n^3)``.  Both give the same step up to
    round-off.  The support moves by an active-set rule: the flows a full
    step would push below zero leave it (and the step is recomputed),
    a step that would empty some computer's headroom is cut short, and
    once the steps on a support converge computer ``i`` joins class
    ``k`` wherever ``1 / h_i < nu_k`` (an idle computer that would have
    been cheaper), until none does.

    Returns the polished ``(c, n)`` class-total flows (rows summing to
    the class demands), or ``None`` when some headroom is not positive,
    a step is singular or the steps do not converge; ``flows`` is never
    written.  The caller certifies the result — the polish is a
    candidate, not a certificate.  ``stats``, when given, counts the
    steps and support changes.
    """
    stats = stats if stats is not None else PolishStats()
    mu = aggregation.service_rates
    demands = aggregation.demands
    counts = aggregation.counts.astype(float)
    rates = demands / counts
    x = flows / counts[:, None]
    support = x > 0.0
    h = mu - counts @ x
    if not (h > 0.0).all() or not support.any(axis=1).all():
        return None
    h2 = h * h
    # The least-squares multiplier of each class's current support.
    nu = ((h + x) * h2 * support).sum(axis=1) / (h2 * h2 * support).sum(axis=1)
    converged = False
    for step in range(_POLISH_MAX_STEPS):
        if converged or step == 0:
            joining = ~support & (nu[:, None] * h > 1.0 + _SUPPORT_RTOL)
            if joining.any():
                support |= joining
                stats.adds += int(joining.sum())
            elif converged:
                break
        converged = False
        weights = h2 * support
        norm = weights.sum(axis=1)
        resid = (h + x - nu[:, None] * h2) * support
        slope = (2.0 * nu[:, None] * h - 1.0) * support
        g = (resid.sum(axis=1) - (x.sum(axis=1) - rates)) / norm
        try:
            s = _load_step(
                weights, norm, slope, counts, counts @ (weights * g[:, None] - resid)
            )
        except np.linalg.LinAlgError:
            return None
        stats.steps += 1
        dnu = g + (slope @ s) / norm
        dx = (h2 * dnu[:, None] - resid - slope * s[None, :]) * support
        if not np.isfinite(dx).all():
            return None
        # Flows the full step would push below zero leave the support at
        # once, and the step is recomputed without them: stepping only
        # to the first such boundary drops one flow per step.
        leaving = support & (x + dx < 0.0)
        if leaving.any():
            support &= ~leaving
            if not support.any(axis=1).all():
                return None
            x[leaving] = 0.0
            stats.drops += int(leaving.sum())
        else:
            # Fraction to the boundary keeps every headroom positive.
            alpha = 1.0
            filling = s > 0.0
            if filling.any():
                room = float((h[filling] / s[filling]).min())
                alpha = min(1.0, _HEADROOM_STEP * room)
            x += alpha * dx
            nu += alpha * dnu
            converged = alpha >= 1.0 and bool(
                (np.abs(dx) <= _POLISH_STEP_RTOL * (h + x)).all()
            )
        h = mu - counts @ x
        if not (h > 0.0).all():
            return None
        h2 = h * h
    else:
        return None
    polished: FloatArray = x * counts[:, None]
    polished *= (demands / polished.sum(axis=1))[:, None]
    return polished


def emit_polish(
    tracer: Tracer,
    stats: PolishStats,
    polished: FloatArray | None,
    epsilon: float,
    tolerance: float,
) -> None:
    """Emit the ``solver.polish`` event of one certified polish attempt.

    ``epsilon`` is the certificate of the polished profile (``inf`` when
    :func:`newton_polish` returned ``None``); the outcome is
    ``certified``, ``fallback`` (polished, but the certificate missed
    ``tolerance``, so the caller keeps sweeping) or ``failed``.
    """
    if not tracer.enabled:
        return
    if polished is None:
        outcome = "failed"
    elif epsilon <= tolerance:
        outcome = "certified"
    else:
        outcome = "fallback"
    tracer.emit(
        "solver.polish",
        steps=stats.steps,
        adds=stats.adds,
        drops=stats.drops,
        outcome=outcome,
        epsilon=epsilon,
    )
