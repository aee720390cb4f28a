"""NASH — the distributed greedy best-reply algorithm (paper Sec. 3).

Users take turns, round-robin, replacing their strategy with the exact
best response (the OPTIMAL algorithm) against the current strategies of
everyone else.  A sweep accumulates ``norm += |D_j^{(l)} - D_j^{(l-1)}|``
over the users; the paper's iteration stops once a full sweep moves the
users' expected response times by less than the acceptance tolerance
``eps``.  That is ``stop="norm"``, which every caller that reproduces a
paper trajectory passes (:func:`compute_nash_equilibrium`, Figures 2-3,
the NASH scheme).  The default, ``stop="certificate"``, also stops once
the epsilon-Nash certificate of the sweep iterate, or of its Newton
polish on the Theorem 2.1 KKT system, is within ``eps``: checked after
sweeps 1, 2, 4, 8, ..., it certifies a cold solve after one sweep where
the norm needs ~80 (docs/PERFORMANCE.md, "Per-user certificate stop").

Two initializations from the paper's Sec. 4.2.1:

* ``"zero"`` (**NASH_0**) — the all-zero profile; the first sweep builds
  the initial allocation with user 1 seeing an idle system.
* ``"proportional"`` (**NASH_P**) — every user starts from the
  proportional split ``s_ji = mu_i / sum mu_k``, which is near the
  equilibrium and empirically halves the iteration count (Figures 2-3).

This module is the *sequential* driver; :mod:`repro.distributed` executes
the same algorithm as a message-passing ring protocol and must produce
identical iterates.

One sweep engine: :class:`NashSolver` is the front end of
:class:`~repro.core.classes.ClassNashSolver` for singleton classes.  It
makes every user its own class, in user order, runs the class solver's
sweep engine (:meth:`~repro.core.classes.ClassNashSolver.run_sweeps` —
incremental aggregate loads, one fused water-fill per Gauss-Seidel
reply, one batched call per Jacobi sweep; see docs/PERFORMANCE.md),
which also traces the solve, and wraps the outcome in a per-user
:class:`NashResult`.  The original driver is preserved verbatim in
:mod:`repro.core.reference`; parity tests pin the two against each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from repro._typing import FloatArray
from repro.core.classes import (
    DEFAULT_MAX_SWEEPS,
    DEFAULT_TOLERANCE,
    ClassAggregation,
    ClassNashSolver,
    StopRule,
    UpdateOrder,
)
from repro.core.equilibrium import EquilibriumCertificate
from repro.core.model import DistributedSystem
# The per-user sampled replies stay importable from here: a sampled
# NashSolver solve runs them through the sweep engine.
from repro.core.sampled import (
    SampleCertificate,
    sampled_best_reply,
    sampled_best_reply_batch,
)
from repro.core.strategy import StrategyProfile
from repro.telemetry.trace import Tracer

__all__ = [
    "DEFAULT_TOLERANCE",
    "DEFAULT_MAX_SWEEPS",
    "Initialization",
    "StopRule",
    "UpdateOrder",
    "NashResult",
    "NashSolver",
    "compute_nash_equilibrium",
    "initial_profile",
]

Initialization = Literal["zero", "proportional", "uniform"]


def initial_profile(
    system: DistributedSystem, init: Initialization | StrategyProfile
) -> StrategyProfile:
    """Materialize an initialization choice into a concrete profile."""
    if isinstance(init, StrategyProfile):
        if init.fractions.shape != (system.n_users, system.n_computers):
            raise ValueError("initial profile shape does not match the system")
        return init
    if init == "zero":
        return StrategyProfile.zeros(system.n_users, system.n_computers)
    if init == "proportional":
        return StrategyProfile.proportional(system)
    if init == "uniform":
        return StrategyProfile.uniform(system.n_users, system.n_computers)
    raise ValueError(f"unknown initialization {init!r}")


@dataclass(frozen=True)
class NashResult:
    """Outcome of the best-reply iteration.

    Attributes
    ----------
    profile:
        The final strategy profile (the Nash equilibrium on convergence).
    converged:
        Whether the solve met its stop rule within the sweep budget: the
        sweep norm fell below the tolerance, or (``stop="certificate"``)
        the epsilon-Nash certificate did, of the last sweep iterate or of
        its Newton polish, which is then ``profile``.  ``stop="norm"``
        is the paper's rule alone.
    iterations:
        Number of completed sweeps (one sweep = every user updates once;
        this is the x-axis of the paper's Figure 2 and the y-axis of
        Figure 3).
    norm_history:
        Sweep norm after each sweep, ``norm_history[l] = sum_j
        |D_j^{(l+1)} - D_j^{(l)}|``.
    user_times:
        Per-user expected response times under the final profile.
    certificate:
        The epsilon-Nash certificate of ``profile`` when an exact
        ``stop="certificate"`` solve converged (by either rule), else
        ``None``.
    profile_history:
        Profiles after each sweep (present only when recorded).
    sample:
        The :class:`~repro.core.sampled.SampleCertificate` of a
        ``sample_k`` solve — poll spend, sampled norm and the *true*
        global epsilon — or ``None`` for a full-information solve.
    """

    profile: StrategyProfile
    converged: bool
    iterations: int
    norm_history: FloatArray
    user_times: FloatArray
    profile_history: tuple[StrategyProfile, ...] = field(default=())
    sample: SampleCertificate | None = None
    certificate: EquilibriumCertificate | None = None

    @property
    def final_norm(self) -> float:
        return float(self.norm_history[-1]) if self.norm_history.size else 0.0


@dataclass(frozen=True)
class NashSolver:
    """Configured best-reply solver.

    Parameters
    ----------
    tolerance:
        Acceptance tolerance ``eps`` on the per-sweep norm and, under the
        certificate stop, on the epsilon-Nash certificate.
    max_sweeps:
        Sweep budget; exceeding it returns ``converged=False`` rather than
        raising, because partial profiles remain informative (the paper
        notes convergence for >2 users is an open problem, although every
        experiment here and in the paper converges).
    record_history:
        Keep a copy of the profile after every sweep (needed by the
        convergence experiments, off by default to save memory).
    order:
        Update schedule within a sweep.  ``"roundrobin"`` is the paper's
        algorithm (users update in index order, each seeing the others'
        freshest strategies — Gauss-Seidel).  ``"random"`` permutes the
        order every sweep (needs ``seed``), probing the paper's open question
        about schedule-independence of convergence.  ``"simultaneous"``
        has every user best-respond to the *previous* sweep's profile
        (Jacobi); it can overshoot and is included as an ablation.
    seed:
        RNG seed for the ``"random"`` order (ignored otherwise) and for
        the per-reply sample draws of ``sample_k`` mode.
    sample_k:
        ``None`` (default) runs the paper's full-information best
        replies.  An integer ``k`` switches to power-of-k sampled
        replies (:mod:`repro.core.sampled`): each user best-responds
        over its current support plus ``k`` seeded random probes per
        sweep.  ``k >= n`` takes the exact full-information code path —
        bit-for-bit identical profiles — while still attaching the
        :class:`~repro.core.sampled.SampleCertificate` with the
        full-information poll baseline.  Per-user sampled solves keep the
        norm rule whatever ``stop`` says (the sampled ring protocol
        reproduces them sweep for sweep); the observed-regret stop of
        :class:`~repro.core.classes.ClassNashSolver` needs a
        multi-member class.
    stop:
        ``"certificate"`` (default) also stops an exact solve once the
        epsilon-Nash certificate of a sweep iterate or of its Newton
        polish is within ``tolerance`` (see
        :class:`~repro.core.classes.ClassNashSolver`); ``"norm"`` is the
        paper's sweep-norm rule alone, for callers that reproduce its
        trajectories.
    """

    tolerance: float = DEFAULT_TOLERANCE
    max_sweeps: int = DEFAULT_MAX_SWEEPS
    record_history: bool = False
    order: UpdateOrder = "roundrobin"
    seed: int = 0
    sample_k: int | None = None
    stop: StopRule = "certificate"

    def __post_init__(self) -> None:
        self._engine()  # validates the configuration

    def _engine(self) -> ClassNashSolver:
        return ClassNashSolver(
            tolerance=self.tolerance,
            max_sweeps=self.max_sweeps,
            order=self.order,
            seed=self.seed,
            record_history=self.record_history,
            sample_k=self.sample_k,
            stop=self.stop,
        )

    def solve(
        self,
        system: DistributedSystem,
        init: Initialization | StrategyProfile = "proportional",
        *,
        tracer: Tracer | None = None,
    ) -> NashResult:
        """Run best-reply sweeps from the given initialization.

        Every user is its own class, in user order, and the sweeps run on
        :meth:`~repro.core.classes.ClassNashSolver.run_sweeps`, which
        also traces the solve.  ``tracer`` (default: the ambient tracer,
        disabled unless installed with :func:`repro.telemetry.use_tracer`)
        records ``solver.start``, one ``solver.sweep`` event per sweep —
        the norm, the per-user regrets ``|D_j^{(l)} - D_j^{(l-1)}|`` and
        the kernel wall time — a ``solver.polish`` event per Newton
        polish and ``solver.done``.  With the default no-op sink the
        instrumentation reduces to one branch per sweep (see
        docs/OBSERVABILITY.md for the overhead guarantee).
        """
        profile = initial_profile(system, init)
        run = self._engine().run_sweeps(
            ClassAggregation.of_users(system), profile.fractions, tracer=tracer
        )
        # Singleton classes: the class times and certificate are per user.
        return NashResult(
            profile=StrategyProfile(run.fractions),
            converged=run.converged,
            iterations=len(run.norms),
            norm_history=np.asarray(run.norms, dtype=float),
            user_times=run.times,
            profile_history=tuple(StrategyProfile(f) for f in run.history),
            sample=run.sample,
            certificate=run.certificate,
        )


def compute_nash_equilibrium(
    system: DistributedSystem,
    *,
    init: Initialization | StrategyProfile = "proportional",
    tolerance: float = DEFAULT_TOLERANCE,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    record_history: bool = False,
) -> NashResult:
    """One-call façade over :class:`NashSolver` with the paper's stop rule.

    The sweeps run until their norm falls below ``tolerance``
    (``stop="norm"``), so ``iterations`` and ``norm_history`` are the
    paper's NASH loop, sweep for sweep.

    >>> from repro.workloads import paper_table1_system
    >>> result = compute_nash_equilibrium(paper_table1_system(utilization=0.6))
    >>> result.converged
    True
    """
    solver = NashSolver(
        tolerance=tolerance,
        max_sweeps=max_sweeps,
        record_history=record_history,
        stop="norm",
    )
    return solver.solve(system, init)
