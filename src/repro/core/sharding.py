"""Two-level sharded class-space solving over the experiment process pool.

One :class:`~repro.core.classes.ClassNashSolver` already collapses a
million users to ``(c, n)`` state, but a single process still sweeps all
``c`` classes serially.  This module adds the second level: partition
the classes across shards, let each shard run a class-space Nash solve
against a *frozen* snapshot of the foreign load (every other shard's
flows folded into residual service rates), then reconcile flows and
repeat until the **global** epsilon-Nash certificate
(:func:`~repro.core.classes.class_best_response_regrets`) holds — the
principled early-stop knob of Chakraborty et al.'s approximate
congestion games.

Scheme per reconciliation round (block-Jacobi across shards):

1. coordinator freezes the aggregate load ``lam`` of the current global
   profile and hands shard ``s`` the residual rates
   ``mu' = mu - (lam - lam_s)`` (provably positive whenever the current
   profile is stable, since ``mu' = (mu - lam) + lam_s``);
2. each shard solves its internal class-space equilibrium on ``mu'``
   via :func:`_solve_shard` — a top-level, picklable pure function
   dispatched through :func:`repro.experiments.parallel.parallel_map`
   with ``chunksize=1`` by default (shard costs are skewed, see the
   chunking note in :mod:`repro.experiments.parallel`);
3. the coordinator writes the shard flows back and evaluates the global
   certificate; if ``epsilon <= tolerance`` the profile is an
   epsilon-Nash equilibrium and the solve stops.  A simultaneous
   write-back that overshoots into instability is backtracked by
   halving the step toward the previous (stable) profile.

Workers run with the disabled tracer (pool purity, R006/R007); all
telemetry — one ``shard.round`` event per reconciliation round and one
``shard.solve`` per shard solve — is emitted by the coordinator.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro._typing import FloatArray
from repro.core.classes import (
    ClassAggregation,
    ClassEquilibriumCertificate,
    ClassNashSolver,
    class_best_response_regrets,
)
from repro.core.nash import DEFAULT_TOLERANCE
from repro.core.strategy import StrategyProfile
from repro.experiments.parallel import default_workers, parallel_map
from repro.experiments.shm import (
    ArrayRef,
    SharedArrayPlane,
    resolve,
    shm_available,
)
from repro.telemetry.trace import DISABLED, Tracer, current_tracer

__all__ = [
    "ShardedNashResult",
    "partition_classes",
    "solve_sharded",
]

IndexArray = np.ndarray

DEFAULT_MAX_ROUNDS = 50
_BACKTRACK_LIMIT = 60

#: Payload handed to a shard worker: residual service rates, the shard's
#: per-member class rates, counts and true member-sum demands, its
#: current class fractions, and the solver configuration (tolerance,
#: max_sweeps, order, seed).
ShardPayload = tuple[
    FloatArray,
    FloatArray,
    IndexArray,
    FloatArray,
    FloatArray,
    float,
    int,
    str,
    int,
]

#: Zero-copy variant: the shard's index array plus the round's frozen
#: aggregate load travel inline (both tiny), while the class matrices
#: and the round's fraction matrix arrive as shared-memory handles that
#: workers slice locally — see :mod:`repro.experiments.shm`.
ShmShardPayload = tuple[
    IndexArray,
    FloatArray,
    "ArrayRef | FloatArray",
    "ArrayRef | FloatArray",
    "ArrayRef | IndexArray",
    "ArrayRef | FloatArray",
    "ArrayRef | FloatArray",
    float,
    int,
    str,
    int,
]


def partition_classes(
    aggregation: ClassAggregation, n_shards: int
) -> tuple[IndexArray, ...]:
    """Partition class indices into ``n_shards`` demand-balanced shards.

    Longest-processing-time greedy: classes in decreasing demand order,
    each assigned to the currently lightest shard — the standard 4/3
    makespan heuristic, which matters because class demands (hence
    per-shard sweep costs) are typically heavy-tailed.  Returns sorted,
    non-empty, disjoint index arrays covering every class; ``n_shards``
    is clamped to the class count.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be at least 1")
    c = aggregation.n_classes
    n_shards = min(n_shards, c)
    loads = np.zeros(n_shards)
    members: list[list[int]] = [[] for _ in range(n_shards)]
    for k in np.argsort(-aggregation.demands, kind="stable"):
        s = int(np.argmin(loads))
        members[s].append(int(k))
        loads[s] += aggregation.demands[k]
    return tuple(
        np.asarray(sorted(group), dtype=np.intp) for group in members
    )


def _solve_shard(
    payload: ShardPayload,
) -> tuple[FloatArray, bool, int]:
    """Solve one shard's internal class-space equilibrium (pool worker).

    Top-level and pure so it pickles under spawn and satisfies the pool
    purity rule; runs with the disabled tracer — shard telemetry is the
    coordinator's job.
    """
    (
        mu_residual,
        class_rates,
        counts,
        demands,
        fractions,
        tolerance,
        max_sweeps,
        order,
        seed,
    ) = payload
    sub = ClassAggregation(
        service_rates=mu_residual,
        class_rates=class_rates,
        counts=counts,
        # The parent aggregation's member-sum demands — never re-derived
        # as ``class_rates * counts``, whose rounding can break a
        # boundary-feasible shard (see aggregate_users).
        demands=demands,
    )
    solver = ClassNashSolver(
        tolerance=tolerance,
        max_sweeps=max_sweeps,
        order=order,  # type: ignore[arg-type]
        seed=seed,
    )
    result = solver.solve(sub, init=fractions, tracer=DISABLED)
    return result.class_fractions, result.converged, result.iterations


def _solve_shard_shm(
    payload: ShmShardPayload,
) -> tuple[FloatArray, bool, int]:
    """Zero-copy twin of :func:`_solve_shard` (pool worker).

    The worker resolves the shared class matrices and the round's frozen
    fraction matrix (attached once per worker, cached by content token),
    slices its shard locally, and rebuilds the residual rates with the
    *same expression* the coordinator uses on the pickling path —
    ``mu - lam + demands[shard] @ fractions[shard]`` over the same
    bytes — so both paths are bit-identical by construction (pinned by
    the parity tests in tests/core/test_sharding.py).
    """
    (
        shard,
        lam,
        mu_handle,
        class_rates_handle,
        counts_handle,
        demands_handle,
        fractions_handle,
        tolerance,
        max_sweeps,
        order,
        seed,
    ) = payload
    mu = resolve(mu_handle)
    class_rates = resolve(class_rates_handle)
    counts = resolve(counts_handle)
    demands = resolve(demands_handle)
    fractions = resolve(fractions_handle)
    own_load = demands[shard] @ fractions[shard]
    mu_residual = mu - lam + own_load
    return _solve_shard(
        (
            mu_residual,
            class_rates[shard],
            counts[shard],
            demands[shard],
            fractions[shard],
            tolerance,
            max_sweeps,
            order,
            seed,
        )
    )


@dataclass(frozen=True)
class ShardedNashResult:
    """Outcome of a sharded class-space solve.

    ``epsilon_history`` holds the global certificate epsilon after each
    reconciliation round; ``certificate`` is the final one, whose
    ``epsilon <= tolerance`` iff ``converged``.
    """

    class_fractions: FloatArray
    converged: bool
    rounds: int
    epsilon_history: FloatArray
    certificate: ClassEquilibriumCertificate
    aggregation: ClassAggregation
    shards: tuple[IndexArray, ...]

    @property
    def epsilon(self) -> float:
        return self.certificate.epsilon

    def expand(self) -> StrategyProfile:
        """The per-user ``(m, n)`` profile (O(m n) memory — see classes)."""
        return self.aggregation.expand(self.class_fractions)


def solve_sharded(
    aggregation: ClassAggregation,
    *,
    n_shards: int,
    tolerance: float = DEFAULT_TOLERANCE,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    shard_tolerance: float | None = None,
    shard_max_sweeps: int = 50,
    reconcile_sweeps: int = 2,
    order: str = "roundrobin",
    seed: int = 0,
    n_workers: int | None = None,
    chunksize: int | None = 1,
    context: str | None = None,
    use_shm: bool | None = None,
    init: FloatArray | None = None,
    tracer: Tracer | None = None,
) -> ShardedNashResult:
    """Sharded class-space Nash solve with a global certificate stop.

    ``tolerance`` bounds the *certificate epsilon* (max per-user regret),
    not the sweep norm — the solve stops exactly when the profile is a
    ``tolerance``-Nash equilibrium, however many rounds that takes.

    The shard solves are budget-capped smoothers (``shard_max_sweeps``
    sweeps to ``shard_tolerance``, default ``tolerance``): they
    equilibrate *within* shards in parallel, which is where virtually
    all sweeps go at scale.  Pure block-Jacobi across shards can stall —
    independently solved shards grab the same fast computers and the
    write-back oscillates — so each round finishes with
    ``reconcile_sweeps`` serial Gauss-Seidel sweeps over **all** classes
    (O(c) each, with fresh cross-shard information), which carry the
    per-user iteration's convergence guarantee across shard boundaries.

    ``chunksize=1`` dispatches each shard as its own pool task: shard
    costs are skewed even after LPT balancing, so batching shards into
    chunks serializes the slowest behind the cheapest (see
    :func:`repro.experiments.parallel.parallel_map`).

    ``use_shm`` selects the zero-copy data plane
    (:mod:`repro.experiments.shm`): the class matrices are published to
    shared memory once per solve and the frozen fraction matrix once per
    round, so shard tasks carry only their index array and the ``(n,)``
    aggregate load instead of re-pickling ``O(c n)`` arrays every round.
    ``None`` (default) engages the plane exactly when the solve actually
    fans out (shared memory available, more than one worker and shard);
    both paths are bit-identical (see :func:`_solve_shard_shm`).
    ``context`` pins the pool's multiprocessing start method (see
    :func:`repro.experiments.parallel.parallel_map`).
    """
    if tolerance <= 0.0:
        raise ValueError("tolerance must be positive")
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    if reconcile_sweeps < 1:
        raise ValueError("reconcile_sweeps must be at least 1")
    inner_tol = tolerance if shard_tolerance is None else shard_tolerance
    shards = partition_classes(aggregation, n_shards)
    mu = aggregation.service_rates
    demands = aggregation.demands
    c, n = aggregation.n_classes, aggregation.n_computers

    if init is None:
        fractions = aggregation.proportional_fractions()
    else:
        fractions = np.array(init, dtype=float, copy=True)
        if fractions.shape != (c, n):
            raise ValueError(
                f"init must have shape ({c}, {n}), got {fractions.shape}"
            )

    tracer = tracer if tracer is not None else current_tracer()
    trace = tracer.enabled

    if use_shm is None:
        effective = default_workers() if n_workers is None else n_workers
        use_shm = shm_available() and effective > 1 and len(shards) > 1
    plane: SharedArrayPlane | None = None
    static_handles: tuple[ArrayRef | FloatArray, ...] = ()
    if use_shm:
        plane = SharedArrayPlane(tracer=tracer)
        # Published once per solve: service rates and the full class
        # matrices.  Workers slice their shard locally, so no per-round
        # or per-task copy of any of these ever crosses the pipe again.
        static_handles = (
            plane.publish(mu),
            plane.publish(aggregation.class_rates),
            plane.publish(aggregation.counts),
            plane.publish(demands),
        )

    epsilons: list[float] = []
    converged = False
    certificate = class_best_response_regrets(aggregation, fractions)
    rounds_done = 0
    # Reconciliation escalation: when a round barely moves the
    # certificate (strong cross-shard coupling), double the serial
    # reconciliation budget — in the limit the solve degenerates to the
    # plain class-space Gauss-Seidel, so progress is never lost.
    reconcile_budget = reconcile_sweeps

    def dispatch_round(lam: FloatArray) -> list[tuple[FloatArray, bool, int]]:
        """One block-Jacobi fan-out over the shards (both payload paths)."""
        if plane is not None:
            # Zero-copy path: the frozen fraction matrix is published
            # once for the round and released right after — a long solve
            # must not accrete one dead block per round.  Task payloads
            # carry only the shard index array, the (n,) aggregate load
            # and solver scalars.
            fractions_handle = plane.publish(fractions)
            shm_payloads: list[ShmShardPayload] = [
                (
                    shard,
                    lam,
                    *static_handles,
                    fractions_handle,
                    inner_tol,
                    shard_max_sweeps,
                    order,
                    seed,
                )
                for shard in shards
            ]
            plane.account_fanout(
                [*static_handles, fractions_handle], len(shards)
            )
            try:
                return parallel_map(
                    _solve_shard_shm,
                    shm_payloads,
                    n_workers=n_workers,
                    chunksize=chunksize,
                    context=context,
                )
            finally:
                plane.release(fractions_handle)
        payloads: list[ShardPayload] = []
        for shard in shards:
            own_load = demands[shard] @ fractions[shard]
            # Residual rates: (mu - lam) + shard's own load — positive
            # whenever the current global profile is stable.
            mu_residual = mu - lam + own_load
            payloads.append(
                (
                    mu_residual,
                    aggregation.class_rates[shard],
                    aggregation.counts[shard],
                    aggregation.demands[shard],
                    fractions[shard],
                    inner_tol,
                    shard_max_sweeps,
                    order,
                    seed,
                )
            )
        return parallel_map(
            _solve_shard,
            payloads,
            n_workers=n_workers,
            chunksize=chunksize,
            context=context,
        )

    try:
        for round_index in range(max_rounds):
            if certificate.epsilon <= tolerance:
                converged = True
                break
            round_started = perf_counter() if trace else 0.0
            lam = demands @ fractions
            results = dispatch_round(lam)
            proposal = fractions.copy()
            for shard, (shard_fractions, shard_converged, iterations) in zip(
                shards, results
            ):
                proposal[shard] = shard_fractions
                if trace:
                    tracer.emit(
                        "shard.solve",
                        round=round_index,
                        classes=int(shard.size),
                        iterations=iterations,
                        converged=shard_converged,
                    )
                    tracer.count("shard.solves")
            # The simultaneous write-back can overshoot into an unstable
            # joint profile; halve the step toward the previous (stable)
            # iterate until the aggregate fits under mu again.
            step = 1.0
            candidate = proposal
            for _ in range(_BACKTRACK_LIMIT):
                if np.all(mu - demands @ candidate > 0.0):
                    break
                step *= 0.5
                candidate = fractions + step * (proposal - fractions)
            else:
                raise RuntimeError(
                    "sharded write-back failed to restore stability"
                )
            # Cross-shard reconciliation: a few serial Gauss-Seidel
            # sweeps over all classes with fresh global information.
            # The reconciler honors the caller's update order — dropping
            # it silently ran the default order regardless of ``order=``
            # (the order-plumbing regression test in
            # tests/core/test_sharding.py pins this).
            reconciler = ClassNashSolver(
                tolerance=max(inner_tol / 10.0, 1e-15),
                max_sweeps=reconcile_budget,
                order=order,  # type: ignore[arg-type]
                seed=seed,
            )
            reconciled = reconciler.solve(
                aggregation, init=candidate, tracer=DISABLED
            )
            fractions = reconciled.class_fractions
            previous_epsilon = certificate.epsilon
            certificate = class_best_response_regrets(aggregation, fractions)
            if certificate.epsilon > 0.5 * previous_epsilon:
                reconcile_budget = min(reconcile_budget * 2, 256)
            epsilons.append(certificate.epsilon)
            rounds_done = round_index + 1
            if trace:
                elapsed = perf_counter() - round_started
                tracer.emit(
                    "shard.round",
                    round=round_index,
                    shards=len(shards),
                    epsilon=certificate.epsilon,
                    step=step,
                    elapsed_s=elapsed,
                )
                tracer.count("shard.rounds")
                tracer.observe("shard.round_seconds", elapsed)
        else:
            converged = certificate.epsilon <= tolerance
    finally:
        if plane is not None:
            plane.close()

    if not epsilons:
        # Converged before the first round (init already epsilon-Nash).
        converged = True
        epsilons.append(certificate.epsilon)
    return ShardedNashResult(
        class_fractions=fractions,
        converged=converged,
        rounds=rounds_done,
        epsilon_history=np.asarray(epsilons, dtype=float),
        certificate=certificate,
        aggregation=aggregation,
        shards=shards,
    )
