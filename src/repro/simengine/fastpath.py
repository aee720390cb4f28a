"""Vectorized fast-path simulator (Lindley recursion).

The event-driven engine in :mod:`repro.simengine.simulator` is general but
interprets one Python-level event at a time.  For the specific workload of
this paper — probabilistic (Bernoulli) routing onto independent FCFS M/M/1
queues — each computer's queue evolves independently of the others, and
its per-job waiting times obey the Lindley recursion

    W_1 = 0,    W_{k+1} = max(0, W_k + S_k - A_{k+1})

which has the classical prefix-minimum closed form

    C_k = sum_{i<=k} (S_{i-1} - A_i)   (with C_1 = 0)
    W_k = C_k - min_{j<=k} C_j

computable with two ``cumsum``/``minimum.accumulate`` passes — no Python
loop over jobs.  This is the numpy-vectorization idiom of the HPC guides
applied to the whole simulation: the fast path reproduces the *same
stationary law* as the event engine (both are exact M/M/1 samplers) and is
two to three orders of magnitude faster, enabling the paper's multi-million
job runs in seconds.  Tests cross-validate the two engines against each
other and against the analytic formulas.

Two batching layers on top (docs/PERFORMANCE.md):

* :func:`mm1_lindley_waits_batch` runs the recursion over a 2-D
  ``(batch, jobs)`` matrix with per-row job counts (ragged rows are
  zero-padded), one ``cumsum``/``minimum.accumulate`` pass for the whole
  batch;
* :func:`simulate_profile_fast_batch` simulates *all replications × all
  computers* of a replication study through that kernel in a single
  pass.  Per-row randomness still comes from each replication's own
  ``SeedSequence`` tree, consumed in exactly the order the one-run path
  consumes it, so a batched study is **bit-identical** to running
  :func:`simulate_profile_fast` once per seed — the property
  ``replicate(..., simulate_batch=...)`` and its parity tests rely on.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.model import DistributedSystem
from repro.core.strategy import StrategyProfile
from repro.simengine.simulator import SimulationResult

__all__ = [
    "predraw_uniform_pool",
    "simulate_profile_fast",
    "simulate_profile_fast_batch",
    "mm1_lindley_waits",
    "mm1_lindley_waits_batch",
]


def mm1_lindley_waits(
    interarrivals: np.ndarray, services: np.ndarray
) -> np.ndarray:
    """Per-job FCFS waiting times from interarrival and service samples.

    ``interarrivals[k]`` is the gap between job ``k-1`` and job ``k``
    (``interarrivals[0]`` is the first job's arrival time and does not
    influence its zero wait); ``services[k]`` is job ``k``'s service
    requirement.  Works for any distributions (the G/G/1 Lindley
    recursion), vectorized via the prefix-minimum identity.
    """
    interarrivals = np.asarray(interarrivals, dtype=float)
    services = np.asarray(services, dtype=float)
    if interarrivals.shape != services.shape or interarrivals.ndim != 1:
        raise ValueError("interarrivals and services must be equal-length vectors")
    n = interarrivals.size
    if n == 0:
        return np.zeros(0)
    increments = np.empty(n)
    increments[0] = 0.0
    np.subtract(services[:-1], interarrivals[1:], out=increments[1:])
    path = np.cumsum(increments)
    running_min = np.minimum.accumulate(np.minimum(path, 0.0))
    return path - running_min


def mm1_lindley_waits_batch(
    interarrivals: np.ndarray,
    services: np.ndarray,
    job_counts: np.ndarray | None = None,
) -> np.ndarray:
    """Batched Lindley recursion over a ``(batch, jobs)`` sample matrix.

    Row ``b`` holds the interarrival/service samples of one independent
    queue; ``job_counts[b]`` (default: the full row width) marks how many
    leading entries of the row are real jobs — entries at or beyond the
    count are padding and are ignored on input and zero on output.  Each
    row's leading ``job_counts[b]`` waits equal
    ``mm1_lindley_waits(interarrivals[b, :c], services[b, :c])``
    bit-for-bit: ``cumsum``/``minimum.accumulate`` apply the same
    sequential reduction per row regardless of the batch shape.
    """
    interarrivals = np.asarray(interarrivals, dtype=float)
    services = np.asarray(services, dtype=float)
    if interarrivals.shape != services.shape or interarrivals.ndim != 2:
        raise ValueError(
            "interarrivals and services must be equal-shape (batch, jobs) "
            "matrices"
        )
    n_rows, width = interarrivals.shape
    if job_counts is None:
        counts = np.full(n_rows, width, dtype=np.int64)
    else:
        counts = np.asarray(job_counts)
        if counts.shape != (n_rows,):
            raise ValueError("job_counts must have one entry per batch row")
        if not np.issubdtype(counts.dtype, np.integer):
            raise ValueError("job_counts must be integers")
        if np.any(counts < 0) or np.any(counts > width):
            raise ValueError("job_counts must lie in [0, jobs]")
    if width == 0:
        return np.zeros((n_rows, 0))
    padding = np.arange(width)[None, :] >= counts[:, None]
    return _lindley_padded(interarrivals, services, padding)


def _lindley_padded(
    interarrivals: np.ndarray, services: np.ndarray, padding: np.ndarray
) -> np.ndarray:
    """Validation-free core of :func:`mm1_lindley_waits_batch`."""
    n_rows, width = interarrivals.shape
    increments = np.empty((n_rows, width))
    increments[:, 0] = 0.0
    np.subtract(services[:, :-1], interarrivals[:, 1:], out=increments[:, 1:])
    increments[padding] = 0.0
    path = np.cumsum(increments, axis=1)
    running_min = np.minimum.accumulate(np.minimum(path, 0.0), axis=1)
    waits = path - running_min
    waits[padding] = 0.0
    return waits


def _run_stream(
    seed: int | np.random.SeedSequence,
) -> np.random.Generator:
    """The single generator one simulation run consumes.

    Each run draws its randomness as one upfront uniform block whose
    layout — per computer, in ascending index order: gaps, services
    (M/M/1 only), attribution uniforms — is fully determined by (seed,
    profile, horizon, distributions).  General service distributions and
    the rare gap-extension path draw directly from the stream after the
    block, still in a deterministic order.  A run's samples therefore
    never depend on which other runs share the batch, and seeding costs
    one bit-generator construction per run instead of one per
    (run, computer).  Constructing from the same ``SeedSequence`` twice
    yields the same stream (``generate_state`` is pure), keeping
    simulation idempotent in the seed object.
    """
    root = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)
    )
    return np.random.Generator(np.random.PCG64(root))


def _extend_gaps(
    rng: np.random.Generator, gaps: np.ndarray, lam: float, horizon: float
) -> np.ndarray:  # pragma: no cover - 6-sigma margin
    """Top up one stream's gap draws when the initial batch fell short."""
    batch = gaps.size
    total = float(gaps.sum())
    while total < horizon:
        extra = rng.exponential(1.0 / lam, size=max(batch // 4, 16))
        gaps = np.concatenate([gaps, extra])
        total += float(extra.sum())
    return gaps


class _LazyStreams:
    """Per-run generators, constructed (and positioned) on first use.

    When the uniform pool was pre-drawn elsewhere
    (:func:`predraw_uniform_pool`), a run's stream must resume exactly
    where the pool draw left it: constructing the generator and drawing
    (and discarding) the run's ``totals[r]`` pool uniforms reproduces
    that state bit for bit (PCG64 advances deterministically).  Laziness
    matters because only the rare paths — gap extension past the 6-sigma
    margin, general service distributions — touch the stream at all, so
    the common case pays zero redraws.
    """

    def __init__(
        self,
        seeds: Sequence[int | np.random.SeedSequence],
        totals: np.ndarray,
        *,
        skip_pool: bool,
    ):
        self._seeds = list(seeds)
        self._totals = totals
        self._skip_pool = skip_pool
        self._cache: list[np.random.Generator | None] = [None] * len(
            self._seeds
        )

    def __getitem__(self, r: int) -> np.random.Generator:
        rng = self._cache[r]
        if rng is None:
            rng = _run_stream(self._seeds[r])
            if self._skip_pool:
                rng.random(int(self._totals[r]))
            self._cache[r] = rng
        return rng


def _pool_layout(
    lam_matrix: np.ndarray, horizon: float, stages: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slot geometry of the pre-drawn uniform pool.

    Returns ``(size_matrix, offsets, totals)``: per-(run, computer) slot
    width (6-sigma horizon coverage), each slot's start offset within its
    run's row, and each run's total draw count.  Purely a function of
    the runs' own loads, so the layout of one run never depends on which
    other runs share the batch.
    """
    expected = lam_matrix * horizon
    size_matrix = np.where(
        lam_matrix > 0.0,
        (expected + 6.0 * np.sqrt(expected) + 16.0).astype(np.int64),
        0,
    )
    slots = stages * size_matrix
    offsets = np.zeros(lam_matrix.shape, dtype=np.int64)
    np.cumsum(slots[:, :-1], axis=1, out=offsets[:, 1:])
    totals = slots.sum(axis=1)
    return size_matrix, offsets, totals


def _profile_loads(
    system: DistributedSystem,
    profiles: StrategyProfile | Sequence[StrategyProfile],
    n_runs: int,
) -> tuple[list[int], list[np.ndarray], list[StrategyProfile]]:
    """Validate profiles and compute per-distinct-profile loads.

    Returns ``(row_key, loads_rows, distinct_profiles)`` where
    ``loads_rows[row_key[r]]`` is run ``r``'s per-computer load vector
    and ``distinct_profiles`` aligns with ``loads_rows``.
    """
    if isinstance(profiles, StrategyProfile):
        row_profiles = [profiles] * n_runs
    else:
        row_profiles = list(profiles)
        if len(row_profiles) != n_runs:
            raise ValueError("profiles must be one per seed (or a single one)")
    distinct: dict[int, int] = {}
    loads_rows: list[np.ndarray] = []
    distinct_profiles: list[StrategyProfile] = []
    for profile in row_profiles:
        if id(profile) not in distinct:
            profile.validate(system)
            distinct[id(profile)] = len(loads_rows)
            loads_rows.append(system.loads(profile.fractions))
            distinct_profiles.append(profile)
    row_key = [distinct[id(profile)] for profile in row_profiles]
    return row_key, loads_rows, distinct_profiles


def predraw_uniform_pool(
    system: DistributedSystem,
    profiles: StrategyProfile | Sequence[StrategyProfile],
    *,
    horizon: float,
    seeds: Sequence[int | np.random.SeedSequence],
    service_distributions=None,
) -> np.ndarray:
    """The exact ``(runs, draws)`` uniform block a batched run consumes.

    Row ``r`` holds the leading ``totals[r]`` uniforms of seed ``r``'s
    stream in the layout :func:`_pool_layout` describes (zero-padded to
    the widest row).  Passing the result back to
    :func:`simulate_profile_fast_batch` via ``uniform_pool=`` — whole,
    or as any contiguous row slice aligned with a seed slice — skips the
    draw and yields bit-identical results: a row holds exactly the draws
    the run would make for itself.
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seeds must be nonempty")
    row_key, loads_rows, _ = _profile_loads(system, profiles, len(seeds))
    lam_matrix = np.stack([loads_rows[key] for key in row_key])
    stages = 2 if service_distributions is not None else 3
    _, _, totals = _pool_layout(lam_matrix, horizon, stages)
    pool = np.zeros((len(seeds), int(totals.max())))
    for r, seed in enumerate(seeds):
        pool[r, : totals[r]] = _run_stream(seed).random(int(totals[r]))
    return pool


def simulate_profile_fast_batch(
    system: DistributedSystem,
    profiles: StrategyProfile | Sequence[StrategyProfile],
    *,
    horizon: float,
    warmup: float = 0.0,
    seeds: Sequence[int | np.random.SeedSequence],
    service_distributions=None,
    uniform_pool: np.ndarray | None = None,
) -> list[SimulationResult]:
    """Simulate many independent runs in one set of vectorized passes.

    One run per entry of ``seeds`` — the typical caller passes one
    :class:`~numpy.random.SeedSequence` per replication, straight from
    :func:`repro.simengine.rng.replication_seeds`.  ``profiles`` is
    either a single profile shared by every run (the replication-study
    case) or one profile per seed (e.g. comparing two allocations under
    common random numbers).  All runs share ``horizon``/``warmup``/
    ``service_distributions``.

    Each run consumes randomness from its own :func:`_run_stream`
    generator in the same call sequence as :func:`simulate_profile_fast`
    uses for that seed, while the Lindley recursion, job accounting and
    window clipping execute batched over a ``(runs, jobs)`` matrix per
    computer.  The returned results are therefore **bit-identical** to
    the per-seed loop, only faster: the per-run Python and small-array
    numpy overhead is paid once per computer instead of once per run.

    Utilization accounting counts the service time actually *rendered*
    inside the ``[warmup, horizon]`` measurement window, clipping jobs
    that straddle either edge — the estimator that stays unbiased at
    high load (see the cross-engine parity tests).

    ``uniform_pool`` supplies the pre-drawn uniform block from
    :func:`predraw_uniform_pool` (one row per seed, in seed order) so
    the draw — by far the dominant per-run cost at small horizons — is
    skipped here; results are bit-identical because run streams resume
    exactly past their pool block (see :class:`_LazyStreams`).
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    if not 0.0 <= warmup < horizon:
        raise ValueError("warmup must lie in [0, horizon)")
    if service_distributions is not None and len(
        service_distributions
    ) != system.n_computers:
        raise ValueError(
            "service_distributions must have one entry per computer"
        )
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seeds must be nonempty")
    n_runs = len(seeds)
    row_key, loads_rows, distinct_profiles = _profile_loads(
        system, profiles, n_runs
    )
    cdf_rows = []
    for loads, profile in zip(loads_rows, distinct_profiles):
        # Per-computer user-attribution CDF: cumulative mixing
        # probabilities ``s_ji phi_j / lambda_i`` down the user axis
        # (columns of idle computers are unused and left at zero).
        contributions = profile.fractions * system.arrival_rates[:, None]
        probs = np.divide(
            contributions,
            loads[None, :],
            out=np.zeros_like(contributions),
            where=loads[None, :] > 0.0,
        )
        cdf = np.cumsum(probs, axis=0)
        cdf[-1, :] = 1.0
        # Transposed + contiguous: row i feeds searchsorted directly.
        cdf_rows.append(np.ascontiguousarray(cdf.T))

    n_users, n_computers = system.n_users, system.n_computers

    # Pre-draw each run's entire uniform demand in ONE generator call
    # (or accept the identical block pre-drawn by the caller).
    # Layout per run: for each computer (ascending index) a slot of
    # ``stages * size`` uniforms — gap, service (M/M/1 only) and
    # attribution draws, each ``size`` wide, where ``size`` covers the
    # horizon with a 6-sigma margin.  The slot geometry depends only on
    # the run's own profile, so a run's samples never depend on which
    # other runs share the batch (``replicate_until`` relies on this
    # when it grows batches chunk by chunk).
    lam_matrix = np.stack([loads_rows[key] for key in row_key])
    stages = 2 if service_distributions is not None else 3
    size_matrix, offsets, totals = _pool_layout(lam_matrix, horizon, stages)
    if uniform_pool is None:
        streams = _LazyStreams(seeds, totals, skip_pool=False)
        pool = np.zeros((n_runs, int(totals.max())))
        for r in range(n_runs):
            pool[r, : totals[r]] = streams[r].random(int(totals[r]))
    else:
        # Streams are reconstructed lazily *past* the pool block, so the
        # rare direct-draw paths (gap extension, general services) stay
        # bit-identical to the self-drawn case.
        streams = _LazyStreams(seeds, totals, skip_pool=True)
        pool = np.asarray(uniform_pool, dtype=float)
        if pool.ndim != 2 or pool.shape[0] != n_runs:
            raise ValueError(
                f"uniform_pool must have one row per seed "
                f"({n_runs}), got shape {pool.shape}"
            )
        if pool.shape[1] < int(totals.max()):
            raise ValueError(
                f"uniform_pool rows too narrow: need {int(totals.max())} "
                f"draws, got {pool.shape[1]}"
            )
    flat_pool = pool.ravel()
    pool_width = pool.shape[1]

    response_sums = np.zeros(n_runs * n_users)
    job_counts = np.zeros(n_runs * n_users, dtype=np.int64)
    computer_counts = np.zeros((n_runs, n_computers), dtype=np.int64)
    busy_time = np.zeros((n_runs, n_computers))

    column = None  # lazily sized [0, 1, ..., width) row used for masking
    for i in range(n_computers):
        mu = float(system.service_rates[i])
        runs_vec = np.flatnonzero(lam_matrix[:, i] > 0.0)
        if runs_vec.size == 0:
            continue
        lam_vec = lam_matrix[runs_vec, i]
        slot_sizes = size_matrix[runs_vec, i]
        sizes = slot_sizes.copy()
        width = int(sizes.max())
        if column is None or column.size < width:
            column = np.arange(width)
        col = column[:width]

        # Gather every run's gap uniforms out of its slot and invert the
        # exponential CDF for the whole batch in one vectorized pass.
        base = runs_vec * pool_width + offsets[runs_vec, i]
        drawn = col[None, :] < sizes[:, None]
        gaps_mat = -np.log1p(
            -flat_pool[np.where(drawn, base[:, None] + col[None, :], 0)]
        )
        gaps_mat /= lam_vec[:, None]
        gaps_mat[~drawn] = 0.0

        extended: set[int] = set()
        short = np.flatnonzero(
            gaps_mat.sum(axis=1) < horizon
        )  # pragma: no cover - 6-sigma margin
        for b in short:  # pragma: no cover - 6-sigma margin
            r = int(runs_vec[b])
            gaps = _extend_gaps(
                streams[r],
                gaps_mat[b, : sizes[b]].copy(),
                float(lam_vec[b]),
                horizon,
            )
            sizes[b] = gaps.size
            extended.add(b)
            if gaps.size > width:
                width = gaps.size
                if column.size < width:
                    column = np.arange(width)
                col = column[:width]
                grown = np.zeros((runs_vec.size, width))
                grown[:, : gaps_mat.shape[1]] = gaps_mat
                gaps_mat = grown
            gaps_mat[b, : gaps.size] = gaps
        if short.size:  # pragma: no cover - 6-sigma margin
            drawn = col[None, :] < sizes[:, None]
        arrivals_mat = np.cumsum(gaps_mat, axis=1)
        counts = ((arrivals_mat <= horizon) & drawn).sum(axis=1)

        # Service requirements: same gather-and-invert for M/M/1; general
        # distributions keep one draw per run (their samplers need the
        # generator itself).
        if service_distributions is None:
            in_slot = col[None, :] < slot_sizes[:, None]
            services_mat = -np.log1p(
                -flat_pool[
                    np.where(
                        in_slot,
                        (base + slot_sizes)[:, None] + col[None, :],
                        0,
                    )
                ]
            )
            services_mat /= mu
            for b in extended:  # pragma: no cover - 6-sigma margin
                k = int(counts[b])
                services_mat[b, :k] = streams[int(runs_vec[b])].exponential(
                    1.0 / mu, size=k
                )
        else:
            services_mat = np.zeros((runs_vec.size, width))
            for b, r in enumerate(runs_vec):
                k = int(counts[b])
                if k:
                    services_mat[b, :k] = np.asarray(
                        service_distributions[i].sample(
                            streams[int(r)], size=k
                        ),
                        dtype=float,
                    )

        # One Lindley pass for the whole batch (inputs are already
        # validated by construction, so skip straight to the core).
        padding = col[None, :] >= counts[:, None]
        waits = _lindley_padded(gaps_mat, services_mat, padding)
        responses = waits + services_mat
        completions = arrivals_mat + responses
        starts = arrivals_mat + waits

        counted = (arrivals_mat >= warmup) & (completions <= horizon)
        counted[padding] = False
        # Service rendered inside the measurement window: clip each job's
        # busy interval [start, completion] at the window edges so partial
        # jobs contribute their in-window share (unbiased at high rho,
        # unlike counting only fully-contained jobs).
        rendered = np.minimum(completions, horizon) - np.maximum(starts, warmup)
        np.maximum(rendered, 0.0, out=rendered)
        rendered[padding] = 0.0

        counted_per_row = counted.sum(axis=1)
        for b, r in enumerate(runs_vec):
            # Prefix-slice sum: the same pairwise reduction a lone run
            # would apply, independent of the batch composition.
            busy_time[r, i] = float(rendered[b, : counts[b]].sum())
        computer_counts[runs_vec, i] = counted_per_row

        # Attribute counted jobs to users: categorical draw over each
        # run's per-user contribution CDF, one slot uniform per job.
        # ``counted[b]`` selects row b's jobs in job order, so flattening
        # the boolean masks concatenates the rows exactly as the one-run
        # path would, row by row — responses and uniforms stay aligned.
        unif_valid = col[None, :] < counted_per_row[:, None]
        uoff = base + (stages - 1) * slot_sizes
        # The minimum keeps extended rows (whose jobs can outgrow their
        # slot) in bounds; their gathered values are overwritten below.
        unif_full = flat_pool[
            np.minimum(
                np.where(unif_valid, uoff[:, None] + col[None, :], 0),
                flat_pool.size - 1,
            )
        ]
        for b in extended:  # pragma: no cover - 6-sigma margin
            k = int(counted_per_row[b])
            unif_full[b, :k] = streams[int(runs_vec[b])].random(k)
        uniforms = unif_full[unif_valid]
        if uniforms.size == 0:
            continue
        flat_responses = responses[counted]
        job_runs = np.repeat(runs_vec, counted_per_row)
        # One inverse-CDF lookup per distinct profile (not per run),
        # written back in row order so responses and indices stay aligned.
        keys = sorted({row_key[int(r)] for r in runs_vec})
        if len(keys) == 1:
            users = np.searchsorted(
                cdf_rows[keys[0]][i], uniforms, side="right"
            )
        else:
            users = np.empty(uniforms.size, dtype=np.int64)
            job_keys = np.asarray(row_key, dtype=np.int64)[job_runs]
            for key in keys:
                subset = job_keys == key
                users[subset] = np.searchsorted(
                    cdf_rows[key][i], uniforms[subset], side="right"
                )
        indices = users + job_runs * n_users
        np.add.at(response_sums, indices, flat_responses)
        np.add.at(job_counts, indices, 1)

    window = horizon - warmup
    response_matrix = response_sums.reshape(n_runs, n_users)
    count_matrix = job_counts.reshape(n_runs, n_users)
    mean_matrix = np.divide(
        response_matrix,
        count_matrix,
        out=np.full((n_runs, n_users), np.nan),
        where=count_matrix > 0,
    )
    utilization_matrix = busy_time / window
    return [
        SimulationResult(
            user_mean_response_times=mean_matrix[r],
            user_job_counts=count_matrix[r].copy(),
            computer_utilizations=utilization_matrix[r],
            computer_job_counts=computer_counts[r].copy(),
            horizon=horizon,
            warmup=warmup,
        )
        for r in range(n_runs)
    ]


def simulate_profile_fast(
    system: DistributedSystem,
    profile: StrategyProfile,
    *,
    horizon: float,
    warmup: float = 0.0,
    seed: int | np.random.SeedSequence = 0,
    service_distributions=None,
) -> SimulationResult:
    """Vectorized equivalent of :func:`repro.simengine.simulator.simulate_profile`.

    Exploits the independence of the computers' queues under Bernoulli
    routing: each computer's aggregate arrival process is Poisson with
    rate ``lambda_i``, simulated wholesale with numpy, and each counted
    job is attributed to a user with probability proportional to the
    user's contribution ``s_ji phi_j / lambda_i``.

    The returned statistics have the same stationary distribution as the
    event engine's (both sample exact M/M/1 dynamics) but the two are not
    sample-path identical — they consume randomness in different orders.

    ``service_distributions`` (one per computer, see
    :mod:`repro.simengine.service`) turns each queue into M/G/1 — the
    Lindley recursion is distribution-agnostic.

    This is the one-run face of :func:`simulate_profile_fast_batch`
    (a single-row batch — same code path, same randomness, same result);
    replication studies should batch their runs instead of looping.
    """
    return simulate_profile_fast_batch(
        system,
        profile,
        horizon=horizon,
        warmup=warmup,
        seeds=[seed],
        service_distributions=service_distributions,
    )[0]
