"""Power-of-k sampled best replies — partial-information NASH.

The paper's NASH scheme assumes every user observes the available rate
of **all** ``n`` computers before each best reply.  At scale that
information model is the expensive part: the ring protocol ships
``O(m n)`` observations per sweep, and real schedulers long ago moved to
*power of k choices* — probe a few queues, pick among those (Mitzenmacher
2001).  This module brings that information model to the game:

* a user always knows the availability of the computers it **currently
  uses** — its own jobs measure those queues for free;
* per reply it spends ``k`` active probes on a seeded random sample of
  computers, and
* best-responds *exactly* (the same sqrt water-fill of Theorem 2.1) over
  the union ``R = support ∪ sample``, leaving all other strategies
  untouched.

Because the reply set always contains the current support, the restricted
reply is feasible from any stable profile, conserves the user's flow, and
never increases the user's expected response time — each sweep is still a
potential-style improvement step, just over a shrunken action set.  With
``k >= n`` the sample is the full computer set and the reply degenerates
to the exact OPTIMAL response.

Determinism: every draw comes from ``default_rng((seed, sweep, index))``
— a fresh generator per (solver seed, sweep number, user index) — so the
sequential solver, the Jacobi batch and the distributed protocol all see
*identical* samples, replayable across process-pool workers (R007).

Cold starts: from the all-zero profile the first reply has an empty
support, and ``k`` random computers may not offer enough capacity.  The
reply then *widens deterministically*: a seeded permutation of the
computers is scanned in doubling prefixes until the reply set's positive
capacity exceeds the demand, each newly examined computer counted as one
more poll.  Genuine infeasibility (the full system cannot carry the
demand) still raises :class:`InfeasibleDemand`.

Poll accounting is uniform and honest: every sampled index costs one
poll even when it happens to sit in the support, so full information
(``k = n``) costs exactly ``n`` polls per reply — the baseline the
message-reduction claims in EXT11 are measured against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from repro._typing import FloatArray
from repro.core.best_response import optimal_fractions_batch
from repro.core.waterfill import InfeasibleDemand, sqrt_waterfill_inplace

__all__ = [
    "SampleCertificate",
    "SampledBatchReply",
    "SampledReply",
    "check_seed",
    "reply_set",
    "sample_indices",
    "sampled_reply_set",
    "sampled_best_reply",
    "sampled_best_reply_batch",
    "widen_reply_set",
]

IndexArray = npt.NDArray[np.intp]

#: Sub-stream tag for the widening permutation, so it never aliases the
#: sample draw made from ``(seed, sweep, index)``.
_WIDEN_STREAM = 1


def check_seed(seed: int) -> int:
    """``seed`` if it can seed the sample streams, else ``ValueError``.

    :func:`numpy.random.default_rng` takes only non-negative integers, and
    it is first called mid-solve, so solvers and agents check up front.
    """
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def sample_indices(
    seed: int, sweep: int, index: int, n: int, k: int
) -> IndexArray:
    """The ``k`` computers player ``index`` probes in sweep ``sweep``.

    A fresh ``default_rng((seed, sweep, index))`` per call makes the
    draw a pure function of its arguments: the sequential solver, the
    Jacobi batch, the ring protocol and any process-pool worker all
    reproduce the same sample without sharing generator state.  With
    ``k >= n`` the "sample" is the full computer set ``arange(n)``.
    """
    if k < 1:
        raise ValueError("sample size k must be at least 1")
    if k >= n:
        return np.arange(n, dtype=np.intp)
    rng = np.random.default_rng((seed, sweep, index))
    drawn = rng.choice(n, size=k, replace=False)
    return np.sort(drawn.astype(np.intp))


def reply_set(own_flows: FloatArray, indices: IndexArray) -> IndexArray:
    """Reply set ``R = support(own flows) ∪ sampled indices``, sorted.

    The support comes for free (the user's own jobs measure those
    queues); the sampled indices are the paid probes.  Keeping the
    support inside ``R`` is what makes the restricted reply feasible and
    monotone from any stable profile.
    """
    mask = own_flows > 0.0
    mask[indices] = True
    merged: IndexArray = np.flatnonzero(mask)
    return merged


def widen_reply_set(
    reply: IndexArray,
    available: FloatArray,
    demand: float,
    *,
    seed: int,
    sweep: int,
    index: int,
) -> tuple[IndexArray, int]:
    """Grow ``reply`` until its positive capacity strictly exceeds ``demand``.

    Scans a seeded permutation of all computers in doubling prefixes —
    the deterministic "keep probing" fallback for cold starts whose
    initial sample cannot carry the demand.  Returns the (possibly
    unchanged) reply set and the number of **additional** polls spent,
    i.e. newly examined computers.  Raises :class:`InfeasibleDemand`
    once the scan covers every computer and the demand still does not
    fit — at that point the infeasibility is a property of the system,
    not of the sample.
    """
    capacity = float(np.clip(available[reply], 0.0, None).sum())
    if demand < capacity:
        return reply, 0
    n = available.shape[0]
    widen_rng = np.random.default_rng((seed, sweep, index, _WIDEN_STREAM))
    perm = widen_rng.permutation(n).astype(np.intp)
    polls = 0
    size = max(2 * int(reply.size), 2)
    while True:
        prefix = perm[: min(size, n)]
        widened: IndexArray = np.union1d(reply, prefix).astype(np.intp)
        polls += int(widened.size - reply.size)
        reply = widened
        capacity = float(np.clip(available[reply], 0.0, None).sum())
        if demand < capacity:
            return reply, polls
        if size >= n:
            raise InfeasibleDemand(demand, capacity)
        size *= 2


def sampled_reply_set(
    available: FloatArray,
    own_flows: FloatArray,
    demand: float,
    *,
    seed: int,
    sweep: int,
    index: int,
    k: int,
) -> tuple[IndexArray, int]:
    """The reply set of one sampled reply and the polls it costs.

    Draws player ``index``'s ``k`` probes (:func:`sample_indices`), joins
    its free support (:func:`reply_set`) and widens the union when it
    cannot carry ``demand`` (:func:`widen_reply_set`): the one rule every
    sampled reply, per user, batched or per class, follows.
    """
    indices = sample_indices(seed, sweep, index, available.shape[0], k)
    chosen, extra = widen_reply_set(
        reply_set(own_flows, indices),
        available,
        demand,
        seed=seed,
        sweep=sweep,
        index=index,
    )
    return chosen, int(indices.size) + extra


@dataclass(frozen=True)
class SampledReply:
    """One sampled best reply.

    Attributes
    ----------
    flows:
        The player's new flow row, full length ``(n,)`` — zero outside
        the reply set.
    expected_response_time:
        The player's expected response time under the new flows.
    reply_set:
        The set ``R`` the water-fill actually ran over.
    polls:
        Probes spent: the sample size plus any widening scan.
    """

    flows: FloatArray
    expected_response_time: float
    reply_set: IndexArray
    polls: int


def sampled_best_reply(
    available: FloatArray,
    own_flows: FloatArray,
    job_rate: float,
    *,
    seed: int,
    sweep: int,
    index: int,
    k: int,
) -> SampledReply:
    """Best reply restricted to ``support ∪ k-sample`` (Gauss-Seidel form).

    ``available`` holds the player's foreign-free rates
    ``mu - lam + own`` over **all** computers; only the entries inside
    the reply set are consulted, which is exactly the information the
    player has (free feedback on its support, ``k`` paid probes).  The
    water-fill itself is the unmodified OPTIMAL kernel
    (:func:`~repro.core.waterfill.sqrt_waterfill_inplace`) on the
    restricted rate vector, so with ``k >= n`` this *is* the exact best
    response.
    """
    chosen, polls = sampled_reply_set(
        available, own_flows, job_rate, seed=seed, sweep=sweep, index=index, k=k
    )
    chosen_flows = np.empty(chosen.size)
    d, _, _ = sqrt_waterfill_inplace(available[chosen], job_rate, chosen_flows)
    flows = np.zeros(available.shape[0])
    flows[chosen] = chosen_flows
    return SampledReply(
        flows=flows,
        expected_response_time=d,
        reply_set=chosen,
        polls=polls,
    )


@dataclass(frozen=True)
class SampledBatchReply:
    """All players' sampled best replies against one frozen profile.

    ``flows`` is the ``(m, n)`` matrix of new flow rows;
    ``expected_response_times`` the per-player times under them;
    ``polls`` the total probes spent across the batch.
    """

    flows: FloatArray
    expected_response_times: FloatArray
    polls: int


def sampled_best_reply_batch(
    available: FloatArray,
    own_flows: FloatArray,
    job_rates: FloatArray,
    *,
    seed: int,
    sweep: int,
    k: int,
) -> SampledBatchReply:
    """Jacobi form: every player's sampled reply to the *same* profile.

    Row ``j`` of ``available`` is player ``j``'s foreign-free rate
    vector.  Computers outside a player's reply set are masked to zero
    availability, which the batched best reply
    (:func:`~repro.core.best_response.optimal_fractions_batch`) already
    treats as unavailable per row — so the whole sampled sweep is one
    vectorized kernel call after an O(m·k) masking pass.
    """
    rates = np.asarray(job_rates, dtype=float)
    masked = np.zeros_like(available)
    polls = 0
    for j in range(available.shape[0]):
        chosen, p = sampled_reply_set(
            available[j], own_flows[j], float(rates[j]),
            seed=seed, sweep=sweep, index=j, k=k,
        )
        polls += p
        masked[j, chosen] = available[j, chosen]
    replies = optimal_fractions_batch(masked, rates)
    flows = np.asarray(replies.fractions, dtype=float) * rates[:, None]
    times = np.asarray(replies.expected_response_times, dtype=float)
    return SampledBatchReply(flows=flows, expected_response_times=times, polls=polls)


@dataclass(frozen=True)
class SampleCertificate:
    """What a sampled solve knew, spent and actually achieved.

    ``sampled_norm`` is the last sweep norm *as the sampled players saw
    it* — movement over reply sets only.  ``sampled_epsilon`` is the
    largest regret the players observed over their reply sets at the
    last stop-rule check — the epsilon a ``k < n`` class solve with a
    multi-member class stops on — or ``None`` when no check ran (norm
    rule, per-user solves, ``k >= n``).  ``epsilon`` is the **true**
    global certificate (max per-user regret against the exact,
    full-information best response), evaluated once at the end: the
    honest answer to "how far from the real Nash equilibrium did partial
    information land us?".  ``polls`` counts every availability probe
    spent, widening scans included; with ``k = n`` it is exactly
    ``players × n × sweeps``, the full-information baseline.
    """

    k: int
    n_computers: int
    sweeps: int
    polls: int
    sampled_norm: float
    epsilon: float
    sampled_epsilon: float | None = None

    @property
    def full_information(self) -> bool:
        return self.k >= self.n_computers
