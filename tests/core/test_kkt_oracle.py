"""KKT oracle for every best-reply path.

A player with job rate ``phi`` facing available rates ``a`` (service
rate minus everyone else's flow) picks flows ``x`` minimising
``D = (1/phi) sum_i x_i / (a_i - x_i)`` (paper Theorem 2.1).  The
problem is convex, so ``x`` is the best reply iff the KKT conditions
hold:

* the flows sum to the demand;
* ``0 <= x_i < a_i``;
* the marginal cost ``a_i / (a_i - x_i)^2`` is one value ``nu`` across
  the support;
* no computer off the support would have been better: its marginal cost
  at zero flow, ``1 / a_i``, is at least ``nu``.

A class of ``count`` symmetric members splits its total flow ``y``
evenly, so each member faces ``a = m - (count - 1) / count * y`` and
plays ``x = y / count``: the same conditions certify the symmetric
intra-class fill.  Every path is checked against these conditions
directly, not against a sibling implementation: the scalar kernel
``sqrt_waterfill_inplace``, its validating front ends ``sqrt_waterfill``
and ``optimal_fractions``, the sweep engine's fused reply, the sampled
reply with a full sample, a ring agent's update, the symmetric class
fill and, row by row, the one batched kernel ``optimal_fractions_batch``
and ``sampled_best_reply_batch`` (with a full sample), which runs it on
masked rates.  The equilibrium certificate, per user or per class, takes
its best-reply times from that same batched kernel.

A per-computer offset ``t_i`` (the communication delays of
``core/comm_delay.py``) adds to each marginal cost: ``a_i / (a_i -
x_i)^2 + t_i`` is one value ``nu`` across the support and ``1 / a_i +
t_i >= nu`` off it.  The delayed best reply ``delayed_best_response``,
the fused reply with an offset row and the symmetric class fill with an
offset are checked against that form.

The Newton polish (``newton_polish``) is checked the same way, one class
row at a time against the availability the rest of the polished profile
leaves it, and against whole reference solves; so is the default
(certificate-stop) per-user solve on the same edges.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import classes
from repro.core.best_response import optimal_fractions, optimal_fractions_batch
from repro.core.comm_delay import delayed_best_response
from repro.core.classes import (
    ClassAggregation,
    ClassNashSolver,
    _fused_class_reply_inplace,
    _symmetric_class_fill,
    newton_polish,
)
from repro.core.equilibrium import best_response_regrets
from repro.core.model import DistributedSystem
from repro.core.nash import NashSolver
from repro.core.reference import reference_solve
from repro.core.sampled import sampled_best_reply, sampled_best_reply_batch
from repro.core.strategy import StrategyProfile
from repro.core.waterfill import sqrt_waterfill, sqrt_waterfill_inplace
from repro.distributed.network import MessageBus
from repro.distributed.node import ComputerBoard, UserAgent
from repro.queueing.mm1 import expected_response_time

#: Rounding in a gap ``m_i - y_i`` next to a rate ``m_i`` is relative
#: ``~ eps * m_i / gap``; the fill's Newton stop (relative 1e-14 on the
#: demand) and its final rescale add ``~ 1e-14 * m_i / gap``.  The
#: marginal cost squares the gap, so the tolerance scales with the
#: conditioning ``max m_i / gap`` of the reply.
_BASE_RTOL = 1e-9
_CONDITIONING_RTOL = 1e-13


def assert_kkt(
    available: np.ndarray,
    flows: np.ndarray,
    demand: float,
    count: float = 1.0,
    *,
    computed_from: np.ndarray | None = None,
    offset: np.ndarray | None = None,
) -> float:
    """Assert ``flows`` is the (member) best reply; return the tolerance.

    ``computed_from`` holds the magnitudes ``available`` was computed
    from when they exceed it (``mu`` for the ``mu - lam + row`` of a
    whole profile): their rounding, not ``available``'s, sets the
    conditioning.  ``offset`` is a per-computer cost added to every
    marginal cost (zero when ``None``).
    """
    m = np.asarray(available, dtype=float)
    y = np.asarray(flows, dtype=float)
    a = m - (count - 1.0) / count * y
    x = y / count

    assert abs(y.sum() - demand) <= 1e-12 * demand, "flows must sum to demand"
    assert np.all(y >= 0.0), "flows must be nonnegative"
    support = y > 0.0
    assert support.any(), "a positive demand needs a support"
    assert np.all(x[support] < a[support]), "flows must stay below a_i"

    # a_i - x_i, without the cancellation of subtracting two O(m_i) terms.
    gap = m[support] - y[support]
    scale = m if computed_from is None else np.maximum(m, computed_from)
    conditioning = float((scale[support] / gap).max())  # reprolint: allow=R003 a float conditioning ratio, not a response time
    rtol = _BASE_RTOL + _CONDITIONING_RTOL * conditioning
    t = np.zeros_like(m) if offset is None else np.asarray(offset, dtype=float)
    marginal = a[support] / gap**2 + t[support]
    nu = float(marginal.min())
    assert float(marginal.max()) <= nu * (1.0 + rtol), (
        "marginal cost a_i/(a_i - x_i)^2 + t_i must be equal across the support"
    )
    off = ~support & (a > 0.0)
    assert np.all(1.0 / a[off] + t[off] >= nu * (1.0 - rtol)), (
        "a computer off the support would have been better"
    )
    return rtol


def member_time(available: np.ndarray, flows: np.ndarray, demand: float) -> float:
    """One member's expected response time, ``sum_i y_i / (m_i - y_i) / demand``."""
    support = flows > 0.0
    times = expected_response_time(flows[support], available[support])
    return float(flows[support] @ times) / demand


@st.composite
def reply_cases(draw: st.DrawFn, n: int | None = None) -> tuple[np.ndarray, float]:
    """(available rates, demand) at the edges where float code breaks.

    Rates over ``n`` computers (drawn when not given) span a ratio of up
    to 10^6, may tie (drawn from a small pool), and may include computers
    with zero or negative headroom (an overloaded start); the demand
    ranges from tiny against capacity up to utilization ``1 - 1e-9``.
    """
    if n is None:
        n = draw(st.integers(1, 10))
    spread = draw(st.sampled_from([1.0, 10.0, 1e3, 1e6]))
    if draw(st.booleans()):
        pool = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
        exponents = [draw(st.sampled_from(pool)) for _ in range(n)]
    else:
        exponents = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    rates = np.array([spread**e for e in exponents])
    if n > 1:
        mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        if not all(mask):
            rates[np.array(mask)] = draw(st.sampled_from([0.0, -1e-9, -1.0, -spread]))
    utilization = draw(
        st.sampled_from([1e-9, 0.5, 0.99, 1.0 - 1e-9]) | st.floats(0.01, 0.99)
    )
    return rates, utilization * float(rates[rates > 0.0].sum())


@st.composite
def reply_stacks(draw: st.DrawFn) -> tuple[np.ndarray, np.ndarray]:
    """1-4 :func:`reply_cases` rows over one fleet, stacked for a batch call."""
    rates, demand = draw(reply_cases())
    rows = [(rates, demand)] + [
        draw(reply_cases(n=rates.size)) for _ in range(draw(st.integers(0, 3)))
    ]
    return np.stack([r for r, _ in rows]), np.array([d for _, d in rows])


def fused_reply(available: np.ndarray, demand: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Run the singleton fused reply; return its availability, flows, time.

    The foreign load is arbitrary: ``mu = available + foreign`` and
    ``lam = foreign`` give back ``mu - lam + own = available`` (exactly
    where ``available`` is zero).
    """
    n = available.size
    foreign = np.linspace(0.5, 2.0, n) * max(float(np.abs(available).max()), 1.0)
    mu = available + foreign
    lam = foreign.copy()
    own = np.zeros(n)
    avail = np.empty(n)
    d = _fused_class_reply_inplace(mu, 1.0, demand, own, lam, avail)
    np.testing.assert_allclose(lam, foreign + own, rtol=1e-12)
    return avail, own, d


def kernel_reply(available: np.ndarray, demand: float) -> tuple[np.ndarray, np.ndarray, float]:
    flows = np.full(available.size, np.nan)  # every entry must be written
    d, t, support = sqrt_waterfill_inplace(available, demand, flows)
    assert np.all(flows[np.setdiff1d(np.arange(available.size), support)] == 0.0)
    # x_i = a_i - t sqrt(a_i) before the conservation rescale, up to the
    # rounding of that difference (~eps a_i: it decides a demand below
    # the rates' round-off).
    a = available[support]
    np.testing.assert_allclose(
        flows[support], a - t * np.sqrt(a),
        rtol=1e-6, atol=1e-9 * demand + 4.0 * np.finfo(float).eps * float(a.max()),
    )
    return available, flows, d


def optimal_fractions_reply(available, demand):
    reply = optimal_fractions(available, demand)
    flows = reply.fractions * demand
    assert np.isin(np.flatnonzero(reply.fractions > 0.0), reply.support).all()
    return available, flows, reply.expected_response_time


def sqrt_waterfill_reply(available, demand):
    loads = sqrt_waterfill(available, demand).loads
    return available, loads, member_time(available, loads, demand)


def sampled_full_reply(available, demand):
    n = available.size
    reply = sampled_best_reply(
        available, np.zeros(n), demand, seed=0, sweep=0, index=0, k=n
    )
    assert reply.polls == n
    return available, reply.flows, reply.expected_response_time


def agent_reply(available, demand):
    """One ``UserAgent`` update on a board with an offline computer.

    Rank 1's published flows leave ``available`` free for rank 0 on the
    first ``n`` computers (``mu = |a| + 1``); computer ``n`` is offline
    and, were it online, the fastest and emptiest of all.
    """
    n = available.size
    mu = np.abs(available) + 1.0
    board = ComputerBoard(np.append(mu, 1e7), n_users=2)
    board.publish(1, np.append(mu - available, 0.0))
    board.set_computer_online(n, False)
    observed = board.available_rates(0)
    assert observed[n] == 0.0
    agent = UserAgent(0, demand, board, MessageBus(2), tolerance=1e-9, max_sweeps=10)
    agent.start()
    flows = board.flows[0]
    assert flows[n] == 0.0
    return observed, flows, member_time(observed, flows, demand)


ReplyPath = Callable[[np.ndarray, float], tuple[np.ndarray, np.ndarray, float]]
REPLY_PATHS: dict[str, ReplyPath] = {
    "kernel": kernel_reply,
    "fused": fused_reply,
    "optimal_fractions": optimal_fractions_reply,
    "sqrt_waterfill": sqrt_waterfill_reply,
    "sampled_k_ge_n": sampled_full_reply,
    "agent_offline": agent_reply,
}


class TestScalarReplies:
    @pytest.mark.parametrize("path", sorted(REPLY_PATHS))
    @given(case=reply_cases())
    @settings(max_examples=150, deadline=None)
    @example(case=(np.array([7.0]), 7.0 * (1.0 - 1e-9)))
    @example(case=(np.array([3.0, 3.0, 3.0]), 4.0))
    @example(case=(np.array([1.0, 1e6, 0.0]), 0.5 * (1.0 + 1e6)))
    @example(case=(np.array([4.0, 0.0, -2.0, 1.0]), 2.5))
    # Demands below the rates' round-off: every cut flow rounds to <= 0.
    @example(case=(np.array([2.0, 2.0, 2.0]), 1e-16))
    @example(case=(np.array([4.0, 4.0]), 1e-300))
    @example(case=(np.array([3.0, 2.0]), 1e-17))
    def test_satisfies_kkt(self, path, case):
        available, demand = case
        avail, flows, d = REPLY_PATHS[path](available, demand)
        rtol = assert_kkt(avail, flows, demand)
        assert np.all(flows[avail <= 0.0] == 0.0)
        assert abs(d - member_time(avail, flows, demand)) <= rtol * d

    def test_overloaded_start_routes_around_computers_without_headroom(self):
        # The class-space view of a cold start: the others already load
        # computer 1 to capacity and overload computer 2, so the player's
        # foreign-free rates mu - lam + own are 0 and negative there.
        mu = np.array([6.0, 2.0, 2.0, 3.0])
        own = np.array([1.0, 0.5, 0.5, 0.0])
        lam = own + np.array([3.0, 2.0, 4.0, 2.0])
        avail = np.empty(4)
        d = _fused_class_reply_inplace(mu, 1.0, 2.5, own, lam, avail)
        np.testing.assert_array_equal(avail, [3.0, 0.0, -2.0, 1.0])
        assert own[1] == 0.0 and own[2] == 0.0
        assert_kkt(avail, own, 2.5)
        assert d == pytest.approx(member_time(avail, own, 2.5), rel=1e-12)
        np.testing.assert_allclose(lam, own + [3.0, 2.0, 4.0, 2.0], rtol=1e-15)


def optimal_fractions_batch_reply(available, demands):
    replies = optimal_fractions_batch(available, demands)
    return replies.fractions * demands[:, None], replies.expected_response_times


def sampled_batch_reply(available, demands):
    rows, n = available.shape
    batch = sampled_best_reply_batch(
        available, np.zeros_like(available), demands, seed=0, sweep=0, k=n
    )
    assert batch.polls == rows * n
    return batch.flows, batch.expected_response_times


BatchPath = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
BATCH_PATHS: dict[str, BatchPath] = {
    "optimal_fractions_batch": optimal_fractions_batch_reply,
    "sampled_batch_k_ge_n": sampled_batch_reply,
}


class TestBatchReplies:
    @pytest.mark.parametrize("path", sorted(BATCH_PATHS))
    @given(stack=reply_stacks())
    @settings(max_examples=300, deadline=None)
    @example(stack=(np.array([[7.0], [3.0]]), np.array([7.0 * (1.0 - 1e-9), 1.5])))
    @example(stack=(np.array([[1.0, 1e6, 0.0], [4.0, -2.0, 1.0]]), np.array([0.5e6, 2.5])))
    @example(stack=(np.array([[2.0, 2.0, 2.0], [1.0, 3.0, 2.0]]), np.array([1e-16, 2.0])))
    @example(stack=(np.array([[4.0, 4.0]]), np.array([1e-300])))
    @example(stack=(np.array([[3.0, 2.0], [3.0, 2.0]]), np.array([1e-17, 4.0])))
    def test_every_row_satisfies_kkt(self, path, stack):
        available, demands = stack
        flows, times = BATCH_PATHS[path](available, demands)
        for avail, row, demand, d in zip(available, flows, demands, times):
            rtol = assert_kkt(avail, row, demand)
            assert np.all(row[avail <= 0.0] == 0.0)
            assert abs(d - member_time(avail, row, demand)) <= rtol * d


class TestSymmetricFill:
    @given(reply_cases(), st.sampled_from([1, 2, 3, 10, 1000, 100_000]))
    @settings(max_examples=300, deadline=None)
    @example((np.array([7.0]), 7.0 * (1.0 - 1e-9)), 1000)
    @example((np.array([3.0, 3.0, 3.0]), 4.0), 10)
    @example((np.array([1.0, 1e6, 0.0]), 0.5 * (1.0 + 1e6)), 2)
    @example((np.array([2.0, 2.0, 2.0]), 1e-16), 1000)
    @example((np.array([4.0, 4.0]), 1e-300), 2)
    @example((np.array([3.0, 2.0]), 1e-17), 1)
    def test_satisfies_kkt(self, case, count):
        available, demand = case
        y, d = _symmetric_class_fill(available, demand, count)
        rtol = assert_kkt(available, y, demand, count)
        assert abs(d - member_time(available, y, demand)) <= rtol * d


@st.composite
def delayed_cases(draw: st.DrawFn) -> tuple[np.ndarray, float, np.ndarray]:
    """A :func:`reply_cases` draw plus nonnegative per-computer delays.

    The delays are ``scale / (median positive rate)`` times draws from
    [0, 1], for scales from zero up to 10^3 times the median service
    time.
    """
    rates, demand = draw(reply_cases())
    scale = draw(st.sampled_from([0.0, 1e-3, 1.0, 1e3]))
    spread = draw(st.lists(st.floats(0.0, 1.0), min_size=rates.size, max_size=rates.size))
    delays = scale / float(np.median(rates[rates > 0.0])) * np.array(spread)
    return rates, demand, delays


def delayed_reply(available, demand, delays):
    flows = delayed_best_response(available, delays, demand) * demand
    return available, flows, None


def fused_offset_reply(available, demand, delays):
    """The singleton fused reply with an offset row (see :func:`fused_reply`)."""
    n = available.size
    foreign = np.linspace(0.5, 2.0, n) * max(float(np.abs(available).max()), 1.0)
    mu = available + foreign
    lam = foreign.copy()
    own = np.zeros(n)
    avail = np.empty(n)
    d = _fused_class_reply_inplace(mu, 1.0, demand, own, lam, avail, delays)
    np.testing.assert_allclose(lam, foreign + own, rtol=1e-12)
    return avail, own, d


OffsetPath = Callable[
    [np.ndarray, float, np.ndarray], tuple[np.ndarray, np.ndarray, float | None]
]
OFFSET_PATHS: dict[str, tuple[OffsetPath, float]] = {
    "delayed_best_response": (delayed_reply, 1.0),
    "fused_offset": (fused_offset_reply, 1.0),
    **{
        f"fill_count_{count}": (
            lambda a, d, t, count=count: (
                a, *_symmetric_class_fill(a, d, count, t)
            ),
            float(count),
        )
        for count in (1, 2, 1000)
    },
}


class TestOffsetReplies:
    @pytest.mark.parametrize("path", sorted(OFFSET_PATHS))
    @given(case=delayed_cases())
    @settings(max_examples=200, deadline=None)
    @example(case=(np.array([7.0]), 7.0 * (1.0 - 1e-9), np.array([3.0])))
    @example(case=(np.array([1.0, 1e6, 0.0]), 0.5 * (1.0 + 1e6), np.array([0.0, 1e-3, 5.0])))
    @example(case=(np.array([10.0, 10.0]), 4.0, np.array([1e6, 0.0])))
    @example(case=(np.array([2.0, 2.0, 2.0]), 1e-16, np.array([0.5, 0.5, 0.5])))
    @example(case=(np.array([4.0, 0.0, -2.0, 1.0]), 2.5, np.array([1.0, 0.0, 0.0, 1.0])))
    def test_satisfies_kkt(self, path, case):
        available, demand, delays = case
        reply, count = OFFSET_PATHS[path]
        avail, flows, d = reply(available, demand, delays)
        rtol = assert_kkt(avail, flows, demand, count, offset=delays)
        assert np.all(flows[avail <= 0.0] == 0.0)
        if d is not None:
            cost = member_time(avail, flows, demand) + float(flows @ delays) / demand
            assert abs(d - cost) <= rtol * d


def class_system(
    mu: list[float] | np.ndarray,
    rates: list[float] | np.ndarray,
    counts: list[int] | np.ndarray,
    utilization: float,
) -> ClassAggregation:
    """Classes of ``counts`` members at relative ``rates``, scaled to load."""
    mu = np.asarray(mu, dtype=float)
    counts = np.asarray(counts, dtype=np.intp)
    demands = np.asarray(rates, dtype=float) * counts
    demands *= utilization * mu.sum() / demands.sum()
    return ClassAggregation(
        service_rates=mu, class_rates=demands / counts, counts=counts,
        demands=demands,
    )


def sweep_iterate(aggregation: ClassAggregation, sweeps: int = 1) -> np.ndarray:
    """Class-total flows after ``sweeps`` best-reply sweeps (unpolished)."""
    solver = ClassNashSolver(max_sweeps=sweeps, record_history=True, stop="norm")
    run = solver.solve(aggregation)
    return run.history[-1] * aggregation.demands[:, None]


def assert_polished_kkt(aggregation: ClassAggregation, flows: np.ndarray) -> None:
    """Every class row is its members' best reply to the rest of ``flows``."""
    lam = flows.sum(axis=0)
    mu = aggregation.service_rates
    for row, demand, count in zip(flows, aggregation.demands, aggregation.counts):
        assert_kkt(mu - lam + row, row, demand, count, computed_from=mu)


_RNG = np.random.default_rng(11)
POLISH_CASES: dict[str, ClassAggregation] = {
    "utilization_1-1e-9": class_system(
        _RNG.uniform(10.0, 100.0, 8), _RNG.uniform(0.5, 2.0, 5),
        [3, 1, 10, 2, 1], 1.0 - 1e-9,
    ),
    "mu_ratio_1e6": class_system(
        [1.0, 1e6, 1e3, 10.0, 1e6, 1.0], [1.0, 1.7, 0.6, 1.2], [1, 1, 4, 1], 0.7
    ),
    "mu_ratio_1e6_light": class_system([1.0, 1e6], [1.0, 2.0], [1, 1], 1e-6),
    "n1": class_system([42.0], [1.0, 1.0, 3.0], [1, 5, 1], 0.99),
    "n1_singletons": class_system([7.0], [1.0, 2.0], [1, 1], 1.0 - 1e-9),
    "tied_rates": class_system(
        [3.0, 3.0, 5.0, 5.0, 5.0], [1.0, 1.0, 2.0, 2.0], [1, 1, 4, 4], 0.9
    ),
    "tied_singletons": class_system([4.0] * 4, [1.0] * 3, [1] * 3, 0.6),
}


class TestNewtonPolish:
    @pytest.mark.parametrize("name", sorted(POLISH_CASES))
    @pytest.mark.parametrize("sweeps", [1, 2])
    def test_polished_profile_satisfies_kkt(self, name, sweeps):
        aggregation = POLISH_CASES[name]
        polished = newton_polish(aggregation, sweep_iterate(aggregation, sweeps))
        assert polished is not None
        assert_polished_kkt(aggregation, polished)

    @given(
        st.integers(1, 10),
        st.integers(1, 6),
        st.sampled_from([1.0, 10.0, 1e3, 1e6]),
        st.booleans(),
        st.sampled_from([0.3, 0.7, 0.9, 0.99, 1.0 - 1e-9]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_systems(self, n, c, spread, tied, utilization, seed):
        rng = np.random.default_rng(seed)
        mu = spread ** rng.uniform(0.0, 1.0, n) * rng.uniform(1.0, 2.0, n)
        rates = rng.uniform(0.5, 2.0, c)
        if tied:
            mu = rng.choice(mu[: max(1, n // 3)], n)
            rates = rng.choice(rates[: max(1, c // 3)], c)
        aggregation = class_system(
            mu, rates, rng.choice([1, 1, 2, 10, 1000], c), utilization
        )
        polished = newton_polish(aggregation, sweep_iterate(aggregation))
        assert polished is not None
        assert_polished_kkt(aggregation, polished)

    def test_idle_computer_on_the_support_boundary(self):
        # Add a computer whose marginal cost at zero flow, 1/mu, equals
        # the highest class multiplier nu_k of the equilibrium: it sits
        # exactly on that class's support boundary and carries no flow.
        base = POLISH_CASES["tied_rates"]
        equilibrium = newton_polish(base, sweep_iterate(base))
        assert equilibrium is not None
        h = base.service_rates - equilibrium.sum(axis=0)
        member = equilibrium / base.counts[:, None]
        on = member > 0.0
        nu = np.where(on, (h + member) / h**2, 0.0).sum(axis=1) / on.sum(axis=1)
        edge = ClassAggregation(
            service_rates=np.append(base.service_rates, 1.0 / nu.max()),
            class_rates=base.class_rates,
            counts=base.counts,
            demands=base.demands,
        )
        polished = newton_polish(edge, sweep_iterate(edge))
        assert polished is not None
        assert_polished_kkt(edge, polished)
        np.testing.assert_allclose(
            polished / edge.demands[:, None],
            np.pad(equilibrium / base.demands[:, None], ((0, 0), (0, 1))),
            rtol=0.0, atol=1e-9,
        )

    def test_zero_headroom_returns_none_and_leaves_flows_alone(self):
        aggregation = class_system([1.0, 2.0], [1.0], [1], 0.5)
        flows = np.array([[1.0, 0.5]])  # computer 0 has no headroom left
        before = flows.copy()
        assert newton_polish(aggregation, flows) is None
        np.testing.assert_array_equal(flows, before)

    def test_failed_polish_leaves_the_sweep_iterates_unchanged(self, monkeypatch):
        aggregation = POLISH_CASES["utilization_1-1e-9"]
        n = aggregation.n_computers
        # A sample_k >= n solve takes the exact path but never polishes.
        unpolished = ClassNashSolver(max_sweeps=4, sample_k=n).solve(aggregation)
        monkeypatch.setattr(classes, "newton_polish", lambda *args: None)
        failed = ClassNashSolver(max_sweeps=4).solve(aggregation)
        assert not failed.converged
        np.testing.assert_array_equal(
            failed.class_fractions, unpolished.class_fractions
        )
        np.testing.assert_array_equal(failed.norm_history, unpolished.norm_history)


def random_polish_system(
    n: int, c: int, spread: float, tied: bool, utilization: float, seed: int
) -> ClassAggregation:
    """The class systems ``test_random_systems`` draws, at any shape."""
    rng = np.random.default_rng(seed)
    mu = spread ** rng.uniform(0.0, 1.0, n) * rng.uniform(1.0, 2.0, n)
    rates = rng.uniform(0.5, 2.0, c)
    if tied:
        mu = rng.choice(mu[: max(1, n // 3)], n)
        rates = rng.choice(rates[: max(1, c // 3)], c)
    return class_system(mu, rates, rng.choice([1, 1, 2, 10, 1000], c), utilization)


class TestNewtonPolishAtSolveShapes:
    """The polish at the shapes of cold solves (c up to n / 2, n up to
    256), where its steps take the ``c x c`` Woodbury form.

    From a one-sweep iterate the polish gives up (``None``) on some of
    these systems, dense and reduced steps alike: near u = 0.99 its
    support changes and damped steps outlast the step budget.  A
    returned profile must pass the oracle; the give-up is pinned below.
    """

    @given(
        st.integers(16, 256).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(1, n // 2))
        ),
        st.sampled_from([1.0, 10.0, 1e3, 1e6]),
        st.booleans(),
        st.sampled_from([0.3, 0.7, 0.9, 0.99, 1.0 - 1e-9]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_wide_systems(self, shape, spread, tied, utilization, seed):
        n, c = shape
        aggregation = random_polish_system(n, c, spread, tied, utilization, seed)
        polished = newton_polish(aggregation, sweep_iterate(aggregation))
        if polished is not None:
            assert_polished_kkt(aggregation, polished)

    @pytest.mark.xfail(
        strict=True,
        reason="support changes and damped steps outlast the 30-step budget",
    )
    def test_polishes_a_wide_system_near_saturation(self):
        aggregation = random_polish_system(99, 6, 1e3, False, 0.99, 0)
        stats = classes.PolishStats()
        polished = newton_polish(aggregation, sweep_iterate(aggregation), stats)
        assert polished is not None, stats
        assert_polished_kkt(aggregation, polished)


def load_step_case(
    n: int, c: int, seed: int, *, nonpositive_diagonal: bool = False
) -> tuple[np.ndarray, ...]:
    """Random ``(weights, norm, slope, counts, rhs)`` of one polish step,
    with ``nu_k h_i`` in [1, 4] on the support (as near the equilibrium)."""
    rng = np.random.default_rng(seed)
    support = rng.random((c, n)) < rng.uniform(0.2, 1.0)
    support[np.arange(c), rng.integers(0, n, c)] = True
    h = rng.uniform(0.5, 2.0, n) * 10.0 ** rng.uniform(0, rng.choice([0, 1, 3, 6]), n)
    weights = h * h * support
    slope = (2.0 * rng.uniform(1.0, 4.0, (c, n)) - 1.0) * support
    counts = rng.choice([1.0, 2.0, 10.0, 1000.0], c)
    if nonpositive_diagonal:
        # nu_k h_i = 0 puts 1 - counts_k <= 0 on computer 0's diagonal.
        support[0, 0] = True
        weights[0, 0] = h[0] ** 2
        slope[:, 0] = -1.0 * support[:, 0]
    return weights, weights.sum(axis=1), slope, counts, rng.normal(size=n) * h


class TestLoadStep:
    """One polish step's load system, ``(D - U^T slope) s = rhs``, solved
    by ``_load_step`` against ``np.linalg.solve`` of the assembled dense
    matrix."""

    @staticmethod
    def solve_and_spy(case):
        """Check the step against the dense solve; return the shapes of
        the systems ``_load_step`` solved."""
        shapes = []
        solve = np.linalg.solve

        def spy(a, b):
            shapes.append(a.shape)
            return solve(a, b)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.linalg, "solve", spy)
            step = classes._load_step(*case)
        weights, norm, slope, counts, rhs = case
        matrix = -(weights * (counts / norm)[:, None]).T @ slope
        matrix[np.diag_indices(rhs.size)] += 1.0 + counts @ slope
        dense = np.linalg.solve(matrix, rhs)
        assert np.abs(step - dense).max() <= 1e-10 * np.abs(dense).max()
        return shapes

    @given(
        st.integers(2, 96).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.sampled_from(
                    [1, n // 4 + 1, n // 2 + 1, max(1, n - 16), n - 1, n, n + 5]
                ),
            )
        ),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_the_dense_solve(self, shape, seed):
        n, c = shape
        shapes = self.solve_and_spy(load_step_case(n, c, seed))
        reduced = c + classes._REDUCED_STEP_MARGIN <= n
        assert shapes == [(c, c) if reduced else (n, n)]

    @pytest.mark.parametrize(("n", "c"), [(64, 1), (64, 48), (250, 44), (32, 16)])
    def test_nonpositive_diagonal_takes_the_dense_solve(self, n, c):
        case = load_step_case(n, c, seed=n + c, nonpositive_diagonal=True)
        _, _, slope, counts, _ = case
        assert (1.0 + counts @ slope).min() <= 0.0
        assert self.solve_and_spy(case) == [(n, n)]


class TestPolishMatchesReferenceSolves:
    """Polished profiles equal whole reference solves (``core/reference.py``)."""

    @pytest.mark.parametrize(
        ("n", "m", "utilization", "spread", "seed"),
        [
            (8, 5, 0.7, 1.0, 0),
            (16, 6, 0.9, 1.0, 1),
            (6, 4, 0.95, 1e6, 5),
            (1, 3, 0.99, 1.0, 2),
            (5, 4, 0.6, 10.0, 3),
        ],
    )
    def test_singleton_users(self, n, m, utilization, spread, seed):
        rng = np.random.default_rng(seed)
        mu = spread ** rng.uniform(0.0, 1.0, n) * rng.uniform(10.0, 100.0, n)
        phi = rng.uniform(0.5, 2.0, m)
        phi *= utilization * mu.sum() / phi.sum()
        system = DistributedSystem(service_rates=mu, arrival_rates=phi)
        reference = reference_solve(system, tolerance=1e-15, max_sweeps=5000)
        assert reference.converged
        users = ClassAggregation.of_users(system)
        polished = newton_polish(users, sweep_iterate(users))
        assert polished is not None
        np.testing.assert_allclose(
            polished / phi[:, None], reference.profile.fractions,
            rtol=0.0, atol=1e-9,
        )

    def test_classes_match_their_expanded_users(self):
        system = DistributedSystem(
            service_rates=[30.0, 12.0, 50.0, 8.0],
            arrival_rates=[9.0, 4.0, 9.0, 4.0, 4.0, 20.0],
        )
        aggregation = classes.aggregate_users(system)
        assert aggregation.n_classes == 3
        polished = newton_polish(aggregation, sweep_iterate(aggregation))
        assert polished is not None
        reference = reference_solve(system, tolerance=1e-15, max_sweeps=5000)
        assert reference.converged
        np.testing.assert_allclose(
            aggregation.expand(polished / aggregation.demands[:, None]).fractions,
            reference.profile.fractions,
            rtol=0.0, atol=1e-9,
        )


def user_system(
    mu: list[float] | np.ndarray, rates: list[float] | np.ndarray, utilization: float
) -> DistributedSystem:
    """Users at relative job ``rates``, scaled to ``utilization``."""
    mu = np.asarray(mu, dtype=float)
    phi = np.asarray(rates, dtype=float)
    return DistributedSystem(
        service_rates=mu, arrival_rates=phi * (utilization * mu.sum() / phi.sum())
    )


def _with_boundary_computer(system: DistributedSystem) -> DistributedSystem:
    """``system`` plus an idle computer exactly on the support boundary.

    Its marginal cost at zero flow, ``1 / mu``, equals the highest user
    multiplier ``nu_j`` of the equilibrium, so it carries no flow.
    """
    equilibrium = reference_solve(system, tolerance=1e-15, max_sweeps=5000)
    x = equilibrium.profile.fractions * system.arrival_rates[:, None]
    h = system.service_rates - x.sum(axis=0)
    on = x > 0.0
    nu = np.where(on, (h + x) / h**2, 0.0).sum(axis=1) / on.sum(axis=1)
    return DistributedSystem(
        service_rates=np.append(system.service_rates, 1.0 / nu.max()),
        arrival_rates=system.arrival_rates,
    )


_USER_RNG = np.random.default_rng(11)
_TIED_USERS = user_system(
    [3.0, 3.0, 5.0, 5.0, 5.0], [1.0, 1.0, 2.0, 2.0, 2.0, 2.0], 0.9
)
#: Per-user analogues of ``POLISH_CASES``: (system, initialization).
USER_CASES: dict[str, tuple[DistributedSystem, str | StrategyProfile]] = {
    "utilization_1-1e-9": (
        user_system(
            _USER_RNG.uniform(10.0, 100.0, 8), _USER_RNG.uniform(0.5, 2.0, 5),
            1.0 - 1e-9,
        ),
        "proportional",
    ),
    "mu_ratio_1e6": (
        user_system([1.0, 1e6, 1e3, 10.0, 1e6, 1.0], [1.0, 1.7, 0.6, 1.2], 0.7),
        "zero",
    ),
    "mu_ratio_1e6_light": (user_system([1.0, 1e6], [1.0, 2.0], 1e-6), "zero"),
    "n1": (user_system([42.0], [1.0, 1.0, 3.0], 0.99), "proportional"),
    "tied_rates": (_TIED_USERS, "zero"),
    "support_boundary": (_with_boundary_computer(_TIED_USERS), "proportional"),
    # User 0 starts with all its flow on computer 0, which has no
    # headroom left: the first sweep must repair the start.
    "zero_headroom": (
        DistributedSystem(service_rates=[1.0, 2.0, 3.0], arrival_rates=[1.0, 0.5]),
        StrategyProfile(np.array([[1.0, 0.0, 0.0], [1 / 6, 1 / 3, 1 / 2]])),
    ),
}


def _edge_tolerance(reference) -> float:
    """1e-6, relative to the time scale once times exceed 1.

    The certificate is an absolute regret, and its rounding floor grows
    with the times: at utilization ``1 - 1e-9`` they are ~2e7.
    """
    return 1e-6 * max(1.0, float(reference.user_times.max()))


class TestDefaultSolverOnTheEdges:
    """The default per-user solve certifies and lands on the reference."""

    @pytest.mark.parametrize("name", sorted(USER_CASES))
    def test_certifies_and_matches_the_reference(self, name):
        system, init = USER_CASES[name]
        reference = reference_solve(system, tolerance=1e-15, max_sweeps=5000)
        assert reference.converged
        solver = NashSolver(tolerance=_edge_tolerance(reference))
        result = solver.solve(system, init)
        assert result.converged
        certificate = best_response_regrets(system, result.profile)
        assert certificate.epsilon <= solver.tolerance
        np.testing.assert_allclose(
            result.profile.fractions, reference.profile.fractions,
            rtol=0.0, atol=1e-9,
        )
        # The solve's own certificate is the one best_response_regrets
        # computes.  Regrets are differences of times, so they match to
        # 1e-12 of the time scale, times mu / headroom: both sides round
        # the loads once, and the best replies see that rounding divided
        # by the headroom (at utilization 1 - 1e-9 they differ by ~1e-7
        # of the time scale).
        reused = result.certificate
        assert reused is not None
        assert reused.epsilon <= solver.tolerance
        np.testing.assert_allclose(
            reused.user_times, certificate.user_times, rtol=1e-12, atol=0.0
        )
        np.testing.assert_array_equal(result.user_times, reused.user_times)
        mu = system.service_rates
        lam = system.loads(result.profile.fractions)
        conditioning = (mu * expected_response_time(lam, mu)).max()  # mu / headroom
        scale = float(certificate.user_times.max() * conditioning)
        np.testing.assert_allclose(
            reused.regrets, certificate.regrets, rtol=0.0, atol=1e-12 * scale
        )

    @pytest.mark.parametrize("name", sorted(USER_CASES))
    def test_without_the_polish_it_truncates_the_norm_run(self, name, monkeypatch):
        system, init = USER_CASES[name]
        reference = reference_solve(system, tolerance=1e-15, max_sweeps=5000)
        tolerance = _edge_tolerance(reference)
        norm_run = NashSolver(
            tolerance=tolerance, record_history=True, stop="norm"
        ).solve(system, init)
        monkeypatch.setattr(classes, "newton_polish", lambda *args: None)
        default = NashSolver(tolerance=tolerance, record_history=True).solve(
            system, init
        )
        assert default.iterations <= norm_run.iterations
        np.testing.assert_array_equal(
            default.norm_history, norm_run.norm_history[: default.iterations]
        )
        for ours, theirs in zip(default.profile_history, norm_run.profile_history):
            np.testing.assert_array_equal(ours.fractions, theirs.fractions)
        np.testing.assert_array_equal(
            default.profile.fractions,
            norm_run.profile_history[default.iterations - 1].fractions,
        )
