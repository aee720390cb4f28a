"""The NASH ring protocol under power-of-k sampled information.

Sampling is the ring loop's second information model, next to full
observation.  A full-information agent observes all ``n`` computers
before each best reply, an ``O(m n)`` cost per sweep that dwarfs the
``O(m)`` token hops.  A :class:`SampledUserAgent` polls only its current
support (free: its own jobs measure those queues) plus ``k`` seeded
random computers (:mod:`repro.core.sampled`), ``O(m k)`` per sweep.
:func:`run_sampled_nash_protocol` runs the ring loop of
:mod:`repro.distributed.runtime` over the reliable bus with these agents.

Each update's probe count rides the token next to the norm
(``Message.polls``); the initiator emits every circulation's ring-wide
poll cost as one ``protocol.sample`` event, so the trace alone
reconstructs ``messages_sent = token/terminate hops + polls``.  With
``k >= n`` every update pays ``n`` polls: that run *is* the
full-information baseline the EXT11 message-reduction figures divide by.

Agent ``j``'s ``l``-th update draws ``sample_indices(seed, l, j, n, k)``,
the same sample the sequential :class:`~repro.core.nash.NashSolver` draws
for user ``j`` in sweep ``l``, so the ring computes the sequential
sampled solver's iterates up to board-summation round-off, and exactly
the base protocol's when ``k >= n``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.classes import ClassAggregation, certificate_or_none
from repro.core.model import DistributedSystem
from repro.core.nash import DEFAULT_MAX_SWEEPS, DEFAULT_TOLERANCE, Initialization
from repro.core.sampled import (
    SampleCertificate,
    check_seed,
    reply_set,
    sample_indices,
    widen_reply_set,
)
from repro.core.strategy import StrategyProfile
from repro.core.waterfill import sqrt_waterfill_inplace
from repro.distributed.messages import Message
from repro.distributed.network import MessageBus
from repro.distributed.node import UserAgent
from repro.distributed.runtime import ProtocolOutcome, _circulate, _finish
from repro.telemetry.trace import Tracer, current_tracer

__all__ = [
    "SampledProtocolOutcome",
    "SampledUserAgent",
    "run_sampled_nash_protocol",
]


class SampledUserAgent(UserAgent):
    """A ring agent that best-responds over ``support ∪ k-sample``.

    The update observes the board only at the reply set — an O(k) poll
    via :meth:`~repro.distributed.node.ComputerBoard.available_rates_at`
    — and falls back to the deterministic widening scan (extra polls,
    honestly counted) when the sampled capacity cannot carry the job
    rate, e.g. on a cold start from the all-zero profile.
    """

    def __init__(self, *args, sample_k: int, seed: int = 0, **kwargs):
        super().__init__(*args, **kwargs)
        if sample_k < 1:
            raise ValueError("sample_k must be at least 1")
        self.sample_k = int(sample_k)
        self._seed = check_seed(seed)
        #: Completed updates — the agent's local sweep counter, which by
        #: ring construction equals the sequential solver's sweep index
        #: for this user, so both draw identical samples.
        self._updates = 0

    def _update_delta(self) -> float:
        board = self._board
        n = board.service_rates.size
        sweep = self._updates
        indices = sample_indices(self._seed, sweep, self.rank, n, self.sample_k)
        chosen = reply_set(board.flows[self.rank], indices)
        polls = int(indices.size)
        observed = board.available_rates_at(self.rank, chosen)
        if self.job_rate >= float(np.clip(observed, 0.0, None).sum()):
            # The sampled capacity cannot carry the demand: widen the
            # reply set deterministically, paying for every newly
            # examined computer.
            available = board.available_rates(self.rank)
            chosen, extra = widen_reply_set(
                chosen,
                available,
                self.job_rate,
                seed=self._seed,
                sweep=sweep,
                index=self.rank,
            )
            polls += extra
            observed = available[chosen]
        chosen_flows = np.empty_like(observed)
        reply_time, _, _ = sqrt_waterfill_inplace(observed, self.job_rate, chosen_flows)
        flows = np.zeros(n)
        flows[chosen] = chosen_flows
        board.publish(self.rank, flows)
        self._updates += 1
        self.polls += polls
        self._last_update_polls = polls
        if self._tracer.enabled:
            self._tracer.count("protocol.messages.probe", polls)
        delta = abs(reply_time - self._previous_time)
        self._previous_time = reply_time
        return delta

    def _record_circulation(self, message: Message) -> None:
        # The returning token carries the circulation's ring-wide poll
        # cost next to its norm; one event per sweep reconstructs the
        # whole poll economics from the trace (see protocol_summary).
        if self._tracer.enabled:
            self._tracer.emit(
                "protocol.sample",
                index=len(self.norm_history) - 1,
                sweep=message.sweep,
                norm=message.norm,
                k=self.sample_k,
                polls=message.polls,
            )


@dataclass(frozen=True, kw_only=True)
class SampledProtocolOutcome(ProtocolOutcome):
    """A sampled protocol run: equilibrium result plus message economics.

    ``messages_sent`` is the honest total cost — bus messages (token
    hops + termination) **plus** availability polls, since under partial
    information every probe is a message to a computer.  The
    full-information baseline is the same driver at ``k = n``, where
    every update pays ``n`` polls.
    """

    bus_messages: int
    polls: int
    sample_k: int
    epsilon: float


def run_sampled_nash_protocol(
    system: DistributedSystem,
    *,
    sample_k: int,
    seed: int = 0,
    init: Initialization | StrategyProfile = "proportional",
    tolerance: float = DEFAULT_TOLERANCE,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    record_transcript: bool = True,
    tracer: Tracer | None = None,
) -> SampledProtocolOutcome:
    """Execute the ring protocol under power-of-k sampled information.

    Mirrors :func:`repro.distributed.runtime.run_nash_protocol` —
    ``protocol.start`` / ``protocol.deliver`` (+ per-kind counters) /
    ``protocol.sweep`` / ``protocol.done`` — and adds the sampled
    accounting: a ``protocol.messages.probe`` counter per update and one
    ``protocol.sample`` event per completed circulation carrying that
    sweep's ring-wide poll cost.  The result's
    :class:`~repro.core.sampled.SampleCertificate` reports the **true**
    global epsilon of the final profile against exact full-information
    best responses.
    """
    tracer = tracer if tracer is not None else current_tracer()
    k = min(sample_k, system.n_computers)
    bus = MessageBus(system.n_users, record_transcript=record_transcript)
    run = _circulate(
        system,
        bus,
        SampledUserAgent,
        driver="sampled",
        start={"k": k, "tolerance": tolerance, "max_sweeps": max_sweeps},
        init=init,
        tracer=tracer,
        tolerance=tolerance,
        max_sweeps=max_sweeps,
        sample_k=sample_k,
        seed=seed,
    )
    exact = certificate_or_none(
        ClassAggregation.of_users(system), run.profile.fractions
    )
    norms = run.norms
    certificate = SampleCertificate(
        k=k,
        n_computers=system.n_computers,
        sweeps=int(norms.size),
        polls=run.polls,
        sampled_norm=float(norms[-1]) if norms.size else 0.0,
        epsilon=float("inf") if exact is None else exact.epsilon,
    )
    result = _finish(system, run, tolerance, tracer, "sampled", certificate)
    return SampledProtocolOutcome(
        result=result,
        messages_sent=run.messages + run.polls,
        transcript=bus.transcript,
        bus_messages=run.messages,
        polls=run.polls,
        sample_k=k,
        epsilon=certificate.epsilon,
    )
