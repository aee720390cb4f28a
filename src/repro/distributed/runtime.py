"""The ring loop of the distributed NASH protocol, and its reliable driver.

Every protocol driver runs one circulation loop, :func:`_circulate`: one
agent per user on a shared :class:`ComputerBoard`, the initiator sends
the first token, and each step delivers every pending message until all
agents have finished and all mailboxes are empty.  A driver is a thin
wrapper that picks three things:

* **the bus** — reliable :class:`MessageBus`, drop/duplicate
  :class:`~repro.distributed.faults.LossyMessageBus` or crash-aware
  :class:`~repro.distributed.chaos.CrashyMessageBus`.  On a bus that
  ``loses_messages``, a step that delivers nothing retransmits each
  sender's last message to receivers that still need it;
* **the agent class** — full-information :class:`UserAgent`,
  deduplicating ``DedupingAgent`` or sampled ``SampledUserAgent``;
* **a supervisor** — only the resilient driver's
  :class:`~repro.distributed.chaos.RingSupervisor`, called at fixed
  points of each step.

:func:`run_nash_protocol` is the reliable wrapper.  The token ring
serializes the updates in user order, so it computes the sequential
solver's iterates, sweep counts and norms up to floating-point round-off
(the board and the model sum the flows in different orders), a
cross-check the test suite enforces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.model import DistributedSystem
from repro.core.nash import (
    DEFAULT_MAX_SWEEPS,
    DEFAULT_TOLERANCE,
    Initialization,
    NashResult,
    initial_profile,
)
from repro.core.sampled import SampleCertificate
from repro.core.strategy import StrategyProfile
from repro.distributed.messages import Message
from repro.distributed.network import MessageBus
from repro.distributed.node import ComputerBoard, UserAgent
from repro.telemetry.trace import Tracer, current_tracer

if TYPE_CHECKING:
    from repro.distributed.chaos import RingSupervisor

__all__ = ["ProtocolOutcome", "run_nash_protocol", "seed_initial_state"]


@dataclass(frozen=True)
class ProtocolOutcome:
    """A protocol run: the Nash result plus transport-level diagnostics.

    Attributes
    ----------
    result:
        The equilibrium outcome, identical in shape to the sequential
        solver's.
    messages_sent:
        Total messages delivered on the bus (token hops + termination).
    transcript:
        Full ordered message log (for protocol-level assertions).
    retransmissions:
        Messages re-sent by the stall-recovery path (always zero on the
        reliable bus; the fault-tolerant drivers report their retries
        here so the overhead accounting is one subtraction away from
        ``messages_sent``).
    """

    result: NashResult
    messages_sent: int
    transcript: tuple[Message, ...]
    retransmissions: int = 0


def seed_initial_state(
    system: DistributedSystem,
    board: ComputerBoard,
    agents: list[UserAgent],
    init: Initialization | StrategyProfile,
) -> None:
    """Publish the initialization and seed the ``D_j^{(0)}`` baselines.

    Mirrors the sequential solver exactly (see ``NashSolver.solve``): the
    profile's flows are *always* published — NASH_0's zeros are a no-op,
    but a partial or overloaded starting profile is real state the first
    sweep must react to — while the baselines are the profile's expected
    response times only when the profile both conserves flow and keeps
    every computer stable; otherwise they stay zero, the NASH_0
    convention.  ``tests/distributed/test_runtime.py`` pins the parity on
    partial and overloaded starts.
    """
    profile0 = initial_profile(system, init)
    flows0 = profile0.fractions * system.arrival_rates[:, None]
    for j in range(len(agents)):
        board.publish(j, flows0[j])
    times0 = np.zeros(len(agents))
    if bool(np.allclose(profile0.fractions.sum(axis=1), 1.0)):
        try:
            times0 = system.user_response_times(profile0.fractions)
        except ValueError:
            # Conserving but unstable (e.g. a uniform split overloading a
            # slow computer): no finite expected times — NASH_0 baselines.
            pass
    for j, agent in enumerate(agents):
        agent._previous_time = float(times0[j])


@dataclass(frozen=True)
class _Circulation:
    """What one run of the ring loop leaves behind."""

    profile: StrategyProfile
    norms: np.ndarray
    #: Messages delivered and handled, and stall retransmissions.
    messages: int
    retransmissions: int
    #: Loop steps; each delivers every message pending at its start.
    steps: int
    #: Availability polls the agents spent (zero under full information).
    polls: int


def _circulate(
    system: DistributedSystem,
    bus: MessageBus,
    agent_type: type[UserAgent],
    *,
    driver: str,
    start: dict[str, Any],
    init: Initialization | StrategyProfile,
    tracer: Tracer,
    supervisor: RingSupervisor | None = None,
    max_retransmissions: float = math.inf,
    **agent_args: Any,
) -> _Circulation:
    """Run the token ring over ``bus`` until it is finished and quiet.

    ``start`` holds the driver's knobs for the ``protocol.start`` event;
    ``agent_args`` go to every ``agent_type`` constructor.
    """
    trace = tracer.enabled
    board = ComputerBoard(system.service_rates, system.n_users)
    agents = [
        agent_type(j, float(rate), board, bus, tracer=tracer, **agent_args)
        for j, rate in enumerate(system.arrival_rates)
    ]
    seed_initial_state(system, board, agents, init)
    tracer.emit(
        "protocol.start",
        driver=driver,
        users=system.n_users,
        computers=system.n_computers,
        **start,
    )

    # Each sender's most recent outbound message, recorded before the
    # transport rolls its dice: a dropped message is tracked too, since
    # the sender believes it sent.  This log feeds retransmission.
    last_sent: dict[int, Message] = {}
    if bus.loses_messages:
        bus.add_outbox_hook(
            lambda message: last_sent.__setitem__(message.sender, message)
        )
    if supervisor is not None:
        supervisor.begin(board, agents, bus, last_sent)

    agents[0].start()
    messages = retransmissions = steps = 0
    # The token ring is strictly sequential, so draining pending ranks in
    # order is a faithful (and deterministic) schedule.
    pending = bus.pending_ranks()
    while pending or not all(agent.finished for agent in agents):
        steps += 1
        if supervisor is not None:
            supervisor.before_delivery(steps)
            pending = bus.pending_ranks()
        for rank in pending:
            message = bus.recv(rank)
            if trace:
                kind = message.kind.name.lower()
                tracer.emit(
                    "protocol.deliver",
                    kind=kind,
                    sender=message.sender,
                    receiver=message.receiver,
                    sweep=message.sweep,
                    norm=message.norm,
                )
                tracer.count(f"protocol.messages.{kind}")
            agents[rank].handle(message)
        delivered = len(pending)
        messages += delivered
        if supervisor is not None:
            supervisor.after_delivery(steps, delivered)
        pending = bus.pending_ranks()
        if delivered or all(agent.finished for agent in agents):
            continue
        if supervisor is not None and not supervisor.retransmit_due():
            continue
        # Ring stalled: a message was lost.  Retransmit the most recent
        # outbound message of every agent whose successor still needs it.
        # (A finished receiver already has everything it will ever act
        # on — retransmitting TERMINATE to it would only burn messages.)
        resent = retransmissions
        blocked = False
        for _sender, message in sorted(last_sent.items()):
            receiver = message.receiver
            if agents[receiver].finished:
                continue
            if supervisor is not None and supervisor.suspects(receiver, steps):
                blocked = True
                continue
            if retransmissions >= max_retransmissions:
                raise RuntimeError("retransmission budget exhausted")
            bus.resend(message)
            retransmissions += 1
            if trace:
                tracer.emit(
                    "protocol.retransmit",
                    kind=message.kind.name.lower(),
                    sender=message.sender,
                    receiver=receiver,
                    sweep=message.sweep,
                )
                tracer.count("protocol.retransmissions")
        if retransmissions == resent and not blocked:
            raise RuntimeError("protocol deadlocked with nothing to retransmit")
        pending = bus.pending_ranks()

    return _Circulation(
        profile=StrategyProfile(board.flows / system.arrival_rates[:, None]),
        norms=np.asarray(agents[0].norm_history, dtype=float),
        messages=messages,
        retransmissions=retransmissions,
        steps=steps,
        polls=sum(agent.polls for agent in agents),
    )


def _finish(
    system: DistributedSystem,
    run: _Circulation,
    tolerance: float,
    tracer: Tracer,
    driver: str,
    sample: SampleCertificate | None = None,
    **done: Any,
) -> NashResult:
    """Package a circulation as the sequential solver's result.

    Also emits the ``protocol.done`` summary, with the driver's extra
    ``done`` fields.  A sampled run can end on an infeasible profile,
    which its certificate reports as infinite epsilon: that run has no
    finite response times and never counts as converged.
    """
    norms = run.norms
    converged = bool(norms.size and norms[-1] <= tolerance)
    if sample is not None and math.isinf(sample.epsilon):
        user_times, converged = np.full(system.n_users, np.inf), False
    else:
        user_times = system.user_response_times(run.profile.fractions)
    tracer.emit(
        "protocol.done",
        driver=driver,
        converged=converged,
        sweeps=int(norms.size),
        messages_sent=run.messages + run.polls,
        retransmissions=run.retransmissions,
        **done,
    )
    return NashResult(
        profile=run.profile,
        converged=converged,
        iterations=int(norms.size),
        norm_history=norms,
        user_times=user_times,
        sample=sample,
    )


def run_nash_protocol(
    system: DistributedSystem,
    *,
    init: Initialization | StrategyProfile = "proportional",
    tolerance: float = DEFAULT_TOLERANCE,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    record_transcript: bool = True,
    tracer: Tracer | None = None,
) -> ProtocolOutcome:
    """Execute the NASH distributed algorithm over the message bus.

    Parameters mirror :func:`repro.core.nash.compute_nash_equilibrium`.
    ``tracer`` (default: the ambient tracer) records one
    ``protocol.deliver`` event per bus delivery, per-kind message
    counters, the initiator's ``protocol.sweep`` circulation record and a
    ``protocol.done`` summary — enough to reconstruct the convergence
    history and the full message accounting from the trace alone.
    """
    tracer = tracer if tracer is not None else current_tracer()
    bus = MessageBus(system.n_users, record_transcript=record_transcript)
    run = _circulate(
        system,
        bus,
        UserAgent,
        driver="reliable",
        start={"tolerance": tolerance, "max_sweeps": max_sweeps},
        init=init,
        tracer=tracer,
        tolerance=tolerance,
        max_sweeps=max_sweeps,
    )
    result = _finish(system, run, tolerance, tracer, "reliable")
    return ProtocolOutcome(
        result=result,
        messages_sent=run.messages,
        transcript=bus.transcript,
    )
