"""The lossy network: drops, duplicates, and the lossy protocol driver.

The in-process :class:`~repro.distributed.network.MessageBus` delivers
every message exactly once — real networks do not.
:class:`LossyMessageBus` drops and duplicates messages; it declares that
it ``loses_messages``, so the ring loop of :mod:`repro.distributed.runtime`
keeps each sender's last message and retransmits it whenever a step
delivers nothing (at-least-once delivery).  :class:`DedupingAgent` makes
that safe: TOKEN messages carry ``(sweep, sender)``, and an agent that
already acted on a token ignores its copies.

:func:`run_nash_protocol_lossy` is the ring loop over this bus with
deduplicating agents.  Faults come from a seeded generator, so a given
``(seed, drop, duplicate)`` configuration replays exactly; the protocol
reaches the *same* equilibrium as the lossless run, paying only extra
messages.  Crash faults are the next layer up:
:mod:`repro.distributed.chaos`.
"""

from __future__ import annotations

import numpy as np

from repro.core.model import DistributedSystem
from repro.core.nash import DEFAULT_MAX_SWEEPS, DEFAULT_TOLERANCE, Initialization
from repro.core.strategy import StrategyProfile
from repro.distributed.messages import Message, MessageKind
from repro.distributed.network import MessageBus
from repro.distributed.node import UserAgent
from repro.distributed.runtime import ProtocolOutcome, _circulate, _finish
from repro.telemetry.trace import Tracer, current_tracer

__all__ = ["LossyMessageBus", "DedupingAgent", "run_nash_protocol_lossy"]


class LossyMessageBus(MessageBus):
    """A message bus that drops and duplicates messages.

    Parameters
    ----------
    n_agents:
        Ring size.
    drop:
        Probability that a sent message is silently lost.
    duplicate:
        Probability that a delivered message is enqueued twice.
    seed:
        Fault-stream seed (replayable).
    """

    loses_messages = True

    def __init__(
        self,
        n_agents: int,
        *,
        drop: float = 0.0,
        duplicate: float = 0.0,
        seed: int = 0,
        record_transcript: bool = True,
    ):
        super().__init__(n_agents, record_transcript=record_transcript)
        if not 0.0 <= drop < 1.0:
            raise ValueError("drop probability must lie in [0, 1)")
        if not 0.0 <= duplicate < 1.0:
            raise ValueError("duplicate probability must lie in [0, 1)")
        self.drop = drop
        self.duplicate = duplicate
        self._fault_rng = np.random.default_rng(seed)
        self.dropped = 0
        self.duplicated = 0

    def _deliver(self, message: Message) -> None:
        roll = self._fault_rng.random()
        if roll < self.drop:
            self.dropped += 1
            return
        super()._deliver(message)
        if self._fault_rng.random() < self.duplicate:
            self.duplicated += 1
            super()._deliver(message)


class DedupingAgent(UserAgent):
    """A user agent that ignores token messages it has already acted on.

    A TOKEN for sweep ``l`` is acted on at most once; retransmitted or
    duplicated copies are dropped on the floor.  Acting on TERMINATE
    sets ``finished``, so every later copy is squelched with the rest.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._last_acted_sweep = 0

    def handle(self, message: Message) -> None:
        if message.kind is MessageKind.TOKEN:
            if message.sweep <= self._last_acted_sweep:
                return  # duplicate of an already-processed token
            self._last_acted_sweep = message.sweep
        elif message.kind is MessageKind.TERMINATE:
            pass  # acting on it sets ``finished``, which squelches copies
        # A retransmission can legitimately arrive after the agent
        # considered itself finished; squelch instead of crashing.
        if self.finished:
            return
        super().handle(message)


def run_nash_protocol_lossy(
    system: DistributedSystem,
    *,
    drop: float = 0.1,
    duplicate: float = 0.05,
    fault_seed: int = 0,
    init: Initialization | StrategyProfile = "proportional",
    tolerance: float = DEFAULT_TOLERANCE,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    max_retransmissions: int = 1_000_000,
    tracer: Tracer | None = None,
) -> ProtocolOutcome:
    """The NASH ring protocol over a faulty network.

    Mirrors :func:`repro.distributed.runtime.run_nash_protocol` but sends
    every message over a :class:`LossyMessageBus`; when the ring stalls
    (every mailbox empty, protocol unfinished) the runtime retransmits
    the last message each unfinished agent sent — at-least-once delivery,
    made safe by :class:`DedupingAgent`.  A run that would need more than
    ``max_retransmissions`` resends raises ``RuntimeError``.  ``tracer``
    additionally records every delivery and retransmission (see
    docs/OBSERVABILITY.md).
    """
    tracer = tracer if tracer is not None else current_tracer()
    bus = LossyMessageBus(
        system.n_users, drop=drop, duplicate=duplicate, seed=fault_seed
    )
    run = _circulate(
        system,
        bus,
        DedupingAgent,
        driver="lossy",
        start={
            "tolerance": tolerance,
            "max_sweeps": max_sweeps,
            "drop": drop,
            "duplicate": duplicate,
        },
        init=init,
        tracer=tracer,
        max_retransmissions=max_retransmissions,
        tolerance=tolerance,
        max_sweeps=max_sweeps,
    )
    result = _finish(
        system,
        run,
        tolerance,
        tracer,
        "lossy",
        dropped=bus.dropped,
        duplicated=bus.duplicated,
    )
    return ProtocolOutcome(
        result=result,
        messages_sent=run.messages,
        transcript=bus.transcript,
        retransmissions=run.retransmissions,
    )
