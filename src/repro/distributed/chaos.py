"""Crash faults, the ring supervisor, and the self-healing driver.

:mod:`repro.distributed.faults` makes the token ring survive a lossy
*network*; this module makes it survive a lossy *system*: user agents
that crash (losing volatile state and mailbox) and later restart, and
computers that go offline (permanently or temporarily) mid-run.

* :class:`FaultSchedule` — scripted or seeded ``(step, kind, target)``
  fault events, validated and replayable bit-for-bit;
* :class:`CrashyMessageBus` — the lossy bus plus crash semantics: a dead
  rank's mailbox is wiped and everything sent to it is dropped;
* :class:`RingSupervisor` — everything only the resilient driver needs,
  called by the ring loop of :mod:`repro.distributed.runtime` at fixed
  points of each step: fault injection, heartbeat failure detection,
  checkpoint/restore of crashed agents, ring reopen after a topology
  change, retransmission backoff, and graceful degradation onto the
  surviving computers (or a typed
  :class:`~repro.core.degradation.CapacityExhausted`);
* :func:`run_nash_protocol_resilient` — the ring loop over the crashy bus
  with deduplicating agents and a supervisor.

A run that loses computers converges to the Nash equilibrium of the game
restricted to the survivors: the fixed point remembers only the final
topology, not the failure history.  Crashes happen *between* steps (an
agent's message handling is atomic), and the outbox log survives crashes
— the classic sender-based message-logging assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto
from typing import Iterable, Sequence

import numpy as np

from repro.core.degradation import project_profile, surviving_subsystem
from repro.core.model import DistributedSystem
from repro.core.nash import DEFAULT_MAX_SWEEPS, DEFAULT_TOLERANCE, Initialization
from repro.core.strategy import StrategyProfile
from repro.distributed.checkpoint import CheckpointStore
from repro.distributed.failure_detector import (
    ExponentialBackoff,
    HeartbeatFailureDetector,
)
from repro.distributed.faults import DedupingAgent, LossyMessageBus
from repro.distributed.messages import Message, MessageKind
from repro.distributed.node import ComputerBoard
from repro.distributed.runtime import ProtocolOutcome, _circulate, _finish
from repro.telemetry.trace import Tracer, current_tracer

__all__ = [
    "FaultKind",
    "FaultEvent",
    "FaultSchedule",
    "CrashyMessageBus",
    "ResilientOutcome",
    "run_nash_protocol_resilient",
]

#: Stall-triggered retransmission pacing, in supervisor steps: the first
#: retry fires after one stalled step, then the wait doubles up to 16.
BACKOFF_BASE = 1
BACKOFF_CAP = 16


class FaultKind(Enum):
    """Crash-fault vocabulary of the chaos layer."""

    #: A user agent process dies: volatile state and mailbox are lost.
    AGENT_CRASH = auto()
    #: A crashed agent comes back and is restored from its checkpoint.
    AGENT_RESTART = auto()
    #: A computer goes offline: it serves no further load.
    COMPUTER_DOWN = auto()
    #: An offline computer rejoins with its full service rate.
    COMPUTER_UP = auto()


#: Per kind: what the event targets, whether it takes the target down,
#: and the error when the target is already in that state.
_TRANSITIONS = {
    FaultKind.AGENT_CRASH: ("agent", True, "crashed while already down"),
    FaultKind.AGENT_RESTART: ("agent", False, "restarted while running"),
    FaultKind.COMPUTER_DOWN: ("computer", True, "failed while already down"),
    FaultKind.COMPUTER_UP: ("computer", False, "restored while online"),
}


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One scheduled fault: at supervisor step ``step``, do ``kind`` to
    ``target`` (an agent rank or a computer index)."""

    step: int
    kind: FaultKind
    target: int

    def __post_init__(self) -> None:
        if self.step < 1:
            raise ValueError("fault steps are 1-based")
        if self.target < 0:
            raise ValueError("fault target must be nonnegative")


class FaultSchedule:
    """A validated, replayable sequence of fault events.

    Events are applied in ``(step, insertion order)``; the constructor
    rejects schedules that crash an already-crashed agent, restart a
    running one, or toggle a computer into the state it is already in.
    """

    def __init__(self, events: Iterable[FaultEvent] = ()):
        ordered = sorted(events, key=lambda event: event.step)
        down: set[tuple[str, int]] = set()
        for event in ordered:
            subject, goes_down, error = _TRANSITIONS[event.kind]
            key = (subject, event.target)
            if (key in down) == goes_down:
                raise ValueError(f"{subject} {event.target} {error}")
            if goes_down:
                down.add(key)
            else:
                down.discard(key)
        self._events = tuple(ordered)

    @property
    def events(self) -> tuple[FaultEvent, ...]:
        return self._events

    @property
    def n_events(self) -> int:
        return len(self._events)

    @property
    def max_step(self) -> int:
        return self._events[-1].step if self._events else 0

    def events_at(self, step: int) -> tuple[FaultEvent, ...]:
        return tuple(event for event in self._events if event.step == step)

    def pending_restart(self, rank: int, step: int) -> bool:
        """Is an AGENT_RESTART for ``rank`` still scheduled after ``step``?"""
        return any(
            event.kind is FaultKind.AGENT_RESTART
            and event.target == rank
            and event.step > step
            for event in self._events
        )

    @classmethod
    def random(
        cls,
        *,
        n_agents: int,
        seed: int,
        horizon: int,
        agent_crashes: int = 1,
        computer_failures: int = 0,
        computer_targets: Sequence[int] = (),
        outage_steps: int = 0,
        min_downtime: int = 6,
    ) -> "FaultSchedule":
        """A seeded chaos schedule for a run expected to span ``horizon``
        supervisor steps.

        Crashes hit distinct agents in the first half of the horizon and
        restart after at least ``min_downtime`` steps.  Computer failures
        hit distinct members of ``computer_targets`` (the caller decides
        which computers are *safe* to lose); they stay down permanently
        unless ``outage_steps`` > 0, in which case each comes back that
        many steps later.
        """
        if horizon < 4 * min_downtime:
            raise ValueError("horizon too short for a meaningful schedule")
        if agent_crashes > n_agents:
            raise ValueError("cannot crash more agents than exist")
        if computer_failures > len(tuple(computer_targets)):
            raise ValueError(
                "computer_failures exceeds the allowed target list"
            )
        rng = np.random.default_rng(seed)
        events: list[FaultEvent] = []
        ranks = rng.choice(n_agents, size=agent_crashes, replace=False)
        for rank in ranks:
            crash = int(rng.integers(horizon // 4, horizon // 2))
            downtime = int(rng.integers(min_downtime, 2 * min_downtime + 1))
            events.append(FaultEvent(crash, FaultKind.AGENT_CRASH, int(rank)))
            events.append(
                FaultEvent(crash + downtime, FaultKind.AGENT_RESTART, int(rank))
            )
        if computer_failures:
            chosen = rng.choice(
                np.asarray(tuple(computer_targets), dtype=int),
                size=computer_failures,
                replace=False,
            )
            for computer in chosen:
                down = int(rng.integers(horizon // 4, horizon // 2))
                events.append(
                    FaultEvent(down, FaultKind.COMPUTER_DOWN, int(computer))
                )
                if outage_steps > 0:
                    events.append(
                        FaultEvent(
                            down + outage_steps,
                            FaultKind.COMPUTER_UP,
                            int(computer),
                        )
                    )
        return cls(events)


class CrashyMessageBus(LossyMessageBus):
    """The lossy bus plus crash semantics for dead ranks.

    Messages addressed to a dead rank vanish (counted in
    ``lost_to_crash``); marking a rank dead wipes its mailbox — a crashed
    process loses whatever was in flight to it.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._dead: set[int] = set()
        self.lost_to_crash = 0

    def mark_dead(self, rank: int) -> int:
        """Declare ``rank`` dead; returns the number of wiped messages."""
        self._dead.add(rank)
        return self.clear_mailbox(rank)

    def mark_alive(self, rank: int) -> None:
        self._dead.discard(rank)

    def is_dead(self, rank: int) -> bool:
        return rank in self._dead

    def _deliver(self, message: Message) -> None:
        if message.receiver in self._dead:
            self.lost_to_crash += 1
            return
        super()._deliver(message)


@dataclass(frozen=True)
class ResilientOutcome(ProtocolOutcome):
    """A resilient run: :class:`ProtocolOutcome` plus recovery accounting."""

    #: Agent crash / restart / checkpoint-restore counts.
    crashes: int = 0
    restarts: int = 0
    checkpoint_restores: int = 0
    checkpoint_captures: int = 0
    #: Failure-detector suspicion events (one per detected death).
    suspicions: int = 0
    #: Messages dropped because their receiver was dead.
    messages_lost_to_crash: int = 0
    #: Computers that failed / rejoined during the run, in event order.
    computers_failed: tuple[int, ...] = ()
    computers_restored: tuple[int, ...] = ()
    #: Final online mask (one entry per computer).
    online_mask: tuple[bool, ...] = ()
    #: True when the run ended on a strict subset of the computers.
    degraded: bool = False
    #: Times the supervisor cancelled a stale TERMINATE wave.
    ring_reopens: int = 0
    #: Supervisor steps executed, and schedule events applied/ignored
    #: (events scheduled after termination are never applied).
    steps: int = 0
    events_applied: int = 0
    events_unapplied: int = 0

    def surviving_fractions(self) -> np.ndarray:
        """The final profile restricted to the online computers — the
        matrix to compare against a from-scratch degraded solve."""
        mask = np.asarray(self.online_mask, dtype=bool)
        return self.result.profile.fractions[:, mask]


def _refresh_baselines(system, board, agents) -> None:
    """Reset every agent's ``D_j`` baseline to the projected-profile times.

    Skipped if the projection transiently overloads a live computer: the
    next best replies repair the profile and the norm just spikes.
    """
    try:
        times = system.user_response_times(board.flows / system.arrival_rates[:, None])
    except ValueError:
        return
    for agent, time in zip(agents, times):
        agent._previous_time = float(time)


class RingSupervisor:
    """The resilient driver's share of the ring loop.

    The loop calls :meth:`begin` once before the first token, then on
    every step :meth:`before_delivery` and :meth:`after_delivery`; on a
    step that delivered nothing it asks :meth:`retransmit_due` and skips
    receivers the supervisor :meth:`suspects`.  Like a cluster manager,
    it sees liveness only through the bus and heartbeats.
    """

    def __init__(
        self,
        system: DistributedSystem,
        schedule: FaultSchedule,
        *,
        checkpoint_interval: int,
        suspect_after: int,
        max_sweeps: int,
        tracer: Tracer,
    ):
        self.system = system
        self.schedule = schedule
        self.checkpoint_interval = checkpoint_interval
        self.tracer = tracer
        #: Livelock guard on the loop's steps.
        self.max_steps = (
            64 * (max_sweeps + 2) * (system.n_users + 2) + 2 * schedule.max_step
        )
        self.store = CheckpointStore()
        self.detector = HeartbeatFailureDetector(suspect_after)
        self.backoff = ExponentialBackoff(BACKOFF_BASE, BACKOFF_CAP)
        #: Ring generation, bumped on every reopen; a checkpoint from an
        #: older generation never resurrects a termination flag.
        self.generation = 0
        self.crashes = self.restarts = self.ring_reopens = self.events_applied = 0
        self.computers_failed: list[int] = []
        self.computers_restored: list[int] = []
        self._rekick_pending = False
        self._stall = 0
        self._suspects: frozenset[int] = frozenset()

    def begin(
        self,
        board: ComputerBoard,
        agents: list[DedupingAgent],
        bus: CrashyMessageBus,
        last_sent: dict[int, Message],
    ) -> None:
        """Checkpoint and heartbeat every agent; keep the loop's outbox log."""
        self.board, self.agents, self.bus = board, agents, bus
        self._last_sent = last_sent
        for agent in agents:
            self._capture(agent, 0)
            self.detector.beat(agent.rank, 0)

    # -- hooks of one loop step -----------------------------------------
    def before_delivery(self, step: int) -> None:
        """Check the livelock guard, inject faults, re-kick a reopened ring."""
        if step > self.max_steps:
            raise RuntimeError(
                f"resilient protocol exceeded {self.max_steps} supervisor "
                "steps without terminating (livelock?)"
            )
        for event in self.schedule.events_at(step):
            self.events_applied += 1
            self.tracer.emit(
                "protocol.fault",
                step=step,
                kind=event.kind.name.lower(),
                target=event.target,
            )
            self._apply(event, step)
        if self._rekick_pending and not self.bus.is_dead(0):
            self.agents[0].start(self._newest_sweep() + 1)
            self._rekick_pending = False

    def after_delivery(self, step: int, delivered: int) -> None:
        """Heartbeat live agents, update suspicion, take due checkpoints."""
        live = [a for a in self.agents if not self.bus.is_dead(a.rank)]
        for agent in live:
            self.detector.beat(agent.rank, step)
        suspected = self.detector.check(step)
        if self.tracer.enabled:
            for rank in sorted(suspected - self._suspects):
                self.tracer.emit("protocol.suspect", rank=rank, step=step)
                self.tracer.count("protocol.suspicions")
        self._suspects = suspected
        if self.checkpoint_interval and step % self.checkpoint_interval == 0:
            for agent in live:
                self._capture(agent, step)
        if delivered:
            self._stall = 0
            self.backoff.reset()

    def retransmit_due(self) -> bool:
        """A step delivered nothing: has the backoff wait run out?"""
        if self._rekick_pending:
            return False  # ring intentionally idle until rank 0 restarts
        self._stall += 1
        if self._stall < self.backoff.current:
            return False
        self._stall = 0
        self.backoff.advance()
        return True

    def suspects(self, rank: int, step: int) -> bool:
        """Is ``rank`` suspected dead, so a retransmission to it is moot?

        Fails if it will never come back: every circulation needs every
        agent, and no retransmission can route around a dead end.
        """
        if not self.detector.is_suspected(rank):
            return False
        if not self.schedule.pending_restart(rank, step):
            raise RuntimeError(f"agent {rank} never restarts; the ring cannot recover")
        return True

    # -- internals -------------------------------------------------------
    def _newest_sweep(self) -> int:
        return max(agent._last_acted_sweep for agent in self.agents)

    def _reproject(self, ranks: Sequence[int]) -> None:
        """Re-project the flow rows of ``ranks`` onto the online computers."""
        board = self.board
        rows = project_profile(
            board.flows[list(ranks)],
            board.online_mask,
            fallback_rates=self.system.service_rates,
        )
        for rank, row in zip(ranks, rows):
            board.publish(rank, row)

    def _capture(self, agent: DedupingAgent, step: int) -> None:
        self.store.capture(agent, self.board, step=step, generation=self.generation)
        if self.tracer.enabled:
            self.tracer.emit("protocol.checkpoint", step=step, rank=agent.rank)
            self.tracer.count("protocol.checkpoint_captures")

    def _apply(self, event: FaultEvent, step: int) -> None:
        system, board, agents = self.system, self.board, self.agents
        rank = computer = event.target
        if event.kind is FaultKind.AGENT_CRASH:
            self.bus.mark_dead(rank)
            self.crashes += 1
        elif event.kind is FaultKind.AGENT_RESTART:
            self.bus.mark_alive(rank)
            self.store.restore(agents[rank], board, generation=self.generation)
            # norm_history_length lets the trace replay the rollback: the
            # reconstruction truncates rank 0's history to the checkpointed
            # prefix.
            self.tracer.emit(
                "protocol.restore",
                rank=rank,
                step=step,
                norm_history_length=len(agents[rank].norm_history),
            )
            self.tracer.count("protocol.checkpoint_restores")
            # The checkpointed flows may predate a computer failure.
            self._reproject([rank])
            self.detector.beat(rank, step)
            self.restarts += 1
            self._stall = 0
            self.backoff.reset()
        elif event.kind is FaultKind.COMPUTER_DOWN:
            board.set_computer_online(computer, False)
            self.computers_failed.append(computer)
            # Stability re-check: raises CapacityExhausted (typed, with
            # diagnostics) when the survivors cannot carry Phi.
            surviving_subsystem(system, board.online_mask)
            self._reproject(range(len(agents)))
            _refresh_baselines(system, board, agents)
            self._topology_changed(step)
        elif event.kind is FaultKind.COMPUTER_UP:
            board.set_computer_online(computer, True)
            self.computers_restored.append(computer)
            self._topology_changed(step)

    def _topology_changed(self, step: int) -> None:
        """Veto stale termination; cancel an in-flight TERMINATE wave."""
        agents = self.agents
        agents[0].min_termination_sweep = max(
            agents[0].min_termination_sweep, self._newest_sweep() + 1
        )
        if not agents[0].finished:
            return
        # TERMINATE is circulating on a pre-failure norm: reopen.  A dead
        # agent's flag is cleared too; its restore overwrites it.
        self.generation += 1
        self.ring_reopens += 1
        self.tracer.emit("protocol.reopen", step=step, generation=self.generation)
        self.tracer.count("protocol.ring_reopens")
        self.bus.purge(MessageKind.TERMINATE)
        for agent in agents:
            agent.finished = False
        for sender, message in list(self._last_sent.items()):
            if message.kind is MessageKind.TERMINATE:
                del self._last_sent[sender]
        self._rekick_pending = True


def run_nash_protocol_resilient(
    system: DistributedSystem,
    schedule: FaultSchedule | None = None,
    *,
    drop: float = 0.0,
    duplicate: float = 0.0,
    fault_seed: int = 0,
    init: Initialization | StrategyProfile = "proportional",
    tolerance: float = DEFAULT_TOLERANCE,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    checkpoint_interval: int = 8,
    suspect_after: int = 3,
    tracer: Tracer | None = None,
) -> ResilientOutcome:
    """The NASH ring protocol under crash faults and computer failures.

    The ring loop over a :class:`CrashyMessageBus`, supervised by a
    :class:`RingSupervisor`: heartbeats expose dead agents, stalls are
    healed by retransmission with capped exponential backoff
    (:data:`BACKOFF_BASE` to :data:`BACKOFF_CAP` steps), restarted agents
    resume from periodic checkpoints, and computer failures degrade the
    game onto the surviving machines.

    Raises
    ------
    CapacityExhausted
        When a computer failure leaves ``Phi >= sum of surviving mu_i``.
    RuntimeError
        When the ring cannot recover (an agent crashed with no scheduled
        restart while the protocol still needs it) or the run exceeds the
        supervisor's livelock guard on steps.
    """
    schedule = schedule if schedule is not None else FaultSchedule(())
    tracer = tracer if tracer is not None else current_tracer()
    bus = CrashyMessageBus(
        system.n_users, drop=drop, duplicate=duplicate, seed=fault_seed
    )
    supervisor = RingSupervisor(
        system,
        schedule,
        checkpoint_interval=checkpoint_interval,
        suspect_after=suspect_after,
        max_sweeps=max_sweeps,
        tracer=tracer,
    )
    run = _circulate(
        system,
        bus,
        DedupingAgent,
        driver="resilient",
        start={
            "tolerance": tolerance,
            "max_sweeps": max_sweeps,
            "drop": drop,
            "duplicate": duplicate,
            "checkpoint_interval": checkpoint_interval,
            "suspect_after": suspect_after,
            "scheduled_events": schedule.n_events,
        },
        init=init,
        tracer=tracer,
        supervisor=supervisor,
        tolerance=tolerance,
        max_sweeps=max_sweeps,
    )
    online = supervisor.board.online_mask
    # The recovery counts both the done event and the outcome report.
    recovery = {
        "crashes": supervisor.crashes,
        "restarts": supervisor.restarts,
        "suspicions": supervisor.detector.suspicions,
        "messages_lost_to_crash": bus.lost_to_crash,
        "ring_reopens": supervisor.ring_reopens,
        "steps": run.steps,
        "degraded": bool(not online.all()),
    }
    result = _finish(system, run, tolerance, tracer, "resilient", **recovery)
    return ResilientOutcome(
        result=result,
        messages_sent=run.messages,
        transcript=bus.transcript,
        retransmissions=run.retransmissions,
        checkpoint_restores=supervisor.store.restores,
        checkpoint_captures=supervisor.store.captures,
        computers_failed=tuple(supervisor.computers_failed),
        computers_restored=tuple(supervisor.computers_restored),
        online_mask=tuple(bool(b) for b in online),
        events_applied=supervisor.events_applied,
        events_unapplied=schedule.n_events - supervisor.events_applied,
        **recovery,
    )
