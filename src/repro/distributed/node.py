"""The user agent of the NASH distributed algorithm (paper Sec. 3).

Each user runs autonomously: when it receives the ring token it

1. *observes* the current available processing rate of every computer
   ("obtained by inspecting the run queue of each computer" in the paper —
   here by querying the shared :class:`ComputerBoard`, the stand-in for
   that observation);
2. runs the OPTIMAL algorithm on the observed rates to compute its best
   reply, and republishes its per-computer flows;
3. accumulates ``|D_j^{(l)} - D_j^{(l-1)}|`` into the token's norm and
   forwards the token to the next user on the ring.

The initiator (rank 0) additionally decides termination at the end of
each full circulation.
"""

from __future__ import annotations

import numpy as np

from repro.core.waterfill import sqrt_waterfill_inplace
from repro.distributed.messages import Message, MessageKind
from repro.distributed.network import MessageBus
from repro.telemetry.trace import DISABLED, Tracer

__all__ = ["ComputerBoard", "UserAgent"]


class ComputerBoard:
    """Shared observable state of the computers.

    Tracks each user's published flow on each computer so that any agent
    can observe the *available* rate ``mu_i - sum_{k != j} flow_ki`` — the
    distributed system's equivalent of estimating residual capacity from
    run-queue lengths.

    The board also carries the *online mask*: a computer taken offline by
    a failure advertises zero available rate, so every subsequent best
    reply routes around it (the OPTIMAL water-fill treats nonpositive
    rates as unavailable).  Bringing it back online simply restores its
    advertised capacity.
    """

    def __init__(self, service_rates: np.ndarray, n_users: int):
        mu = np.asarray(service_rates, dtype=float)
        if mu.ndim != 1 or np.any(mu <= 0.0):
            raise ValueError("service rates must be positive")
        if n_users <= 0:
            raise ValueError("n_users must be positive")
        self._mu = mu.copy()
        self._flows = np.zeros((n_users, mu.size))
        # Aggregate published flow per computer, maintained incrementally
        # by publish() so observing the available rates is O(n) instead of
        # an O(m n) column sum per observation.
        self._total = np.zeros(mu.size)
        self._online = np.ones(mu.size, dtype=bool)

    @property
    def service_rates(self) -> np.ndarray:
        return self._mu

    @property
    def online_mask(self) -> np.ndarray:
        """Boolean mask of the computers currently online (a copy)."""
        return self._online.copy()

    @property
    def n_online(self) -> int:
        return int(self._online.sum())

    def set_computer_online(self, computer: int, online: bool = True) -> None:
        """Mark one computer as online/offline for every observer."""
        if not 0 <= computer < self._mu.size:
            raise ValueError(f"computer index {computer} out of range")
        self._online[computer] = bool(online)

    @property
    def flows(self) -> np.ndarray:
        """(users, computers) matrix of published flows (jobs/sec)."""
        return self._flows

    def publish(self, user: int, flows: np.ndarray) -> None:
        """User ``user`` re-publishes its per-computer flow vector."""
        flows = np.asarray(flows, dtype=float)
        if flows.shape != (self._mu.size,):
            raise ValueError("flow vector must have one entry per computer")
        if np.any(flows < 0.0):
            raise ValueError("flows must be nonnegative")
        self._total += flows - self._flows[user]
        self._flows[user] = flows

    def available_rates(self, user: int) -> np.ndarray:
        """Processing rate each computer can still offer ``user``.

        Offline computers advertise zero, which the OPTIMAL water-fill
        interprets as "unavailable" — best replies never route to them.
        """
        others = self._total - self._flows[user]
        return np.where(self._online, self._mu - others, 0.0)

    def available_rates_at(self, user: int, computers: np.ndarray) -> np.ndarray:
        """:meth:`available_rates` restricted to ``computers`` — O(k).

        The observation primitive of the sampled (power-of-k) protocol:
        polling ``k`` computers touches ``k`` board entries instead of
        all ``n``, which is the whole point of sampling.  Returns the
        available rates in the order of ``computers``.
        """
        idx = np.asarray(computers, dtype=np.intp)
        others = self._total[idx] - self._flows[user, idx]
        return np.where(self._online[idx], self._mu[idx] - others, 0.0)


class UserAgent:
    """One selfish user executing the ring protocol."""

    def __init__(
        self,
        rank: int,
        job_rate: float,
        board: ComputerBoard,
        bus: MessageBus,
        *,
        tolerance: float,
        max_sweeps: int,
        tracer: Tracer | None = None,
    ):
        if job_rate <= 0.0:
            raise ValueError("job rate must be positive")
        self.rank = rank
        self.job_rate = float(job_rate)
        self._board = board
        self._bus = bus
        self._tolerance = tolerance
        self._max_sweeps = max_sweeps
        self._tracer = tracer if tracer is not None else DISABLED
        self._next_rank = (rank + 1) % bus.n_agents
        self._previous_time = 0.0
        #: Probes the *last* update spent, and all probes spent so far;
        #: both stay zero for full-information agents.  The sampled
        #: subclass sets them per update so the token can accumulate the
        #: circulation's poll cost next to its norm.
        self._last_update_polls = 0
        self.polls = 0
        #: Set once the agent has forwarded or received TERMINATE.
        self.finished = False
        #: Sweep norms observed by the initiator (rank 0 only).
        self.norm_history: list[float] = []
        #: Earliest sweep the initiator may terminate on.  A circulation
        #: that began before a topology change carries a norm mixing pre-
        #: and post-failure deltas, which proves nothing about the
        #: degraded game; the resilient driver's supervisor raises this
        #: past it.  Zero vetoes nothing.
        self.min_termination_sweep = 0

    # ------------------------------------------------------------------
    def start(self, sweep: int = 1) -> None:
        """Initiator only: update itself and send the token for ``sweep``.

        Sweep 1 kicks off the protocol; each completed circulation starts
        the next one, and a supervisor restarts a reopened ring with the
        sweep after the newest one any agent acted on.
        """
        if self.rank != 0:
            raise RuntimeError("only rank 0 starts the protocol")
        norm = self._update_delta()
        self._bus.send(
            Message(
                kind=MessageKind.TOKEN,
                sender=self.rank,
                receiver=self._next_rank,
                sweep=sweep,
                norm=norm,
                polls=self._last_update_polls,
            )
        )

    def handle(self, message: Message) -> None:
        """Process one received message, dispatching on its kind."""
        if self.finished:
            raise RuntimeError(f"agent {self.rank} received a message after exit")
        if message.kind is MessageKind.TERMINATE:
            self._terminate(message.sweep)
        elif message.kind is MessageKind.TOKEN:
            self._handle_token(message)
        else:  # pragma: no cover - unreachable until MessageKind grows
            raise ValueError(
                f"agent {self.rank} has no dispatch for {message.kind!r}"
            )

    def _terminate(self, sweep: int) -> None:
        # Exit, forwarding TERMINATE until it is back at the initiator.
        self.finished = True
        if self._next_rank != 0:
            self._bus.send(
                Message(
                    kind=MessageKind.TERMINATE,
                    sender=self.rank,
                    receiver=self._next_rank,
                    sweep=sweep,
                )
            )

    def _handle_token(self, message: Message) -> None:
        if self.rank == 0:
            # The token completed a circulation: decide termination.
            self.norm_history.append(message.norm)
            if self._tracer.enabled:
                # The initiator's record of one completed circulation —
                # index mirrors the position in norm_history so a trace
                # replays the exact history (docs/OBSERVABILITY.md).
                self._tracer.emit(
                    "protocol.sweep",
                    index=len(self.norm_history) - 1,
                    sweep=message.sweep,
                    norm=message.norm,
                )
            self._record_circulation(message)
            if self._should_terminate(message):
                self._terminate(message.sweep)
            else:
                self.start(message.sweep + 1)
        else:
            norm = message.norm + self._update_delta()
            self._bus.send(
                Message(
                    kind=MessageKind.TOKEN,
                    sender=self.rank,
                    receiver=self._next_rank,
                    sweep=message.sweep,
                    norm=norm,
                    polls=message.polls + self._last_update_polls,
                )
            )

    # ------------------------------------------------------------------
    def _record_circulation(self, message: Message) -> None:
        """Initiator hook: one token circulation just completed.

        A no-op here; the sampled protocol's initiator overrides it to
        emit the per-circulation ``protocol.sample`` poll accounting.
        """

    def _should_terminate(self, message: Message) -> bool:
        """Initiator's acceptance test on a completed circulation."""
        if message.sweep >= self._max_sweeps:
            return True  # budget exhausted: stop even if vetoed
        return (
            message.norm <= self._tolerance
            and message.sweep >= self.min_termination_sweep
        )

    def _update_delta(self) -> float:
        """Observe, best-reply, publish; return ``|D_j new - D_j old|``."""
        available = self._board.available_rates(self.rank)
        flows = np.empty_like(available)
        reply_time, _, _ = sqrt_waterfill_inplace(available, self.job_rate, flows)
        self._board.publish(self.rank, flows)
        delta = abs(reply_time - self._previous_time)
        self._previous_time = reply_time
        return delta
