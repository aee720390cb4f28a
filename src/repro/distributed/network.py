"""In-process message bus emulating the distributed system's network.

The reproduction cannot run on physical machines, so the Send/Recv calls
of the paper's pseudocode are realized over per-agent FIFO mailboxes.
The bus is deliberately MPI-flavoured (explicit ``send``/``recv`` with
integer ranks, as in the mpi4py idiom): a port of the agents to real MPI
ranks would only replace this class.

The bus also keeps a transcript of every delivered message, which the
tests use to check the protocol's message complexity (one token hop per
user per sweep plus one terminate circulation).

Two extension points support the fault-tolerance layers:

* **outbox hooks** (:meth:`MessageBus.add_outbox_hook`) observe every
  *first-class* send before the network touches it — the supervisor's
  write-ahead outbox log, fed even when the faulty transport then drops
  the message.  Retransmissions go through :meth:`MessageBus.resend`,
  which bypasses the hooks (a retry is not a new send).
* **delivery override** (:meth:`MessageBus._deliver`) — fault-injecting
  buses subclass the delivery step (drop, duplicate, crash-drop) without
  touching the send bookkeeping, and declare ``loses_messages`` so the
  ring loop knows to retransmit.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.distributed.messages import Message, MessageKind

__all__ = ["MessageBus"]


class MessageBus:
    """FIFO mailboxes for a fixed set of agents addressed by rank."""

    #: Whether a sent message can vanish in transit.  The ring loop keeps
    #: a retransmission log and heals stalls only on buses that set this.
    loses_messages = False

    def __init__(self, n_agents: int, *, record_transcript: bool = True):
        if n_agents <= 0:
            raise ValueError("the bus needs at least one agent")
        self._mailboxes: tuple[deque[Message], ...] = tuple(
            deque() for _ in range(n_agents)
        )
        self._transcript: list[Message] = []
        self._record = record_transcript
        self._outbox_hooks: list[Callable[[Message], None]] = []

    @property
    def n_agents(self) -> int:
        return len(self._mailboxes)

    @property
    def transcript(self) -> tuple[Message, ...]:
        """All messages sent so far, in send order."""
        return tuple(self._transcript)

    def add_outbox_hook(self, hook: Callable[[Message], None]) -> None:
        """Observe every first-class ``send`` before delivery is attempted.

        Hooks fire even when a faulty transport subsequently drops the
        message — the sender *believes* it sent — which is exactly what a
        retransmission log needs.  ``resend`` does not fire hooks.
        """
        if not callable(hook):
            raise TypeError("outbox hook must be callable")
        self._outbox_hooks.append(hook)

    def _validate(self, message: Message) -> None:
        if not 0 <= message.receiver < self.n_agents:
            raise ValueError(f"receiver rank {message.receiver} out of range")
        if not 0 <= message.sender < self.n_agents:
            raise ValueError(f"sender rank {message.sender} out of range")

    def send(self, message: Message) -> None:
        """Deposit ``message`` into the receiver's mailbox."""
        self._validate(message)
        for hook in self._outbox_hooks:
            hook(message)
        self._deliver(message)

    def resend(self, message: Message) -> None:
        """Retransmit ``message`` without re-notifying the outbox hooks.

        The retry rides the same (possibly faulty) delivery path as the
        original, so a retransmission can itself be dropped and retried.
        """
        self._validate(message)
        self._deliver(message)

    def _deliver(self, message: Message) -> None:
        """Transport step — subclasses inject faults here."""
        self._mailboxes[message.receiver].append(message)
        if self._record:
            self._transcript.append(message)

    def recv(self, rank: int) -> Message:
        """Pop the oldest pending message for ``rank``.

        Raises ``LookupError`` when the mailbox is empty — agents in this
        runtime are only scheduled when a message is pending, so an empty
        recv indicates a protocol bug.
        """
        if not 0 <= rank < self.n_agents:
            raise ValueError(f"rank {rank} out of range")
        box = self._mailboxes[rank]
        if not box:
            raise LookupError(f"no pending message for rank {rank}")
        return box.popleft()

    def has_pending(self, rank: int) -> bool:
        return bool(self._mailboxes[rank])

    def pending_ranks(self) -> list[int]:
        """Ranks with at least one queued message, in rank order."""
        return [r for r, box in enumerate(self._mailboxes) if box]

    def clear_mailbox(self, rank: int) -> int:
        """Discard everything queued for ``rank`` (a crashed process loses
        its in-flight messages).  Returns the number discarded."""
        if not 0 <= rank < self.n_agents:
            raise ValueError(f"rank {rank} out of range")
        lost = len(self._mailboxes[rank])
        self._mailboxes[rank].clear()
        return lost

    def purge(self, kind: MessageKind) -> int:
        """Remove every queued message of ``kind`` from every mailbox.

        Used by the supervisor to cancel a stale TERMINATE wave when the
        ring is reopened after a topology change.  Returns the count.
        """
        purged = 0
        for box in self._mailboxes:
            keep = [msg for msg in box if msg.kind is not kind]
            purged += len(box) - len(keep)
            box.clear()
            box.extend(keep)
        return purged
