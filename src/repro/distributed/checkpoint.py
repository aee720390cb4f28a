"""Checkpoint/recovery for the distributed protocol's user agents.

A crashed user process loses its volatile state: its dedup sweep cursor,
its last expected response time ``D_j`` (the baseline the convergence
norm is measured against), its termination flag and — for the initiator
— the norm history that decides convergence.  The supervisor therefore
snapshots every live agent periodically; when the fault layer restarts a
crashed agent, the latest snapshot is written back and the agent's flow
row is re-published on the :class:`~repro.distributed.node.ComputerBoard`
(restoring the state *other* users observe).

Checkpoints are intentionally allowed to be stale: a restored agent may
redo a sweep it had already acted on (its ``D_j`` baseline rolls back),
which inflates the circulation norm and costs extra sweeps — but never
corrupts the fixed point, because best replies are idempotent against the
board state.  That is the classic checkpoint/recovery trade-off: snapshot
interval buys recovery time, never correctness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distributed.node import ComputerBoard, UserAgent

__all__ = ["AgentCheckpoint", "CheckpointStore"]


@dataclass(frozen=True)
class AgentCheckpoint:
    """One agent's recoverable state at a supervisor step.

    Attributes
    ----------
    rank:
        The agent's ring position.
    step:
        Supervisor step at which the snapshot was taken.
    generation:
        Ring generation (incremented by the supervisor each time the ring
        is reopened after a topology change); a snapshot from an older
        generation must not resurrect a stale termination flag.
    last_acted_sweep:
        Dedup cursor — the newest token sweep the agent acted on.
    previous_time:
        The agent's ``D_j`` baseline for the convergence norm.
    finished:
        Termination flag (TERMINATE acted on, or decided by the
        initiator).
    flows:
        The agent's published per-computer flow row (jobs/sec).
    norm_history:
        The initiator's recorded circulation norms (empty for rank != 0).
    """

    rank: int
    step: int
    generation: int
    last_acted_sweep: int
    previous_time: float
    finished: bool
    flows: tuple[float, ...]
    norm_history: tuple[float, ...]


class CheckpointStore:
    """Latest-snapshot-per-agent store with capture/restore accounting."""

    def __init__(self) -> None:
        self._latest: dict[int, AgentCheckpoint] = {}
        self.captures = 0
        self.restores = 0

    def __len__(self) -> int:
        return len(self._latest)

    def capture(
        self,
        agent: UserAgent,
        board: ComputerBoard,
        *,
        step: int = 0,
        generation: int = 0,
    ) -> AgentCheckpoint:
        """Snapshot ``agent`` (and its published flow row) as of ``step``."""
        snapshot = AgentCheckpoint(
            rank=agent.rank,
            step=step,
            generation=generation,
            last_acted_sweep=int(getattr(agent, "_last_acted_sweep", 0)),
            previous_time=float(agent._previous_time),
            finished=bool(agent.finished),
            flows=tuple(float(f) for f in board.flows[agent.rank]),
            norm_history=tuple(agent.norm_history),
        )
        self._latest[agent.rank] = snapshot
        self.captures += 1
        return snapshot

    def latest(self, rank: int) -> AgentCheckpoint:
        """The newest snapshot for ``rank`` (KeyError if never captured)."""
        return self._latest[rank]

    def restore(
        self,
        agent: UserAgent,
        board: ComputerBoard,
        *,
        generation: int = 0,
    ) -> AgentCheckpoint:
        """Write the newest snapshot back into ``agent`` and the board.

        If the snapshot predates the current ring ``generation`` (the
        ring was reopened after the snapshot was taken), the termination
        flag is cleared — the decision it records is stale.
        """
        snapshot = self._latest[agent.rank]
        if hasattr(agent, "_last_acted_sweep"):
            agent._last_acted_sweep = snapshot.last_acted_sweep
        agent._previous_time = snapshot.previous_time
        stale_generation = snapshot.generation < generation
        agent.finished = snapshot.finished and not stale_generation
        agent.norm_history = list(snapshot.norm_history)
        board.publish(agent.rank, np.asarray(snapshot.flows, dtype=float))
        self.restores += 1
        return snapshot
