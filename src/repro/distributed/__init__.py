"""Distributed execution of the NASH algorithm (paper Sec. 3).

An in-process message-passing runtime stands in for the physical
distributed system: selfish :class:`UserAgent` processes circulate the
best-reply token around a logical ring, observing a shared
:class:`ComputerBoard` and talking over FIFO mailboxes.

One circulation loop (:mod:`repro.distributed.runtime`) runs every
protocol driver.  The drivers are thin wrappers that choose its bus and
its agents:

* :func:`run_nash_protocol` — the reliable :class:`MessageBus`;
* :func:`run_nash_protocol_lossy` — the :class:`LossyMessageBus`, which
  drops and duplicates messages, with retransmission and
  :class:`DedupingAgent` deduplication (:mod:`repro.distributed.faults`);
* :func:`run_nash_protocol_resilient` — the :class:`CrashyMessageBus`,
  where agents die and restart from checkpoints and computers fail, with
  the one supervisor of :mod:`repro.distributed.chaos`;
* :func:`run_sampled_nash_protocol` — the reliable bus with
  agents (:class:`SampledUserAgent`) that best-reply over power-of-k sampled
  information (:mod:`repro.distributed.sampled`).
"""

from repro.distributed.chaos import (
    CrashyMessageBus,
    FaultEvent,
    FaultKind,
    FaultSchedule,
    ResilientOutcome,
    run_nash_protocol_resilient,
)
from repro.distributed.checkpoint import AgentCheckpoint, CheckpointStore
from repro.distributed.failure_detector import (
    ExponentialBackoff,
    HeartbeatFailureDetector,
)
from repro.distributed.faults import (
    DedupingAgent,
    LossyMessageBus,
    run_nash_protocol_lossy,
)
from repro.distributed.messages import Message, MessageKind
from repro.distributed.network import MessageBus
from repro.distributed.node import ComputerBoard, UserAgent
from repro.distributed.runtime import ProtocolOutcome, run_nash_protocol
from repro.distributed.sampled import (
    SampledProtocolOutcome,
    SampledUserAgent,
    run_sampled_nash_protocol,
)

__all__ = [
    "AgentCheckpoint",
    "CheckpointStore",
    "CrashyMessageBus",
    "DedupingAgent",
    "ExponentialBackoff",
    "FaultEvent",
    "FaultKind",
    "FaultSchedule",
    "HeartbeatFailureDetector",
    "LossyMessageBus",
    "ResilientOutcome",
    "run_nash_protocol_lossy",
    "run_nash_protocol_resilient",
    "Message",
    "MessageKind",
    "MessageBus",
    "ComputerBoard",
    "UserAgent",
    "ProtocolOutcome",
    "SampledProtocolOutcome",
    "SampledUserAgent",
    "run_sampled_nash_protocol",
    "run_nash_protocol",
]
