"""A deterministic discrete-event feed runtime.

The paper's ingestion framework is three *concurrent* jobs — intake,
computing, storage — handing frames across job boundaries through bounded
partition holders.  This package provides the execution substrate that
makes that concurrency explicit instead of reconstructing it with
closed-form arithmetic:

* :class:`Clock` — the simulated clock (owned by the cluster);
* :class:`Runtime` — a heap-based discrete-event scheduler driving
  cooperatively-scheduled generator :class:`Process`\\ es;
* :class:`Advance` / :class:`Wait` — the effects a process yields to
  consume simulated time or block on a :class:`Signal`;
* :class:`Channel` / :class:`IntakeBuffer` — bounded hand-off points
  (the intake buffer is layered on the existing passive partition
  holders) with *real* blocking backpressure;
* :class:`RuntimeMetrics` — the observability snapshot: per-layer
  busy/idle/blocked timelines, holder high-water marks, stall counts,
  and the run's :class:`Event` stream;
* :class:`FaultPlan` — a deterministic schedule of injected faults
  (actor crashes, slow-consumer stalls, transient channel-send failures,
  partition-holder disconnects) consulted by the kernel on the simulated
  clock;
* :class:`Supervisor` — monitors layer actors and restarts crashed ones
  with bounded retries and exponential backoff on the simulated clock.
"""

from .channel import (
    CANCELLED,
    CONGESTION_BLOCK,
    CONGESTION_DISCARD,
    CONGESTION_THROTTLE,
    Channel,
    IntakeBuffer,
    Sequencer,
)
from .clock import Clock
from .faults import (
    AdapterFailAt,
    ChannelSendFailure,
    CrashAt,
    EnricherFlaky,
    EnricherOutage,
    EnricherSlowdown,
    FaultPlan,
    HolderDisconnect,
    StallAt,
)
from .kernel import (
    BLOCKED,
    BUSY,
    IDLE,
    Advance,
    Process,
    Runtime,
    Signal,
    Wait,
)
from .metrics import (
    Event,
    ExternalMetrics,
    FaultMetrics,
    HolderStats,
    LayerTimes,
    RunCounters,
    RuntimeMetrics,
)
from .supervisor import RestartPolicy, Supervisor

__all__ = [
    "AdapterFailAt",
    "Advance",
    "BLOCKED",
    "BUSY",
    "CANCELLED",
    "CONGESTION_BLOCK",
    "CONGESTION_DISCARD",
    "CONGESTION_THROTTLE",
    "Channel",
    "ChannelSendFailure",
    "Clock",
    "CrashAt",
    "EnricherFlaky",
    "EnricherOutage",
    "EnricherSlowdown",
    "Event",
    "ExternalMetrics",
    "FaultMetrics",
    "FaultPlan",
    "HolderDisconnect",
    "HolderStats",
    "IDLE",
    "IntakeBuffer",
    "LayerTimes",
    "Process",
    "RestartPolicy",
    "RunCounters",
    "Runtime",
    "RuntimeMetrics",
    "Sequencer",
    "Signal",
    "StallAt",
    "Supervisor",
    "Wait",
]
