"""Runtime observability: the per-run metrics snapshot.

A :class:`RuntimeMetrics` is assembled after a feed run from the runtime's
process accounting and the feed's partition holders.  It is the repo's
first observability layer: per-layer busy/idle/blocked time and timelines,
holder high-water marks and rejection/stall counters, and a batch-latency
histogram — everything the old sequential driver could only approximate
with terminal ``max()`` arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from operator import attrgetter
from typing import Dict, List, NamedTuple, Optional, Tuple

from .kernel import BLOCKED, BUSY, IDLE, Runtime


class Event(NamedTuple):
    """One fact of a run, appended to its stream where it happens.  ``at``
    is the shared simulated clock (views subtract the runtime's epoch);
    ``detail`` holds plain values, so identical runs give equal streams."""

    at: float
    kind: str
    subject: str
    detail: Dict[str, object]


@dataclass
class LayerTimes:
    """Aggregated simulated time one layer spent in each state."""

    busy: float = 0.0
    idle: float = 0.0
    blocked: float = 0.0

    def utilization(self, makespan: float) -> float:
        """Fraction of the run this layer spent doing work."""
        if makespan <= 0:
            return 0.0
        return self.busy / makespan

    def add(self, totals: Dict[str, float]) -> None:
        self.busy += totals.get(BUSY, 0.0)
        self.idle += totals.get(IDLE, 0.0)
        self.blocked += totals.get(BLOCKED, 0.0)


class _CounterSet:
    """Shared serialization for the flat per-run counter dataclasses."""

    def as_dict(self) -> Dict[str, float]:
        """Stable plain-dict form, keys in field order (what the chaos and
        external benchmarks serialize)."""
        return asdict(self)

    @property
    def any_activity(self) -> bool:
        return any(asdict(self).values())


@dataclass
class FaultMetrics(_CounterSet):
    """Per-feed failure/recovery counters for one run.

    Deterministic for a deterministic (workload, policy, fault plan)
    triple: identical runs produce byte-identical counter dicts.
    """

    records_skipped: int = 0  # soft errors dropped by a Skip policy
    records_dead_lettered: int = 0  # soft errors routed to the dead-letter dataset
    records_replayed: int = 0  # un-acked records reprocessed after a restart
    records_discarded: int = 0  # congestion discards (Discard policy)
    frames_dropped: int = 0  # congestion-discarded frames
    crashes: int = 0  # injected actor crashes received
    restarts: int = 0  # supervisor restarts performed
    backoff_seconds: float = 0.0  # total simulated backoff before restarts
    stall_seconds: float = 0.0  # injected slow-consumer stall time
    channel_send_failures: int = 0  # transient send failures (retried)
    disconnect_waits: int = 0  # producer waits on disconnected holders
    throttle_seconds: float = 0.0  # admission throttling under congestion
    idle_timeouts: int = 0  # adapter idle-waits ended by policy timeout
    circuit_breaker_trips: int = 0
    adapter_crashes: int = 0  # injected adapter deaths (source died mid-fetch)
    adapter_reopens: int = 0  # adapter re-opened from its resume cursor


@dataclass
class ExternalMetrics(_CounterSet):
    """Per-feed external-enrichment resilience counters for one run.

    Kept separate from :class:`FaultMetrics` so feeds without external
    enrichers keep byte-identical fault dicts (default-off parity).
    Deterministic for a deterministic (workload, policy, fault plan)
    triple, like everything else on this runtime.
    """

    calls: int = 0  # enricher calls issued (chunks, incl. retries)
    keys_requested: int = 0  # probe keys sent across all calls
    retries: int = 0  # calls re-issued after a failure
    errors: int = 0  # server-error call outcomes
    timeouts: int = 0  # calls that burned their full deadline
    rate_limited: int = 0  # server-side rate-limit rejections
    fail_fast: int = 0  # chunks rejected locally by an open breaker
    breaker_opens: int = 0
    breaker_half_opens: int = 0
    breaker_closes: int = 0  # recoveries (half-open probe succeeded)
    call_seconds: float = 0.0  # simulated time inside enricher calls
    backoff_seconds: float = 0.0  # simulated retry backoff
    records_enriched: int = 0  # records with every enrichment resolved
    records_pending: int = 0  # stored with the _enrichment_pending marker
    records_dead_lettered: int = 0  # routed aside by ExternalFailureAction


@dataclass
class HolderStats:
    """One partition holder's counters at the end of a run."""

    holder_id: str
    partition: int
    high_water: int = 0  # peak queued frames
    offered: int = 0
    rejected: int = 0  # failed offers (backpressure)
    blocked_seconds: float = 0.0  # producer time stalled on this holder


#: field metadata marking the counters ``plan_cache_stats(feed=...)`` lists
_PLAN_CACHE_STAT = {"plan_cache_stat": True}


@dataclass
class RunCounters:
    """The per-run counters a feed run fills once.

    One instance per run: :class:`RuntimeMetrics` and
    :class:`~repro.ingestion.feed.FeedRunReport` both hold it and expose
    every field under its own name (:func:`exposes_run_counters`), so
    ``report.memo_hits`` and ``report.runtime.memo_hits`` read the same
    object.  Adding a run counter = declare it here, fill it where the
    run computes it.
    """

    scale_ups: int = 0  # elastic pool grow events
    scale_downs: int = 0  # elastic pool shrink events (workers retired)
    intake_partitions: int = 1  # intake partition actors
    checkpoint_commits: int = 0  # durable checkpoint commits written
    #: the computing pool: its largest concurrent size (1 for the static
    #: pipeline's one job), sub-batch slices dispatched (counting each
    #: split batch's first slice; the ``of`` of its ``split`` events),
    #: batch indices the sequencer reassembled
    #: from sub-results, and batches it held for an earlier index
    peak_computing_workers: int = 1
    subbatches: int = 0
    subbatch_merges: int = 0
    reordered_batches: int = 0
    #: cross-batch enrichment-state cache activity during this run (zeros
    #: when the feed policy leaves the cache disabled); ``bytes`` is the
    #: cache's resident size at run end, not a per-run delta
    state_cache_hits: int = field(default=0, metadata=_PLAN_CACHE_STAT)
    state_cache_misses: int = field(default=0, metadata=_PLAN_CACHE_STAT)
    state_cache_evictions: int = field(default=0, metadata=_PLAN_CACHE_STAT)
    state_cache_bytes: int = field(default=0, metadata=_PLAN_CACHE_STAT)
    #: key-level enrichment memo activity during this run (same
    #: conventions as the state cache fields); the feed's one memo spans
    #: the scalar, columnar, and external probe paths
    memo_hits: int = field(default=0, metadata=_PLAN_CACHE_STAT)
    memo_misses: int = field(default=0, metadata=_PLAN_CACHE_STAT)
    memo_evictions: int = field(default=0, metadata=_PLAN_CACHE_STAT)
    memo_bytes: int = field(default=0, metadata=_PLAN_CACHE_STAT)
    #: columnar execution during this run, tallied per UDF-operator
    #: invocation: batches/records enriched through vectorized batch
    #: kernels and scalar fallbacks (whole frames plus individual
    #: fallen-back columns)
    vectorized_batches: int = field(default=0, metadata=_PLAN_CACHE_STAT)
    vectorized_records: int = field(default=0, metadata=_PLAN_CACHE_STAT)
    scalar_fallbacks: int = field(default=0, metadata=_PLAN_CACHE_STAT)
    #: external-enrichment resilience counters (``None`` when the feed has
    #: no external enrichers attached — default-off parity)
    external: Optional[ExternalMetrics] = None
    #: fraction of enrichment-requiring stored records fully enriched by
    #: run end (1.0 when nothing degraded, or nothing was required)
    enrichment_completeness: float = 1.0
    #: peak workers this feed held beyond its policy floor under a
    #: :class:`~repro.ingestion.fabric.FeedFabric` (0 without one)
    borrowed_workers: int = 0


#: the counters a feed's ``plan_cache_stats(feed=...)`` row lists
PLAN_CACHE_COUNTERS = tuple(
    counter.name
    for counter in fields(RunCounters)
    if counter.metadata.get("plan_cache_stat")
)


def exposes_run_counters(cls):
    """Class decorator: read every :class:`RunCounters` field of
    ``self.counters`` as an attribute of ``self``, under the same name."""
    for counter in fields(RunCounters):
        getter = attrgetter(f"counters.{counter.name}")
        setattr(cls, counter.name, property(getter))
    return cls


@exposes_run_counters
@dataclass
class RuntimeMetrics:
    """Snapshot of one feed run on the discrete-event runtime."""

    makespan_seconds: float
    #: sim seconds of pipeline ramp-up/drain — the emergent makespan minus
    #: the bottleneck layer's busy time; amortizes to nothing on long feeds
    fill_drain_seconds: float
    layers: Dict[str, LayerTimes] = field(default_factory=dict)
    processes: Dict[str, LayerTimes] = field(default_factory=dict)
    #: per-process merged (state, start, end) segments, relative to run start
    timelines: Dict[str, List[Tuple[str, float, float]]] = field(
        default_factory=dict
    )
    holders: List[HolderStats] = field(default_factory=list)
    stall_count: int = 0  # intake backpressure block events
    batch_latencies_seconds: List[float] = field(default_factory=list)
    #: failure/recovery counters (``None`` when the run had no fault layer)
    faults: Optional[FaultMetrics] = None
    #: which layer each process belongs to (``{process_name: layer}``)
    process_layers: Dict[str, str] = field(default_factory=dict)
    #: computing worker-pool size over the run: ``(sim_seconds, size)``
    #: steps, one entry per spawn/retire event (empty for static pipelines)
    worker_pool_timeline: List[Tuple[float, int]] = field(default_factory=list)
    #: the run's shared counters (also readable as attributes of this
    #: snapshot: ``metrics.memo_hits`` is ``metrics.counters.memo_hits``)
    counters: RunCounters = field(default_factory=RunCounters)
    #: the run's event stream (empty for static pipelines; the latencies
    #: and the pool timeline are its views), and the events of its
    #: fabric's stream whose subject is this feed
    events: List[Event] = field(default_factory=list)
    fabric_events: List[Event] = field(default_factory=list)

    # ------------------------------------------------------------- assembly

    @classmethod
    def from_runtime(
        cls,
        runtime: Runtime,
        holders: Optional[List[object]] = None,
        stall_count: int = 0,
        batch_latencies: Optional[List[float]] = None,
        steady_state_seconds: Optional[float] = None,
        faults: Optional[FaultMetrics] = None,
        worker_pool_timeline: Optional[List[Tuple[float, int]]] = None,
        process_prefix: Optional[str] = None,
        counters: Optional[RunCounters] = None,
    ) -> "RuntimeMetrics":
        makespan = runtime.elapsed
        steady = steady_state_seconds if steady_state_seconds is not None else makespan
        metrics = cls(
            makespan_seconds=makespan,
            fill_drain_seconds=max(0.0, makespan - steady),
            stall_count=stall_count,
            batch_latencies_seconds=list(batch_latencies or []),
            faults=faults,
            worker_pool_timeline=list(worker_pool_timeline or []),
            counters=counters if counters is not None else RunCounters(),
        )
        for process in runtime.processes:
            # A shared multi-feed runtime hosts every feed's processes;
            # the prefix filter keeps each feed's snapshot disjoint.
            if process_prefix is not None and not process.name.startswith(
                process_prefix
            ):
                continue
            metrics.processes[process.name] = LayerTimes(
                busy=process.totals[BUSY],
                idle=process.totals[IDLE],
                blocked=process.totals[BLOCKED],
            )
            metrics.timelines[process.name] = list(process.timeline)
            metrics.process_layers[process.name] = process.layer
            layer = metrics.layers.setdefault(process.layer, LayerTimes())
            layer.add(process.totals)
            if faults is not None:  # the kernel's own fault counts
                faults.crashes += process.crashes_received
                faults.stall_seconds += process.stall_seconds
        for holder in holders or []:
            metrics.holders.append(_holder_stats(holder))
        return metrics

    # -------------------------------------------------------------- queries

    def layer(self, name: str) -> LayerTimes:
        return self.layers.get(name, LayerTimes())

    def layer_process_times(self, layer_name: str) -> Dict[str, LayerTimes]:
        """Per-process times for one layer (each computing worker's share)."""
        return {
            name: times
            for name, times in self.processes.items()
            if self.process_layers.get(name, name) == layer_name
        }

    @property
    def holder_high_water(self) -> int:
        """Peak queued frames across every intake holder."""
        return max((h.high_water for h in self.holders), default=0)

    def latency_percentile(self, q: float) -> float:
        """Nearest-rank batch-latency percentile in simulated seconds.

        ``q`` is in ``(0, 100]``; returns 0.0 when the run recorded no
        batch latencies.  Nearest-rank (the value at ``ceil(q/100 · n)``)
        keeps the result an *observed* latency — the convention SLO
        monitors use — and is deterministic for a deterministic run.
        """
        if not 0 < q <= 100:
            raise ValueError("percentile q must be in (0, 100]")
        latencies = sorted(self.batch_latencies_seconds)
        if not latencies:
            return 0.0
        rank = max(1, math.ceil(q / 100.0 * len(latencies)))
        return latencies[rank - 1]

def _holder_stats(holder) -> HolderStats:
    return HolderStats(
        holder_id=holder.holder_id,
        partition=holder.partition,
        high_water=holder.high_water,
        offered=holder.offered,
        rejected=holder.rejected,
        blocked_seconds=holder.blocked_seconds,
    )
