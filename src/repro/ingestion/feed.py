"""Feed definitions and run reports."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from ..runtime.metrics import RunCounters, exposes_run_counters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.faults import FaultPlan
    from ..runtime.metrics import FaultMetrics, RuntimeMetrics
    from .external import EnricherBinding
    from .policy import FeedPolicy


class Framework(enum.Enum):
    """Which ingestion framework executes the feed."""

    STATIC = "static"  # the old AsterixDB pipeline (one continuous job)
    DYNAMIC = "dynamic"  # the paper's layered framework (intake/compute/store)


class ComputingModel(enum.Enum):
    """§4.3's three computing models for stateful UDFs on a feed."""

    PER_RECORD = "per_record"  # Model 1: refresh state per record
    PER_BATCH = "per_batch"  # Model 2: refresh state per batch (the paper's)
    STREAM = "stream"  # Model 3: initialize once, never refresh


@dataclass
class AttachedFunction:
    """A UDF attached to a feed (``APPLY FUNCTION`` in the DDL)."""

    name: str
    language: str = "sqlpp"  # 'sqlpp' | 'java'
    library: Optional[str] = None  # java library name, e.g. 'udflib'

    @property
    def is_java(self) -> bool:
        return self.language == "java"


@dataclass
class FeedDefinition:
    """Everything needed to run one feed."""

    name: str
    target_dataset: str
    datatype: Optional[object] = None  # adm.Datatype for parse-time coercion
    batch_size: int = 420  # the paper's 1X
    framework: Framework = Framework.DYNAMIC
    computing_model: ComputingModel = ComputingModel.PER_BATCH
    functions: List[AttachedFunction] = field(default_factory=list)
    balanced_intake: bool = False  # adapter on all nodes vs node 0 only
    intake_holder_capacity: int = 64  # frames per passive partition holder
    write_mode: str = "upsert"
    stream_memory_budget: int = 1 << 20  # records; Model 3 spill threshold
    reference_work_scale: float = 1.0  # charge ref work as if x larger
    storage_queue_capacity: int = 8  # computing->storage work items in flight
    #: fault handling: soft errors, congestion, restarts (None = Basic,
    #: i.e. the fail-fast seed behavior)
    policy: Optional["FeedPolicy"] = None
    #: deterministic injected-fault schedule (None = no faults)
    fault_plan: Optional["FaultPlan"] = None
    #: external-enrichment bindings routed through the resilient
    #: EnrichmentCoordinator (empty = the local-only enrichment path)
    external_enrichers: List["EnricherBinding"] = field(default_factory=list)


@dataclass
class BatchStats:
    """Per-computing-job observations (drives Figure 26)."""

    batch_index: int
    records: int
    makespan_seconds: float
    startup_seconds: float
    shared_state_seconds: float
    #: slice number when the batch was split across the worker pool
    #: (intra-batch parallelism); ``0`` for an unsplit batch
    sub_index: int = 0


@exposes_run_counters
@dataclass
class FeedRunReport:
    """Outcome of one feed run on the simulated cluster."""

    feed_name: str
    framework: str
    records_ingested: int
    records_stored: int
    simulated_seconds: float
    intake_seconds: float
    computing_seconds: float
    storage_seconds: float
    num_computing_jobs: int = 0
    batch_stats: List[BatchStats] = field(default_factory=list)
    stalls: int = 0  # intake backpressure events
    fixed_start_seconds: float = 0.0  # one-time feed start cost (amortized)
    extra: Dict[str, float] = field(default_factory=dict)
    #: worker-pool accounting: ``computing_seconds`` is the layer's
    #: *aggregate* busy across all workers (it can exceed any wall-clock
    #: span when workers overlap); ``computing_wall_seconds`` is the clock
    #: span from the first batch's invoke to the last batch's completion;
    #: ``computing_worker_busy`` is each worker's own aggregate
    computing_wall_seconds: float = 0.0
    computing_worker_busy: Dict[str, float] = field(default_factory=dict)
    peak_computing_workers: int = 1
    #: partitioned intake: each partition's aggregate busy seconds (empty
    #: for the single actor)
    intake_partition_busy: Dict[int, float] = field(default_factory=dict)
    #: intra-batch parallelism: sub-batch slices dispatched across the
    #: worker pool (0 when no batch was split)
    subbatches_dispatched: int = 0
    #: durable-restart accounting: batches released in order by the
    #: sequencer, and whether this run resumed from a durable checkpoint
    acked_batches: int = 0
    resumed_from_checkpoint: bool = False
    #: the run's shared counters — elastic scale events, cache / memo /
    #: columnar activity, external enrichment, fabric attribution — each
    #: also readable as an attribute of this report (``report.memo_hits``);
    #: the same object backs ``report.runtime``
    counters: RunCounters = field(default_factory=RunCounters)
    #: per-layer busy/idle/blocked timelines, holder high-water marks,
    #: stall counts, and batch latencies from the discrete-event runtime
    runtime: Optional["RuntimeMetrics"] = None

    @property
    def throughput(self) -> float:
        """Steady-state records per simulated second.

        The paper measures continuous ingestion over millions of records,
        where the once-per-feed startup (job compilation, distribution)
        amortizes to nothing; we exclude it so scaled-down runs report the
        same steady-state quantity.  Per-batch computing-job overheads —
        the phenomenon the paper studies — remain fully included.
        """
        seconds = self.simulated_seconds - self.fixed_start_seconds
        if seconds <= 0:
            return 0.0
        return self.records_ingested / seconds

    @property
    def computing_concurrency(self) -> float:
        """Achieved computing overlap: aggregate busy over wall span.

        ``1.0`` for a single serialized worker; approaches the pool size
        when workers overlap perfectly.  ``0.0`` when no batch ran.
        """
        if self.computing_wall_seconds <= 0:
            return 0.0
        return self.computing_seconds / self.computing_wall_seconds

    @property
    def vectorized_fraction(self) -> float:
        """Fraction of ingested records enriched on the columnar path."""
        if self.records_ingested <= 0:
            return 0.0
        return min(1.0, self.vectorized_records / self.records_ingested)

    @property
    def faults(self) -> Optional["FaultMetrics"]:
        """This run's failure/recovery counters (``None`` if no fault layer)."""
        return self.runtime.faults if self.runtime is not None else None

    def latency_percentile(self, q: float) -> float:
        """Nearest-rank batch-latency percentile (0.0 before the run)."""
        if self.runtime is None:
            return 0.0
        return self.runtime.latency_percentile(q)

    @property
    def latency_p50(self) -> float:
        return self.latency_percentile(50)

    @property
    def latency_p95(self) -> float:
        return self.latency_percentile(95)

    @property
    def latency_p99(self) -> float:
        return self.latency_percentile(99)

    @property
    def refresh_period(self) -> float:
        """Mean computing-job execution time (Figure 26's metric)."""
        if not self.batch_stats:
            return 0.0
        return sum(b.makespan_seconds for b in self.batch_stats) / len(
            self.batch_stats
        )

    @property
    def refresh_rate(self) -> float:
        """Computing jobs per steady-state simulated second (§7.1's metric).

        Uses the same convention as ``throughput``: the one-time feed
        start cost (``fixed_start_seconds``) is excluded from the
        denominator, so both metrics describe the same steady-state
        regime.
        """
        seconds = self.simulated_seconds - self.fixed_start_seconds
        if seconds <= 0:
            return 0.0
        return self.num_computing_jobs / seconds
