"""The two ingestion frameworks: static (old) and dynamic (the paper's).

**Static** (§2.3 / §7.1 "Static Ingestion"): one continuous Hyracks job —
adapter and parser coupled on the intake node(s), attached UDFs evaluated
with the *stream* model (intermediate state initialized once, never
refreshed), records hash-partitioned into storage.  Stateful SQL++ UDFs
are rejected, matching current AsterixDB (§4.3.4), unless the caller
explicitly opts into the Model-3 ablation.

**Dynamic** (§5/§6, the contribution): a :class:`FeedRun` is three jobs,
each in its own module and the one owner of its state and its events —
the intake job (:mod:`~repro.ingestion.intake_job`), the computing job
(:mod:`~repro.ingestion.computing_job`) and the storage job
(:mod:`~repro.ingestion.storage_job`).  They meet only at the
:class:`~repro.runtime.IntakeBuffer` over the intake holders and at the
storage job's :class:`~repro.runtime.Sequencer`.

Execution model: each job's actors are processes on the cluster's
discrete-event runtime.  An intake lane blocks (with real backpressure
accounting) when a bounded partition holder fills; a computing worker
starves (idle) when the holders are empty; storage overlaps the next
computing job through a bounded work channel.  Layer
overlap, stalls, and the feed's makespan all *emerge from the schedule* —
the report's steady-state throughput still equals records divided by the
bottleneck layer's busy time, with pipeline fill/drain amortized into the
one-time start cost.  The coupled "insert job" of §5.1 (no decoupling) and
the no-predeploy ablation run on the same runtime, differing only in what
the computing workers charge per batch.
"""

from __future__ import annotations

import gc
from typing import Dict, List, Optional, Sequence, Union

from ..adm.schema import primary_key_of
from ..cluster.controller import Cluster
from ..errors import FeedStateError, IngestionError, StreamingJoinError
from ..hyracks.connectors import HashPartition, OneToOne, RoundRobin
from ..hyracks.job import JobSpecification, OperatorDescriptor
from ..hyracks.operators import DatasetWriteSink, ListSource, ParseOperator
from ..runtime import (
    Advance,
    Event,
    FaultMetrics,
    IntakeBuffer,
    RunCounters,
    RuntimeMetrics,
    Supervisor,
)
from ..sqlpp.analysis import dataset_references
from ..sqlpp.evaluator import EvaluationContext, Evaluator
from ..storage.checkpoint import CheckpointStore
from .adapter import FeedAdapter, drain_available
from .computing_job import ComputingJob, charge
from .feed import (
    BatchStats,
    ComputingModel,
    FeedDefinition,
    FeedRunReport,
    Framework,
)
from .intake_job import IntakeJob
from .policy import (
    DEFAULT_POLICY,
    ExternalFailureAction,
    FeedPolicy,
    SoftErrorAction,
    SoftErrorHandler,
    ensure_dead_letter_dataset,
)
from .storage_job import FeedCheckpoint, StorageJob
from .udf_operator import UdfEvaluatorOperator, make_invoker

def _check_stateful_support(feed: FeedDefinition, registry, catalog) -> None:
    """Static framework: reject stateful SQL++ UDFs unless Model-3 opt-in."""
    for fn in feed.functions:
        if fn.is_java:
            continue
        udf = registry.get(fn.name)
        if not udf.stateful:
            continue
        if feed.computing_model is not ComputingModel.STREAM:
            raise IngestionError(
                f"the static ingestion pipeline cannot evaluate stateful "
                f"SQL++ UDF {fn.name!r} (paper §4.3.4); use the dynamic "
                f"framework or opt into the stream-model ablation"
            )
        # Model 3 explicitly requested: it only works while the build side
        # fits in memory (§4.3.4 case 1 vs case 2).
        refs = dataset_references(udf.definition.body, set(catalog))
        for name in refs:
            size = len(catalog[name])
            if size > feed.stream_memory_budget:
                raise StreamingJoinError(
                    f"stream-model evaluation of {fn.name!r}: reference "
                    f"dataset {name!r} ({size} records) exceeds the join "
                    f"memory budget ({feed.stream_memory_budget}); spilled "
                    f"partitions can never be re-joined with an unbounded feed"
                )


def _soft_errors(catalog, feed, policy, faults, n: int, **stream) -> SoftErrorHandler:
    """The feed's soft-error handler, over its dead-letter dataset when the
    policy routes failed records aside (``stream``: the run's events and
    clock)."""
    dead_letters = None
    if policy.on_soft_error is SoftErrorAction.DEAD_LETTER or (
        feed.external_enrichers
        and policy.external_on_failure is ExternalFailureAction.DEAD_LETTER
    ):
        dead_letters = ensure_dead_letter_dataset(
            catalog, feed.name, policy, num_partitions=n
        )
    return SoftErrorHandler(feed.name, policy, faults, dead_letters, **stream)


class StaticIngestionPipeline:
    """The old AsterixDB feed: one continuous job, stream-model UDFs."""

    def __init__(self, cluster: Cluster, catalog: Dict[str, object], registry=None):
        self.cluster = cluster
        self.catalog = catalog
        self.registry = registry

    def _prewarm_stream_state(self, feed: FeedDefinition, eval_ctx) -> None:
        """Freeze stateful UDF inputs at feed-start time.

        SQL++ UDFs get their referenced datasets snapshotted into the scan
        cache (the hash-join build source); Java UDFs get their instances
        created and resource files read.
        """
        evaluator = Evaluator(eval_ctx)
        for fn in feed.functions:
            if fn.is_java:
                eval_ctx.snapshots.java_instance(
                    self.registry.get_java(fn.library or "udflib", fn.name),
                    eval_ctx.replicated_meter,
                )
            else:
                udf = self.registry.get(fn.name)
                refs = dataset_references(udf.definition.body, set(self.catalog))
                for name in sorted(refs):
                    evaluator._scan_dataset(self.catalog[name])

    def run(self, feed: FeedDefinition, adapter: FeedAdapter) -> FeedRunReport:
        try:
            return self._run(feed, adapter)
        finally:
            adapter.close()

    def _run(self, feed: FeedDefinition, adapter: FeedAdapter) -> FeedRunReport:
        if feed.functions and self.registry is None:
            raise IngestionError("a function registry is required for UDF feeds")
        if feed.external_enrichers:
            raise IngestionError(
                "external enrichers need the dynamic framework: the static "
                "pipeline has no per-batch coordinator to route probe keys "
                "through"
            )
        if feed.computing_model is ComputingModel.PER_RECORD:
            raise IngestionError(
                "computing model 'per_record' (Model 1) needs the dynamic "
                "framework: the static pipeline is one job and cannot "
                "refresh state per record"
            )
        if feed.fault_plan is not None:
            raise FeedStateError(
                "a fault plan needs the dynamic framework: the static "
                "pipeline is one job with no supervised actors to crash, "
                "stall or restart"
            )
        if feed.functions:
            _check_stateful_support(feed, self.registry, self.catalog)
        dataset = self.catalog[feed.target_dataset]
        cluster = self.cluster
        n = cluster.num_nodes
        cost = cluster.cost_model

        policy = feed.policy or DEFAULT_POLICY
        faults = FaultMetrics()
        counters = RunCounters()
        soft_errors = _soft_errors(self.catalog, feed, policy, faults, n)

        # One evaluation context for the whole feed: the stream model.
        # Stateful state (reference-data snapshots, Java resource files) is
        # initialized NOW, at feed start, before any data arrives — updates
        # made while the feed runs are never observed (§4.3.4 / §7.2).
        eval_ctx = EvaluationContext(
            self.catalog,
            functions=self.registry,
            reference_work_scale=feed.reference_work_scale,
        )
        eval_ctx.cluster_nodes = n
        self._prewarm_stream_state(feed, eval_ctx)

        # Synchronous drain: an idle-but-open adapter contributes what it
        # has *now* instead of raising (or spinning) mid-job.
        envelopes = drain_available(adapter)
        intake_nodes = list(range(n)) if feed.balanced_intake else [0]
        slices: List[List[dict]] = [[] for _ in intake_nodes]
        for i, envelope in enumerate(envelopes):
            slices[i % len(intake_nodes)].append(envelope)

        width = len(intake_nodes)
        stages = [(OneToOne(), OperatorDescriptor(
            "parser",
            lambda ctx: ParseOperator(ctx, feed.datatype, soft_errors=soft_errors),
            partitions=width,
            nodes=intake_nodes,
        ))]
        if feed.functions:
            invoker = make_invoker(feed.functions, self.registry, counters)
            stages.append((RoundRobin(), OperatorDescriptor(
                "udf-evaluator",
                lambda ctx: UdfEvaluatorOperator(
                    ctx, eval_ctx, invoker, counters, soft_errors
                ),
                partitions=n,
            )))
        stages.append((
            HashPartition(lambda r: primary_key_of(r, dataset.primary_key)),
            OperatorDescriptor(
                "storage", lambda ctx: DatasetWriteSink(ctx, dataset), partitions=n
            ),
        ))
        source = OperatorDescriptor(
            "adapter",
            lambda ctx: ListSource(
                ctx, partition_lists=slices, per_record_cost=cost.receive_per_record
            ),
            partitions=width,
            nodes=intake_nodes,
        )
        result = cluster.controller.run_job(
            JobSpecification(f"feed-{feed.name}-static", source, *stages)
        )
        makespan, critical, teardown, shared, replicated = charge(
            result, eval_ctx, cost, n
        )
        intake_busy = max(
            result.per_operator_busy.get("adapter", 0.0)
            + result.per_operator_busy.get("parser", 0.0),
            0.0,
        ) / max(len(intake_nodes), 1)

        # The static feed is one continuous job: a single runtime process
        # walking startup -> critical-path work -> teardown on the shared
        # cluster clock, so static and dynamic runs share one execution
        # path and one metrics format.
        run_name = f"feed-{feed.name}-static"
        runtime = cluster.new_runtime(run_name)

        def feed_process():
            yield Advance(result.startup_seconds)
            yield Advance(critical)
            if teardown > 0:
                yield Advance(teardown)

        runtime.spawn(run_name, feed_process(), layer="feed")
        runtime.run()

        report = FeedRunReport(
            feed_name=feed.name,
            framework=Framework.STATIC.value,
            records_ingested=len(envelopes),
            records_stored=result.records_out,
            simulated_seconds=makespan,
            intake_seconds=intake_busy,
            computing_seconds=result.per_operator_busy.get("udf-evaluator", 0.0) / n,
            storage_seconds=result.per_operator_busy.get("storage", 0.0) / n,
            num_computing_jobs=1,
            # The stream model builds state once per feed; over the paper's
            # millions of records that cost amortizes to nothing, so it is
            # excluded from steady-state throughput along with job startup.
            fixed_start_seconds=result.startup_seconds
            + teardown
            + shared / n
            + replicated,
            counters=counters,
        )
        report.runtime = RuntimeMetrics.from_runtime(
            runtime, faults=faults, counters=counters
        )
        return report


def _normalize_adapters(
    adapter: Union[FeedAdapter, Sequence[FeedAdapter]],
    policy: FeedPolicy,
) -> List[FeedAdapter]:
    """Resolve the run's intake partition adapters.

    A sequence of adapters attaches one adapter per intake partition (the
    multi-queue form of partitioned intake).  A single adapter with
    ``policy.intake_partitions > 1`` is range-split when it supports it
    (a :class:`~repro.ingestion.adapter.FileAdapter`); adapters without a
    ``split`` must be passed pre-partitioned.
    """
    if isinstance(adapter, FeedAdapter):
        parts = policy.intake_partitions
        if parts <= 1:
            return [adapter]
        split = getattr(adapter, "split", None)
        if split is None:
            raise IngestionError(
                f"intake_partitions={parts} needs a range-splittable "
                f"adapter (a FileAdapter) or an explicit sequence of one "
                f"adapter per partition; {type(adapter).__name__} has no "
                f"split()"
            )
        return split(parts)
    adapters = list(adapter)
    if not adapters:
        raise IngestionError("at least one intake adapter is required")
    if policy.intake_partitions > 1 and len(adapters) != policy.intake_partitions:
        raise IngestionError(
            f"policy asks for intake_partitions={policy.intake_partitions} "
            f"but {len(adapters)} adapters were attached"
        )
    return adapters


class FeedRun:
    """One dynamic feed run: the paper's three jobs, wired, and its report.

    :meth:`DynamicIngestionPipeline.launch` builds the run completely —
    jobs built, computing job predeployed, actors spawned on the
    runtime — and returns it instead of driving the clock, so a caller
    can launch *several* feeds onto one shared runtime and run them as a
    fleet (:meth:`AsterixLite.start_feeds`).  :func:`drive_runs` is the
    driving protocol for both.  The jobs are :attr:`intake`,
    :attr:`computing` and :attr:`storage` (DESIGN.md §6); :meth:`finalize`
    fills every :class:`~repro.runtime.RunCounters` name, once.
    """

    def __init__(
        self,
        pipeline: "DynamicIngestionPipeline",
        feed: FeedDefinition,
        adapter: Union[FeedAdapter, Sequence[FeedAdapter]],
        update_client=None,
        predeploy: bool = True,
        decoupled: bool = True,
        checkpoint: Optional[CheckpointStore] = None,
        resume: bool = False,
        fabric=None,
    ):
        self.feed = feed
        self.run_name = run_name = f"feed-{feed.name}"
        self.cluster = cluster = pipeline.cluster
        registry = pipeline.registry
        self.fabric = fabric
        dataset = pipeline.catalog[feed.target_dataset]
        n = cluster.num_nodes
        batch_size = feed.batch_size
        if feed.computing_model is ComputingModel.PER_RECORD:
            batch_size = 1
        self.policy = policy = feed.policy or DEFAULT_POLICY
        self.adapters = _normalize_adapters(adapter, policy)
        num_partitions = len(self.adapters)
        #: the run's control facts, one event each (DESIGN.md §6): the
        #: report's pool, batch, recovery and external figures are views
        self.events: List[Event] = []
        self.checkpoint = None
        if checkpoint is not None:
            self.checkpoint = FeedCheckpoint(
                checkpoint, feed.name, run_name, num_partitions, resume,
                self.events, cluster.clock,
            )
        self.faults = FaultMetrics()
        self.counters = RunCounters(intake_partitions=num_partitions)
        self.soft_errors = _soft_errors(
            pipeline.catalog, feed, policy, self.faults, n,
            events=self.events, clock=cluster.clock,
        )
        # Opt-in cross-batch reuse: the feed's own state cache (build-side
        # state) and memo (key-level results, for the local probe paths and
        # the external coordinator) outlive its runs.  A run uses those its
        # policy grants bytes, memo first (the governor's grant order); the
        # fabric's governor, if any, sets their budgets, else the policy.
        self.caches: Dict[str, object] = {}
        if registry is not None:
            own_state_cache, own_memo = registry.caches_for(feed.name)
            for prefix, cache, budget in (
                ("memo", own_memo, policy.enrichment_memo_bytes),
                ("state_cache", own_state_cache, policy.state_cache_bytes),
            ):
                if budget <= 0:
                    continue
                self.caches[prefix] = cache
                if fabric is not None and fabric.governor is not None:
                    fabric.register_cache(run_name, cache, policy)
                else:
                    cache.configure(budget)
        self.intake = IntakeJob(
            cluster, feed, self.adapters, batch_size, self.events, self.checkpoint
        )
        self.storage = StorageJob(cluster, dataset, self.checkpoint, decoupled)
        self.computing = ComputingJob(
            run_name=run_name, feed=feed, policy=policy, cluster=cluster,
            catalog=pipeline.catalog, registry=registry, counters=self.counters,
            events=self.events, soft_errors=self.soft_errors,
            memo=self.caches.get("memo"), state_cache=self.caches.get("state_cache"),
            batch_size=batch_size, predeploy=predeploy, update_client=update_client,
            fabric=fabric, checkpoint=self.checkpoint,
        )
        # The feed's caches outlive a run, so a run reports the deltas of
        # their cumulative counters since launch (the memo covers all
        # three probe paths — scalar, columnar, external — in one instance).
        self.caches_before = {
            prefix: cache.stats() for prefix, cache in self.caches.items()
        }

    # ------------------------------------------------------------ wiring

    def start(self, runtime=None) -> None:
        """Spawn the run's actors on ``runtime`` without driving the clock.

        ``None`` creates the feed's private runtime and installs the
        feed's own fault plan; a shared multi-feed runtime arrives with
        the fleet's merged fault plan already installed by the
        orchestrator.  Actors spawn intake lanes first, then the floor
        workers, the storage writer and the elastic controller.
        """
        feed, policy, fabric = self.feed, self.policy, self.fabric
        intake, computing, storage = self.intake, self.computing, self.storage
        run_name = self.run_name
        if runtime is None:
            runtime = self.cluster.new_runtime(run_name)
            runtime.install_fault_plan(feed.fault_plan)
        self.runtime = runtime
        self.buffer = buffer = IntakeBuffer(
            runtime,
            intake.holders,
            congestion=policy.on_congestion.value,
            faults=self.faults,
        )
        storage.open(runtime, run_name)
        supervisor = Supervisor(runtime, policy.restart_policy(), self.events)
        dead_letters = self.soft_errors.dead_letters
        computing.open(runtime, buffer, supervisor, storage, dead_letters)
        intake.start(run_name, buffer, supervisor)
        for _ in range(policy.min_computing_workers):
            computing.spawn_worker("floor")
        if fabric is not None:
            fabric.register_feed(run_name, policy, computing)
        if storage.channel is not None:
            supervisor.spawn(f"{run_name}.storage", storage.process, layer="storage")
        if policy.elastic_enabled:
            runtime.spawn(
                f"{run_name}.elastic", computing.elastic_controller(), layer="elastic"
            )

    # --------------------------------------------------------- reporting

    def finalize(self, elapsed: float) -> FeedRunReport:
        """Assemble the run report; ``elapsed`` is the runtime's makespan."""
        counters, events = self.counters, self.events
        intake, storage = self.intake, self.storage
        sequencer, channel = storage.sequencer, storage.channel
        coordinator = self.computing.coordinator
        if self.checkpoint is not None:
            # the run drained cleanly: seal the checkpoint so a later
            # resume knows there is nothing left to replay
            self.checkpoint.commit(
                sequencer.next_index, storage.records_stored, complete=True
            )
        n = self.cluster.num_nodes
        batches = [event for event in events if event.kind == "batch"]
        running, pool = 0, []  # the pool's size after each spawn and retire
        for event in events:
            if event.kind in ("spawn", "retire"):
                running += 1 if event.kind == "spawn" else -1
                pool.append((event.at - self.runtime.epoch, running))
        counters.peak_computing_workers = max(size for _at, size in pool)
        # Busy seconds are summed in completion order, per worker and
        # over the pool; every worker ever spawned has an entry.
        busy = {e.subject: 0.0 for e in events if e.kind == "spawn"}
        computing_seconds = 0.0
        for event in batches:
            computing_seconds += event.detail["makespan"]
            busy[event.subject] += event.detail["makespan"]
        # With overlapping workers the layer's aggregate busy exceeds
        # any wall-clock interval; the *bottleneck* contribution is the
        # slowest single worker (identical to the aggregate when the
        # pool size is 1), as the intake's is its slowest lane.
        computing_bottleneck = max(busy.values(), default=0.0)
        if channel is not None:
            steady = max(intake.bottleneck, computing_bottleneck, storage.max_busy)
        else:
            steady = max(intake.bottleneck, computing_bottleneck)
        start_overhead = self.cluster.cost_model.job_startup(n, predeployed=False) * 2
        # The emergent makespan exceeds the bottleneck layer's busy time
        # by the pipeline's fill/drain ramp; like job startup, that ramp
        # is a one-time cost that amortizes to nothing on a long-running
        # feed, so it lands in fixed_start_seconds and steady-state
        # throughput remains records / bottleneck-busy.  Computed as one
        # subtraction so simulated - fixed_start recovers the bottleneck
        # time exactly.  On a shared multi-feed runtime ``elapsed`` is
        # the *fleet's* makespan, so every report of the run carries the
        # same simulated_seconds — the aggregate figure multi-tenant
        # benchmarks compare.
        simulated = start_overhead + elapsed
        report = FeedRunReport(
            feed_name=self.feed.name,
            framework=Framework.DYNAMIC.value,
            records_ingested=intake.records_received,
            records_stored=storage.records_stored,
            simulated_seconds=simulated,
            intake_seconds=intake.bottleneck,
            computing_seconds=computing_seconds,
            storage_seconds=storage.max_busy,
            num_computing_jobs=len(batches),
            batch_stats=sorted(
                (
                    BatchStats(d["index"], d["records"], d["makespan"],
                               d["startup"], d["shared"], d["sub"])
                    for d in (event.detail for event in batches)
                ),
                key=lambda stats: (stats.batch_index, stats.sub_index),
            ),
            stalls=self.buffer.stalls,
            fixed_start_seconds=simulated - steady,
            # first completed batch's invoke -> last batch's completion
            computing_wall_seconds=(
                max(event.at for event in batches)
                - min(event.detail["started"] for event in batches)
                if batches
                else 0.0
            ),
            computing_worker_busy=busy,
            intake_partition_busy=(
                dict(intake.partition_busy) if intake.num_partitions > 1 else {}
            ),
            acked_batches=sequencer.next_index,
            resumed_from_checkpoint=(
                self.checkpoint is not None and self.checkpoint.base is not None
            ),
            counters=counters,
        )
        counters.reordered_batches = sequencer.reordered
        counters.subbatch_merges = sequencer.subbatch_merges
        causes = [event.detail.get("cause") for event in events]
        counters.scale_ups = causes.count("grow") + causes.count("grant")
        counters.scale_downs = causes.count("shrink")
        counters.checkpoint_commits = sum(e.kind == "checkpoint" for e in events)
        counters.subbatches = sum(e.detail["of"] for e in events if e.kind == "split")
        # this run's share of each of the feed's caches' cumulative
        # counters: hit/miss/eviction deltas since launch, bytes as a gauge
        for prefix, cache in self.caches.items():
            before, after = self.caches_before[prefix], cache.stats()
            for key in ("hits", "misses", "evictions"):
                setattr(counters, f"{prefix}_{key}", after[key] - before[key])
            setattr(counters, f"{prefix}_bytes", after["bytes"])
        if coordinator is not None:
            counters.external = coordinator.finalize()
            counters.enrichment_completeness = coordinator.completeness
        report.runtime = metrics = RuntimeMetrics.from_runtime(
            self.runtime,
            holders=intake.holders,
            stall_count=self.buffer.stalls
            + (channel.stalls if channel is not None else 0),
            batch_latencies=[event.detail["latency"] for event in batches],
            steady_state_seconds=steady,
            faults=self.faults,
            worker_pool_timeline=pool,
            process_prefix=f"{self.run_name}.",
            counters=counters,
        )
        metrics.events = events
        self._fold_faults(metrics.processes)
        if self.fabric is not None:
            tenant = self.fabric.tenant_report(self.run_name)
            counters.borrowed_workers = tenant["borrowed_workers"]
            metrics.fabric_events = [
                e for e in self.fabric.events if e.subject == self.run_name
            ]
        return report

    def _fold_faults(self, processes) -> None:
        """Fold the views of the run's stream into :attr:`faults` (the
        metrics snapshot folds the kernel's crashes and stalls); backoff
        seconds are summed per actor in ``processes`` (spawn) order, then
        across actors."""
        faults, events = self.faults, self.events
        backoff = dict.fromkeys(processes, 0.0)
        for event in events:
            if event.kind == "restart":
                backoff[event.subject] += event.detail["backoff"]
        faults.backoff_seconds = sum(backoff.values(), 0.0)
        kinds = [event.kind for event in events]
        faults.restarts = kinds.count("restart")
        faults.adapter_crashes = kinds.count("adapter_death")
        faults.adapter_reopens = kinds.count("adapter_reopen")
        faults.idle_timeouts = kinds.count("idle_timeout")
        faults.records_replayed = sum(
            e.detail["records"] for e in events if e.kind == "replay"
        )
        # the soft-error breaker's one transition is its trip to open
        tripped = self.soft_errors.breaker.name
        faults.circuit_breaker_trips = sum(e.subject == tripped for e in events)
        if self.storage.channel is not None:
            faults.channel_send_failures = self.storage.channel.send_failures

    def cleanup(self) -> None:
        """Release what the run holds outside itself on every way out, a
        :meth:`start` failing half-way included: the fabric/governor
        tenancy, the predeployed job, the adapters' external resources
        (e.g. a FileAdapter's handle)."""
        if self.fabric is not None:
            self.fabric.deregister_feed(self.run_name)
        self.cluster.controller.undeploy(self.computing.job_id)
        for part_adapter in self.adapters:
            part_adapter.close()


def drive_runs(runtime, runs: Sequence[FeedRun]) -> List[FeedRunReport]:
    """Drive launched runs — one feed or a fleet — to completion on ``runtime``.

    The driving protocol, once: ``runtime.run()``, one report per run
    carrying the runtime's makespan, and every run cleaned up on every way
    out.

    Each storage release freezes what the collector tracks
    (:meth:`~repro.ingestion.storage_job.StorageJob.release`) and every
    way out unfreezes it, so the permanent generation is empty again when
    this returns or raises — including anything a caller had frozen before
    the drive.
    """
    try:
        elapsed = runtime.run()
        return [run.finalize(elapsed) for run in runs]
    finally:
        gc.unfreeze()
        for run in runs:
            run.cleanup()


class DynamicIngestionPipeline:
    """The paper's layered ingestion framework."""

    def __init__(
        self,
        cluster: Cluster,
        catalog: Dict[str, object],
        registry=None,
    ):
        self.cluster = cluster
        self.catalog = catalog
        self.registry = registry

    def run(
        self,
        feed: FeedDefinition,
        adapter: Union[FeedAdapter, Sequence[FeedAdapter]],
        **options,
    ) -> FeedRunReport:
        """Drive the feed to completion on a private runtime; returns the
        run report.  ``options`` are :meth:`launch`'s, less ``fabric``."""
        feed_run = self.launch(feed, adapter, runtime=None, fabric=None, **options)
        return drive_runs(feed_run.runtime, [feed_run])[0]

    def launch(
        self,
        feed: FeedDefinition,
        adapter: Union[FeedAdapter, Sequence[FeedAdapter]],
        *,
        runtime=None,
        **options,
    ) -> FeedRun:
        """Set the run up without driving the clock; returns the run.

        ``adapter`` is one adapter (range-split into
        ``policy.intake_partitions`` partitions when > 1) or a sequence of
        adapters, one per intake partition.  The ``options`` are
        :class:`FeedRun`'s:

        * ``update_client`` (a :class:`ReferenceUpdateClient`) is advanced
          by each batch's simulated duration — the §7.3 experiment.
        * ``predeploy=False`` and ``decoupled=False`` are the §5.1/§5.2
          ablations; both run on the same discrete-event runtime.
        * ``checkpoint`` (a :class:`~repro.storage.CheckpointStore`) makes
          the run durably restartable: each storage commit persists the
          per-partition intake cursors and acked-batch high-water.  With
          ``resume=True`` an existing checkpoint re-opens each partition's
          adapter at its durable cursor — zero acked loss, the un-acked
          tail replayed and deduped by pk-upsert.
        * ``fabric`` enrolls the feed's worker pool once its floor workers
          run — and, when the fabric carries a memory governor, the
          feed's state cache and memo — with a
          :class:`~repro.ingestion.fabric.FeedFabric`, whose ``validate``
          the caller runs over the fleet's floors first (as
          ``start_feeds`` does).

        ``runtime`` attaches the feed's processes to a caller-owned
        (shared, multi-feed) runtime instead of a fresh private one; the
        caller is then responsible for installing the fleet's (merged)
        fault plan before launching and for driving ``runtime.run()``
        itself.  Without a runtime or a fabric, the solo path (:meth:`run`)
        is bit-for-bit the historical single-feed pipeline.
        """
        if feed.computing_model is ComputingModel.STREAM:
            raise IngestionError(
                "computing model 'stream' (Model 3) needs the static "
                "framework: a dynamic run rebuilds state every batch, so "
                "it would run Model 2 and see reference updates"
            )
        if feed.functions and self.registry is None:
            raise IngestionError("a function registry is required for UDF feeds")
        feed_run = FeedRun(self, feed, adapter, **options)
        try:
            feed_run.start(runtime)
        except BaseException:
            feed_run.cleanup()
            raise
        return feed_run
