"""The two ingestion frameworks: static (old) and dynamic (the paper's).

**Static** (§2.3 / §7.1 "Static Ingestion"): one continuous Hyracks job —
adapter and parser coupled on the intake node(s), attached UDFs evaluated
with the *stream* model (intermediate state initialized once, never
refreshed), records hash-partitioned into storage.  Stateful SQL++ UDFs
are rejected, matching current AsterixDB (§4.3.4), unless the caller
explicitly opts into the Model-3 ablation.

**Dynamic** (§5/§6, the contribution): three layers —

* an *intake job* running for the feed's lifetime: adapter + round-robin
  partitioner + passive intake partition holders;
* a *computing job*, predeployed and invoked once per batch by the Active
  Feed Manager: collector + parser + UDF evaluator, with intermediate
  state refreshed every invocation;
* a *storage job* running for the feed's lifetime: active storage
  partition holders + primary-key hash partitioner + LSM writers.

Execution model: each layer is a :class:`~repro.runtime.Process` on the
cluster's discrete-event runtime.  The intake process blocks (with real
backpressure accounting) when a bounded partition holder fills; the
computing process starves (idle) when the holders are empty; storage
overlaps the next computing job through a bounded work channel.  Layer
overlap, stalls, and the feed's makespan all *emerge from the schedule* —
the report's steady-state throughput still equals records divided by the
bottleneck layer's busy time, with pipeline fill/drain amortized into the
one-time start cost.  The coupled "insert job" of §5.1 (no decoupling) and
the no-predeploy ablation run on the same runtime, differing only in what
the computing process charges per batch.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Union

from ..adm.schema import primary_key_of
from ..cluster.controller import Cluster
from ..errors import IngestionError, InjectedCrash, StreamingJoinError
from ..hyracks.connectors import HashPartition, OneToOne, RoundRobin
from ..hyracks.frame import DEFAULT_FRAME_CAPACITY, Frame
from ..hyracks.job import JobSpecification, OperatorDescriptor
from ..hyracks.operators import DatasetWriteSink, ListSource, ParseOperator
from ..hyracks.operators.sinks import CallbackSink
from ..hyracks.partition_holder import ActivePartitionHolder, PassivePartitionHolder
from ..runtime import (
    Advance,
    CANCELLED,
    Channel,
    FaultMetrics,
    IDLE,
    IntakeBuffer,
    RunCounters,
    RuntimeMetrics,
    Sequencer,
    Supervisor,
)
from ..sqlpp.analysis import dataset_references
from ..sqlpp.evaluator import EvaluationContext, Evaluator
from ..storage.checkpoint import CheckpointStore, PartitionCursor, RunCheckpoint
from .adapter import ADAPTER_IDLE, FeedAdapter, drain_available
from .feed import (
    BatchStats,
    ComputingModel,
    FeedDefinition,
    FeedRunReport,
    Framework,
)
from .external import EnrichmentCoordinator
from .fabric import FeedSignals
from .policy import (
    DEFAULT_POLICY,
    ExternalFailureAction,
    FeedPolicy,
    SoftErrorAction,
    SoftErrorHandler,
    ensure_dead_letter_dataset,
)
from .udf_operator import UdfEvaluatorOperator, make_batch_invoker, make_invoker

#: elastic-controller constants.  Every ``ELASTIC_SAMPLE_SECONDS`` of
#: simulated time the controller samples the intake buffer.  A sample is
#: *congested* when holder occupancy reaches the scale-up threshold, the
#: producer is blocked (or stalled since the last sample), or at least
#: ``ELASTIC_BACKLOG_BATCHES`` full batches sit ready in the buffer; it
#: is *starved* when occupancy is at or below the scale-down threshold,
#: the producer is unblocked, and less than one full batch is queued.
#: ``ELASTIC_SUSTAINED_SAMPLES`` consecutive congested (starved) samples
#: grow (retire) one worker.
ELASTIC_SAMPLE_SECONDS = 0.02
ELASTIC_SCALE_UP_OCCUPANCY = 0.5
ELASTIC_SCALE_DOWN_OCCUPANCY = 0.05
ELASTIC_BACKLOG_BATCHES = 2.0
ELASTIC_SUSTAINED_SAMPLES = 2


class _SubBatch:
    """One slice of an oversized batch, dispatched to a pool worker.

    Slices share the parent batch's sequencer ``index``; the sequencer
    reassembles the ``of`` sub-results in ``sub`` order before the in-order
    release, so storage sees exactly the unsplit batch's output.
    """

    __slots__ = ("index", "sub", "of", "lists", "records")

    def __init__(self, index: int, sub: int, of: int, lists: List[List[dict]]):
        self.index = index
        self.sub = sub
        self.of = of
        self.lists = lists
        self.records = sum(len(p) for p in lists)

    def __repr__(self):
        return f"<SubBatch {self.index}.{self.sub}/{self.of} ({self.records}r)>"


def _split_batch(
    batch: List[List[dict]], max_records: int
) -> Optional[List[List[List[dict]]]]:
    """Slice an oversized batch into sub-batches of ≤ ``max_records``.

    Each per-node list is sliced proportionally, so concatenating the
    sub-batches in sub order recovers the original per-node lists exactly
    (record order preserved node-by-node).  Returns ``None`` when no split
    is warranted (disabled, small batch, or everything lands in one slice).
    """
    total = sum(len(p) for p in batch)
    if max_records <= 0 or total <= max_records:
        return None
    k = -(-total // max_records)  # ceil division
    subs: List[List[List[dict]]] = []
    for s in range(k):
        lists = [
            p[(len(p) * s) // k : (len(p) * (s + 1)) // k] for p in batch
        ]
        if any(lists):
            subs.append(lists)
    return subs if len(subs) > 1 else None


class _StorageLayer:
    """The storage job: active holders feeding per-node LSM writers.

    Performs the real dataset writes and accounts per-node storage busy
    time (store cost, log forces, cross-node transfer for records whose
    primary-key hash lands elsewhere).  In decoupled mode it also runs as
    a runtime process consuming per-batch work items from a channel, so
    its busy time overlaps the next computing job.
    """

    def __init__(self, cluster: Cluster, dataset, write_mode: str):
        self.cluster = cluster
        self.dataset = dataset
        self.write = dataset.insert if write_mode == "insert" else dataset.upsert
        self.node_busy: Dict[int, float] = {n: 0.0 for n in range(cluster.num_nodes)}
        self.records_stored = 0
        self.holders = [
            ActivePartitionHolder(f"storage-{dataset.name}", p, _NullWriter())
            for p in range(cluster.num_nodes)
        ]
        for holder in self.holders:
            cluster.holder_manager.register(holder)

    def store_batch(self, outputs: List[List[dict]]) -> float:
        """Write one computing job's output; returns this batch's max busy.

        ``outputs[p]`` is the enriched record list produced on node ``p``.
        """
        cost = self.cluster.cost_model
        n = self.cluster.num_nodes
        transfer, store = cost.transfer_per_record, cost.store_per_record
        locate, write = self.dataset.locate, self.write
        # per node: seconds this batch charged it (a node nothing charged
        # stays at 0.0, which adds nothing below) and whether it stored
        batch_busy = [0.0] * n
        touched = [False] * n
        stored = 0
        try:
            for producer_node, records in enumerate(outputs):
                if not records:
                    continue
                home = producer_node % n
                self.holders[home].push(Frame(records))
                for record in records:
                    # key and hash once per record: the node here, the
                    # dataset partition inside the write
                    located = locate(record)
                    target = located[1] % n
                    if target != home:
                        batch_busy[home] += transfer
                    write(record, located)
                    stored += 1
                    batch_busy[target] += store
                    touched[target] = True
        finally:
            self.records_stored += stored
        node_busy = self.node_busy
        for node in range(n):
            if touched[node]:
                batch_busy[node] += cost.log_flush_per_batch
            node_busy[node] += batch_busy[node]
        return max(batch_busy)

    def process(self, channel: Channel):
        """Runtime process: advance through queued per-batch write work."""
        while True:
            seconds = yield from channel.get()
            if seconds is None:
                break
            if seconds > 0:
                yield Advance(seconds)

    @property
    def max_busy(self) -> float:
        return max(self.node_busy.values())

    def close(self) -> None:
        for holder in self.holders:
            holder.close()
        self.cluster.holder_manager.unregister(f"storage-{self.dataset.name}")


class _NullWriter:
    def open(self):
        pass

    def next_frame(self, frame):
        pass

    def close(self):
        pass


class _IntakeLayer:
    """The intake job: adapter(s) + round-robin partitioner + holders.

    With ``num_partitions > 1`` the feed runs partitioned intake: each
    partition is its own intake actor driving its own adapter, pinned
    round-robin to an intake node, all merging into the shared holder set
    under one logical cursor (per-partition ``(partition, seq)``
    watermarks).  The single-partition feed keeps the historical
    round-robin-per-record node accounting bit-for-bit.
    """

    def __init__(
        self,
        cluster: Cluster,
        feed: FeedDefinition,
        num_partitions: int = 1,
        track_cursors: bool = False,
    ):
        self.cluster = cluster
        self.feed = feed
        self.num_partitions = num_partitions
        #: coordination between the partition actors: the last one to
        #: finish ends the shared buffer; adapter faults are consumed
        #: run-wide; with ``track_cursors`` each partition logs
        #: ``(max seq, resume cursor)`` hints the checkpoint commits consume
        self.open_actors = num_partitions
        self.faults_consumed: set = set()
        self.cursor_log: Optional[Dict[int, list]] = (
            {p: [] for p in range(num_partitions)} if track_cursors else None
        )
        n = cluster.num_nodes
        self.intake_nodes = list(range(n)) if feed.balanced_intake else [0]
        self.node_busy: Dict[int, float] = {node: 0.0 for node in self.intake_nodes}
        #: per intake partition: its actor's accumulated busy seconds
        self.partition_busy: Dict[int, float] = {
            p: 0.0 for p in range(num_partitions)
        }
        self.holders = [
            PassivePartitionHolder(
                f"intake-{feed.name}", p, feed.intake_holder_capacity
            )
            for p in range(n)
        ]
        for holder in self.holders:
            cluster.holder_manager.register(holder)
        self._rr = 0
        self._intake_rr = 0
        self.records_received = 0

    def _receive(self, chunk: List[dict], partition: int = 0):
        """Account one chunk's receive/fan-out work; returns framed output.

        Returns ``(target, frame)`` pairs in deposit order: holder ``p``
        lives on node ``p``, so records landing elsewhere charge a
        transfer to the receiving intake node.

        Partitioned intake pins each partition's work to one intake node
        (partitions map round-robin onto the feed's intake nodes) and
        stamps each envelope with its partition for cursor tracking; the
        single-partition path is unchanged.
        """
        cost = self.cluster.cost_model
        n = self.cluster.num_nodes
        buffers: List[List[dict]] = [[] for _ in range(n)]
        per = cost.receive_per_record + cost.intake_fanout_per_record
        transfer = cost.transfer_per_record
        node_busy = self.node_busy
        # the round-robin cursors advance once per envelope; they are
        # walked in locals and written back after the chunk
        target = self._rr % n
        if self.num_partitions > 1:
            pinned = self.intake_nodes[partition % len(self.intake_nodes)]
            remote = per + transfer
            busy, mine = node_busy[pinned], self.partition_busy[partition]
            for envelope in chunk:
                envelope["partition"] = partition
                # holder p lives on node p
                charged = remote if target != pinned else per
                busy += charged
                mine += charged
                buffers[target].append(envelope)
                target += 1
                if target == n:
                    target = 0
            node_busy[pinned], self.partition_busy[partition] = busy, mine
        else:
            intake_nodes = self.intake_nodes
            width = len(intake_nodes)
            at = self._intake_rr % width
            for envelope in chunk:
                intake_node = intake_nodes[at]
                at += 1
                if at == width:
                    at = 0
                node_busy[intake_node] += per
                if target != intake_node:  # holder p lives on node p
                    node_busy[intake_node] += transfer
                buffers[target].append(envelope)
                target += 1
                if target == n:
                    target = 0
            self._intake_rr += len(chunk)
        self._rr += len(chunk)
        self.records_received += len(chunk)
        frames = []
        for target, buffered in enumerate(buffers):
            for start in range(0, len(buffered), DEFAULT_FRAME_CAPACITY):
                frames.append(
                    (target, Frame(buffered[start : start + DEFAULT_FRAME_CAPACITY]))
                )
        return frames

    def make_body(
        self,
        adapter: FeedAdapter,
        buffer: IntakeBuffer,
        chunk_size: int,
        policy: FeedPolicy,
        faults: FaultMetrics,
        partition: int = 0,
        resume_from=None,
    ):
        """Build the intake actor's restartable body factory.

        The returned factory is invoked once for the first run and once
        per supervisor restart; drawn-but-undelivered envelopes and frames
        live in closure state, so a crash mid-deposit replays them instead
        of losing them (at-least-once — duplicates resolve downstream via
        primary-key upsert).

        ``buffer.put`` suspends this process (accounted as *blocked*) while
        the target holder is full — backpressure propagates to the adapter
        instead of force-appending past the holder's bound.  An idle-but-
        open adapter (a :class:`QueueAdapter` drained before ``end()``)
        surfaces as accounted idle time, bounded by the policy's
        ``adapter_idle_timeout_seconds``.

        An :class:`~repro.runtime.faults.AdapterFailAt` in the fault plan
        kills the adapter after it has drawn that many envelopes: the
        source is closed and the intake actor crashes; on the supervisor's
        restart the adapter is re-opened from its resume cursor
        (:meth:`~repro.ingestion.adapter.FeedAdapter.resume_position`), so
        envelopes already drawn (held in closure state) are never drawn
        twice and nothing after the cursor is skipped.

        ``partition`` names this actor's intake partition; the partition
        actors coordinate through this layer (open-actor count so the
        *last* finisher ends the buffer, the run-wide set of consumed
        adapter faults, and the per-partition durable cursor log the
        checkpoint commits consume).  ``resume_from`` re-opens a fresh
        adapter at a durable cursor (``resume_run``) — distinct from the
        in-process re-open after an adapter death, which resumes from the
        live ``resume_position()``.
        """
        plan = buffer.runtime.fault_plan
        cursor_log = self.cursor_log
        state = {
            # only pass resume_from when actually resuming: adapter
            # subclasses predating durable restart may not accept it
            "source": (
                adapter.envelopes(resume_from=resume_from)
                if resume_from is not None
                else adapter.envelopes()
            ),
            "drawn": 0,  # envelopes drawn over the adapter's lifetime
            "exhausted": False,
            "advanced": 0.0,
            "chunk": None,  # envelopes drawn but not yet framed
            "pending": None,  # (target, frame) pairs not yet delivered
            "idle": 0.0,
            "ended": False,
        }
        poll = policy.adapter_idle_poll_seconds
        timeout = policy.adapter_idle_timeout_seconds

        def due_adapter_fault():
            for index, fault in plan.adapter_failures_indexed():
                if index in self.faults_consumed:
                    continue
                if fault.partition is not None and fault.partition != partition:
                    continue
                if (
                    getattr(fault, "feed", None) is not None
                    and fault.feed != self.feed.name
                ):
                    continue
                if state["drawn"] >= fault.after_records:
                    self.faults_consumed.add(index)
                    return fault
            return None

        def body():
            if state["source"] is None:
                # restarted after an adapter death: re-open from the cursor
                state["source"] = adapter.envelopes(
                    resume_from=adapter.resume_position()
                )
                faults.adapter_reopens += 1
            source = state["source"]
            while True:
                if state["pending"] is None:
                    if state["exhausted"]:
                        break
                    if state["chunk"] is None:
                        state["chunk"] = []
                    chunk = state["chunk"]
                    while len(chunk) < chunk_size:
                        fault = due_adapter_fault() if plan is not None else None
                        if fault is not None:
                            # the source died mid-fetch: drop the iterator,
                            # release its resources, and crash this actor —
                            # the supervisor restarts it and the re-opened
                            # source resumes from the cursor
                            state["source"] = None
                            faults.adapter_crashes += 1
                            adapter.close()
                            raise InjectedCrash(fault)
                        try:
                            item = next(source)
                        except StopIteration:
                            state["exhausted"] = True
                            break
                        if item is ADAPTER_IDLE:
                            if chunk:
                                break  # deliver what we have before idling
                            if timeout is not None and state["idle"] >= timeout:
                                faults.idle_timeouts += 1
                                state["exhausted"] = True
                                break
                            state["idle"] += poll
                            yield Advance(poll, state=IDLE)
                            continue
                        state["idle"] = 0.0
                        state["drawn"] += 1
                        chunk.append(item)
                    if not chunk:
                        if state["exhausted"]:
                            break
                        continue
                    frames = self._receive(chunk, partition)
                    if cursor_log is not None:
                        # durable-resume hint: after this chunk is fully
                        # deposited, a restart may re-open the adapter here
                        cursor_log[partition].append(
                            (
                                max(e["seq"] for e in chunk),
                                adapter.resume_position(),
                            )
                        )
                    state["chunk"] = None
                    # Stash undelivered frames *before* consuming sim time:
                    # a crash from here on replays them.
                    state["pending"] = list(frames)
                    # A partitioned actor advances by its own partition's
                    # busy time (actors overlap); the single actor keeps
                    # the historical max-over-intake-nodes accounting.
                    busy_now = (
                        self.partition_busy[partition]
                        if self.num_partitions > 1
                        else self.max_busy
                    )
                    delta = busy_now - state["advanced"]
                    state["advanced"] = busy_now
                    if delta > 0:
                        yield Advance(delta)
                pending = state["pending"]
                while pending:
                    target, frame = pending[0]
                    yield from buffer.put(target, frame)
                    pending.pop(0)
                state["pending"] = None
                # Batch boundary: yield the slice so a waiting computing
                # process evaluates this chunk's batch before the adapter
                # draws (and side-effects) the next chunk.
                yield Advance(0.0)
            if not state["ended"]:
                state["ended"] = True
                self.open_actors -= 1
                if self.open_actors == 0:
                    # last partition standing ends the shared buffer
                    buffer.end()

        return body

    @property
    def max_busy(self) -> float:
        return max(self.node_busy.values())

    def close(self) -> None:
        self.cluster.holder_manager.unregister(f"intake-{self.feed.name}")


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
                descriptor = self.registry.get_java(fn.library or "udflib", fn.name)
                key = ("java_instance", descriptor.qualified_name)
                if key not in eval_ctx.batch_cache:
                    instance = descriptor.instantiate()
                    eval_ctx.batch_cache[key] = instance
                    eval_ctx.replicated_meter.records_scanned += (
                        instance.resource_lines_loaded
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
        if feed.functions:
            _check_stateful_support(feed, self.registry, self.catalog)
        dataset = self.catalog[feed.target_dataset]
        cluster = self.cluster
        n = cluster.num_nodes
        cost = cluster.cost_model

        policy = feed.policy or DEFAULT_POLICY
        faults = FaultMetrics()
        counters = RunCounters()
        dead_letters = None
        if policy.on_soft_error is SoftErrorAction.DEAD_LETTER:
            dead_letters = ensure_dead_letter_dataset(
                self.catalog, feed.name, policy, num_partitions=n
            )
        soft_errors = SoftErrorHandler(feed.name, policy, faults, dead_letters)

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
        invoker = make_invoker(feed.functions, self.registry) if feed.functions else None
        batch_invoker = make_batch_invoker(feed.functions, self.registry, counters)
        self._prewarm_stream_state(feed, eval_ctx)

        # Synchronous drain: an idle-but-open adapter contributes what it
        # has *now* instead of raising (or spinning) mid-job.
        envelopes = drain_available(adapter)
        intake_nodes = list(range(n)) if feed.balanced_intake else [0]
        slices: List[List[dict]] = [[] for _ in intake_nodes]
        for i, envelope in enumerate(envelopes):
            slices[i % len(intake_nodes)].append(envelope)

        spec = JobSpecification(f"feed-{feed.name}-static")
        src = spec.add_operator(
            OperatorDescriptor(
                "adapter",
                lambda ctx: ListSource(
                    ctx,
                    partition_lists=slices,
                    per_record_cost=cost.receive_per_record,
                ),
                partitions=len(intake_nodes),
                nodes=intake_nodes,
            )
        )
        parse = spec.add_operator(
            OperatorDescriptor(
                "parser",
                lambda ctx: ParseOperator(
                    ctx, feed.datatype, soft_errors=soft_errors
                ),
                partitions=len(intake_nodes),
                nodes=intake_nodes,
            )
        )
        spec.connect(src, parse, OneToOne())
        upstream = parse
        if invoker is not None:
            udf = spec.add_operator(
                OperatorDescriptor(
                    "udf-evaluator",
                    lambda ctx: UdfEvaluatorOperator(
                        ctx,
                        eval_ctx,
                        invoker,
                        counters,
                        soft_errors=soft_errors,
                        batch_invoker=batch_invoker,
                    ),
                    partitions=n,
                )
            )
            spec.connect(upstream, udf, RoundRobin())
            upstream = udf
        sink = spec.add_operator(
            OperatorDescriptor(
                "storage",
                lambda ctx: DatasetWriteSink(ctx, dataset, feed.write_mode),
                partitions=n,
            )
        )
        spec.connect(
            upstream,
            sink,
            HashPartition(lambda r: primary_key_of(r, dataset.primary_key)),
        )

        result = cluster.controller.run_job(spec)
        shared_seconds = eval_ctx.shared_meter.charge(cost)
        replicated_seconds = eval_ctx.replicated_meter.charge(cost)
        busy = dict(result.node_busy_seconds)
        for node in busy:
            busy[node] += shared_seconds / n + replicated_seconds
        teardown = (
            result.makespan_seconds
            - result.startup_seconds
            - result.critical_node_seconds
        )
        makespan = result.startup_seconds + max(busy.values()) + teardown
        intake_busy = max(
            result.per_operator_busy.get("adapter", 0.0)
            + result.per_operator_busy.get("parser", 0.0),
            0.0,
        ) / max(len(intake_nodes), 1)

        # The static feed is one continuous job: a single runtime process
        # walking startup -> critical-path work -> teardown on the shared
        # cluster clock, so static and dynamic runs share one execution
        # path and one metrics format.
        runtime = cluster.new_runtime(f"feed-{feed.name}-static")
        run_name = f"feed-{feed.name}-static"

        def feed_process():
            yield Advance(result.startup_seconds)
            yield Advance(max(busy.values()))
            if teardown > 0:
                yield Advance(teardown)

        runtime.spawn(run_name, feed_process(), layer="feed")
        cluster.controller.begin_run(run_name)
        try:
            runtime.run()
        finally:
            cluster.controller.finish_run(run_name)

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
            + shared_seconds / n
            + replicated_seconds,
            counters=counters,
        )
        report.runtime = RuntimeMetrics.from_runtime(
            runtime, faults=faults, counters=counters
        )
        return report


class ActiveFeedManager:
    """The AFM (§6.1): tracks active feeds, invokes computing jobs."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self.active_feeds: Dict[str, str] = {}  # feed name -> deployed job id
        self.jobs_invoked: Dict[str, int] = {}

    def register_feed(self, feed_name: str, deployed_job_id: str) -> None:
        if feed_name in self.active_feeds:
            raise IngestionError(f"feed {feed_name!r} is already active")
        self.active_feeds[feed_name] = deployed_job_id
        self.jobs_invoked.setdefault(feed_name, 0)

    def invoke_computing_job(self, feed_name: str, params, predeployed=True):
        if feed_name not in self.active_feeds:
            raise IngestionError(f"feed {feed_name!r} is not active")
        job_id = self.active_feeds[feed_name]
        self.jobs_invoked[feed_name] += 1
        return self.cluster.controller.invoke(job_id, params)

    def deregister_feed(self, feed_name: str) -> None:
        job_id = self.active_feeds.pop(feed_name, None)
        if job_id is not None:
            self.cluster.controller.undeploy(job_id)


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




class _Inflight:
    """One pool worker's un-acked ``(index, batch, sub, of)`` claim.

    Set when the worker pulls from the intake buffer, cleared only after
    the sequenced storage hand-off; it outlives the worker's generator so
    a supervised restart replays it under the *same* batch index.
    """

    __slots__ = ("claim",)

    def __init__(self):
        self.claim: Optional[tuple] = None


class FeedRun:
    """One dynamic feed run: its state, its actors, and its report.

    :meth:`DynamicIngestionPipeline.launch` builds the run completely —
    layers built, computing job predeployed, actors spawned on the
    runtime — and returns it instead of driving the clock, so a caller
    can launch *several* feeds onto one shared runtime and run them as a
    fleet (:meth:`AsterixLite.start_feeds`).  :func:`drive_runs` is the
    driving protocol for both.

    The actors are this object's generator methods, each a
    :class:`~repro.runtime.Process` on the run's runtime: one intake actor
    per partition (:meth:`_IntakeLayer.make_body`), a pool of computing
    workers (:meth:`_worker_loop`), the storage writer
    (:meth:`_StorageLayer.process`) and — for an elastic policy — the
    controller that resizes the pool (:meth:`_elastic_controller`).  They
    share the run's state as plain attributes; everything a report
    carries under a :class:`~repro.runtime.RunCounters` name is filled
    into :attr:`counters`, once.
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
        self.feed_name = feed.name
        self.run_name = run_name = f"feed-{feed.name}"
        self.cluster = cluster = pipeline.cluster
        registry = pipeline.registry
        self.afm = pipeline.afm
        self.update_client = update_client
        self.predeploy = predeploy
        self.decoupled = decoupled
        self.checkpoint = checkpoint
        self.fabric = fabric
        dataset = pipeline.catalog[feed.target_dataset]
        n = cluster.num_nodes

        self.batch_size = feed.batch_size
        if feed.computing_model is ComputingModel.PER_RECORD:
            self.batch_size = 1

        self.policy = policy = feed.policy or DEFAULT_POLICY
        self.adapters = _normalize_adapters(adapter, policy)
        self.num_partitions = num_partitions = len(self.adapters)
        #: checkpointing: per-partition max claimed seq, batch index ->
        #: cursor snapshot at claim time, per-partition durable re-open hint
        self.cursor: Dict[int, int] = {}
        self.marks: Dict[int, Dict[int, int]] = {}
        self.resume_cursors: Dict[int, object] = {}
        self.base_checkpoint: Optional[RunCheckpoint] = None
        if checkpoint is not None and resume:
            base = self.base_checkpoint = checkpoint.load(feed.name)
            if base is not None:
                if base.intake_partitions != num_partitions:
                    raise IngestionError(
                        f"checkpoint for feed {feed.name!r} was written "
                        f"with {base.intake_partitions} intake "
                        f"partition(s); this run attached {num_partitions}"
                    )
                # partitions that receive no new records keep their durable
                # position instead of regressing to "nothing acked"
                for p, cursor in base.cursors.items():
                    self.cursor[p] = cursor.acked_seq
                    self.resume_cursors[p] = cursor.resume
        self.faults = FaultMetrics()
        self.counters = RunCounters(intake_partitions=num_partitions)
        dead_letters = None
        if policy.on_soft_error is SoftErrorAction.DEAD_LETTER or (
            feed.external_enrichers
            and policy.external_on_failure is ExternalFailureAction.DEAD_LETTER
        ):
            dead_letters = ensure_dead_letter_dataset(
                pipeline.catalog, feed.name, policy, num_partitions=n
            )
        self.soft_errors = SoftErrorHandler(
            feed.name, policy, self.faults, dead_letters
        )
        # Opt-in cross-batch reuse: the feed's own state cache (build-side
        # state) and memo (key-level results; handed to the local probe
        # paths via eval_ctx and to the external coordinator), kept across
        # the feed's runs.  A run uses the ones its policy grants bytes
        # for; the memo is enrolled first (the governor's grant order).
        state_cache = self.memo = None
        if registry is not None:
            own_state_cache, own_memo = registry.caches_for(feed.name)
            if policy.enrichment_memo_bytes > 0:
                self.memo = own_memo
                self._set_budget(own_memo, policy.enrichment_memo_bytes)
            if policy.state_cache_bytes > 0:
                state_cache = own_state_cache
                self._set_budget(state_cache, policy.state_cache_bytes)
        self.coordinator = None
        if feed.external_enrichers:
            # One coordinator per run: breakers and rate limiters carry
            # state across batches (and across worker-crash replays).
            self.coordinator = EnrichmentCoordinator(
                feed.external_enrichers,
                policy,
                fault_plan=feed.fault_plan,
                dead_letters=dead_letters,
                feed_name=feed.name,
                primary_key=dataset.primary_key,
                memo=self.memo,
            )

        self.intake = _IntakeLayer(
            cluster, feed, num_partitions, track_cursors=checkpoint is not None
        )
        self.storage = _StorageLayer(cluster, dataset, feed.write_mode)
        self.eval_ctx = eval_ctx = EvaluationContext(
            pipeline.catalog,
            functions=registry,
            reference_work_scale=feed.reference_work_scale,
        )
        eval_ctx.cluster_nodes = n
        eval_ctx.memo = self.memo
        eval_ctx.state_cache = state_cache
        self.invoker = (
            make_invoker(feed.functions, registry) if feed.functions else None
        )
        self.batch_invoker = make_batch_invoker(
            feed.functions, registry, self.counters
        )
        #: the CallbackSink's output slot, swapped per invocation:
        #: concurrent workers each install their own buffer right before
        #: invoking (an invocation is synchronous within one worker resume,
        #: so the slot is never shared across two in-flight invokes)
        self.outputs: List[List[dict]] = [[] for _ in range(n)]

        job_id = cluster.controller.deploy(run_name, self._computing_spec)
        self.afm.register_feed(feed.name, job_id)

        self.report = FeedRunReport(
            feed_name=feed.name,
            framework=Framework.DYNAMIC.value,
            records_ingested=0,
            records_stored=0,
            simulated_seconds=0.0,
            intake_seconds=0.0,
            computing_seconds=0.0,
            storage_seconds=0.0,
            counters=self.counters,
        )
        # The feed's caches outlive a run, so a run reports the deltas of
        # their cumulative counters since launch (the memo covers all
        # three probe paths — scalar, columnar, external — in one instance).
        self.state_cache_before = (
            state_cache.stats() if state_cache is not None else None
        )
        self.memo_before = self.memo.stats() if self.memo is not None else None

        # ------------------------------------------------ computing worker pool
        self.computing_total = 0.0  # aggregate busy across all workers
        self.batch_latencies: List[float] = []
        self.next_batch_index = 0  # next batch index to hand to a worker
        self.workers_spawned = 0  # workers ever created (names stay unique)
        self.workers_running = 0
        self.workers_peak = 0
        self.shrink_tokens = 0  # outstanding scale-down tokens
        self.pool_timeline: List[tuple] = []  # (sim_seconds, pool size) steps
        self.worker_busy: Dict[str, float] = {}  # per-worker aggregate busy
        self.first_busy: Optional[float] = None  # clock at the first invoke
        self.last_busy = 0.0  # clock after the last batch's work
        self.pool_ended = False
        self.subqueue: deque = deque()  # pending _SubBatch slices for idle peers
        self.subbatches = 0  # sub-batch dispatches (counts the first slice)

    def _set_budget(self, cache, policy_bytes: int) -> None:
        """Who sets the budget of one of the feed's caches: the fabric's
        memory governor (which re-assigns it at batch boundaries) when
        there is one, else the policy's fixed byte count."""
        if self.fabric is not None and self.fabric.governor is not None:
            self.fabric.register_cache(self.run_name, cache, self.policy)
        else:
            cache.configure(policy_bytes)

    # ------------------------------------------------------------ wiring

    def start(self, runtime=None) -> None:
        """Spawn the run's actors on ``runtime`` without driving the clock.

        ``None`` creates the feed's private runtime and installs the
        feed's own fault plan; a shared multi-feed runtime arrives with
        the fleet's merged fault plan already installed by the
        orchestrator.
        """
        feed, policy, fabric = self.feed, self.policy, self.fabric
        run_name = self.run_name
        if runtime is None:
            runtime = self.cluster.new_runtime(run_name)
            runtime.install_fault_plan(feed.fault_plan)
        self.runtime = runtime
        self.buffer = buffer = IntakeBuffer(
            runtime,
            self.intake.holders,
            congestion=policy.on_congestion.value,
            faults=self.faults,
        )
        self.storage_channel = (
            Channel(runtime, feed.storage_queue_capacity, name=f"{run_name}.storage")
            if self.decoupled
            else None
        )
        #: the order-preserving hand-off in front of storage: workers
        #: complete batches out of index order, the sequencer releases the
        #: real writes (and the storage channel items) in index order, so
        #: pk-upsert order / acked guarantees / dead-letter provenance are
        #: byte-identical to the single-actor pipeline
        self.sequencer = Sequencer(
            self.storage.store_batch,
            self.storage_channel,
            merge=self._merge_subbatch,
        )
        self.supervisor = supervisor = Supervisor(runtime, policy.restart_policy())
        elastic = policy.elastic_enabled
        if fabric is not None:
            fabric.register_feed(
                run_name,
                policy,
                grow=self._grow_pool if elastic else None,
                recall=self._fabric_recall if elastic else None,
            )
        # one intake actor per partition, individually supervised: fault
        # targets can name one ('intake.p1') or the whole layer; the
        # single actor keeps the historical unsuffixed name
        for p, part_adapter in enumerate(self.adapters):
            supervisor.spawn(
                f"{run_name}.intake"
                if self.num_partitions == 1
                else f"{run_name}.intake.p{p}",
                self.intake.make_body(
                    part_adapter, buffer, self.batch_size, policy, self.faults,
                    partition=p,
                    resume_from=self.resume_cursors.get(p),
                ),
                layer="intake",
            )
        for _ in range(policy.min_computing_workers):
            self._spawn_worker()
        if fabric is not None:
            fabric.note_initial(run_name, policy.min_computing_workers)
        if self.decoupled:
            supervisor.spawn(
                f"{run_name}.storage",
                lambda: self.storage.process(self.storage_channel),
                layer="storage",
            )
        if elastic:
            runtime.spawn(
                f"{run_name}.elastic", self._elastic_controller(), layer="elastic"
            )

    def _computing_spec(self, partition_lists: List[List[dict]]) -> JobSpecification:
        """The per-batch computing job: collector → parser → UDF → sink."""
        feed = self.feed
        n = self.cluster.num_nodes
        spec = JobSpecification(f"feed-{feed.name}-computing")
        src = spec.add_operator(
            OperatorDescriptor(
                "collector",
                lambda ctx: ListSource(ctx, partition_lists=partition_lists),
                partitions=n,
            )
        )
        parse = spec.add_operator(
            OperatorDescriptor(
                "parser",
                lambda ctx: ParseOperator(
                    ctx, feed.datatype, soft_errors=self.soft_errors
                ),
                partitions=n,
            )
        )
        spec.connect(src, parse, OneToOne())
        upstream = parse
        if self.invoker is not None:
            udf = spec.add_operator(
                OperatorDescriptor(
                    "udf-evaluator",
                    lambda ctx: UdfEvaluatorOperator(
                        ctx,
                        self.eval_ctx,
                        self.invoker,
                        self.counters,
                        soft_errors=self.soft_errors,
                        batch_invoker=self.batch_invoker,
                    ),
                    partitions=n,
                )
            )
            spec.connect(upstream, udf, OneToOne())
            upstream = udf
        sink = spec.add_operator(
            OperatorDescriptor(
                "feed-pipeline-sink",
                lambda ctx: CallbackSink(ctx, self._collect),
                partitions=n,
            )
        )
        spec.connect(upstream, sink, OneToOne())
        return spec

    def _collect(self, partition: int, frame: Frame) -> None:
        self.outputs[partition].extend(frame.records)

    def _merge_subbatch(self, parts: List[List[List[dict]]]) -> List[List[dict]]:
        # Per-node concatenation in sub order recovers exactly the
        # unsplit batch's per-node outputs (see _split_batch).
        return [
            [record for part in parts for record in part[node]]
            for node in range(self.cluster.num_nodes)
        ]

    # ------------------------------------------------------ checkpointing

    def _note_claimed(self, index: int, batch: List[List[dict]]) -> None:
        """Advance the logical cursor; snapshot it for ``index``.

        Batch indices are claimed in order under the deterministic
        scheduler, so the snapshot taken when ``index`` is claimed
        covers exactly batches ``0..index`` — releasing ``index``
        makes that snapshot the durable acked watermark.
        """
        cursor = self.cursor
        for records in batch:
            for envelope in records:
                p = envelope.get("partition", 0)
                seq = envelope.get("seq", -1)
                if seq > cursor.get(p, -1):
                    cursor[p] = seq
        self.marks[index] = dict(cursor)

    def _commit_checkpoint(self, complete: bool = False) -> None:
        """Persist cursors covering everything released so far."""
        watermark = self.sequencer.next_index - 1
        mark = self.marks.get(watermark)
        if mark is None:
            if not complete:
                return
            mark = self.cursor
        base = self.base_checkpoint
        cursors = {}
        for p in range(self.num_partitions):
            acked = mark.get(p, -1)
            log = self.intake.cursor_log[p]
            # the newest fully-deposited chunk at/below the watermark
            # becomes the partition's durable re-open point; the gap up
            # to the watermark replays and dedupes via pk-upsert
            while log and log[0][0] <= acked:
                self.resume_cursors[p] = log.pop(0)[1]
            cursors[p] = PartitionCursor(
                acked_seq=acked, resume=self.resume_cursors.get(p)
            )
        self.checkpoint.commit(
            RunCheckpoint(
                feed=self.feed.name,
                intake_partitions=self.num_partitions,
                cursors=cursors,
                acked_batches=(base.acked_batches if base is not None else 0)
                + self.sequencer.next_index,
                records_stored=self.storage.records_stored,
                complete=complete,
            )
        )
        self.counters.checkpoint_commits += 1

    # ------------------------------------------------------- worker pool

    def _claim_subbatch(self):
        if self.subqueue:
            return self.subqueue.popleft()
        return None

    def _claim_shrink(self) -> bool:
        if self.shrink_tokens > 0:
            self.shrink_tokens -= 1
            return True
        return False

    def _worker_loop(self, worker_name: str, inflight: _Inflight):
        """One pool worker's AFM loop: collect, invoke, sequence.

        ``inflight`` is the worker's un-acked (index, batch) pair: set
        when pulled from the intake buffer, cleared only after the
        sequenced storage hand-off — a crash in between replays it
        under the *same* batch index (at-least-once; the sequencer
        re-releases already-released indices and upsert dedupes).
        """
        feed, fabric, run_name = self.feed, self.fabric, self.run_name
        cluster, runtime, buffer = self.cluster, self.runtime, self.buffer
        eval_ctx, coordinator, report = self.eval_ctx, self.coordinator, self.report
        n = cluster.num_nodes
        cost = cluster.cost_model
        track = self.checkpoint is not None
        max_sub = self.policy.max_subbatch_records
        split_enabled = max_sub > 0
        claim_shrink = self._claim_shrink if self.policy.elastic_enabled else None
        steal = self._claim_subbatch if split_enabled else None

        while True:
            if inflight.claim is not None:
                index, batch, sub, of = inflight.claim
                self.faults.records_replayed += sum(len(p) for p in batch)
            else:
                got = yield from buffer.collect(
                    self.batch_size, cancel=claim_shrink, steal=steal
                )
                if got is CANCELLED:
                    self.counters.scale_downs += 1
                    break  # retired by the elastic controller
                if got is None:
                    break  # EOF and drained
                if isinstance(got, _SubBatch):
                    # a peer's oversized batch: work one slice of it
                    index, sub, of = got.index, got.sub, got.of
                    batch = got.lists
                else:
                    index = self.next_batch_index
                    self.next_batch_index += 1
                    if track:
                        self._note_claimed(index, got)
                    subs = _split_batch(got, max_sub) if split_enabled else None
                    if subs is None:
                        batch, sub, of = got, 0, 1
                    else:
                        # keep the first slice; queue the rest and wake
                        # idle peers to steal them
                        of = len(subs)
                        self.subbatches += of
                        for s in range(1, of):
                            self.subqueue.append(_SubBatch(index, s, of, subs[s]))
                        buffer.kick()
                        batch, sub = subs[0], 0
                inflight.claim = (index, batch, sub, of)
            total = sum(len(p) for p in batch)
            outputs: List[List[dict]] = [[] for _ in range(n)]
            self.outputs = outputs
            eval_ctx.refresh_batch()
            eval_ctx.shared_meter.reset()
            eval_ctx.replicated_meter.reset()
            if self.predeploy:
                result = self.afm.invoke_computing_job(feed.name, batch)
            else:
                result = cluster.controller.run_job(self._computing_spec(batch))
            shared_seconds = eval_ctx.shared_meter.charge(cost)
            replicated_seconds = eval_ctx.replicated_meter.charge(cost)
            busy = dict(result.node_busy_seconds)
            for node in busy:
                busy[node] += shared_seconds / n + replicated_seconds
            teardown = (
                result.makespan_seconds
                - result.startup_seconds
                - result.critical_node_seconds
            )
            makespan = result.startup_seconds + max(busy.values()) + teardown
            if feed.functions:
                makespan += cost.udf_job_overhead(n)
            if coordinator is not None:
                # External fan-out happens after the local computing
                # job finishes, so its fault windows are evaluated at
                # the batch's completion time and its elapsed time
                # lands on the batch makespan (mutates ``outputs``:
                # enrichments stored, pending markers added,
                # dead-lettered records removed before storage).
                makespan += coordinator.enrich_batch(
                    outputs, runtime.clock.now + makespan
                )
            batch_started = runtime.clock.now
            if self.first_busy is None:
                self.first_busy = batch_started
            yield Advance(makespan)
            # Sequenced hand-off: the real writes (and storage-channel
            # items) for this index — plus any later indices it
            # unblocks — are released in batch order.
            released = yield from self.sequencer.put(
                index, outputs, sub_index=sub, num_subs=of
            )
            if track and released:
                # the released batches' writes are on disk: persist
                # the cursors that make them durable across a restart
                self._commit_checkpoint()
            if fabric is not None and released:
                # a batch boundary: the memory governor's rebalance
                # point (a no-op for fabrics without a governor)
                fabric.note_batch_released(run_name)
            if not self.decoupled:
                # §5.2 ablation: the coupled insert job waits for the
                # log force and storage writes before finishing (a
                # worker also absorbs the wait for any peer batches
                # its release unblocked).
                for rel_index, rel_seconds in released:
                    if rel_seconds > 0:
                        yield Advance(rel_seconds)
                    if rel_index == index:
                        makespan += rel_seconds
            self.computing_total += makespan
            self.worker_busy[worker_name] += makespan
            self.last_busy = max(self.last_busy, runtime.clock.now)
            report.num_computing_jobs += 1
            self.batch_latencies.append(runtime.clock.now - batch_started)
            report.batch_stats.append(
                BatchStats(
                    batch_index=index,
                    records=total,
                    makespan_seconds=makespan,
                    startup_seconds=result.startup_seconds,
                    shared_state_seconds=shared_seconds,
                    sub_index=sub,
                )
            )
            if self.update_client is not None:
                self.update_client.advance(makespan)
            inflight.claim = None  # acked: the sequencer released it
        self.workers_running -= 1
        self.pool_timeline.append((runtime.clock.now - runtime.epoch, self.workers_running))
        if fabric is not None:
            # EOF drain or a recalled retire: either way this worker's
            # lease returns to the fabric, which may immediately fund
            # a queued borrower's grow
            fabric.release_worker(run_name)
        if self.workers_running == 0 and not self.pool_ended:
            self.pool_ended = True
            if self.storage_channel is not None:
                self.storage_channel.end()

    def _spawn_worker(self) -> None:
        wid = self.workers_spawned
        self.workers_spawned += 1
        # worker 0 keeps the historical single-actor name; extra
        # workers get a .wN suffix (fault targets matching the
        # 'computing' layer hit them all)
        name = (
            f"{self.run_name}.computing"
            if wid == 0
            else f"{self.run_name}.computing.w{wid}"
        )
        self.worker_busy[name] = 0.0
        self.workers_running += 1
        self.workers_peak = max(self.workers_peak, self.workers_running)
        runtime = self.runtime
        self.pool_timeline.append((runtime.clock.now - runtime.epoch, self.workers_running))
        inflight = _Inflight()
        self.supervisor.spawn(
            name, lambda: self._worker_loop(name, inflight), layer="computing"
        )

    def _elastic_controller(self):
        """Sample intake congestion on the clock; resize the pool.

        Grover & Carey's congestion reaction, made real: sustained
        high occupancy (or a blocked producer / fresh backpressure
        stall) grows the pool toward ``max_computing_workers``;
        sustained starvation retires workers back toward
        ``min_computing_workers`` via cancel tokens claimed at the
        next batch boundary.  The controller exits once the buffer is
        drained after EOF, so it never outlives the feed.
        """
        buffer, fabric, run_name = self.buffer, self.fabric, self.run_name
        workers_min = self.policy.min_computing_workers
        workers_max = self.policy.max_computing_workers
        up_streak = 0
        down_streak = 0
        last_stalls = buffer.stalls
        while not (buffer.all_eof and buffer.drained):
            yield Advance(ELASTIC_SAMPLE_SECONDS, state=IDLE)
            if buffer.all_eof and buffer.drained:
                break
            occupancy = buffer.occupancy
            backlog = buffer.queued_records / self.batch_size
            congested = (
                occupancy >= ELASTIC_SCALE_UP_OCCUPANCY
                or buffer.producer_blocked
                or buffer.stalls > last_stalls
                or backlog >= ELASTIC_BACKLOG_BATCHES
            )
            starved = (
                occupancy <= ELASTIC_SCALE_DOWN_OCCUPANCY
                and backlog < 1.0
                and not buffer.producer_blocked
            )
            last_stalls = buffer.stalls
            if fabric is not None:
                # the feed's standing bid: every sample tick's
                # congestion signals, whether or not a grow follows
                fabric.tick(
                    run_name,
                    FeedSignals(
                        occupancy=occupancy,
                        backlog_batches=backlog,
                        producer_blocked=buffer.producer_blocked,
                        congested=congested,
                        starved=starved,
                    ),
                )
            if congested:
                up_streak += 1
                down_streak = 0
            elif starved:
                down_streak += 1
                up_streak = 0
            else:
                up_streak = 0
                down_streak = 0
            effective = self.workers_running - self.shrink_tokens
            if (
                congested
                and up_streak >= ELASTIC_SUSTAINED_SAMPLES
                and effective < workers_max
            ):
                if self.shrink_tokens > 0:
                    self.shrink_tokens -= 1  # cancel a pending retire instead
                    if fabric is not None:
                        # a fabric recall may have been riding that token
                        fabric.note_shrink_cancelled(run_name)
                elif fabric is None or fabric.acquire(run_name):
                    # under a fabric, a grow must be funded from the
                    # global budget; an unfunded bid queues inside the
                    # fabric, which grows this pool itself (via the
                    # registered grow hook) once a worker frees up
                    self._grow_pool()
                up_streak = 0
            elif (
                down_streak >= ELASTIC_SUSTAINED_SAMPLES
                and effective > workers_min
            ):
                self.shrink_tokens += 1
                buffer.kick()  # wake an idle worker to claim the token
                down_streak = 0

    def _grow_pool(self) -> None:
        # a funded grow (the controller's own, or a queued borrow bid the
        # fabric just funded): one more worker, now
        self.counters.scale_ups += 1
        self._spawn_worker()

    def _fabric_recall(self) -> bool:
        # Recall safety: re-check the live pool so a fabric recall
        # can never stack with the feed's own pending retires to
        # drop the pool below its floor.
        if self.workers_running - self.shrink_tokens > self.policy.min_computing_workers:
            self.shrink_tokens += 1
            self.buffer.kick()  # wake an idle worker to claim the token
            return True
        return False

    # --------------------------------------------------------- reporting

    def collect_faults(self) -> None:
        """Fold this feed's share of the runtime's injected faults into
        :attr:`faults`: crashes and stall time are summed over the feed's
        own processes, so tenants of a shared runtime stay disjoint (on a
        private runtime every process is this feed's)."""
        faults, supervisor = self.faults, self.supervisor
        own = [
            process
            for process in self.runtime.processes
            if process.name.startswith(f"{self.run_name}.")
        ]
        faults.crashes = sum(process.crashes_received for process in own)
        faults.restarts = supervisor.total_restarts
        faults.backoff_seconds = supervisor.total_backoff_seconds
        faults.stall_seconds = sum(process.stall_seconds for process in own)
        if self.storage_channel is not None:
            faults.channel_send_failures = self.storage_channel.send_failures

    def finalize(self, elapsed: float) -> FeedRunReport:
        """Assemble the run report; ``elapsed`` is the runtime's makespan."""
        if self.checkpoint is not None:
            # the run drained cleanly: seal the checkpoint so a later
            # resume knows there is nothing left to replay
            self._commit_checkpoint(complete=True)
        return self._assemble_report(elapsed)

    def _fill_cache_counters(self, prefix: str, cache, before) -> None:
        """This run's share of the feed's cache's cumulative counters:
        hit/miss/eviction deltas since launch, resident bytes as a gauge."""
        if cache is None:
            return
        after = cache.stats()
        for key in ("hits", "misses", "evictions"):
            setattr(self.counters, f"{prefix}_{key}", after[key] - before[key])
        setattr(self.counters, f"{prefix}_bytes", after["bytes"])

    def _assemble_report(self, elapsed: float) -> FeedRunReport:
        report, counters = self.report, self.counters
        intake, storage, cluster = self.intake, self.storage, self.cluster
        n = cluster.num_nodes
        # With overlapping workers the layer's aggregate busy exceeds
        # any wall-clock interval; the *bottleneck* contribution is the
        # slowest single worker (identical to the aggregate when the
        # pool size is 1).
        computing_bottleneck = (
            max(self.worker_busy.values()) if self.worker_busy else 0.0
        )
        report.batch_stats.sort(
            key=lambda stats: (stats.batch_index, stats.sub_index)
        )
        # With one intake actor the layer's bottleneck is the busiest
        # intake node; partitioned actors overlap, so it is the slowest
        # single partition (analogous to the worker pool above).
        intake_bottleneck = (
            intake.max_busy
            if self.num_partitions == 1
            else max(intake.partition_busy.values())
        )
        report.records_ingested = intake.records_received
        report.records_stored = storage.records_stored
        report.intake_seconds = intake_bottleneck
        if self.num_partitions > 1:
            report.intake_partition_busy = dict(intake.partition_busy)
        report.subbatches_dispatched = self.subbatches
        report.acked_batches = self.sequencer.next_index
        report.resumed_from_checkpoint = self.base_checkpoint is not None
        report.computing_seconds = self.computing_total
        report.computing_worker_busy = dict(self.worker_busy)
        report.computing_wall_seconds = (
            self.last_busy - self.first_busy
            if self.first_busy is not None
            else 0.0
        )
        report.peak_computing_workers = self.workers_peak
        report.storage_seconds = storage.max_busy
        if self.decoupled:
            steady = max(intake_bottleneck, computing_bottleneck, storage.max_busy)
        else:
            steady = max(intake_bottleneck, computing_bottleneck)
        start_overhead = cluster.cost_model.job_startup(n, predeployed=False) * 2
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
        report.simulated_seconds = start_overhead + elapsed
        report.fixed_start_seconds = report.simulated_seconds - steady
        report.stalls = self.buffer.stalls
        self._fill_cache_counters(
            "state_cache", self.eval_ctx.state_cache, self.state_cache_before
        )
        self._fill_cache_counters("memo", self.memo, self.memo_before)
        if self.coordinator is not None:
            counters.external = self.coordinator.finalize()
            counters.enrichment_completeness = self.coordinator.completeness
        if self.fabric is not None:
            tenant = self.fabric.tenant_report(self.run_name)
            counters.borrowed_workers = tenant["borrowed_workers"]
            counters.lease_timeline = tenant["lease_timeline"]
            counters.governor_grants = self.fabric.governor_grants_for(
                self.run_name
            )
        storage_channel = self.storage_channel
        report.runtime = RuntimeMetrics.from_runtime(
            self.runtime,
            holders=list(intake.holders) + list(storage.holders),
            stall_count=self.buffer.stalls
            + (storage_channel.stalls if storage_channel is not None else 0),
            batch_latencies=self.batch_latencies,
            steady_state_seconds=steady,
            faults=self.faults,
            worker_pool_timeline=self.pool_timeline,
            reordered_batches=self.sequencer.reordered,
            subbatches=self.subbatches,
            subbatch_merges=self.sequencer.subbatch_merges,
            process_prefix=f"{self.run_name}.",
            counters=counters,
        )
        return report

    def cleanup(self) -> None:
        """Release everything the run registered (also the path taken when
        :meth:`start` fails half-way).

        A failing UDF or adapter must not leak the feed's runtime state:
        the fabric/governor tenancy, the AFM entry, the predeployed job,
        the registered intake/storage partition holders, or the adapter's
        external resources (e.g. a FileAdapter's handle).
        """
        if self.fabric is not None:
            self.fabric.deregister_feed(self.run_name)
        self.afm.deregister_feed(self.feed.name)
        self.intake.close()
        self.storage.close()
        for part_adapter in self.adapters:
            part_adapter.close()


def drive_runs(runtime, runs: Sequence[FeedRun]) -> List[FeedRunReport]:
    """Drive launched runs — one feed or a fleet — to completion on ``runtime``.

    The driving protocol, once: the controller's begin/finish bracket
    around ``runtime.run()``, each run's faults folded in whether or not
    the clock stopped cleanly, one report per run carrying the runtime's
    makespan, and every run cleaned up on every way out.
    """
    controller = runs[0].cluster.controller
    try:
        for run in runs:
            controller.begin_run(run.run_name)
        try:
            elapsed = runtime.run()
        finally:
            for run in runs:
                controller.finish_run(run.run_name)
                run.collect_faults()
        return [run.finalize(elapsed) for run in runs]
    finally:
        for run in runs:
            run.cleanup()


class DynamicIngestionPipeline:
    """The paper's layered ingestion framework."""

    def __init__(
        self,
        cluster: Cluster,
        catalog: Dict[str, object],
        registry=None,
        afm: Optional[ActiveFeedManager] = None,
    ):
        self.cluster = cluster
        self.catalog = catalog
        self.registry = registry
        self.afm = afm or ActiveFeedManager(cluster)

    def run(
        self,
        feed: FeedDefinition,
        adapter: Union[FeedAdapter, Sequence[FeedAdapter]],
        update_client=None,
        predeploy: bool = True,
        decoupled: bool = True,
        checkpoint: Optional[CheckpointStore] = None,
        resume: bool = False,
    ) -> FeedRunReport:
        """Drive the feed to completion; returns the run report.

        ``adapter`` is one adapter (range-split into
        ``policy.intake_partitions`` partitions when > 1) or a sequence of
        adapters, one per intake partition.

        ``update_client`` (a :class:`ReferenceUpdateClient`) is advanced by
        each batch's simulated duration — the §7.3 experiment.
        ``predeploy=False`` and ``decoupled=False`` are the §5.1/§5.2
        ablations; both run on the same discrete-event runtime.

        ``checkpoint`` (a :class:`~repro.storage.CheckpointStore`) makes
        the run durably restartable: each storage commit persists the
        per-partition intake cursors and acked-batch high-water.  With
        ``resume=True`` an existing checkpoint re-opens each partition's
        adapter at its durable cursor — zero acked loss, the un-acked tail
        replayed and deduped by pk-upsert.
        """
        feed_run = self.launch(
            feed,
            adapter,
            update_client=update_client,
            predeploy=predeploy,
            decoupled=decoupled,
            checkpoint=checkpoint,
            resume=resume,
        )
        return drive_runs(feed_run.runtime, [feed_run])[0]

    def launch(
        self,
        feed: FeedDefinition,
        adapter: Union[FeedAdapter, Sequence[FeedAdapter]],
        update_client=None,
        predeploy: bool = True,
        decoupled: bool = True,
        checkpoint: Optional[CheckpointStore] = None,
        resume: bool = False,
        runtime=None,
        fabric=None,
    ) -> FeedRun:
        """Set the run up without driving the clock; returns the run.

        ``runtime`` attaches the feed's processes to a caller-owned
        (shared, multi-feed) runtime instead of a fresh private one; the
        caller is then responsible for installing the fleet's (merged)
        fault plan before launching and for driving ``runtime.run()``
        itself.  ``fabric`` enrolls the feed's elastic worker pool — and,
        when the fabric carries a memory governor, the feed's
        state cache and memo — with a
        :class:`~repro.ingestion.fabric.FeedFabric`.  Both default to
        ``None``: the solo path (:meth:`run`) is bit-for-bit the
        historical single-feed pipeline.
        """
        if feed.functions and self.registry is None:
            raise IngestionError("a function registry is required for UDF feeds")
        feed_run = FeedRun(
            self,
            feed,
            adapter,
            update_client=update_client,
            predeploy=predeploy,
            decoupled=decoupled,
            checkpoint=checkpoint,
            resume=resume,
            fabric=fabric,
        )
        try:
            feed_run.start(runtime)
        except BaseException:
            feed_run.cleanup()
            raise
        return feed_run
