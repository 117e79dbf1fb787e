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
    RuntimeMetrics,
    Sequencer,
    Supervisor,
)
from ..sqlpp.analysis import dataset_references
from ..sqlpp.evaluator import EvaluationContext
from ..sqlpp.memo import EnrichmentMemo
from ..sqlpp.state_cache import StateCache
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

#: the plan cache's cumulative columnar counters, snapshotted per run so
#: reports carry per-run deltas (the cache is registry-owned and shared
#: across feeds, like the state cache)
_VECTORIZATION_COUNTERS = (
    "vectorized_batches",
    "vectorized_records",
    "scalar_fallbacks",
)


def _plan_cache_snapshot(eval_ctx) -> Dict[str, int]:
    cache = eval_ctx.plan_cache
    return {name: getattr(cache, name) for name in _VECTORIZATION_COUNTERS}


def _apply_plan_cache_delta(report, eval_ctx, before: Dict[str, int]) -> None:
    cache = eval_ctx.plan_cache
    for name in _VECTORIZATION_COUNTERS:
        setattr(report, name, getattr(cache, name) - before[name])


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
        locate, write = self.dataset.locate, self.write
        batch_busy: Dict[int, float] = {}
        touched = set()
        for producer_node, records in enumerate(outputs):
            if not records:
                continue
            self.holders[producer_node % n].push(Frame(records))
            for record in records:
                # key and hash once per record: the node here, the
                # dataset partition inside the write
                located = locate(record)
                target = located[1] % n
                if target != producer_node % n:
                    batch_busy[producer_node % n] = (
                        batch_busy.get(producer_node % n, 0.0)
                        + cost.transfer_per_record
                    )
                write(record, located)
                self.records_stored += 1
                batch_busy[target] = (
                    batch_busy.get(target, 0.0) + cost.store_per_record
                )
                touched.add(target)
        for target in touched:
            batch_busy[target] = batch_busy.get(target, 0.0) + cost.log_flush_per_batch
        for node, seconds in batch_busy.items():
            self.node_busy[node] += seconds
        return max(batch_busy.values()) if batch_busy else 0.0

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
        self, cluster: Cluster, feed: FeedDefinition, num_partitions: int = 1
    ):
        self.cluster = cluster
        self.feed = feed
        self.num_partitions = num_partitions
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
        if self.num_partitions > 1:
            pinned = self.intake_nodes[partition % len(self.intake_nodes)]
            for envelope in chunk:
                envelope["partition"] = partition
                per = cost.receive_per_record + cost.intake_fanout_per_record
                target = self._rr % n
                self._rr += 1
                if target != pinned:  # holder p lives on node p
                    per += cost.transfer_per_record
                self.node_busy[pinned] += per
                self.partition_busy[partition] += per
                buffers[target].append(envelope)
                self.records_received += 1
        else:
            for envelope in chunk:
                intake_node = self.intake_nodes[
                    self._intake_rr % len(self.intake_nodes)
                ]
                self._intake_rr += 1
                self.node_busy[intake_node] += (
                    cost.receive_per_record + cost.intake_fanout_per_record
                )
                target = self._rr % n
                self._rr += 1
                if target != intake_node:  # holder p lives on node p
                    self.node_busy[intake_node] += cost.transfer_per_record
                buffers[target].append(envelope)
                self.records_received += 1
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
        shared: Optional[Dict[str, object]] = None,
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

        ``partition`` names this actor's intake partition; ``shared`` is
        the per-run dict coordinating the partition actors (open-actor
        count so the *last* finisher ends the buffer, the run-wide set of
        consumed adapter faults, and the per-partition durable cursor log
        the checkpoint commits consume).  ``resume_from`` re-opens a fresh
        adapter at a durable cursor (``resume_run``) — distinct from the
        in-process re-open after an adapter death, which resumes from the
        live ``resume_position()``.
        """
        plan = buffer.runtime.fault_plan
        if shared is None:
            shared = {"open": 1, "faults_consumed": set(), "cursor_log": None}
        cursor_log = shared.get("cursor_log")
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
            if plan is None:
                return None
            for index, fault in plan.adapter_failures_indexed():
                if index in shared["faults_consumed"]:
                    continue
                if fault.partition is not None and fault.partition != partition:
                    continue
                if (
                    getattr(fault, "feed", None) is not None
                    and fault.feed != self.feed.name
                ):
                    continue
                if state["drawn"] >= fault.after_records:
                    shared["faults_consumed"].add(index)
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
                        fault = due_adapter_fault()
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
                shared["open"] -= 1
                if shared["open"] == 0:
                    # last partition standing ends the shared buffer
                    buffer.end()

        return body

    @property
    def queued(self) -> int:
        return sum(holder.queued_records for holder in self.holders)

    @property
    def drained(self) -> bool:
        return all(holder.drained for holder in self.holders)

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
        from ..sqlpp.evaluator import Evaluator

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
        batch_invoker = (
            make_batch_invoker(feed.functions, self.registry)
            if feed.functions
            else None
        )
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

        plan_cache_before = _plan_cache_snapshot(eval_ctx)
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
        )
        _apply_plan_cache_delta(report, eval_ctx, plan_cache_before)
        report.runtime = RuntimeMetrics.from_runtime(
            runtime,
            faults=faults,
            vectorized_batches=report.vectorized_batches,
            vectorized_records=report.vectorized_records,
            scalar_fallbacks=report.scalar_fallbacks,
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


class FeedRunHandle:
    """A launched-but-not-yet-driven dynamic feed run.

    :meth:`DynamicIngestionPipeline.launch` sets the run up completely —
    layers built, computing job predeployed, processes spawned on the
    runtime — and returns this handle instead of driving the clock, so a
    caller can launch *several* feeds onto one shared runtime and run
    them as a fleet (:meth:`AsterixLite.start_feeds`).  The driving
    protocol, in order: ``runtime.run()`` (inside the controller's
    begin/finish bracket), :meth:`collect_faults`, :meth:`finalize`, and
    :meth:`cleanup` in a ``finally``.  :meth:`DynamicIngestionPipeline.run`
    is exactly this protocol for a single feed.
    """

    __slots__ = (
        "feed_name",
        "run_name",
        "runtime",
        "owns_runtime",
        "finalize",
        "collect_faults",
        "cleanup",
    )


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
        handle = self.launch(
            feed,
            adapter,
            update_client=update_client,
            predeploy=predeploy,
            decoupled=decoupled,
            checkpoint=checkpoint,
            resume=resume,
        )
        try:
            self.cluster.controller.begin_run(handle.run_name)
            try:
                elapsed = handle.runtime.run()
            finally:
                self.cluster.controller.finish_run(handle.run_name)
                handle.collect_faults()
            return handle.finalize(elapsed)
        finally:
            handle.cleanup()

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
    ) -> FeedRunHandle:
        """Set the run up without driving the clock; returns a handle.

        ``runtime`` attaches the feed's processes to a caller-owned
        (shared, multi-feed) runtime instead of a fresh private one; the
        caller is then responsible for installing the fleet's (merged)
        fault plan before launching and for driving ``runtime.run()``
        itself.  ``fabric`` enrolls the feed's elastic worker pool — and,
        when the fabric carries a memory governor, private
        state-cache/memo tenants — with a
        :class:`~repro.ingestion.fabric.FeedFabric`.  Both default to
        ``None``: the solo path (:meth:`run`) is bit-for-bit the
        historical single-feed pipeline.
        """
        if feed.functions and self.registry is None:
            raise IngestionError("a function registry is required for UDF feeds")
        dataset = self.catalog[feed.target_dataset]
        cluster = self.cluster
        n = cluster.num_nodes

        batch_size = feed.batch_size
        if feed.computing_model is ComputingModel.PER_RECORD:
            batch_size = 1

        policy = feed.policy or DEFAULT_POLICY
        adapters = _normalize_adapters(adapter, policy)
        num_partitions = len(adapters)
        resume_cursors: Dict[int, object] = {}
        base_checkpoint = None
        if checkpoint is not None and resume:
            base_checkpoint = checkpoint.load(feed.name)
            if base_checkpoint is not None:
                if base_checkpoint.intake_partitions != num_partitions:
                    raise IngestionError(
                        f"checkpoint for feed {feed.name!r} was written "
                        f"with {base_checkpoint.intake_partitions} intake "
                        f"partition(s); this run attached {num_partitions}"
                    )
                resume_cursors = {
                    p: c.resume for p, c in base_checkpoint.cursors.items()
                }
        faults = FaultMetrics()
        dead_letters = None
        if policy.on_soft_error is SoftErrorAction.DEAD_LETTER or (
            feed.external_enrichers
            and policy.external_on_failure is ExternalFailureAction.DEAD_LETTER
        ):
            dead_letters = ensure_dead_letter_dataset(
                self.catalog, feed.name, policy, num_partitions=n
            )
        soft_errors = SoftErrorHandler(feed.name, policy, faults, dead_letters)
        run_name = f"feed-{feed.name}"
        governed = (
            fabric is not None
            and fabric.governor is not None
            and self.registry is not None
        )
        scoped_caches: List[StateCache] = []
        memo = None
        if policy.enrichment_memo_bytes > 0 and self.registry is not None:
            if governed:
                # Governed tenant: a *private* memo whose budget the
                # fabric's memory governor assigns (and re-assigns at batch
                # boundaries) instead of the policy's fixed byte count.
                # Adopted by the registry so DDL / replace_sqlpp clear it
                # exactly like the shared singleton.
                memo = EnrichmentMemo(label=f"{run_name}.memo")
                self.registry.adopt_cache(memo)
                scoped_caches.append(memo)
                fabric.register_cache(run_name, memo, policy)
            else:
                # Opt-in cross-batch key-level result reuse (L2 memo):
                # owned by the registry (same sharing/invalidations as the
                # state cache), bounded by the policy's byte budget, and
                # handed to both the local probe paths (via eval_ctx) and
                # the external coordinator.
                memo = self.registry.enrichment_memo
                memo.configure(policy.enrichment_memo_bytes)
        coordinator = None
        if feed.external_enrichers:
            # One coordinator per run: breakers and rate limiters carry
            # state across batches (and across worker-crash replays).
            coordinator = EnrichmentCoordinator(
                feed.external_enrichers,
                policy,
                fault_plan=feed.fault_plan,
                dead_letters=dead_letters,
                feed_name=feed.name,
                primary_key=dataset.primary_key,
                memo=memo,
            )

        intake = _IntakeLayer(cluster, feed, num_partitions)
        storage = _StorageLayer(cluster, dataset, feed.write_mode)
        eval_ctx = EvaluationContext(
            self.catalog,
            functions=self.registry,
            reference_work_scale=feed.reference_work_scale,
        )
        eval_ctx.cluster_nodes = n
        eval_ctx.memo = memo
        if policy.state_cache_bytes > 0 and self.registry is not None:
            if governed:
                # Governed tenant: see the memo block above.
                cache = StateCache(label=f"{run_name}.state")
                self.registry.adopt_cache(cache)
                scoped_caches.append(cache)
                fabric.register_cache(run_name, cache, policy)
                eval_ctx.state_cache = cache
            else:
                # Opt-in cross-batch build-state reuse: the registry-owned
                # cache is shared by every worker (and every feed) over
                # this registry; the policy's budget bounds its resident
                # bytes.
                self.registry.state_cache.configure(policy.state_cache_bytes)
                eval_ctx.state_cache = self.registry.state_cache
        invoker = (
            make_invoker(feed.functions, self.registry) if feed.functions else None
        )
        batch_invoker = (
            make_batch_invoker(feed.functions, self.registry)
            if feed.functions
            else None
        )

        # One CallbackSink output slot, swapped per invocation: concurrent
        # workers each install their own buffer right before invoking (an
        # invocation is synchronous within one worker resume, so the slot
        # is never shared across two in-flight invokes).
        collect_slot: Dict[str, List[List[dict]]] = {
            "outputs": [[] for _ in range(n)]
        }

        def collect(partition: int, frame: Frame) -> None:
            collect_slot["outputs"][partition].extend(frame.records)

        def spec_builder(partition_lists: List[List[dict]]) -> JobSpecification:
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
                        ctx, feed.datatype, soft_errors=soft_errors
                    ),
                    partitions=n,
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
                            soft_errors=soft_errors,
                            batch_invoker=batch_invoker,
                        ),
                        partitions=n,
                    )
                )
                spec.connect(upstream, udf, OneToOne())
                upstream = udf
            sink = spec.add_operator(
                OperatorDescriptor(
                    "feed-pipeline-sink",
                    lambda ctx: CallbackSink(ctx, collect),
                    partitions=n,
                )
            )
            spec.connect(upstream, sink, OneToOne())
            return spec

        job_id = cluster.controller.deploy(f"feed-{feed.name}", spec_builder)
        self.afm.register_feed(feed.name, job_id)

        def cleanup():
            # a failing UDF or adapter must not leak the feed's runtime
            # state: the fabric/governor tenancy, the AFM entry, the
            # predeployed job, the registered intake/storage partition
            # holders, or the adapter's external resources (e.g. a
            # FileAdapter's handle)
            if fabric is not None:
                fabric.deregister_feed(run_name)
            if self.registry is not None:
                for cache in scoped_caches:
                    self.registry.release_cache(cache)
            self.afm.deregister_feed(feed.name)
            intake.close()
            storage.close()
            for part_adapter in adapters:
                part_adapter.close()

        try:
            return self._launch(
                feed, adapters, intake, storage, eval_ctx, batch_size,
                update_client, predeploy, decoupled, spec_builder,
                collect_slot, policy, faults, soft_errors,
                checkpoint, resume_cursors, base_checkpoint,
                coordinator=coordinator, runtime=runtime, fabric=fabric,
                cleanup=cleanup,
            )
        except BaseException:
            cleanup()
            raise

    def _launch(
        self,
        feed: FeedDefinition,
        adapters: List[FeedAdapter],
        intake: "_IntakeLayer",
        storage: "_StorageLayer",
        eval_ctx,
        batch_size: int,
        update_client,
        predeploy: bool,
        decoupled: bool,
        spec_builder,
        collect_slot: Dict[str, List[List[dict]]],
        policy: FeedPolicy,
        faults: FaultMetrics,
        soft_errors: SoftErrorHandler,
        checkpoint: Optional[CheckpointStore] = None,
        resume_cursors: Optional[Dict[int, object]] = None,
        base_checkpoint: Optional[RunCheckpoint] = None,
        coordinator: Optional[EnrichmentCoordinator] = None,
        runtime=None,
        fabric=None,
        cleanup=None,
    ) -> FeedRunHandle:
        cluster = self.cluster
        n = cluster.num_nodes
        cost = cluster.cost_model
        num_partitions = intake.num_partitions
        resume_cursors = resume_cursors or {}
        track = checkpoint is not None
        report = FeedRunReport(
            feed_name=feed.name,
            framework=Framework.DYNAMIC.value,
            records_ingested=0,
            records_stored=0,
            simulated_seconds=0.0,
            intake_seconds=0.0,
            computing_seconds=0.0,
            storage_seconds=0.0,
        )

        # Per-run delta baseline for the shared (registry-owned, possibly
        # multi-feed) state cache's cumulative counters.
        state_cache = eval_ctx.state_cache
        state_cache_before = (
            state_cache.stats() if state_cache is not None else None
        )
        # And for the shared key-level enrichment memo (covers all three
        # probe paths — scalar, columnar, external — through one instance).
        memo = eval_ctx.memo
        memo_before = memo.stats() if memo is not None else None
        # Same convention for the shared plan cache's columnar counters.
        plan_cache_before = _plan_cache_snapshot(eval_ctx)
        # On a shared multi-feed runtime a start/end registry delta would
        # interleave every tenant's batches; the UDF operator additionally
        # tallies this feed's own share per invocation into its context.
        eval_ctx.columnar_tally = {
            name: 0 for name in _VECTORIZATION_COUNTERS
        }

        run_name = f"feed-{feed.name}"
        owns_runtime = runtime is None
        if owns_runtime:
            runtime = cluster.new_runtime(run_name)
            runtime.install_fault_plan(feed.fault_plan)
        # else: a shared multi-feed runtime arrives with the fleet's
        # merged fault plan already installed by the orchestrator
        buffer = IntakeBuffer(
            runtime,
            intake.holders,
            congestion=policy.on_congestion.value,
            throttle_seconds=policy.throttle_seconds,
            throttle_max_seconds=policy.throttle_max_seconds,
            faults=faults,
        )
        storage_channel = (
            Channel(runtime, feed.storage_queue_capacity, name=f"{run_name}.storage")
            if decoupled
            else None
        )
        state = {"computing_total": 0.0, "coupled_extra": 0.0}
        batch_latencies: List[float] = []

        # ------------------------------------------------ computing worker pool
        workers_min = policy.min_computing_workers
        workers_max = policy.max_computing_workers
        elastic = policy.elastic_enabled
        #: the order-preserving hand-off in front of storage: workers
        #: complete batches out of index order, the sequencer releases the
        #: real writes (and the storage channel items) in index order, so
        #: pk-upsert order / acked guarantees / dead-letter provenance are
        #: byte-identical to the single-actor pipeline
        def merge_subbatch(parts: List[List[List[dict]]]) -> List[List[dict]]:
            # Per-node concatenation in sub order recovers exactly the
            # unsplit batch's per-node outputs (see _split_batch).
            return [
                [record for part in parts for record in part[node]]
                for node in range(n)
            ]

        sequencer = Sequencer(
            storage.store_batch, storage_channel, merge=merge_subbatch
        )
        pool = {
            "assign": 0,  # next batch index to hand to a worker
            "spawned": 0,  # workers ever created (names stay unique)
            "running": 0,
            "peak": 0,
            "shrink": 0,  # outstanding scale-down tokens
            "timeline": [],  # (sim_seconds, pool size) steps
            "scale_ups": 0,
            "scale_downs": 0,
            "worker_busy": {},  # per-worker aggregate busy seconds
            "first_busy": None,  # clock at the first batch's invoke
            "last_busy": 0.0,  # clock after the last batch's work
            "ended": False,
            "subqueue": deque(),  # pending _SubBatch slices for idle peers
            "subbatches": 0,  # sub-batch dispatches (counts the first slice)
            "cursor": {},  # per-partition max claimed seq (checkpointing)
            "marks": {},  # batch index -> cursor snapshot at claim time
            "resume_cursors": {},  # per-partition durable re-open hint
            "checkpoint_commits": 0,
        }
        #: coordination between the intake partition actors: the last one
        #: to finish ends the shared buffer; adapter faults are consumed
        #: run-wide; each partition logs (max seq, resume cursor) hints the
        #: checkpoint commits consume
        shared = {
            "open": num_partitions,
            "faults_consumed": set(),
            "cursor_log": (
                {p: [] for p in range(num_partitions)} if track else None
            ),
        }
        if base_checkpoint is not None:
            # partitions that receive no new records keep their durable
            # position instead of regressing to "nothing acked"
            for p, cursor in base_checkpoint.cursors.items():
                pool["cursor"][p] = cursor.acked_seq
                pool["resume_cursors"][p] = cursor.resume
        base_acked_batches = (
            base_checkpoint.acked_batches if base_checkpoint is not None else 0
        )

        max_sub = policy.max_subbatch_records
        split_enabled = max_sub > 0

        def claim_subbatch():
            if pool["subqueue"]:
                return pool["subqueue"].popleft()
            return None

        steal = claim_subbatch if split_enabled else None

        def note_claimed(index: int, batch: List[List[dict]]) -> None:
            """Advance the logical cursor; snapshot it for ``index``.

            Batch indices are claimed in order under the deterministic
            scheduler, so the snapshot taken when ``index`` is claimed
            covers exactly batches ``0..index`` — releasing ``index``
            makes that snapshot the durable acked watermark.
            """
            cursor = pool["cursor"]
            for records in batch:
                for envelope in records:
                    p = envelope.get("partition", 0)
                    seq = envelope.get("seq", -1)
                    if seq > cursor.get(p, -1):
                        cursor[p] = seq
            pool["marks"][index] = dict(cursor)

        def commit_checkpoint(complete: bool = False) -> None:
            """Persist cursors covering everything released so far."""
            watermark = sequencer.next_index - 1
            mark = pool["marks"].get(watermark)
            if mark is None:
                if not complete:
                    return
                mark = pool["cursor"]
            cursors = {}
            for p in range(num_partitions):
                acked = mark.get(p, -1)
                log = shared["cursor_log"][p]
                # the newest fully-deposited chunk at/below the watermark
                # becomes the partition's durable re-open point; the gap up
                # to the watermark replays and dedupes via pk-upsert
                while log and log[0][0] <= acked:
                    pool["resume_cursors"][p] = log.pop(0)[1]
                cursors[p] = PartitionCursor(
                    acked_seq=acked, resume=pool["resume_cursors"].get(p)
                )
            checkpoint.commit(
                RunCheckpoint(
                    feed=feed.name,
                    intake_partitions=num_partitions,
                    cursors=cursors,
                    acked_batches=base_acked_batches + sequencer.next_index,
                    records_stored=storage.records_stored,
                    complete=complete,
                )
            )
            pool["checkpoint_commits"] += 1

        def worker_loop(worker_name: str, inflight: Dict[str, object]):
            """One pool worker's AFM loop: collect, invoke, sequence.

            ``inflight`` is the worker's un-acked (index, batch) pair: set
            when pulled from the intake buffer, cleared only after the
            sequenced storage hand-off — a crash in between replays it
            under the *same* batch index (at-least-once; the sequencer
            re-releases already-released indices and upsert dedupes).
            """
            claim_shrink = None
            if elastic:
                def claim_shrink():
                    if pool["shrink"] > 0:
                        pool["shrink"] -= 1
                        return True
                    return False

            while True:
                if inflight["batch"] is not None:
                    index = inflight["index"]
                    batch = inflight["batch"]
                    sub = inflight["sub"]
                    of = inflight["of"]
                    faults.records_replayed += sum(len(p) for p in batch)
                else:
                    got = yield from buffer.collect(
                        batch_size, cancel=claim_shrink, steal=steal
                    )
                    if got is CANCELLED:
                        pool["scale_downs"] += 1
                        break  # retired by the elastic controller
                    if got is None:
                        break  # EOF and drained
                    if isinstance(got, _SubBatch):
                        # a peer's oversized batch: work one slice of it
                        index, sub, of = got.index, got.sub, got.of
                        batch = got.lists
                    else:
                        index = pool["assign"]
                        pool["assign"] += 1
                        if track:
                            note_claimed(index, got)
                        subs = (
                            _split_batch(got, max_sub)
                            if split_enabled
                            else None
                        )
                        if subs is None:
                            batch, sub, of = got, 0, 1
                        else:
                            # keep the first slice; queue the rest and wake
                            # idle peers to steal them
                            of = len(subs)
                            pool["subbatches"] += of
                            for s in range(1, of):
                                pool["subqueue"].append(
                                    _SubBatch(index, s, of, subs[s])
                                )
                            buffer.kick()
                            batch, sub = subs[0], 0
                    inflight["index"] = index
                    inflight["batch"] = batch
                    inflight["sub"] = sub
                    inflight["of"] = of
                total = sum(len(p) for p in batch)
                outputs: List[List[dict]] = [[] for _ in range(n)]
                collect_slot["outputs"] = outputs
                eval_ctx.refresh_batch()
                eval_ctx.shared_meter.reset()
                eval_ctx.replicated_meter.reset()
                if predeploy:
                    result = self.afm.invoke_computing_job(feed.name, batch)
                else:
                    result = cluster.controller.run_job(spec_builder(batch))
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
                if pool["first_busy"] is None:
                    pool["first_busy"] = batch_started
                yield Advance(makespan)
                # Sequenced hand-off: the real writes (and storage-channel
                # items) for this index — plus any later indices it
                # unblocks — are released in batch order.
                released = yield from sequencer.put(
                    index, outputs, sub_index=sub, num_subs=of
                )
                if track and released:
                    # the released batches' writes are on disk: persist
                    # the cursors that make them durable across a restart
                    commit_checkpoint()
                if fabric is not None and released:
                    # a batch boundary: the memory governor's rebalance
                    # point (a no-op for fabrics without a governor)
                    fabric.note_batch_released(run_name)
                if not decoupled:
                    # §5.2 ablation: the coupled insert job waits for the
                    # log force and storage writes before finishing (a
                    # worker also absorbs the wait for any peer batches
                    # its release unblocked).
                    for rel_index, rel_seconds in released:
                        if rel_seconds > 0:
                            yield Advance(rel_seconds)
                        if rel_index == index:
                            makespan += rel_seconds
                        state["coupled_extra"] += rel_seconds
                state["computing_total"] += makespan
                pool["worker_busy"][worker_name] += makespan
                pool["last_busy"] = max(pool["last_busy"], runtime.clock.now)
                report.num_computing_jobs += 1
                batch_latencies.append(runtime.clock.now - batch_started)
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
                if update_client is not None:
                    update_client.advance(makespan)
                inflight["index"] = None
                inflight["batch"] = None  # acked: the sequencer released it
            pool["running"] -= 1
            pool["timeline"].append(
                (runtime.clock.now - runtime.epoch, pool["running"])
            )
            if fabric is not None:
                # EOF drain or a recalled retire: either way this worker's
                # lease returns to the fabric, which may immediately fund
                # a queued borrower's grow
                fabric.release_worker(run_name)
            if pool["running"] == 0 and not pool["ended"]:
                pool["ended"] = True
                if storage_channel is not None:
                    storage_channel.end()

        def spawn_worker():
            wid = pool["spawned"]
            pool["spawned"] += 1
            # worker 0 keeps the historical single-actor name; extra
            # workers get a .wN suffix (fault targets matching the
            # 'computing' layer hit them all)
            name = (
                f"{run_name}.computing"
                if wid == 0
                else f"{run_name}.computing.w{wid}"
            )
            pool["worker_busy"][name] = 0.0
            pool["running"] += 1
            pool["peak"] = max(pool["peak"], pool["running"])
            pool["timeline"].append(
                (runtime.clock.now - runtime.epoch, pool["running"])
            )
            inflight = {"index": None, "batch": None, "sub": 0, "of": 1}
            supervisor.spawn(
                name, lambda: worker_loop(name, inflight), layer="computing"
            )

        def elastic_controller():
            """Sample intake congestion on the clock; resize the pool.

            Grover & Carey's congestion reaction, made real: sustained
            high occupancy (or a blocked producer / fresh backpressure
            stall) grows the pool toward ``max_computing_workers``;
            sustained starvation retires workers back toward
            ``min_computing_workers`` via cancel tokens claimed at the
            next batch boundary.  The controller exits once the buffer is
            drained after EOF, so it never outlives the feed.
            """
            up_streak = 0
            down_streak = 0
            last_stalls = buffer.stalls
            while not (buffer.all_eof and buffer.drained):
                yield Advance(policy.elastic_sample_seconds, state=IDLE)
                if buffer.all_eof and buffer.drained:
                    break
                occupancy = buffer.occupancy
                backlog = buffer.queued_records / batch_size
                congested = (
                    occupancy >= policy.elastic_scale_up_occupancy
                    or buffer.producer_blocked
                    or buffer.stalls > last_stalls
                    or backlog >= policy.elastic_backlog_batches
                )
                starved = (
                    occupancy <= policy.elastic_scale_down_occupancy
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
                effective = pool["running"] - pool["shrink"]
                if (
                    congested
                    and up_streak >= policy.elastic_sustained_samples
                    and effective < workers_max
                ):
                    if pool["shrink"] > 0:
                        pool["shrink"] -= 1  # cancel a pending retire instead
                        if fabric is not None:
                            # a fabric recall may have been riding that token
                            fabric.note_shrink_cancelled(run_name)
                    elif fabric is None or fabric.acquire(run_name):
                        # under a fabric, a grow must be funded from the
                        # global budget; an unfunded bid queues inside the
                        # fabric, which grows this pool itself (via the
                        # registered grow hook) once a worker frees up
                        pool["scale_ups"] += 1
                        spawn_worker()
                    up_streak = 0
                elif (
                    down_streak >= policy.elastic_sustained_samples
                    and effective > workers_min
                ):
                    pool["shrink"] += 1
                    buffer.kick()  # wake an idle worker to claim the token
                    down_streak = 0

        supervisor = Supervisor(runtime, policy.restart_policy())

        if fabric is not None:

            def fabric_grow():
                # a queued borrow bid just got funded: grow the pool now
                pool["scale_ups"] += 1
                spawn_worker()

            def fabric_recall():
                # Recall safety: re-check the live pool so a fabric recall
                # can never stack with the feed's own pending retires to
                # drop the pool below its floor.
                if pool["running"] - pool["shrink"] > workers_min:
                    pool["shrink"] += 1
                    buffer.kick()  # wake an idle worker to claim the token
                    return True
                return False

            fabric.register_feed(
                run_name,
                policy,
                grow=fabric_grow if elastic else None,
                recall=fabric_recall if elastic else None,
            )
        if num_partitions == 1:
            supervisor.spawn(
                f"{run_name}.intake",
                intake.make_body(
                    adapters[0], buffer, batch_size, policy, faults,
                    partition=0, shared=shared,
                    resume_from=resume_cursors.get(0),
                ),
                layer="intake",
            )
        else:
            # one intake actor per partition, individually supervised:
            # fault targets can name one ('intake.p1') or the whole layer
            for p, part_adapter in enumerate(adapters):
                supervisor.spawn(
                    f"{run_name}.intake.p{p}",
                    intake.make_body(
                        part_adapter, buffer, batch_size, policy, faults,
                        partition=p, shared=shared,
                        resume_from=resume_cursors.get(p),
                    ),
                    layer="intake",
                )
        for _ in range(workers_min):
            spawn_worker()
        if fabric is not None:
            fabric.note_initial(run_name, workers_min)
        if decoupled:
            supervisor.spawn(
                f"{run_name}.storage",
                lambda: storage.process(storage_channel),
                layer="storage",
            )
        if elastic:
            runtime.spawn(
                f"{run_name}.elastic", elastic_controller(), layer="elastic"
            )

        def collect_faults():
            # On a private runtime every injected crash is this feed's;
            # on a shared (multi-feed) runtime the per-feed supervisor
            # counts this feed's crashes.  Injected stall time is a
            # runtime-global figure either way: exact for a private
            # runtime, fleet-wide on a shared one.
            faults.crashes = (
                runtime.injected_crashes
                if owns_runtime
                else supervisor.total_crashes
            )
            faults.restarts = supervisor.total_restarts
            faults.backoff_seconds = supervisor.total_backoff_seconds
            faults.stall_seconds = runtime.injected_stall_seconds
            if storage_channel is not None:
                faults.channel_send_failures = storage_channel.send_failures

        def finalize(elapsed: float) -> FeedRunReport:
            if track:
                # the run drained cleanly: seal the checkpoint so a later
                # resume knows there is nothing left to replay
                commit_checkpoint(complete=True)
            return assemble_report(elapsed)

        def assemble_report(elapsed: float) -> FeedRunReport:
            computing_total = state["computing_total"]
            # With overlapping workers the layer's aggregate busy exceeds
            # any wall-clock interval; the *bottleneck* contribution is the
            # slowest single worker (identical to the aggregate when the
            # pool size is 1).
            computing_bottleneck = (
                max(pool["worker_busy"].values()) if pool["worker_busy"] else 0.0
            )
            report.batch_stats.sort(
                key=lambda stats: (stats.batch_index, stats.sub_index)
            )
            # With one intake actor the layer's bottleneck is the busiest
            # intake node; partitioned actors overlap, so it is the slowest
            # single partition (analogous to the worker pool above).
            intake_bottleneck = (
                intake.max_busy
                if num_partitions == 1
                else max(intake.partition_busy.values())
            )
            report.records_ingested = intake.records_received
            report.records_stored = storage.records_stored
            report.intake_seconds = intake_bottleneck
            report.intake_partitions = num_partitions
            if num_partitions > 1:
                report.intake_partition_busy = dict(intake.partition_busy)
            report.subbatches_dispatched = pool["subbatches"]
            report.acked_batches = sequencer.next_index
            report.checkpoint_commits = pool["checkpoint_commits"]
            report.resumed_from_checkpoint = base_checkpoint is not None
            report.computing_seconds = computing_total
            report.computing_worker_busy = dict(pool["worker_busy"])
            report.computing_wall_seconds = (
                pool["last_busy"] - pool["first_busy"]
                if pool["first_busy"] is not None
                else 0.0
            )
            report.peak_computing_workers = pool["peak"]
            report.scale_ups = pool["scale_ups"]
            report.scale_downs = pool["scale_downs"]
            report.storage_seconds = storage.max_busy
            if decoupled:
                steady = max(
                    intake_bottleneck, computing_bottleneck, storage.max_busy
                )
            else:
                steady = max(intake_bottleneck, computing_bottleneck)
            start_overhead = cost.job_startup(n, predeployed=False) * 2
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
            report.stalls = buffer.stalls
            report.extra["deploy_seconds"] = (
                cluster.controller.simulated_deploy_seconds
            )
            if state_cache is not None and state_cache_before is not None:
                after = state_cache.stats()
                report.state_cache_hits = (
                    after["hits"] - state_cache_before["hits"]
                )
                report.state_cache_misses = (
                    after["misses"] - state_cache_before["misses"]
                )
                report.state_cache_evictions = (
                    after["evictions"] - state_cache_before["evictions"]
                )
                report.state_cache_bytes = after["bytes"]
            if memo is not None and memo_before is not None:
                after = memo.stats()
                report.memo_hits = after["hits"] - memo_before["hits"]
                report.memo_misses = after["misses"] - memo_before["misses"]
                report.memo_evictions = (
                    after["evictions"] - memo_before["evictions"]
                )
                report.memo_bytes = after["bytes"]
            if owns_runtime:
                _apply_plan_cache_delta(report, eval_ctx, plan_cache_before)
            else:
                # shared runtime: the registry-wide delta interleaves every
                # tenant's batches — use this feed's own invocation tally
                for name in _VECTORIZATION_COUNTERS:
                    setattr(report, name, eval_ctx.columnar_tally[name])
            if coordinator is not None:
                report.external = coordinator.finalize()
                report.enrichment_completeness = coordinator.completeness
            if fabric is not None:
                tenant = fabric.tenant_report(run_name)
                report.borrowed_workers = tenant["borrowed_workers"]
                report.lease_timeline = tenant["lease_timeline"]
                report.governor_grants = fabric.governor_grants_for(run_name)
            report.runtime = RuntimeMetrics.from_runtime(
                runtime,
                holders=list(intake.holders) + list(storage.holders),
                stall_count=buffer.stalls
                + (storage_channel.stalls if storage_channel is not None else 0),
                batch_latencies=batch_latencies,
                steady_state_seconds=steady,
                faults=faults,
                worker_pool_timeline=pool["timeline"],
                scale_ups=pool["scale_ups"],
                scale_downs=pool["scale_downs"],
                reordered_batches=sequencer.reordered,
                intake_partitions=num_partitions,
                subbatches=pool["subbatches"],
                subbatch_merges=sequencer.subbatch_merges,
                checkpoint_commits=pool["checkpoint_commits"],
                state_cache_hits=report.state_cache_hits,
                state_cache_misses=report.state_cache_misses,
                state_cache_evictions=report.state_cache_evictions,
                state_cache_bytes=report.state_cache_bytes,
                memo_hits=report.memo_hits,
                memo_misses=report.memo_misses,
                memo_evictions=report.memo_evictions,
                memo_bytes=report.memo_bytes,
                vectorized_batches=report.vectorized_batches,
                vectorized_records=report.vectorized_records,
                scalar_fallbacks=report.scalar_fallbacks,
                external=report.external,
                enrichment_completeness=report.enrichment_completeness,
                process_prefix=None if owns_runtime else f"{run_name}.",
                borrowed_workers=report.borrowed_workers,
                lease_timeline=report.lease_timeline,
                governor_grants=report.governor_grants,
            )
            return report

        handle = FeedRunHandle()
        handle.feed_name = feed.name
        handle.run_name = run_name
        handle.runtime = runtime
        handle.owns_runtime = owns_runtime
        handle.finalize = finalize
        handle.collect_faults = collect_faults
        handle.cleanup = cleanup if cleanup is not None else (lambda: None)
        return handle
