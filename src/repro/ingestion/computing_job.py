"""The computing job (paper §5/§6.1): predeployed once, then invoked once per
batch by the Active Feed Manager loop of each worker in the run's pool."""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Dict, List, NamedTuple, Optional

from ..cluster.controller import Cluster
from ..hyracks.connectors import OneToOne
from ..hyracks.frame import Frame
from ..hyracks.job import JobSpecification, OperatorDescriptor
from ..hyracks.operators import ListSource, ParseOperator
from ..hyracks.operators.sinks import CallbackSink
from ..runtime import Advance, CANCELLED, Event, IDLE
from ..sqlpp.evaluator import EvaluationContext
from .external import EnrichmentCoordinator
from .fabric import FeedSignals
from .feed import FeedDefinition
from .udf_operator import UdfEvaluatorOperator, make_invoker

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


def charge(result, eval_ctx: EvaluationContext, cost, n: int):
    """What one job invocation costs: ``(makespan, critical, teardown,
    shared, replicated)``, the busiest node's seconds (``critical``) with
    the state work the UDFs metered into ``eval_ctx`` during it added —
    ``shared`` split over the nodes, ``replicated`` on each."""
    shared = eval_ctx.shared_meter.charge(cost)
    replicated = eval_ctx.replicated_meter.charge(cost)
    busy = dict(result.node_busy_seconds)
    for node in busy:
        busy[node] += shared / n + replicated
    critical = max(busy.values())
    teardown = (
        result.makespan_seconds
        - result.startup_seconds
        - result.critical_node_seconds
    )
    makespan = result.startup_seconds + critical + teardown
    return makespan, critical, teardown, shared, replicated


class _SubBatch(NamedTuple):
    """One slice of an oversized batch, and the shape of every claim.

    Slices share the parent batch's sequencer ``index``; the sequencer
    reassembles the ``of`` sub-results in ``sub`` order before the in-order
    release, so storage sees exactly the unsplit batch's output.  An unsplit
    batch is the claim ``(index, batch, 0, 1)``.
    """

    index: int
    batch: List[List[dict]]
    sub: int
    of: int


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


def _computing_spec(
    feed: FeedDefinition, n: int, soft_errors, udf, collect,
    partition_lists: List[List[dict]],
) -> JobSpecification:
    """The per-batch computing job: collector → parser → UDF evaluator
    (``udf``, an operator factory, when the feed applies functions) → sink
    (``collect``), one-to-one on each of ``n`` nodes."""
    stages = [
        ("collector", lambda ctx: ListSource(ctx, partition_lists=partition_lists)),
        ("parser", lambda ctx: ParseOperator(
            ctx, feed.datatype, soft_errors=soft_errors
        )),
        ("udf-evaluator", udf),
        ("feed-pipeline-sink", lambda ctx: CallbackSink(ctx, collect)),
    ]
    source, *rest = [
        OperatorDescriptor(name, factory, partitions=n)
        for name, factory in stages
        if factory is not None
    ]
    return JobSpecification(
        f"feed-{feed.name}-computing", source, *((OneToOne(), op) for op in rest)
    )


class ComputingJob:
    """The per-batch computing job and the worker pool that invokes it."""

    def __init__(
        self, *, run_name: str, feed: FeedDefinition, policy, cluster: Cluster,
        catalog, registry, counters, events: List[Event], soft_errors,
        memo, state_cache, batch_size: int, predeploy: bool, update_client,
        fabric, checkpoint,
    ):
        self.run_name = run_name
        self.feed = feed
        self.policy = policy
        self.cluster = cluster
        self.events = events
        self.batch_size = batch_size
        self.predeploy = predeploy
        self.update_client = update_client
        self.fabric = fabric
        self.checkpoint = checkpoint
        self.eval_ctx = eval_ctx = EvaluationContext(
            catalog, functions=registry,
            reference_work_scale=feed.reference_work_scale,
        )
        eval_ctx.cluster_nodes = n = cluster.num_nodes
        eval_ctx.memo = memo
        eval_ctx.state_cache = state_cache
        udf = None
        if feed.functions:
            invoker = make_invoker(feed.functions, registry, counters)
            udf = lambda ctx: UdfEvaluatorOperator(  # noqa: E731
                ctx, eval_ctx, invoker, counters, soft_errors
            )
        self.spec = partial(_computing_spec, feed, n, soft_errors, udf, self._collect)
        #: the CallbackSink's output slot, swapped per invocation:
        #: concurrent workers each install their own buffer right before
        #: invoking (an invocation is synchronous within one worker resume,
        #: so the slot is never shared across two in-flight invokes)
        self.outputs: List[List[dict]] = [[] for _ in range(n)]
        self.job_id = cluster.controller.deploy(run_name, self.spec)
        self.coordinator: Optional[EnrichmentCoordinator] = None
        self.next_batch_index = 0  # next batch index to hand to a worker
        self.spawned = 0  # workers ever spawned: the next worker's id
        self.workers_running = 0
        self.shrink_tokens = 0  # outstanding scale-down tokens
        self.subqueue: deque = deque()  # pending _SubBatch slices for idle peers
        #: worker name -> its un-acked claim: set when pulled from the
        #: intake buffer, dropped only after the sequenced storage hand-off,
        #: so it outlives the worker's generator and a supervised restart
        #: replays it under the *same* batch index (at-least-once; the
        #: sequencer re-releases, upsert dedupes)
        self.claims: Dict[str, _SubBatch] = {}

    def open(self, runtime, buffer, supervisor, storage, dead_letters) -> None:
        """Attach the run's clock, the intake buffer and the storage job.
        One coordinator per run, on its epoch: breakers carry state across
        batches (and across worker-crash replays)."""
        self.runtime = runtime
        self.buffer = buffer
        self.supervisor = supervisor
        self.storage = storage
        feed = self.feed
        if feed.external_enrichers:
            self.coordinator = EnrichmentCoordinator(
                feed.external_enrichers,
                self.policy,
                fault_plan=feed.fault_plan,
                dead_letters=dead_letters,
                feed_name=feed.name,
                primary_key=storage.dataset.primary_key,
                memo=self.eval_ctx.memo,
                events=self.events,
                epoch=runtime.epoch,
            )

    def _note(self, kind: str, subject: str, **detail) -> None:
        self.events.append(Event(self.runtime.clock.now, kind, subject, detail))

    def _collect(self, partition: int, frame: Frame) -> None:
        self.outputs[partition].extend(frame.records)

    # ------------------------------------------------------- worker pool

    def _claim_subbatch(self):
        return self.subqueue.popleft() if self.subqueue else None

    def _claim_shrink(self) -> bool:
        if self.shrink_tokens > 0:
            self.shrink_tokens -= 1
            return True
        return False

    def _afm_loop(self, worker: str):
        """One pool worker's Active Feed Manager loop (§6.1): collect a
        batch, invoke the predeployed computing job (:attr:`job_id`) on
        the cluster controller, hand the output to storage in sequence."""
        feed, fabric, run_name = self.feed, self.fabric, self.run_name
        cluster, runtime, buffer = self.cluster, self.runtime, self.buffer
        eval_ctx, coordinator, storage = self.eval_ctx, self.coordinator, self.storage
        claims, checkpoint = self.claims, self.checkpoint
        n = cluster.num_nodes
        cost = cluster.cost_model
        max_sub = self.policy.max_subbatch_records
        split_enabled = max_sub > 0
        claim_shrink = self._claim_shrink if self.policy.elastic_enabled else None
        steal = self._claim_subbatch if split_enabled else None
        cause = "eof"

        while True:
            claim = claims.get(worker)
            replay = claim is not None
            if not replay:
                got = yield from buffer.collect(
                    self.batch_size, cancel=claim_shrink, steal=steal
                )
                if got is CANCELLED:
                    cause = "shrink"
                    break  # retired by the elastic controller
                if got is None:
                    break  # EOF and drained
                if isinstance(got, _SubBatch):
                    claim = got  # a peer's oversized batch: work one slice
                else:
                    index = self.next_batch_index
                    self.next_batch_index += 1
                    if checkpoint is not None:
                        checkpoint.claimed(index, got)
                    subs = _split_batch(got, max_sub) if split_enabled else None
                    if subs is None:
                        claim = _SubBatch(index, got, 0, 1)
                    else:
                        # keep the first slice; queue the rest and wake
                        # idle peers to steal them
                        of = len(subs)
                        self._note("split", worker, index=index, of=of)
                        for s in range(1, of):
                            self.subqueue.append(_SubBatch(index, subs[s], s, of))
                        buffer.kick()
                        claim = _SubBatch(index, subs[0], 0, of)
                claims[worker] = claim
            index, batch, sub, of = claim
            total = sum(len(p) for p in batch)
            if replay:
                self._note("replay", worker, index=index, records=total)
            outputs: List[List[dict]] = [[] for _ in range(n)]
            self.outputs = outputs
            eval_ctx.refresh_batch()
            eval_ctx.shared_meter.reset()
            eval_ctx.replicated_meter.reset()
            if self.predeploy:
                result = cluster.controller.invoke(self.job_id, batch)
            else:
                result = cluster.controller.run_job(self.spec(batch))
            makespan, _critical, _teardown, shared, _replicated = charge(
                result, eval_ctx, cost, n
            )
            if feed.functions:
                makespan += cost.udf_job_overhead(n)
            if coordinator is not None:
                # External fan-out happens after the local computing
                # job finishes, so its fault windows are evaluated at
                # the batch's completion time, run-relative like a
                # ``CrashAt``, and its elapsed time lands on the batch
                # makespan (mutates ``outputs``: enrichments stored,
                # pending markers added, dead-lettered records removed
                # before storage).
                makespan += coordinator.enrich_batch(
                    outputs, runtime.clock.now - runtime.epoch + makespan
                )
            batch_started = runtime.clock.now
            yield Advance(makespan)
            # Sequenced hand-off: the real writes (and storage-channel
            # items) for this index — plus any later indices it
            # unblocks — are released in batch order.
            released = yield from storage.hand_off(index, outputs, sub, of)
            if fabric is not None and released:
                # a batch boundary: the memory governor's rebalance
                # point (a no-op for fabrics without a governor)
                fabric.note_batch_released(run_name)
            if storage.channel is None:
                # §5.2 ablation: the coupled insert job waits for the
                # log force and storage writes before finishing (a
                # worker also absorbs the wait for any peer batches
                # its release unblocked).
                for rel_index, rel_seconds in released:
                    if rel_seconds > 0:
                        yield Advance(rel_seconds)
                    if rel_index == index:
                        makespan += rel_seconds
            self._note(
                "batch", worker, index=index, sub=sub, records=total,
                makespan=makespan, startup=result.startup_seconds,
                shared=shared, started=batch_started,
                latency=runtime.clock.now - batch_started,
            )
            if self.update_client is not None:
                self.update_client.advance(makespan)
            del claims[worker]  # acked: the sequencer released it
        self.workers_running -= 1
        self._note("retire", worker, cause=cause)
        if fabric is not None:
            # EOF drain or a recalled retire: either way the fabric
            # may fund another pool's waiting grow with the freed slot
            fabric.release_worker(run_name)
        if self.workers_running == 0:
            storage.end()

    def spawn_worker(self, cause: str) -> None:
        wid = self.spawned
        self.spawned += 1
        # worker 0 keeps the historical single-actor name; extra
        # workers get a .wN suffix (fault targets matching the
        # 'computing' layer hit them all)
        name = f"{self.run_name}.computing" + (f".w{wid}" if wid else "")
        self.workers_running += 1
        self._note("spawn", name, cause=cause)
        self.supervisor.spawn(name, partial(self._afm_loop, name), layer="computing")

    def retire(self) -> None:
        """Retire one worker at its next batch boundary: a shrink token,
        and a kick to wake an idle worker to claim it."""
        self.shrink_tokens += 1
        self.buffer.kick()

    def elastic_controller(self):
        """Grover & Carey's congestion reaction: sample the intake buffer
        on the clock and resize the pool within ``min/max_computing_workers``
        by the ``ELASTIC_*`` rule (a retire is a shrink token claimed at a
        batch boundary).  Exits once the buffer drains after EOF."""
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
            new_stalls, last_stalls = buffer.stalls - last_stalls, buffer.stalls
            congested = (
                occupancy >= ELASTIC_SCALE_UP_OCCUPANCY
                or buffer.producer_blocked
                or new_stalls > 0
                or backlog >= ELASTIC_BACKLOG_BATCHES
            )
            starved = (
                occupancy <= ELASTIC_SCALE_DOWN_OCCUPANCY
                and backlog < 1.0
                and not buffer.producer_blocked
            )
            if fabric is not None:
                # the feed's standing bid: every sample tick's
                # congestion signals, whether or not a grow follows
                fabric.tick(run_name, FeedSignals(congested=congested, starved=starved))
            up_streak = up_streak + 1 if congested else 0
            down_streak = down_streak + 1 if starved and not congested else 0
            effective = self.workers_running - self.shrink_tokens
            if (
                congested
                and up_streak >= ELASTIC_SUSTAINED_SAMPLES
                and effective < workers_max
            ):
                if self.shrink_tokens > 0:
                    self.shrink_tokens -= 1  # cancel a pending retire instead
                    decision = "cancel_retire"
                elif fabric is not None:
                    # under a fabric, a grow is funded from the global
                    # budget: the fabric spawns the worker now, or once a
                    # worker frees up while this grow still waits
                    decision = "grow" if fabric.acquire(run_name) else "bid"
                else:
                    decision = "grow"
                    self.spawn_worker("grow")
                up_streak = 0
            elif (
                down_streak >= ELASTIC_SUSTAINED_SAMPLES
                and effective > workers_min
            ):
                decision = "shrink"
                self.retire()
                down_streak = 0
            else:
                continue
            self._note(  # the decision and the signals it was taken on
                "scale", f"{run_name}.elastic", decision=decision,
                occupancy=occupancy, backlog=backlog, new_stalls=new_stalls,
                producer_blocked=buffer.producer_blocked,
            )
