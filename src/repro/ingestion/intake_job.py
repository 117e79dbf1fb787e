"""The intake job (paper §5): the feed's adapters drawing into its passive
partition holders, for the feed's lifetime."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, Iterator, List, Optional

from ..cluster.controller import Cluster
from ..errors import InjectedCrash
from ..hyracks.frame import DEFAULT_FRAME_CAPACITY, Frame
from ..hyracks.partition_holder import PassivePartitionHolder
from ..runtime import Advance, Event, IDLE
from .adapter import ADAPTER_IDLE, FeedAdapter
from .feed import FeedDefinition

#: sim seconds an idle-but-open adapter (an un-ended QueueAdapter) may
#: starve its intake lane before the feed treats the stream as complete,
#: and the lane's poll period while it waits
ADAPTER_IDLE_TIMEOUT_SECONDS = 10.0
ADAPTER_IDLE_POLL_SECONDS = 0.5


@dataclass(slots=True)
class _Lane:
    """What one intake lane keeps across a restart: envelopes drawn but not
    yet framed (:attr:`chunk`) and frames not yet deposited
    (:attr:`pending`), so a crash mid-deposit replays them instead of
    losing them (at-least-once; upsert dedupes), and ``source``, ``None``
    after an adapter death until the restarted lane re-opens it."""

    name: str
    partition: int
    adapter: FeedAdapter
    source: Optional[Iterator[dict]]
    drawn: int = 0  # envelopes drawn over the adapter's lifetime
    exhausted: bool = False
    advanced: float = 0.0
    chunk: Optional[List[dict]] = None
    pending: Optional[list] = None
    idle: float = 0.0


class IntakeJob:
    """Adapter(s) + round-robin partitioner + passive holders.

    One supervised lane per intake partition.  With more than one adapter
    the feed runs partitioned intake: each lane drives its own adapter,
    pinned round-robin to an intake node, all merging into the shared
    holders under one logical cursor (per-partition ``(partition, seq)``
    watermarks).  A single lane keeps the historical
    round-robin-per-record node accounting bit-for-bit.

    A lane's ``buffer.put`` suspends it (accounted as *blocked*) while the
    target holder is full — backpressure reaches the adapter instead of
    force-appending past the holder's bound.  An idle-but-open adapter (a
    :class:`QueueAdapter` drained before ``end()``) surfaces as accounted
    idle time, bounded by ``ADAPTER_IDLE_TIMEOUT_SECONDS``.

    An :class:`~repro.runtime.faults.AdapterFailAt` in the fault plan kills
    a lane's adapter after it has drawn that many envelopes: the source is
    closed and the lane crashes; on the supervisor's restart the adapter is
    re-opened from its live resume cursor
    (:meth:`~repro.ingestion.adapter.FeedAdapter.resume_position`), so
    envelopes already drawn (held on the lane) are never drawn twice and
    nothing after the cursor is skipped.  A durable ``resume_run`` instead
    opens a fresh adapter at the checkpoint's cursor.
    """

    def __init__(
        self,
        cluster: Cluster,
        feed: FeedDefinition,
        adapters: List[FeedAdapter],
        chunk_size: int,
        events: List[Event],
        checkpoint,
    ):
        self.cluster = cluster
        self.feed = feed
        self.adapters = adapters
        self.num_partitions = num_partitions = len(adapters)
        self.chunk_size = chunk_size
        self.events = events
        self.checkpoint = checkpoint
        #: the last lane to finish ends the shared buffer; adapter faults
        #: are consumed run-wide
        self.open_lanes = num_partitions
        self.faults_consumed: set = set()
        n = cluster.num_nodes
        self.intake_nodes = list(range(n)) if feed.balanced_intake else [0]
        self.node_busy: Dict[int, float] = {node: 0.0 for node in self.intake_nodes}
        #: per intake partition: its lane's accumulated busy seconds
        self.partition_busy: Dict[int, float] = {
            p: 0.0 for p in range(num_partitions)
        }
        self.holders = [
            PassivePartitionHolder(
                f"intake-{feed.name}", p, feed.intake_holder_capacity
            )
            for p in range(n)
        ]
        self._rr = 0
        self._intake_rr = 0
        self.records_received = 0

    def start(self, run_name: str, buffer, supervisor) -> None:
        """Spawn one supervised lane per partition.  Fault targets can name
        one lane ('intake.p1') or the whole layer; the single lane keeps
        the historical unsuffixed name."""
        self.buffer = buffer
        self.clock = buffer.runtime.clock
        self.plan = buffer.runtime.fault_plan
        checkpoint = self.checkpoint
        partitioned = self.num_partitions > 1
        for p, adapter in enumerate(self.adapters):
            name = f"{run_name}.intake" + (f".p{p}" if partitioned else "")
            resume_from = checkpoint.resume.get(p) if checkpoint is not None else None
            # only pass resume_from when actually resuming: adapter
            # subclasses predating durable restart may not accept it
            source = (
                adapter.envelopes(resume_from=resume_from)
                if resume_from is not None
                else adapter.envelopes()
            )
            lane = _Lane(name, p, adapter, source)
            supervisor.spawn(name, partial(self._run_lane, lane), layer="intake")

    def _note(self, kind: str, lane: _Lane, **detail) -> None:
        self.events.append(Event(self.clock.now, kind, lane.name, detail))

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
        # Two branches, not one: a remote record's charge is ``per`` then
        # ``transfer`` on a single lane but ``per + transfer`` on a
        # partitioned one, and BENCH_scaleout.json pins both float sums
        # to the last bit.
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

    def _due_adapter_fault(self, lane: _Lane):
        """The fault plan's next unconsumed adapter death due on ``lane``."""
        consumed = self.faults_consumed
        for index, fault in self.plan.adapter_failures_indexed():
            if index in consumed:
                continue
            if fault.partition is not None and fault.partition != lane.partition:
                continue
            if fault.feed not in (None, self.feed.name):
                continue
            if lane.drawn >= fault.after_records:
                consumed.add(index)
                return fault
        return None

    def _run_lane(self, lane: _Lane):
        """One lane's actor: the supervisor's body factory, called once for
        the first run and once per restart."""
        adapter, buffer, plan = lane.adapter, self.buffer, self.plan
        partition, chunk_size = lane.partition, self.chunk_size
        checkpoint = self.checkpoint
        if lane.source is None:
            # restarted after an adapter death: re-open from the cursor
            lane.source = adapter.envelopes(resume_from=adapter.resume_position())
            self._note("adapter_reopen", lane, drawn=lane.drawn)
        source = lane.source
        while True:
            if lane.pending is None:
                if lane.exhausted:
                    break
                if lane.chunk is None:
                    lane.chunk = []
                chunk = lane.chunk
                while len(chunk) < chunk_size:
                    fault = self._due_adapter_fault(lane) if plan is not None else None
                    if fault is not None:
                        # the source died mid-fetch: drop the iterator,
                        # release its resources, and crash this actor —
                        # the supervisor restarts it and the re-opened
                        # source resumes from the cursor
                        lane.source = None
                        self._note("adapter_death", lane, drawn=lane.drawn)
                        adapter.close()
                        raise InjectedCrash(fault)
                    try:
                        item = next(source)
                    except StopIteration:
                        lane.exhausted = True
                        break
                    if item is ADAPTER_IDLE:
                        if chunk:
                            break  # deliver what we have before idling
                        if lane.idle >= ADAPTER_IDLE_TIMEOUT_SECONDS:
                            self._note("idle_timeout", lane, idle=lane.idle)
                            lane.exhausted = True
                            break
                        lane.idle += ADAPTER_IDLE_POLL_SECONDS
                        yield Advance(ADAPTER_IDLE_POLL_SECONDS, state=IDLE)
                        continue
                    lane.idle = 0.0
                    lane.drawn += 1
                    chunk.append(item)
                if not chunk:
                    if lane.exhausted:
                        break
                    continue
                frames = self._receive(chunk, partition)
                if checkpoint is not None:
                    # once this chunk is fully deposited and acked, a
                    # restart may re-open the adapter here
                    checkpoint.deposited(
                        partition,
                        max(e["seq"] for e in chunk),
                        adapter.resume_position(),
                    )
                lane.chunk = None
                # Stash undelivered frames *before* consuming sim time:
                # a crash from here on replays them.
                lane.pending = list(frames)
                # A partitioned lane advances by its own partition's
                # busy time (lanes overlap); the single lane keeps the
                # historical max-over-intake-nodes accounting.
                busy_now = (
                    self.partition_busy[partition]
                    if self.num_partitions > 1
                    else self.max_busy
                )
                delta = busy_now - lane.advanced
                lane.advanced = busy_now
                if delta > 0:
                    yield Advance(delta)
            pending = lane.pending
            while pending:
                target, frame = pending[0]
                yield from buffer.put(target, frame)
                pending.pop(0)
            lane.pending = None
            # Batch boundary: yield the slice so a waiting computing
            # process evaluates this chunk's batch before the adapter
            # draws (and side-effects) the next chunk.
            yield Advance(0.0)
        self.open_lanes -= 1
        if self.open_lanes == 0:
            # the last lane standing ends the shared buffer
            buffer.end()

    @property
    def max_busy(self) -> float:
        return max(self.node_busy.values())

    @property
    def bottleneck(self) -> float:
        """The layer's steady-state share: the busiest intake node for one
        lane; partitioned lanes overlap, so the slowest single partition."""
        if self.num_partitions == 1:
            return self.max_busy
        return max(self.partition_busy.values())
