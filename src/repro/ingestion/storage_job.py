"""The storage job (paper §5), which writes each computing job's output in
batch order, and the run's one checkpoint owner."""

from __future__ import annotations

import gc
from typing import Dict, List, Optional

from ..cluster.controller import Cluster
from ..errors import IngestionError
from ..runtime import Advance, Channel, Event, Sequencer
from ..storage.checkpoint import CheckpointStore, PartitionCursor, RunCheckpoint

#: computing → storage work items in flight on the decoupled storage channel
STORAGE_QUEUE_CAPACITY = 8


class StorageJob:
    """Per-node LSM writers behind the sequencer.

    Performs the real dataset writes and accounts per-node storage busy
    time (store cost, log forces, cross-node transfer for records whose
    primary-key hash lands elsewhere).  Decoupled, it also runs as a
    process working through a bounded channel of per-batch items, so its
    busy time overlaps the next computing job.
    """

    def __init__(self, cluster: Cluster, dataset, checkpoint=None, decoupled=True):
        self.cluster = cluster
        self.dataset = dataset
        self.checkpoint: Optional[FeedCheckpoint] = checkpoint
        self.decoupled = decoupled
        # a feed always upserts: an at-least-once replay dedupes on the key
        self.write = dataset.upsert
        self.node_busy: Dict[int, float] = {n: 0.0 for n in range(cluster.num_nodes)}
        self.records_stored = 0
        self.channel: Optional[Channel] = None
        self.sequencer: Optional[Sequencer] = None

    def store_batch(self, outputs: List[List[dict]]) -> float:
        """Write one computing job's output; returns this batch's max busy.

        ``outputs[p]`` is the enriched record list produced on node ``p``.
        This is §5.3's push side — the active partition holder at the head
        of the storage job — called by the run's sequencer in batch order.
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

    def open(self, runtime, run_name: str) -> None:
        """Build the sequencer, and the channel when decoupled.  Workers
        complete batches out of index order; the sequencer releases the
        writes (and the channel items) in index order, so pk-upsert order,
        acked guarantees and dead-letter provenance are a single worker's."""
        if self.decoupled:
            self.channel = Channel(
                runtime, STORAGE_QUEUE_CAPACITY, name=f"{run_name}.storage"
            )
        self.sequencer = Sequencer(self.release, self.channel, merge=self.merge)

    def release(self, outputs: List[List[dict]]) -> float:
        """The sequencer's release: store one batch, then move everything
        the collector tracks into the permanent generation.

        A stored record lives as long as its dataset, so a collection that
        walks it again finds nothing to free; after the freeze every
        generation holds only what was allocated since this release.
        """
        busy = self.store_batch(outputs)
        gc.freeze()
        return busy

    def merge(self, parts: List[List[List[dict]]]) -> List[List[dict]]:
        # Per-node concatenation in sub order recovers exactly the
        # unsplit batch's per-node outputs (see computing_job._split_batch).
        return [
            [record for part in parts for record in part[node]]
            for node in range(self.cluster.num_nodes)
        ]

    def hand_off(self, index: int, outputs, sub: int, of: int):
        """Coroutine: sequence one batch's (or slice's) output; returns the
        ``(index, seconds)`` pairs released, whose writes the checkpoint
        then makes durable."""
        released = yield from self.sequencer.put(
            index, outputs, sub_index=sub, num_subs=of
        )
        if released and self.checkpoint is not None:
            self.checkpoint.commit(self.sequencer.next_index, self.records_stored)
        return released

    def end(self) -> None:
        """The last worker retired: no more work comes down the channel (a
        worker the fabric grants after that retires at once; ending again
        wakes no one)."""
        if self.channel is not None:
            self.channel.end()

    def process(self):
        """Runtime process: advance through queued per-batch write work."""
        channel = self.channel
        while True:
            seconds = yield from channel.get()
            if seconds is None:
                break
            if seconds > 0:
                yield Advance(seconds)

    @property
    def max_busy(self) -> float:
        return max(self.node_busy.values())


class FeedCheckpoint:
    """A run's durable restart state.

    The intake job reports each deposited chunk, the computing job each
    batch it claims and the storage job each release.  Batches are claimed
    in index order, so the claimed seqs snapshotted for ``index`` cover
    exactly batches ``0..index``; releasing ``index`` makes them the acked
    watermark, and the newest deposited chunk at or below it each
    partition's re-open point.  The gap between replays and dedupes via
    pk-upsert.
    """

    def __init__(
        self,
        store: CheckpointStore,
        feed_name: str,
        run_name: str,
        num_partitions: int,
        resume: bool,
        events: List[Event],
        clock,
    ):
        self.store = store
        self.feed_name = feed_name
        self.run_name = run_name
        self.num_partitions = num_partitions
        self.events = events
        self.clock = clock
        #: per partition: the greatest claimed seq, the re-open point, and
        #: each ``(seq, resume)`` chunk deposited since the last commit
        self.claimed_seq: Dict[int, int] = {}
        self.resume: Dict[int, object] = {}
        self.deposits: Dict[int, list] = {p: [] for p in range(num_partitions)}
        self.marks: Dict[int, Dict[int, int]] = {}
        self.base: Optional[RunCheckpoint] = None
        if resume:
            base = self.base = store.load(feed_name)
            if base is not None:
                if base.intake_partitions != num_partitions:
                    raise IngestionError(
                        f"checkpoint for feed {feed_name!r} was written "
                        f"with {base.intake_partitions} intake "
                        f"partition(s); this run attached {num_partitions}"
                    )
                # partitions that receive no new records keep their durable
                # position instead of regressing to "nothing acked"
                for p, cursor in base.cursors.items():
                    self.claimed_seq[p] = cursor.acked_seq
                    self.resume[p] = cursor.resume

    def deposited(self, partition: int, seq: int, resume) -> None:
        """Once acked, a chunk up to ``seq`` may re-open at ``resume``."""
        self.deposits[partition].append((seq, resume))

    def claimed(self, index: int, batch: List[List[dict]]) -> None:
        """Advance the claimed seqs over batch ``index``; snapshot them."""
        cursor = self.claimed_seq
        for records in batch:
            for envelope in records:
                p = envelope.get("partition", 0)
                seq = envelope.get("seq", -1)
                if seq > cursor.get(p, -1):
                    cursor[p] = seq
        self.marks[index] = dict(cursor)

    def commit(self, released: int, records_stored: int, complete=False) -> None:
        """Persist cursors covering the ``released`` batches of this run
        (``complete``: the run drained cleanly, nothing is left to replay)."""
        watermark = released - 1
        marks = self.marks
        mark = marks.get(watermark)
        if mark is None:
            if not complete:
                return
            mark = self.claimed_seq
        # no later commit reads below the watermark; a replayed batch can
        # re-release the watermark's own
        for index in [index for index in marks if index < watermark]:
            del marks[index]
        cursors = {}
        for p in range(self.num_partitions):
            acked = mark.get(p, -1)
            log = self.deposits[p]
            while log and log[0][0] <= acked:
                self.resume[p] = log.pop(0)[1]
            cursors[p] = PartitionCursor(acked_seq=acked, resume=self.resume.get(p))
        base = self.base
        self.store.commit(
            RunCheckpoint(
                feed=self.feed_name,
                intake_partitions=self.num_partitions,
                cursors=cursors,
                acked_batches=(base.acked_batches if base is not None else 0)
                + released,
                records_stored=records_stored,
                complete=complete,
            )
        )
        self.events.append(
            Event(self.clock.now, "checkpoint", self.run_name, {"watermark": watermark})
        )
