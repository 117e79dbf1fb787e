"""Partition holders: bounded cross-job frame exchange (paper §5.3).

Data exchanges in Hyracks are limited to the scope of one job; the paper
introduces *partition holders* — operators guarding a runtime partition
with a bounded frame queue — so the intake, computing, and storage jobs can
hand frames to each other through memory.

* A **passive** holder receives frames from its upstream operators and
  waits for another job to *pull* them: the tail of the intake job, which
  computing jobs request batches from.  That is
  :class:`PassivePartitionHolder`; its bound is the feed's backpressure
  (:class:`~repro.runtime.IntakeBuffer` blocks a producer on a full one).
* An **active** holder receives frames from other jobs and *pushes* them
  to its downstream operators: the head of the storage job.  That push is
  ``StorageJob.store_batch`` (:mod:`repro.ingestion.storage_job`), which
  the run's sequencer calls in batch order; no queue stands in front of it.

A holder belongs to the feed run that built it; nothing looks one up by
name, so two feeds writing one dataset share no holder.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from ..errors import PartitionHolderError
from .frame import Frame


class PassivePartitionHolder:
    """Pull-style holder: a bounded FIFO of frames plus an EOF marker."""

    def __init__(self, holder_id: str, partition: int, capacity_frames: int = 64):
        if capacity_frames < 1:
            raise ValueError("capacity_frames must be >= 1")
        self.holder_id = holder_id
        self.partition = partition
        self.capacity = capacity_frames
        self._queue: Deque[Frame] = deque()
        self._eof = False
        self.offered = 0
        self.rejected = 0  # backpressure events
        self.pulled_records = 0
        self.high_water = 0
        self.blocked_seconds = 0.0  # producer time stalled on this holder
        self.disconnects = 0  # injected disconnect windows waited out
        self.disconnected_seconds = 0.0  # producer time waiting on reconnect

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def is_full(self) -> bool:
        return len(self._queue) >= self.capacity

    @property
    def eof(self) -> bool:
        return self._eof

    @property
    def queued_records(self) -> int:
        return sum(len(f) for f in self._queue)

    def offer(self, frame: Frame) -> bool:
        """Enqueue a frame; returns False (backpressure) when full."""
        if self._eof:
            raise PartitionHolderError(
                f"holder {self.holder_id}[{self.partition}] is closed"
            )
        if self.is_full:
            self.rejected += 1
            return False
        self._queue.append(frame)
        self.offered += 1
        self.high_water = max(self.high_water, len(self._queue))
        return True

    def end(self) -> None:
        """Mark EOF: no more frames will be offered (the feed stopped)."""
        self._eof = True

    def note_blocked(self, seconds: float) -> None:
        """Charge simulated time a producer spent blocked on this holder."""
        if seconds < 0:
            raise ValueError("blocked time cannot be negative")
        self.blocked_seconds += seconds

    def note_disconnected(self, seconds: float) -> None:
        """Charge simulated time a producer waited out a disconnect."""
        if seconds < 0:
            raise ValueError("disconnected time cannot be negative")
        self.disconnects += 1
        self.disconnected_seconds += seconds

    def poll_batch(self, max_records: int) -> List[dict]:
        """Pull up to ``max_records`` records, preserving FIFO order.

        A partially consumed frame is split; the remainder stays queued.
        """
        out: List[dict] = []
        while self._queue and len(out) < max_records:
            frame = self._queue[0]
            need = max_records - len(out)
            if len(frame) <= need:
                out.extend(frame.records)
                self._queue.popleft()
            else:
                out.extend(frame.records[:need])
                self._queue[0] = Frame(frame.records[need:])
        self.pulled_records += len(out)
        return out

    @property
    def drained(self) -> bool:
        """True once EOF was signalled and every record was pulled."""
        return self._eof and not self._queue
