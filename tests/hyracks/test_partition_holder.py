"""Partition holders: bounded queues, EOF, FIFO, registry."""

import pytest

from repro.errors import PartitionHolderError
from repro.hyracks import (
    ActivePartitionHolder,
    Frame,
    PartitionHolderManager,
    PassivePartitionHolder,
)


class TestPassiveHolder:
    def test_fifo_order_preserved(self):
        holder = PassivePartitionHolder("h", 0)
        holder.offer(Frame([{"id": 1}, {"id": 2}]))
        holder.offer(Frame([{"id": 3}]))
        assert [r["id"] for r in holder.poll_batch(10)] == [1, 2, 3]

    def test_partial_frame_split(self):
        holder = PassivePartitionHolder("h", 0)
        holder.offer(Frame([{"id": i} for i in range(5)]))
        first = holder.poll_batch(2)
        second = holder.poll_batch(10)
        assert [r["id"] for r in first] == [0, 1]
        assert [r["id"] for r in second] == [2, 3, 4]

    def test_backpressure_when_full(self):
        holder = PassivePartitionHolder("h", 0, capacity_frames=2)
        assert holder.offer(Frame([{}]))
        assert holder.offer(Frame([{}]))
        assert not holder.offer(Frame([{}]))
        assert holder.rejected == 1

    def test_poll_frees_capacity(self):
        holder = PassivePartitionHolder("h", 0, capacity_frames=1)
        holder.offer(Frame([{}]))
        holder.poll_batch(10)
        assert holder.offer(Frame([{}]))

    def test_no_frames_dropped(self):
        holder = PassivePartitionHolder("h", 0, capacity_frames=100)
        for i in range(50):
            holder.offer(Frame([{"id": i}]))
        got = holder.poll_batch(1000)
        assert [r["id"] for r in got] == list(range(50))

    def test_eof_protocol(self):
        holder = PassivePartitionHolder("h", 0)
        holder.offer(Frame([{}]))
        holder.end()
        assert holder.eof
        assert not holder.drained
        holder.poll_batch(10)
        assert holder.drained

    def test_offer_after_eof_raises(self):
        holder = PassivePartitionHolder("h", 0)
        holder.end()
        with pytest.raises(PartitionHolderError):
            holder.offer(Frame([{}]))

    def test_high_water_tracked(self):
        holder = PassivePartitionHolder("h", 0, capacity_frames=10)
        for _ in range(7):
            holder.offer(Frame([{}]))
        holder.poll_batch(100)
        assert holder.high_water == 7

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            PassivePartitionHolder("h", 0, capacity_frames=0)

    def test_queued_records(self):
        holder = PassivePartitionHolder("h", 0)
        holder.offer(Frame([{}, {}]))
        holder.offer(Frame([{}]))
        assert holder.queued_records == 3

    def test_rejected_counts_every_failed_offer(self):
        holder = PassivePartitionHolder("h", 0, capacity_frames=1)
        holder.offer(Frame([{}]))
        for _ in range(3):
            assert not holder.offer(Frame([{}]))
        assert holder.rejected == 3
        assert holder.offered == 1

    def test_blocked_time_metered(self):
        holder = PassivePartitionHolder("h", 0)
        holder.note_blocked(0.25)
        holder.note_blocked(0.5)
        assert holder.blocked_seconds == pytest.approx(0.75)
        with pytest.raises(ValueError):
            holder.note_blocked(-1.0)

    def test_poll_batch_splits_across_frames_fifo(self):
        holder = PassivePartitionHolder("h", 0)
        holder.offer(Frame([{"id": 0}, {"id": 1}, {"id": 2}]))
        holder.offer(Frame([{"id": 3}, {"id": 4}]))
        assert [r["id"] for r in holder.poll_batch(4)] == [0, 1, 2, 3]
        assert [r["id"] for r in holder.poll_batch(4)] == [4]
        assert holder.pulled_records == 5


class _Recorder:
    def __init__(self):
        self.opened = False
        self.closed = False
        self.frames = []

    def open(self):
        self.opened = True

    def next_frame(self, frame):
        self.frames.append(frame)

    def close(self):
        self.closed = True


class TestActiveHolder:
    def test_pushes_downstream(self):
        rec = _Recorder()
        holder = ActivePartitionHolder("s", 0, rec)
        holder.push(Frame([{"id": 1}]))
        holder.push(Frame([{"id": 2}]))
        holder.close()
        assert rec.opened and rec.closed
        assert holder.received == 2
        assert len(rec.frames) == 2

    def test_open_idempotent(self):
        rec = _Recorder()
        holder = ActivePartitionHolder("s", 0, rec)
        holder.open()
        holder.open()
        holder.push(Frame([{}]))
        assert holder.received == 1


class TestManager:
    def test_register_lookup(self):
        mgr = PartitionHolderManager()
        holder = PassivePartitionHolder("intake", 2)
        mgr.register(holder)
        assert mgr.lookup("intake", 2) is holder

    def test_duplicate_registration_rejected(self):
        mgr = PartitionHolderManager()
        mgr.register(PassivePartitionHolder("h", 0))
        with pytest.raises(PartitionHolderError):
            mgr.register(PassivePartitionHolder("h", 0))

    def test_unknown_lookup_raises(self):
        with pytest.raises(PartitionHolderError):
            PartitionHolderManager().lookup("nope", 0)

    def test_unregister_all_partitions(self):
        mgr = PartitionHolderManager()
        for p in range(3):
            mgr.register(PassivePartitionHolder("h", p))
        mgr.unregister("h")
        with pytest.raises(PartitionHolderError):
            mgr.lookup("h", 1)
