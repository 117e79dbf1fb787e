"""Routing strategies and connector runtime mechanics."""

import pytest

from repro.hyracks import Frame
from repro.hyracks.connectors import (
    ConnectorRuntime,
    HashPartition,
    OneToOne,
    RoundRobin,
)


class TestStrategies:
    def test_one_to_one_maps_partition(self):
        strategy = OneToOne()
        assert strategy.route({}, 2, 4) == [2]
        assert strategy.route({}, 5, 4) == [1]  # wraps

    def test_round_robin_rotates_per_producer(self):
        strategy = RoundRobin()
        targets = [strategy.route({}, 0, 3)[0] for _ in range(6)]
        assert targets == [0, 1, 2, 0, 1, 2]

    def test_round_robin_producers_independent(self):
        strategy = RoundRobin()
        a = [strategy.route({}, 0, 2)[0] for _ in range(3)]
        b = [strategy.route({}, 1, 2)[0] for _ in range(3)]
        assert a == [0, 1, 0]
        assert b == [1, 0, 1]

    def test_hash_partition_stable(self):
        strategy = HashPartition(lambda r: r["k"])
        first = strategy.route({"k": "x"}, 0, 8)
        assert strategy.route({"k": "x"}, 3, 8) == first


class _Collector:
    def __init__(self):
        self.frames = []
        self.opened = 0
        self.closed = 0

    def open(self):
        self.opened += 1

    def next_frame(self, frame):
        self.frames.append(frame)

    def close(self):
        self.closed += 1

    def records(self):
        return [r for f in self.frames for r in f]


def make_runtime(consumers, strategy=None, producers=1, frame_capacity=4):
    charges = []
    runtime = ConnectorRuntime(
        strategy=strategy or RoundRobin(),
        consumers=consumers,
        producer_nodes=[0] * producers,
        consumer_nodes=list(range(len(consumers))),
        charge=lambda node, sec: charges.append((node, sec)),
        transfer_cost=1e-6,
        frame_capacity=frame_capacity,
    )
    return runtime, charges


class TestConnectorRuntime:
    def test_open_close_pair_once(self):
        consumers = [_Collector(), _Collector()]
        runtime, _ = make_runtime(consumers, producers=2)
        w0 = runtime.writer_for_producer(0)
        w1 = runtime.writer_for_producer(1)
        w0.open()
        w1.open()
        w0.close()
        assert consumers[0].closed == 0  # still one producer open
        w1.close()
        assert all(c.opened == 1 and c.closed == 1 for c in consumers)

    def test_frames_flushed_at_capacity(self):
        consumers = [_Collector()]
        runtime, _ = make_runtime(consumers, strategy=OneToOne(), frame_capacity=2)
        writer = runtime.writer_for_producer(0)
        writer.open()
        writer.next_frame(Frame([{"i": 0}, {"i": 1}, {"i": 2}]))
        assert len(consumers[0].frames) == 1  # first two flushed
        writer.close()
        assert len(consumers[0].records()) == 3

    def test_remaining_buffers_flushed_on_close(self):
        consumers = [_Collector()]
        runtime, _ = make_runtime(consumers, strategy=OneToOne(), frame_capacity=100)
        writer = runtime.writer_for_producer(0)
        writer.open()
        writer.next_frame(Frame([{"i": 0}]))
        assert consumers[0].frames == []
        writer.close()
        assert len(consumers[0].records()) == 1

    def test_cross_node_transfer_charged(self):
        consumers = [_Collector(), _Collector()]
        runtime, charges = make_runtime(consumers, strategy=RoundRobin())
        writer = runtime.writer_for_producer(0)
        writer.open()
        writer.next_frame(Frame([{"i": 0}, {"i": 1}]))
        writer.close()
        # producer on node 0; consumer 0 co-located, consumer 1 remote
        assert [len(c.records()) for c in consumers] == [1, 1]
        assert charges == [(0, 1e-6)]
