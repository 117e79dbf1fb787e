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
        assert strategy.route({}, 2, 4) == 2
        assert strategy.route({}, 5, 4) == 1  # wraps

    def test_round_robin_rotates_per_producer(self):
        strategy = RoundRobin()
        targets = [strategy.route({}, 0, 3) for _ in range(6)]
        assert targets == [0, 1, 2, 0, 1, 2]

    def test_round_robin_producers_independent(self):
        strategy = RoundRobin()
        a = [strategy.route({}, 0, 2) for _ in range(3)]
        b = [strategy.route({}, 1, 2) for _ in range(3)]
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


class TestOneToOneMovesFrames:
    """A ``OneToOne`` edge moves a frame as a list; the per-record ``_push``
    (what ``RoundRobin`` / ``HashPartition`` run) is the reference for what
    the consumer must see and the producer's node must be charged."""

    SIZES = [64, 63, 64, 1, 0, 64]

    def run_edge(self, consumer_nodes, per_record):
        events = []

        class Consumer(_Collector):
            def __init__(self, partition):
                super().__init__()
                self.partition = partition

            def next_frame(self, frame):
                events.append(("frame", self.partition, [r["i"] for r in frame]))

        runtime = ConnectorRuntime(
            strategy=OneToOne(),
            consumers=[Consumer(0), Consumer(1)],
            producer_nodes=[0, 1],
            consumer_nodes=consumer_nodes,
            charge=lambda node, seconds: events.append(("charge", node, seconds)),
            transfer_cost=1e-6,
            frame_capacity=64,
        )
        writers = [runtime.writer_for_producer(p) for p in (0, 1)]
        for writer in writers:
            writer.open()
        serial = 0
        for size in self.SIZES:
            for writer in writers:
                frame = Frame([{"i": serial + k} for k in range(size)])
                serial += size
                if per_record:
                    for record in frame:
                        runtime._push(record, writer.producer_partition)
                else:
                    writer.next_frame(frame)
        for writer in writers:
            writer.close()
        return events

    @pytest.mark.parametrize(
        "consumer_nodes", [[0, 1], [1, 0]], ids=["same-node", "cross-node"]
    )
    def test_same_frames_order_and_charges_as_per_record_push(self, consumer_nodes):
        moved = self.run_edge(consumer_nodes, per_record=False)
        assert moved == self.run_edge(consumer_nodes, per_record=True)
        sizes = [len(e[2]) for e in moved if e[0] == "frame" and e[1] == 0]
        assert sizes == [64, 64, 64, 64]  # 256 records, re-cut at capacity
        charged = sum(1 for e in moved if e[0] == "charge")
        assert charged == (0 if consumer_nodes == [0, 1] else 2 * sum(self.SIZES))

    def test_a_routing_strategy_still_sees_every_record(self):
        seen = []

        class Spy(OneToOne):
            def route(self, record, producer_partition, fanout):
                seen.append(record)
                return super().route(record, producer_partition, fanout)

        consumers = [_Collector()]
        runtime, _ = make_runtime(consumers, strategy=Spy(), frame_capacity=2)
        writer = runtime.writer_for_producer(0)
        writer.open()
        writer.next_frame(Frame([{"i": 0}, {"i": 1}, {"i": 2}]))
        writer.close()
        assert seen == consumers[0].records() == [{"i": 0}, {"i": 1}, {"i": 2}]
