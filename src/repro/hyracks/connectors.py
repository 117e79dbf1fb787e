"""Connectors: routing strategies between operator partitions.

A connector takes frames produced by one operator partition and routes
records to the consumer's partitions.  Cross-node hops charge transfer cost
to the producing node (the sending CPU does the serialization work).

A strategy that spreads a frame's records over several consumers
(:class:`RoundRobin`, :class:`HashPartition`) is asked record by record.
A :class:`OneToOne` edge sends the whole frame to one consumer, so it is
routed once and moved as a list; either way the consumer receives the
same frames — cut at ``frame_capacity`` — and the producer's node the
same charges in the same order.
"""

from __future__ import annotations

from typing import Callable, List

from ..storage.dataset import hash_partition
from .frame import DEFAULT_FRAME_CAPACITY, Frame


class RoutingStrategy:
    """Decides, per record, which consumer partition(s) receive it."""

    def route(self, record: dict, producer_partition: int, fanout: int) -> List[int]:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


class OneToOne(RoutingStrategy):
    """Partition i feeds consumer partition i (pipelining, no shuffle)."""

    def route(self, record, producer_partition, fanout):
        return [producer_partition % fanout]


class RoundRobin(RoutingStrategy):
    """Distribute records evenly — the intake job's partitioner (§6.2).

    Each producer partition keeps its own rotation cursor so the global
    distribution stays within ±1 record per consumer.
    """

    def __init__(self):
        self._cursors = {}

    def route(self, record, producer_partition, fanout):
        cursor = self._cursors.get(producer_partition, producer_partition)
        self._cursors[producer_partition] = (cursor + 1) % fanout
        return [cursor % fanout]


class HashPartition(RoutingStrategy):
    """Route by a hash of a key extracted from the record (storage §6.2)."""

    def __init__(self, key_fn: Callable[[dict], object]):
        self.key_fn = key_fn

    def route(self, record, producer_partition, fanout):
        return [hash_partition(self.key_fn(record), fanout)]


class ConnectorRuntime:
    """Per-edge runtime: buffers per consumer partition, flushes as frames."""

    def __init__(
        self,
        strategy: RoutingStrategy,
        consumers,  # list of FrameWriter, one per consumer partition
        producer_nodes: List[int],
        consumer_nodes: List[int],
        charge: Callable[[int, float], None],  # (node, seconds) -> None
        transfer_cost: float,
        frame_capacity: int = DEFAULT_FRAME_CAPACITY,
    ):
        self.strategy = strategy
        self.consumers = consumers
        self.producer_nodes = producer_nodes
        self.consumer_nodes = consumer_nodes
        self.charge = charge
        self.transfer_cost = transfer_cost
        if frame_capacity < 1:
            raise ValueError("frame capacity must be >= 1")
        self.frame_capacity = frame_capacity
        self._buffers = [[] for _ in consumers]
        self._open_count = 0

    def writer_for_producer(self, producer_partition: int) -> "_ConnectorWriter":
        return _ConnectorWriter(self, producer_partition)

    # Internal: called by _ConnectorWriter ---------------------------------

    def _producer_opened(self) -> None:
        if self._open_count == 0:
            for consumer in self.consumers:
                consumer.open()
        self._open_count += 1

    def _producer_closed(self) -> None:
        self._open_count -= 1
        if self._open_count == 0:
            for idx in range(len(self.consumers)):
                self._flush(idx)
            for consumer in self.consumers:
                consumer.close()

    def _push_frame(self, frame: Frame, producer_partition: int) -> None:
        """A :class:`OneToOne` edge: every record goes to the one target."""
        # OneToOne routes on the partition alone, so no record is needed
        (target,) = self.strategy.route(None, producer_partition, len(self.consumers))
        producer_node = self.producer_nodes[producer_partition]
        remote = self.consumer_nodes[target] != producer_node
        capacity = self.frame_capacity
        records = frame.records
        start, total = 0, len(records)
        while start < total:
            buffered = self._buffers[target]
            stop = min(total, start + capacity - len(buffered))
            if remote:
                for _ in range(stop - start):
                    self.charge(producer_node, self.transfer_cost)
            if stop - start == total == capacity:
                # a full frame behind an empty buffer is the next frame out
                self.consumers[target].next_frame(frame)
                return
            buffered.extend(records[start:stop])
            start = stop
            if len(buffered) >= capacity:
                self._flush(target)

    def _push(self, record: dict, producer_partition: int) -> None:
        targets = self.strategy.route(record, producer_partition, len(self.consumers))
        producer_node = self.producer_nodes[producer_partition]
        for target in targets:
            if self.consumer_nodes[target] != producer_node:
                self.charge(producer_node, self.transfer_cost)
            self._buffers[target].append(record)
            if len(self._buffers[target]) >= self.frame_capacity:
                self._flush(target)

    def _flush(self, target: int) -> None:
        if self._buffers[target]:
            frame = Frame(self._buffers[target])
            self._buffers[target] = []
            self.consumers[target].next_frame(frame)


class _ConnectorWriter:
    """The FrameWriter a producer partition pushes into."""

    def __init__(self, runtime: ConnectorRuntime, producer_partition: int):
        self.runtime = runtime
        self.producer_partition = producer_partition
        self._whole_frames = type(runtime.strategy) is OneToOne

    def open(self) -> None:
        self.runtime._producer_opened()

    def next_frame(self, frame: Frame) -> None:
        if self._whole_frames:
            self.runtime._push_frame(frame, self.producer_partition)
            return
        for record in frame:
            self.runtime._push(record, self.producer_partition)

    def close(self) -> None:
        self.runtime._producer_closed()

    def fail(self) -> None:
        self.close()
