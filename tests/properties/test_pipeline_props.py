"""Property-based tests on runtime/pipeline invariants."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adm import open_type
from repro.cluster import Cluster
from repro.hyracks import Frame
from repro.hyracks.connectors import RoundRobin
from repro.hyracks.partition_holder import PassivePartitionHolder
from repro.ingestion import DynamicIngestionPipeline, FeedDefinition, GeneratorAdapter
from repro.storage import Dataset
from repro.storage.dataset import hash_partition


class TestRoundRobinProperty:
    @given(
        st.integers(min_value=1, max_value=500),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60)
    def test_balance_within_one(self, record_count, fanout):
        strategy = RoundRobin()
        counts = [0] * fanout
        for i in range(record_count):
            counts[strategy.route({"i": i}, 0, fanout)] += 1
        assert max(counts) - min(counts) <= 1


class TestHashPartitionProperty:
    @given(st.lists(st.integers(), min_size=1), st.integers(1, 16))
    @settings(max_examples=60)
    def test_deterministic_and_in_range(self, record_keys, partitions):
        for key in record_keys:
            p = hash_partition(key, partitions)
            assert 0 <= p < partitions
            assert p == hash_partition(key, partitions)


class TestHolderProperty:
    @given(st.lists(st.lists(st.integers(), min_size=1, max_size=10), max_size=40),
           st.integers(1, 7))
    @settings(max_examples=60)
    def test_fifo_no_loss_any_poll_pattern(self, frames, poll_size):
        holder = PassivePartitionHolder("h", 0, capacity_frames=1000)
        flattened = []
        for frame_records in frames:
            records = [{"v": v} for v in frame_records]
            holder.offer(Frame(records))
            flattened.extend(records)
        holder.end()
        drained = []
        while not holder.drained:
            drained.extend(holder.poll_batch(poll_size))
        assert drained == flattened


class TestFeedExactlyOnceProperty:
    @given(
        st.integers(min_value=0, max_value=120),
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_every_record_stored_exactly_once(self, count, batch, nodes):
        target = Dataset(
            "T", open_type("TT", id="int64"), "id",
            num_partitions=nodes, validate=False,
        )
        catalog = {"T": target}
        raws = [json.dumps({"id": i}) for i in range(count)]
        feed = FeedDefinition("F", "T", batch_size=batch)
        report = DynamicIngestionPipeline(Cluster(nodes), catalog).run(
            feed, GeneratorAdapter(raws)
        )
        assert report.records_ingested == count
        assert report.records_stored == count
        assert sorted(r["id"] for r in target.scan()) == list(range(count))
