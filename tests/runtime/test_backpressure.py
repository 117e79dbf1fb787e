"""End-to-end backpressure: a tiny intake buffer must block the intake layer."""

import json

import pytest

from repro.adm import open_type
from repro.cluster import Cluster
from repro.ingestion import DynamicIngestionPipeline, FeedDefinition, GeneratorAdapter
from repro.storage import Dataset


def make_catalog(parts=2):
    return {
        "EnrichedTweets": Dataset(
            "EnrichedTweets", open_type("T", id="int64"), "id",
            num_partitions=parts, validate=False,
        )
    }


def raw_tweets(count):
    return [json.dumps({"id": i, "text": f"tweet {i}"}) for i in range(count)]


class TestBlockedIntake:
    def test_tiny_holder_blocks_intake_and_meters_it(self):
        """With one-frame holders the intake layer must spend time blocked,
        the run must record stalls, and no record may be lost."""
        catalog = make_catalog()
        feed = FeedDefinition(
            "F", "EnrichedTweets", batch_size=32, intake_holder_capacity=1
        )
        report = DynamicIngestionPipeline(Cluster(2), catalog, None).run(
            feed, GeneratorAdapter(raw_tweets(200))
        )
        assert report.records_stored == 200
        assert report.stalls > 0
        metrics = report.runtime
        assert metrics is not None
        assert metrics.layer("intake").blocked > 0.0
        assert metrics.stall_count >= report.stalls
        assert sum(h.rejected for h in metrics.holders) > 0

    def test_roomy_holder_never_blocks(self):
        catalog = make_catalog()
        feed = FeedDefinition(
            "F", "EnrichedTweets", batch_size=32, intake_holder_capacity=64
        )
        report = DynamicIngestionPipeline(Cluster(2), catalog, None).run(
            feed, GeneratorAdapter(raw_tweets(200))
        )
        assert report.records_stored == 200
        assert report.stalls == 0
        assert report.runtime.layer("intake").blocked == 0.0

    def test_backpressure_throttles_throughput(self):
        fast = DynamicIngestionPipeline(Cluster(2), make_catalog(), None).run(
            FeedDefinition("F", "EnrichedTweets", batch_size=32),
            GeneratorAdapter(raw_tweets(200)),
        )
        slow = DynamicIngestionPipeline(Cluster(2), make_catalog(), None).run(
            FeedDefinition(
                "F", "EnrichedTweets", batch_size=32, intake_holder_capacity=1
            ),
            GeneratorAdapter(raw_tweets(200)),
        )
        assert slow.throughput <= fast.throughput
        assert slow.num_computing_jobs >= fast.num_computing_jobs

    def test_holder_high_water_respects_capacity(self):
        catalog = make_catalog()
        feed = FeedDefinition(
            "F", "EnrichedTweets", batch_size=32, intake_holder_capacity=2
        )
        report = DynamicIngestionPipeline(Cluster(2), catalog, None).run(
            feed, GeneratorAdapter(raw_tweets(200))
        )
        intake_holders = [
            h for h in report.runtime.holders if h.kind == "passive"
        ]
        assert intake_holders
        assert all(h.high_water <= 2 for h in intake_holders)
        assert report.runtime.holder_high_water <= 2
