"""Elastic computing worker pool: speedup, ordering, scaling, recovery."""

import json

import pytest

from repro.core import AsterixLite
from repro.ingestion import FeedPolicy, GeneratorAdapter, QueueAdapter
from repro.runtime import CrashAt, FaultPlan, StallAt


def build_system(words=100):
    """A compute-bound enrichment feed (the sensitive-words EXISTS join)."""
    system = AsterixLite(num_nodes=4)
    system.execute(
        """
        CREATE TYPE TweetType AS OPEN { id: int64, text: string };
        CREATE DATASET EnrichedTweets(TweetType) PRIMARY KEY id;
        CREATE TYPE WordType AS OPEN { wid: int64 };
        CREATE DATASET SensitiveWords(WordType) PRIMARY KEY wid;
        """
    )
    system.insert(
        "SensitiveWords",
        [{"wid": i, "country": "US", "word": f"w{i}"} for i in range(words)],
    )
    system.execute(
        """
        CREATE FUNCTION heavyCheck(tweet) {
            LET flag = CASE
                EXISTS(SELECT w FROM SensitiveWords w
                       WHERE tweet.country = w.country
                         AND contains(tweet.text, w.word))
                WHEN true THEN "Red" ELSE "Green" END
            SELECT tweet.*, flag
        };
        CREATE FEED TweetFeed WITH { "type-name": "TweetType" };
        CONNECT FEED TweetFeed TO DATASET EnrichedTweets
            APPLY FUNCTION heavyCheck;
        """
    )
    return system


def raws(records):
    return [
        json.dumps({"id": i, "text": f"tweet {i}", "country": "US"})
        for i in range(records)
    ]


def run_feed(policy, records=480, batch_size=40, fault_plan=None, adapter=None):
    system = build_system()
    adapter = adapter or GeneratorAdapter(raws(records))
    report = system.start_feed(
        "TweetFeed",
        adapter=adapter,
        batch_size=batch_size,
        policy=policy,
        fault_plan=fault_plan,
    )
    stored = sorted(
        (r["id"], r["flag"]) for r in system.catalog["EnrichedTweets"].scan()
    )
    return report, stored


def static_pool(workers, **overrides):
    return FeedPolicy.spill(
        min_computing_workers=workers, max_computing_workers=workers,
        **overrides,
    )


class TestStaticPool:
    def test_outputs_identical_across_worker_counts(self):
        results = {w: run_feed(static_pool(w)) for w in (1, 2, 4)}
        outputs = {w: stored for w, (_r, stored) in results.items()}
        assert outputs[1] == outputs[2] == outputs[4]
        assert len(outputs[1]) == 480
        # more workers strictly shrink the simulated makespan on a
        # compute-bound UDF
        makespans = {
            w: report.runtime.makespan_seconds
            for w, (report, _s) in results.items()
        }
        assert makespans[4] < makespans[2] < makespans[1]

    def test_four_workers_reach_speedup_floor(self):
        one, _ = run_feed(static_pool(1))
        four, _ = run_feed(static_pool(4))
        speedup = (
            one.runtime.makespan_seconds / four.runtime.makespan_seconds
        )
        assert speedup >= 1.8

    def test_overlap_accounting_separates_busy_and_wall(self):
        report, _ = run_feed(static_pool(4))
        # aggregate busy is the sum of the per-worker shares...
        assert report.computing_seconds == pytest.approx(
            sum(report.computing_worker_busy.values())
        )
        assert len(report.computing_worker_busy) == 4
        # ...and exceeds the wall span when workers overlap
        assert report.computing_wall_seconds < report.computing_seconds
        assert report.computing_concurrency > 1.5
        assert report.peak_computing_workers == 4
        assert report.runtime.peak_workers == 4

    def test_single_worker_keeps_legacy_shape(self):
        report, _ = run_feed(FeedPolicy.spill())
        assert report.peak_computing_workers == 1
        assert report.scale_ups == 0 and report.scale_downs == 0
        assert list(report.computing_worker_busy) == [
            "feed-TweetFeed.computing"
        ]
        # a serialized worker cannot overlap with itself
        assert report.computing_concurrency <= 1.0 + 1e-9

    def test_batch_stats_ordered_by_index_despite_racing_workers(self):
        report, _ = run_feed(static_pool(4))
        indexes = [stats.batch_index for stats in report.batch_stats]
        assert indexes == sorted(indexes)
        assert len(indexes) == 480 // 40


class TestElasticController:
    def test_scales_up_under_compute_congestion(self):
        report, stored = run_feed(FeedPolicy.elastic())
        assert report.scale_ups >= 1
        assert report.peak_computing_workers > 1
        assert len(stored) == 480
        sizes = [size for _at, size in report.runtime.worker_pool_timeline]
        assert max(sizes) == report.peak_computing_workers

    def test_scales_up_under_injected_storage_stall(self):
        plan = FaultPlan(
            stalls=(StallAt(at=0.02, target="storage", duration=0.3),)
        )
        report, stored = run_feed(FeedPolicy.elastic(), fault_plan=plan)
        assert report.scale_ups >= 1
        assert len(stored) == 480

    def test_scales_down_when_starved(self):
        # a burst followed by an idle-but-open queue: the pool must grow
        # for the burst and retire workers once the buffer drains
        adapter = QueueAdapter()
        adapter.send_many(raws(480))
        policy = FeedPolicy.elastic(
            adapter_idle_timeout_seconds=2.0, adapter_idle_poll_seconds=0.25
        )
        report, stored = run_feed(policy, adapter=adapter)
        assert report.scale_ups >= 1
        assert report.scale_downs >= 1
        assert len(stored) == 480

    def test_never_scales_beyond_policy_bounds(self):
        policy = FeedPolicy.elastic(max_computing_workers=3)
        report, _ = run_feed(policy)
        assert 1 <= report.peak_computing_workers <= 3

    def test_elastic_beats_single_worker_on_compute_bound(self):
        one, _ = run_feed(static_pool(1))
        elastic, _ = run_feed(FeedPolicy.elastic())
        assert (
            elastic.runtime.makespan_seconds < one.runtime.makespan_seconds
        )

    def test_elastic_run_is_deterministic(self):
        a, stored_a = run_feed(FeedPolicy.elastic())
        b, stored_b = run_feed(FeedPolicy.elastic())
        assert stored_a == stored_b
        assert a.runtime.makespan_seconds == b.runtime.makespan_seconds
        assert a.scale_ups == b.scale_ups
        assert a.runtime.worker_pool_timeline == b.runtime.worker_pool_timeline

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            FeedPolicy(min_computing_workers=0)
        with pytest.raises(ValueError):
            FeedPolicy(min_computing_workers=4, max_computing_workers=2)
        assert FeedPolicy.elastic().elastic_enabled
        assert not FeedPolicy.spill().elastic_enabled


class TestPoolRecovery:
    def test_worker_pool_crash_replays_without_loss(self):
        plan = FaultPlan(crashes=(CrashAt(at=0.01, target="computing"),))
        report, stored = run_feed(static_pool(4), fault_plan=plan)
        faults = report.faults
        assert faults.crashes == 4  # every pool member took the interrupt
        assert faults.restarts == 4
        assert faults.records_replayed > 0
        # zero acked loss at pool size 4: every input id is stored once
        assert [rid for rid, _flag in stored] == list(range(480))

    def test_elastic_pool_crash_replays_without_loss(self):
        plan = FaultPlan(crashes=(CrashAt(at=0.05, target="computing"),))
        report, stored = run_feed(FeedPolicy.elastic(), fault_plan=plan)
        assert report.faults.crashes >= 1
        assert [rid for rid, _flag in stored] == list(range(480))
