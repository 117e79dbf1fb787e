"""RuntimeMetrics assembly: layer aggregation, holder stats, histograms."""

import dataclasses
import json

import pytest

from repro import AsterixLite
from repro.hyracks import Frame, PassivePartitionHolder
from repro.ingestion import FeedPolicy, FeedRunReport, GeneratorAdapter
from repro.runtime import (
    BLOCKED,
    BUSY,
    IDLE,
    Advance,
    ExternalMetrics,
    FaultMetrics,
    LayerTimes,
    RunCounters,
    Runtime,
    RuntimeMetrics,
    Wait,
)


def run_two_layer_runtime():
    """Two intake processes plus one computing process, known totals."""
    runtime = Runtime()
    done = runtime.signal("done")

    def intake(seconds):
        yield Advance(seconds)
        yield Advance(1.0, state=IDLE)

    def computing():
        yield Wait(done, state=BLOCKED)

    runtime.spawn("intake-0", intake(2.0), layer="intake")
    runtime.spawn("intake-1", intake(3.0), layer="intake")

    def finisher():
        yield Advance(4.0)
        done.notify_all()

    runtime.spawn("computing-0", computing(), layer="computing")
    runtime.spawn("finisher", finisher(), layer="computing")
    runtime.run()
    return runtime


class TestFromRuntime:
    def test_layers_aggregate_across_processes(self):
        runtime = run_two_layer_runtime()
        metrics = RuntimeMetrics.from_runtime(runtime)
        intake = metrics.layer("intake")
        assert intake.busy == pytest.approx(5.0)  # 2.0 + 3.0
        assert intake.idle == pytest.approx(2.0)  # 1.0 + 1.0
        computing = metrics.layer("computing")
        assert computing.blocked == pytest.approx(4.0)
        assert computing.busy == pytest.approx(4.0)  # the finisher

    def test_per_process_totals_and_timelines_kept(self):
        runtime = run_two_layer_runtime()
        metrics = RuntimeMetrics.from_runtime(runtime)
        assert metrics.processes["intake-0"].busy == pytest.approx(2.0)
        assert metrics.timelines["intake-0"] == [
            (BUSY, 0.0, 2.0),
            (IDLE, 2.0, 3.0),
        ]
        assert metrics.timelines["computing-0"][0][0] == BLOCKED

    def test_makespan_and_fill_drain(self):
        runtime = run_two_layer_runtime()
        metrics = RuntimeMetrics.from_runtime(runtime, steady_state_seconds=3.0)
        assert metrics.makespan_seconds == pytest.approx(4.0)
        assert metrics.fill_drain_seconds == pytest.approx(1.0)

    def test_unknown_layer_is_zeroed(self):
        metrics = RuntimeMetrics.from_runtime(run_two_layer_runtime())
        missing = metrics.layer("storage")
        assert (missing.busy, missing.idle, missing.blocked) == (0.0, 0.0, 0.0)

    def test_holder_stats_captured(self):
        passive = PassivePartitionHolder("intake-x", 0, capacity_frames=1)
        passive.offer(Frame([{}]))
        passive.offer(Frame([{}]))  # rejected
        passive.note_blocked(0.5)
        metrics = RuntimeMetrics.from_runtime(Runtime(), holders=[passive])
        (stats,) = metrics.holders
        assert (stats.holder_id, stats.partition) == ("intake-x", 0)
        assert stats.high_water == 1
        assert (stats.offered, stats.rejected) == (1, 1)
        assert stats.blocked_seconds == pytest.approx(0.5)
        assert metrics.holder_high_water == 1


class TestLayerTimes:
    def test_utilization(self):
        times = LayerTimes(busy=3.0, idle=1.0, blocked=2.0)
        assert times.utilization(10.0) == pytest.approx(0.3)
        assert times.utilization(0.0) == 0.0


class TestRunCounters:
    """Each run counter is declared once and read through one object."""

    #: the per-feed ``plan_cache_stats(feed=...)`` row, as it was when the
    #: names were listed by hand
    PLAN_CACHE_ROW = [
        "state_cache_hits", "state_cache_misses", "state_cache_evictions",
        "state_cache_bytes", "memo_hits", "memo_misses", "memo_evictions",
        "memo_bytes", "vectorized_batches", "vectorized_records",
        "scalar_fallbacks",
    ]

    @pytest.fixture(scope="class")
    def system(self):
        """A cached + memoized + columnar + elastic feed run."""
        system = AsterixLite(num_nodes=2)
        system.execute(
            """
            CREATE TYPE TweetType AS OPEN { id: int64, text: string };
            CREATE DATASET EnrichedTweets(TweetType) PRIMARY KEY id;
            CREATE TYPE RatingType AS OPEN { sid: int64 };
            CREATE DATASET SafetyRatings(RatingType) PRIMARY KEY sid;
            """
        )
        system.insert(
            "SafetyRatings",
            [
                {"sid": i, "county": f"county{i % 8}", "rating": (7 * i) % 50}
                for i in range(24)
            ],
        )
        system.execute(
            """
            CREATE FUNCTION enrichSafety(t) {
                LET ratings = (SELECT VALUE s.rating FROM SafetyRatings s
                               WHERE s.county = t.county)
                SELECT t.*, ratings AS safety
            };
            CREATE FEED F WITH { "type-name": "TweetType" };
            CONNECT FEED F TO DATASET EnrichedTweets APPLY FUNCTION enrichSafety;
            """
        )
        tweets = [
            json.dumps({"id": i, "text": f"t{i}", "county": f"county{i % 8}"})
            for i in range(480)
        ]
        system.start_feed(
            "F",
            adapter=GeneratorAdapter(tweets),
            batch_size=40,
            policy=FeedPolicy.elastic(
                state_cache_bytes=8 << 20, enrichment_memo_bytes=8 << 20
            ),
        )
        return system

    def test_run_exercised_every_family(self, system):
        report = system.feed_report("F")
        assert report.scale_ups >= 1
        # (memo hits pre-empt state-cache hits: only the first build misses)
        assert report.state_cache_misses > 0 and report.state_cache_bytes > 0
        assert report.memo_hits > 0
        assert report.vectorized_batches > 0

    @pytest.mark.parametrize(
        "name", [field.name for field in dataclasses.fields(RunCounters)]
    )
    def test_report_and_runtime_read_one_object(self, system, name):
        report = system.feed_report("F")
        assert report.counters is report.runtime.counters
        assert getattr(report, name) == getattr(report.runtime, name)
        assert getattr(report, name) is getattr(report.counters, name)

    def test_plan_cache_stats_row_iterates_the_declaration(self, system):
        report = system.feed_report("F")
        row = system.plan_cache_stats(feed="F")
        assert list(row) == ["feed"] + self.PLAN_CACHE_ROW
        for name in self.PLAN_CACHE_ROW:
            assert row[name] == getattr(report, name)

    def test_counter_names_declared_nowhere_else(self):
        shared = {field.name for field in dataclasses.fields(RunCounters)}
        for cls in (RuntimeMetrics, FeedRunReport):
            own = {field.name for field in dataclasses.fields(cls)}
            assert not shared & own


class TestCounterDicts:
    """``as_dict`` is ``dataclasses.asdict``: key order is field order,
    pinned here against the key lists the benchmarks serialized."""

    def test_fault_metrics_key_order(self):
        assert list(FaultMetrics().as_dict()) == [
            "records_skipped", "records_dead_lettered", "records_replayed",
            "records_discarded", "frames_dropped", "crashes", "restarts",
            "backoff_seconds", "stall_seconds", "channel_send_failures",
            "disconnect_waits", "throttle_seconds", "idle_timeouts",
            "circuit_breaker_trips", "adapter_crashes", "adapter_reopens",
        ]

    def test_external_metrics_key_order(self):
        assert list(ExternalMetrics().as_dict()) == [
            "calls", "keys_requested", "retries", "errors", "timeouts",
            "rate_limited", "fail_fast", "breaker_opens",
            "breaker_half_opens", "breaker_closes", "call_seconds",
            "backoff_seconds", "records_enriched", "records_pending",
            "records_dead_lettered",
        ]

    def test_any_activity(self):
        assert not FaultMetrics().any_activity
        assert FaultMetrics(stall_seconds=0.3).any_activity
