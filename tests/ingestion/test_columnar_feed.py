"""Feed-level columnar observability.

A feed over a vectorizable UDF must report how much of the stream rode
the columnar path (``vectorized_batches`` / ``vectorized_records`` /
``vectorized_fraction`` on the run report, mirrored on RuntimeMetrics,
the layer-utilization rendering, and the system stats facade); Java and
unsupported-shape UDFs must fall back to the scalar path and say so.
"""

from __future__ import annotations

import json

from repro.bench.reporting import layer_utilization_table
from repro.core.system import AsterixLite
from repro.ingestion.adapter import GeneratorAdapter
from repro.ingestion.policy import FeedPolicy

FEED = "ColFeed"
BATCH = 10


def build_system(udf_body: str) -> AsterixLite:
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
    system.catalog["SafetyRatings"].flush_all()
    system.execute(
        f"""
        CREATE FUNCTION enrichSafety(t) {{ {udf_body} }};
        CREATE FEED {FEED} WITH {{ "type-name": "TweetType" }};
        CONNECT FEED {FEED} TO DATASET EnrichedTweets
            APPLY FUNCTION enrichSafety;
        """
    )
    return system


VECTORIZABLE_BODY = """
    LET ratings = (SELECT VALUE s.rating FROM SafetyRatings s
                   WHERE s.county = t.county)
    SELECT t.*, ratings AS safety
"""

# Top-level FROM: the whole block keeps the scalar path (UNSUPPORTED).
UNSUPPORTED_BODY = """
    SELECT t.*, s.rating AS rating
    FROM SafetyRatings s WHERE s.county = t.county
"""


def raw_tweets(count: int):
    return [
        json.dumps({"id": i, "text": f"t{i}", "county": f"county{i % 8}"})
        for i in range(count)
    ]


def run_feed(system, count=50):
    return system.start_feed(
        FEED,
        adapter=GeneratorAdapter(raw_tweets(count)),
        batch_size=BATCH,
        policy=FeedPolicy.basic(),
    )


def test_vectorized_feed_reports_counters():
    system = build_system(VECTORIZABLE_BODY)
    report = run_feed(system)

    assert report.records_ingested == 50
    # Each computing job's frame splits into one sub-frame per intake
    # partition (2 nodes here), so 5 jobs -> 10 operator frames.
    assert report.num_computing_jobs == 5
    assert report.vectorized_batches == 10
    assert report.vectorized_records == 50
    assert report.scalar_fallbacks == 0
    assert report.vectorized_fraction == 1.0

    # Mirrored on RuntimeMetrics and rendered by the utilization table.
    assert report.runtime.vectorized_batches == 10
    assert report.runtime.vectorized_records == 50
    assert report.runtime.scalar_fallbacks == 0
    table = layer_utilization_table(report.runtime)
    assert "columnar: 10 vectorized batch(es), 50 record(s)" in table

    # The system facade lists them on the feed's row.
    stats = system.plan_cache_stats(feed=report.feed_name)
    assert stats["vectorized_batches"] == 10
    assert stats["vectorized_records"] == 50

    # And the enrichment itself landed.
    stored = {r["id"]: r for r in system.catalog["EnrichedTweets"].scan()}
    assert len(stored) == 50
    assert all("safety" in r for r in stored.values())


def test_unsupported_body_stays_scalar_and_reports_fallbacks():
    system = build_system(UNSUPPORTED_BODY)
    report = run_feed(system)

    assert report.records_ingested == 50
    assert report.vectorized_batches == 0
    assert report.vectorized_records == 0
    assert report.vectorized_fraction == 0.0
    # One whole-frame fallback per operator frame (2 per computing job:
    # one sub-frame per intake partition).
    assert report.num_computing_jobs == 5
    assert report.scalar_fallbacks == 10
    assert "columnar: 0 vectorized batch(es)" in layer_utilization_table(
        report.runtime
    )

    # Scalar results are still stored (the fallback is purely a perf path).
    stored = list(system.catalog["EnrichedTweets"].scan())
    assert len(stored) == 50
    assert all("rating" in r for r in stored)


def test_scalar_and_columnar_feeds_store_identical_records():
    columnar = build_system(VECTORIZABLE_BODY)
    run_feed(columnar)

    # Compare against per-record registry invocation on a twin system
    # with the same batch (generation) boundaries.
    reference = build_system(VECTORIZABLE_BODY)
    from repro.sqlpp import EvaluationContext

    ctx = EvaluationContext(
        reference.catalog, functions=reference.registry, use_plans=True
    )
    expected = {}
    for position, raw in enumerate(raw_tweets(50)):
        if position and position % BATCH == 0:
            ctx.refresh_batch()
        record = json.loads(raw)
        (row,) = reference.registry.invoke("enrichSafety", [record], ctx)
        expected[row["id"]] = row["safety"]

    stored = {
        r["id"]: r.get("safety")
        for r in columnar.catalog["EnrichedTweets"].scan()
    }
    assert stored == expected
