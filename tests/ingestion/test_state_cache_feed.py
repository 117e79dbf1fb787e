"""Feed-level invalidation matrix for the enrichment-state cache.

Every mutation channel that can change what a UDF should observe —
update-client upserts mid-run, dead-letter replay, ``create_index`` /
``drop_index`` — must force rebuilds at the next batch
boundary, and enabling the cache must never change stored outputs
(including under a 4-worker elastic pool).
"""

from __future__ import annotations

import hashlib
import json

from repro.core.system import AsterixLite
from repro.ingestion.adapter import GeneratorAdapter
from repro.ingestion.policy import FeedPolicy
from repro.ingestion.updates import ReferenceUpdateClient

FEED = "CacheFeed"
REF_RECORDS = 24
COUNTIES = 8
BATCH = 10
CACHE_BYTES = 8 << 20


def build_system() -> AsterixLite:
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
            {"sid": i, "county": f"county{i % COUNTIES}", "rating": (7 * i) % 50}
            for i in range(REF_RECORDS)
        ],
    )
    system.catalog["SafetyRatings"].flush_all()
    system.execute(
        """
        CREATE FUNCTION enrichSafety(t) {
            LET ratings = (SELECT VALUE s.rating FROM SafetyRatings s
                           WHERE s.county = t.county)
            SELECT t.*, ratings AS safety
        };
        CREATE FEED CacheFeed WITH { "type-name": "TweetType" };
        CONNECT FEED CacheFeed TO DATASET EnrichedTweets
            APPLY FUNCTION enrichSafety;
        """
    )
    return system


def raw_tweets(count: int, start: int = 0):
    return [
        json.dumps(
            {"id": i, "text": f"t{i}", "county": f"county{i % COUNTIES}"}
        )
        for i in range(start, start + count)
    ]


def cache_policy(**overrides) -> FeedPolicy:
    return FeedPolicy.basic(state_cache_bytes=CACHE_BYTES, **overrides)


def run_feed(system, tweets, policy, update_client=None):
    return system.start_feed(
        FEED,
        adapter=GeneratorAdapter(tweets),
        batch_size=BATCH,
        policy=policy,
        update_client=update_client,
    )


def feed_cache(system):
    """The feed's own state cache (``FunctionRegistry.caches_for``)."""
    return system.registry.caches_for(FEED)[0]


def output_digest(system) -> str:
    stored = sorted(
        (r["id"], tuple(r.get("safety") or ()))
        for r in system.catalog["EnrichedTweets"].scan()
    )
    return hashlib.sha256(
        json.dumps(stored, sort_keys=True).encode()
    ).hexdigest()


def test_cache_on_matches_cache_off_and_reports_counters():
    on, off = build_system(), build_system()
    report_on = run_feed(on, raw_tweets(50), cache_policy())
    report_off = run_feed(off, raw_tweets(50), FeedPolicy.basic())

    # 5 batches: first builds, the other 4 reuse.
    assert report_on.state_cache_hits > 0
    assert report_on.state_cache_misses > 0
    assert report_on.state_cache_bytes > 0
    assert report_off.state_cache_hits == 0
    assert report_off.state_cache_misses == 0
    # The counters surface on the system-level stats facade.
    stats = on.plan_cache_stats(feed=FEED)
    assert stats["state_cache_hits"] == report_on.state_cache_hits
    assert stats["state_cache_bytes"] > 0
    # Identical stored outputs; cost is the only thing that changed.
    assert output_digest(on) == output_digest(off)


def test_cache_survives_across_runs_until_reference_changes():
    system = build_system()
    first = run_feed(system, raw_tweets(30), cache_policy())
    assert first.state_cache_misses > 0

    # Second run, nothing changed: every batch (including the first) hits.
    second = run_feed(system, raw_tweets(30, start=30), cache_policy())
    assert second.state_cache_misses == 0
    assert second.state_cache_hits == second.num_computing_jobs

    # A committed write between runs forces a cold first batch.
    system.catalog["SafetyRatings"].upsert(
        {"sid": 0, "county": "county0", "rating": 49}
    )
    before = feed_cache(system).stats()["version_mismatches"]
    third = run_feed(system, raw_tweets(30, start=60), cache_policy())
    assert third.state_cache_misses > 0
    assert feed_cache(system).stats()["version_mismatches"] > before
    # The rebuild observed the upsert: county0 tweets carry the new rating.
    county0 = [
        r
        for r in system.catalog["EnrichedTweets"].scan()
        if r["id"] >= 60 and r["county"] == "county0"
    ]
    assert county0 and all(49 in r["safety"] for r in county0)


def test_update_client_mid_run_forces_rebuild_without_changing_outputs():
    def updates():
        # Three upserts, all fired right after the first batch (the rate
        # is far above one update per batch makespan), then exhausted.
        for i in range(3):
            yield {"sid": i, "county": f"county{i}", "rating": 49}

    on, off = build_system(), build_system()
    reports = {}
    for label, system, policy in (
        ("on", on, cache_policy()),
        ("off", off, FeedPolicy.basic()),
    ):
        client = ReferenceUpdateClient(
            1000.0, updates(), system.catalog["SafetyRatings"].upsert
        )
        reports[label] = run_feed(system, raw_tweets(50), policy, client)
        assert client.exhausted

    report = reports["on"]
    # Batch 0 builds, batch 1 rebuilds (the upserts landed in between),
    # batches 2..4 reuse.
    assert report.num_computing_jobs == 5
    assert report.state_cache_hits == 3
    assert output_digest(on) == output_digest(off)


def test_ddl_clears_the_cache():
    system = build_system()
    run_feed(system, raw_tweets(30), cache_policy())
    cache = feed_cache(system)
    assert len(cache) > 0

    # Index an unrelated field so the planner keeps using the hash-probe
    # strategy (an index on the probed field would switch it to index
    # lookups and leave nothing to cache).
    system.create_index("by_rating", "SafetyRatings", "rating")
    assert len(cache) == 0

    run_feed(system, raw_tweets(30, start=30), cache_policy())
    assert len(cache) > 0
    system.drop_index("SafetyRatings", "by_rating")
    assert len(cache) == 0


def test_replay_dead_letters_forces_rebuild():
    system = build_system()
    # A ratings-repair feed writing INTO the reference dataset, with a
    # dead-letter policy and one malformed row.
    system.execute(
        """
        CREATE FEED RatingsFeed WITH { "type-name": "RatingType" };
        CONNECT FEED RatingsFeed TO DATASET SafetyRatings;
        """
    )
    good = json.dumps({"sid": 100, "county": "county0", "rating": 1})
    system.start_feed(
        "RatingsFeed",
        adapter=GeneratorAdapter([good, "{broken json"]),
        batch_size=4,
        policy=FeedPolicy.spill(),
    )
    dl = system.catalog["RatingsFeed_DeadLetters"]
    rows = list(dl.scan())
    assert len(rows) == 1

    # Warm the cache; with no further changes a re-run is all hits.
    run_feed(system, raw_tweets(30), cache_policy())
    rerun = run_feed(system, raw_tweets(30, start=30), cache_policy())
    assert rerun.state_cache_misses == 0

    # Repair the dead letter and replay it into SafetyRatings.
    repaired = dict(rows[0])
    repaired["raw"] = json.dumps(
        {"sid": 101, "county": "county1", "rating": 2}
    )
    dl.upsert(repaired)
    replay = system.replay_dead_letters(
        "RatingsFeed", batch_size=4, policy=FeedPolicy.spill()
    )
    assert replay.records_stored == 1

    # The replayed upsert bumped the reference version: cold first batch.
    after = run_feed(system, raw_tweets(30, start=60), cache_policy())
    assert after.state_cache_misses > 0
    county1 = [
        r
        for r in system.catalog["EnrichedTweets"].scan()
        if r["id"] >= 60 and r["county"] == "county1"
    ]
    assert county1 and all(2 in r["safety"] for r in county1)


def test_four_worker_elastic_pool_shares_cache_and_outputs_match():
    on, off = build_system(), build_system()
    pooled = dict(min_computing_workers=4, max_computing_workers=4)
    report_on = run_feed(
        on, raw_tweets(80), cache_policy(**pooled)
    )
    report_off = run_feed(
        off,
        raw_tweets(80),
        FeedPolicy.basic(**pooled),
    )
    assert report_on.peak_computing_workers == 4
    assert report_off.peak_computing_workers == 4
    assert report_on.state_cache_hits > 0
    assert output_digest(on) == output_digest(off)

    # And the 4-worker cache-on output matches a single-worker run too.
    single = build_system()
    run_feed(single, raw_tweets(80), FeedPolicy.basic())
    assert output_digest(on) == output_digest(single)
