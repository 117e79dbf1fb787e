"""Feed-level matrix for the key-level enrichment memo.

Mirrors the state-cache feed matrix: every mutation channel that can
change what an enrichment should observe — update-client upserts mid-run,
``create_index`` / ``drop_index``, dead-letter replay —
must displace memo entries at the next batch boundary, and enabling the
memo must never change stored outputs (including under a 4-worker
pool).  The external half proves an L2 hit genuinely skips the remote
call (``call_log`` shrinks) while PENDING outcomes are never memoized.
"""

from __future__ import annotations

import hashlib
import json

from repro.bench.reporting import layer_utilization_table
from repro.core.system import AsterixLite
from repro.ingestion import (
    PENDING_FIELD,
    EnricherBinding,
    ExternalEnricher,
    FeedPolicy,
    GeneratorAdapter,
)
from repro.ingestion.updates import ReferenceUpdateClient
from repro.runtime import EnricherOutage, FaultPlan

FEED = "MemoFeed"
REF_RECORDS = 24
COUNTIES = 8
BATCH = 10
MEMO_BYTES = 8 << 20


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
        CREATE FEED MemoFeed WITH { "type-name": "TweetType" };
        CONNECT FEED MemoFeed TO DATASET EnrichedTweets
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


def memo_policy(**overrides) -> FeedPolicy:
    return FeedPolicy.basic(enrichment_memo_bytes=MEMO_BYTES, **overrides)


def run_feed(system, tweets, policy, update_client=None):
    return system.start_feed(
        FEED,
        adapter=GeneratorAdapter(tweets),
        batch_size=BATCH,
        policy=policy,
        update_client=update_client,
    )


def feed_memo(system, feed=FEED):
    """The feed's own memo (``FunctionRegistry.caches_for``)."""
    return system.registry.caches_for(feed)[1]


def output_digest(system, dataset="EnrichedTweets") -> str:
    stored = sorted(
        (r["id"], tuple(r.get("safety") or ()))
        for r in system.catalog[dataset].scan()
    )
    return hashlib.sha256(
        json.dumps(stored, sort_keys=True).encode()
    ).hexdigest()


def test_memo_on_matches_memo_off_and_reports_counters():
    on, off = build_system(), build_system()
    report_on = run_feed(on, raw_tweets(50), memo_policy())
    report_off = run_feed(off, raw_tweets(50), FeedPolicy.basic())

    # First batch misses per distinct key; later batches reuse.
    assert report_on.memo_hits > 0
    assert report_on.memo_misses > 0
    assert report_on.memo_bytes > 0
    assert report_off.memo_hits == 0
    assert report_off.memo_misses == 0
    # The counters surface on the feed's row of the stats facade, and the
    # feed's own memo carries the hit_ratio convenience...
    stats = on.plan_cache_stats(feed=FEED)
    assert stats["memo_hits"] == report_on.memo_hits
    assert 0.0 < feed_memo(on).hit_ratio <= 1.0
    # ...and on the utilization table rendering.
    table = layer_utilization_table(report_on.runtime)
    assert "memo:" in table and "hit ratio" in table
    assert "memo:" not in layer_utilization_table(report_off.runtime)
    # Identical stored outputs; cost is the only thing that changed.
    assert output_digest(on) == output_digest(off)
    assert report_on.simulated_seconds < report_off.simulated_seconds


def test_memo_survives_across_runs_until_reference_changes():
    system = build_system()
    run_feed(system, raw_tweets(30), memo_policy())

    # Second run, nothing changed: every distinct key hits, zero misses.
    second = run_feed(system, raw_tweets(30, start=30), memo_policy())
    assert second.memo_misses == 0
    assert second.memo_hits > 0

    # A committed write between runs displaces the stale entries.
    system.catalog["SafetyRatings"].upsert(
        {"sid": 0, "county": "county0", "rating": 49}
    )
    before = feed_memo(system).stats()["version_mismatches"]
    third = run_feed(system, raw_tweets(30, start=60), memo_policy())
    assert third.memo_misses > 0
    assert (
        feed_memo(system).stats()["version_mismatches"] > before
    )
    county0 = [
        r
        for r in system.catalog["EnrichedTweets"].scan()
        if r["id"] >= 60 and r["county"] == "county0"
    ]
    assert county0 and all(49 in r["safety"] for r in county0)


def test_update_client_mid_run_invalidates_without_changing_outputs():
    def updates():
        for i in range(3):
            yield {"sid": i, "county": f"county{i}", "rating": 49}

    on, off = build_system(), build_system()
    for system, policy in ((on, memo_policy()), (off, FeedPolicy.basic())):
        client = ReferenceUpdateClient(
            1000.0, updates(), system.catalog["SafetyRatings"].upsert
        )
        run_feed(system, raw_tweets(50), policy, client)
        assert client.exhausted

    # The upserts landed after batch 0: batch 1 re-derives every touched
    # key at the boundary, and stored outputs still match memo-off.
    assert feed_memo(on).stats()["version_mismatches"] > 0
    assert output_digest(on) == output_digest(off)


def test_ddl_clears_the_memo():
    system = build_system()
    run_feed(system, raw_tweets(30), memo_policy())
    memo = feed_memo(system)
    assert len(memo) > 0

    system.create_index("by_rating", "SafetyRatings", "rating")
    assert len(memo) == 0

    run_feed(system, raw_tweets(30, start=30), memo_policy())
    assert len(memo) > 0
    system.drop_index("SafetyRatings", "by_rating")
    assert len(memo) == 0


def test_replace_function_clears_the_memo():
    system = build_system()
    run_feed(system, raw_tweets(30), memo_policy())
    memo = feed_memo(system)
    assert len(memo) > 0
    system.registry.replace_sqlpp(
        "CREATE FUNCTION enrichSafety(t) { SELECT t.*, [] AS safety }"
    )
    assert len(memo) == 0


def test_replay_dead_letters_displaces_entries():
    system = build_system()
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

    run_feed(system, raw_tweets(30), memo_policy())
    rerun = run_feed(system, raw_tweets(30, start=30), memo_policy())
    assert rerun.memo_misses == 0

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
    after = run_feed(system, raw_tweets(30, start=60), memo_policy())
    assert after.memo_misses > 0
    county1 = [
        r
        for r in system.catalog["EnrichedTweets"].scan()
        if r["id"] >= 60 and r["county"] == "county1"
    ]
    assert county1 and all(2 in r["safety"] for r in county1)


def test_four_worker_pool_shares_memo_and_outputs_match():
    on, off = build_system(), build_system()
    pooled = dict(min_computing_workers=4, max_computing_workers=4)
    report_on = run_feed(on, raw_tweets(80), memo_policy(**pooled))
    report_off = run_feed(off, raw_tweets(80), FeedPolicy.basic(**pooled))
    assert report_on.peak_computing_workers == 4
    assert report_off.peak_computing_workers == 4
    assert report_on.memo_hits > 0
    assert output_digest(on) == output_digest(off)

    # And the 4-worker memo-on output matches a single-worker run too.
    single = build_system()
    run_feed(single, raw_tweets(80), FeedPolicy.basic())
    assert output_digest(on) == output_digest(single)


# ------------------------------------------------------- external enrichment


def geo_lookup(key):
    return {"user": key, "region": f"r{len(str(key)) % 3}"}


def make_external_system(policy):
    system = AsterixLite(num_nodes=2)
    system.execute(
        """
        CREATE TYPE TweetType AS OPEN { id: int64 };
        CREATE DATASET Tweets(TweetType) PRIMARY KEY id;
        """
    )
    system.create_feed("TweetFeed", {"type-name": "TweetType"})
    enricher = ExternalEnricher("geo", lookup=geo_lookup)
    binding = EnricherBinding(enricher, "user", "user_geo")
    system.connect_feed(
        "TweetFeed", "Tweets", policy=policy, external_enrichers=[binding]
    )
    return system, enricher


def external_raws(n, cardinality=10):
    return [
        json.dumps({"id": i, "user": f"u{i % cardinality}"}) for i in range(n)
    ]


def external_digest(system) -> str:
    stored = sorted(
        (r["id"], json.dumps(r.get("user_geo"), sort_keys=True))
        for r in system.catalog["Tweets"].scan()
    )
    return hashlib.sha256(
        json.dumps(stored, sort_keys=True).encode()
    ).hexdigest()


class TestExternalMemo:
    def _run(self, policy, n=100, fault_plan=None):
        system, enricher = make_external_system(policy)
        report = system.start_feed(
            "TweetFeed",
            GeneratorAdapter(external_raws(n)),
            batch_size=25,
            fault_plan=fault_plan,
        )
        return system, enricher, report

    def test_l2_hit_skips_the_remote_call_entirely(self):
        on_policy = FeedPolicy.spill(enrichment_memo_bytes=MEMO_BYTES)
        sys_on, enricher_on, report_on = self._run(on_policy)
        sys_off, enricher_off, report_off = self._run(FeedPolicy.spill())

        # Without the memo every batch re-requests its distinct keys
        # (4 batches x 10 keys); with it only the cold first batch does.
        assert report_off.external.keys_requested == 40
        assert report_on.external.keys_requested == 10
        assert len(enricher_on.call_log) < len(enricher_off.call_log)
        assert report_on.memo_hits == 30  # 10 keys x 3 warm batches
        # Skipped calls consume no simulated external time either.
        assert report_on.simulated_seconds < report_off.simulated_seconds
        # Stored outputs are byte-identical (the remote lookup is pure).
        assert external_digest(sys_on) == external_digest(sys_off)
        assert report_on.enrichment_completeness == 1.0

    def test_memo_on_repeats_are_byte_identical(self):
        policy = FeedPolicy.spill(enrichment_memo_bytes=MEMO_BYTES)
        first = self._run(policy)
        second = self._run(policy)
        assert external_digest(first[0]) == external_digest(second[0])
        assert first[1].call_log == second[1].call_log
        assert (
            first[2].external.as_dict() == second[2].external.as_dict()
        )

    def test_pending_outcomes_are_never_memoized(self):
        policy = FeedPolicy.spill(enrichment_memo_bytes=MEMO_BYTES)
        plan = FaultPlan(
            enricher_faults=[EnricherOutage("geo", at=0.0, duration=1e9)]
        )
        system, _enricher, report = self._run(policy, n=40, fault_plan=plan)
        assert report.external.records_pending == 40
        # Nothing resolved, so nothing may be memoized.
        assert len(feed_memo(system, "TweetFeed")) == 0
        rows = list(system.catalog["Tweets"].scan())
        assert all(r[PENDING_FIELD] == ["geo:user_geo"] for r in rows)

        # The remote recovers: backfill re-probes every pending key (the
        # memo cannot serve them) and warms the memo with the answers.
        backfill = system.backfill_pending("TweetFeed")
        assert backfill.still_pending == 0
        assert backfill.completeness == 1.0
        assert len(feed_memo(system, "TweetFeed")) > 0
        rows = list(system.catalog["Tweets"].scan())
        assert all(PENDING_FIELD not in r for r in rows)
