"""Multiple feeds and chained UDFs (paper §6.1: feeds run independently)."""

import json

import pytest

from repro import AsterixLite
from repro.errors import IngestionError
from repro.ingestion import ActiveFeedManager, FeedPolicy, GeneratorAdapter
from repro.ingestion.fabric import FeedFabric, FeedLaunch


class TestMultipleFeeds:
    def test_two_feeds_share_one_system(self):
        system = AsterixLite(num_nodes=3)
        system.execute(
            """
            CREATE TYPE T AS OPEN { id: int64 };
            CREATE DATASET A(T) PRIMARY KEY id;
            CREATE DATASET B(T) PRIMARY KEY id;
            CREATE FEED FA WITH { "type-name": "T" };
            CREATE FEED FB WITH { "type-name": "T" };
            CONNECT FEED FA TO DATASET A;
            CONNECT FEED FB TO DATASET B;
            """
        )
        ra = system.start_feed(
            "FA", adapter=GeneratorAdapter(json.dumps({"id": i}) for i in range(30))
        )
        rb = system.start_feed(
            "FB",
            adapter=GeneratorAdapter(json.dumps({"id": i}) for i in range(40)),
        )
        assert ra.records_stored == 30 and rb.records_stored == 40
        assert len(system.catalog["A"]) == 30
        assert len(system.catalog["B"]) == 40

    def test_afm_tracks_concurrent_registrations(self):
        from repro.cluster import Cluster

        cluster = Cluster(2)
        afm = ActiveFeedManager(cluster)
        a = cluster.controller.deploy("a", lambda params: None)
        b = cluster.controller.deploy("b", lambda params: None)
        afm.register_feed("feedA", a)
        afm.register_feed("feedB", b)
        assert set(afm.active_feeds) == {"feedA", "feedB"}
        afm.deregister_feed("feedA")
        assert set(afm.active_feeds) == {"feedB"}

    def test_duplicate_active_feed_rejected(self):
        from repro.cluster import Cluster

        cluster = Cluster(1)
        afm = ActiveFeedManager(cluster)
        afm.register_feed("F", "job#0")
        with pytest.raises(IngestionError, match="already active"):
            afm.register_feed("F", "job#1")

    def test_invoking_inactive_feed_rejected(self):
        from repro.cluster import Cluster

        afm = ActiveFeedManager(Cluster(1))
        with pytest.raises(IngestionError, match="not active"):
            afm.invoke_computing_job("ghost", [])


class TestChainedUdfs:
    def test_apply_function_chain(self):
        system = AsterixLite(num_nodes=2)
        system.execute(
            """
            CREATE TYPE T AS OPEN { id: int64 };
            CREATE DATASET Out(T) PRIMARY KEY id;
            CREATE FUNCTION addOne(t) {
                LET a = 1
                SELECT t.*, a
            };
            CREATE FUNCTION addTwo(t) {
                LET b = 2
                SELECT t.*, b
            };
            CREATE FEED F WITH { "type-name": "T" };
            CONNECT FEED F TO DATASET Out
                APPLY FUNCTION addOne, addTwo;
            """
        )
        system.start_feed(
            "F", adapter=GeneratorAdapter([json.dumps({"id": 1})])
        )
        record = system.catalog["Out"].get(1)
        assert record["a"] == 1 and record["b"] == 2

    def test_chain_order_matters(self):
        system = AsterixLite(num_nodes=2)
        system.execute(
            """
            CREATE TYPE T AS OPEN { id: int64 };
            CREATE DATASET Out(T) PRIMARY KEY id;
            CREATE FUNCTION double_v(t) {
                LET v = t.v * 2
                SELECT t.id, v
            };
            CREATE FUNCTION inc_v(t) {
                LET v = t.v + 1
                SELECT t.id, v
            };
            CREATE FEED F WITH { "type-name": "T" };
            CONNECT FEED F TO DATASET Out APPLY FUNCTION double_v, inc_v;
            """
        )
        system.start_feed(
            "F", adapter=GeneratorAdapter([json.dumps({"id": 1, "v": 5})])
        )
        # (5 * 2) + 1, not (5 + 1) * 2
        assert system.catalog["Out"].get(1)["v"] == 11


MIB = 1 << 20


def _cached_fleet_system() -> AsterixLite:
    """FA and FB, each enriching its own target from SafetyRatings."""
    system = AsterixLite(num_nodes=2)
    system.execute(
        """
        CREATE TYPE TweetType AS OPEN { id: int64 };
        CREATE TYPE RatingType AS OPEN { sid: int64 };
        CREATE DATASET A(TweetType) PRIMARY KEY id;
        CREATE DATASET B(TweetType) PRIMARY KEY id;
        CREATE DATASET SafetyRatings(RatingType) PRIMARY KEY sid;
        """
    )
    system.insert(
        "SafetyRatings",
        [{"sid": i, "county": f"county{i % 8}", "rating": i} for i in range(24)],
    )
    system.catalog["SafetyRatings"].flush_all()
    system.execute(
        """
        CREATE FUNCTION enrichSafety(t) {
            LET ratings = (SELECT VALUE s.rating FROM SafetyRatings s
                           WHERE s.county = t.county)
            SELECT t.*, ratings AS safety
        };
        CREATE FEED FA WITH { "type-name": "TweetType" };
        CREATE FEED FB WITH { "type-name": "TweetType" };
        CONNECT FEED FA TO DATASET A APPLY FUNCTION enrichSafety;
        CONNECT FEED FB TO DATASET B APPLY FUNCTION enrichSafety;
        """
    )
    return system


def _launch(feed: str, policy: FeedPolicy, start: int = 0) -> FeedLaunch:
    tweets = [
        json.dumps({"id": i, "county": f"county{i % 8}"})
        for i in range(start, start + 100)
    ]
    return FeedLaunch(
        feed=feed, adapter=GeneratorAdapter(tweets), batch_size=10, policy=policy
    )


def _lookups(cache) -> int:
    return cache.hits + cache.misses


class TestAFeedOwnsItsCaches:
    """Conservation laws over a fleet: a feed's budget is its own policy's
    whatever launched beside it, and a report counts its own cache's
    lookups and nobody else's."""

    def test_budgets_do_not_depend_on_launch_order(self):
        policies = {
            "FA": FeedPolicy.basic(state_cache_bytes=64 * MIB),
            "FB": FeedPolicy.basic(state_cache_bytes=1024),
        }
        counts = []
        for order in (("FA", "FB"), ("FB", "FA")):
            reports = _cached_fleet_system().start_feeds(
                [_launch(feed, policies[feed]) for feed in order]
            )
            counts.append(
                {
                    feed: (report.state_cache_hits, report.state_cache_misses)
                    for feed, report in reports.items()
                }
            )
        assert counts[0] == counts[1]
        (a_hits, a_misses), (b_hits, b_misses) = counts[0]["FA"], counts[0]["FB"]
        # 64 MiB holds the build table, 1 KiB admits nothing
        assert a_hits > 0 and a_hits > a_misses
        assert b_hits == 0 and b_misses > 0

    @pytest.mark.parametrize("governed", [False, True], ids=["solo", "governed"])
    def test_a_report_counts_its_own_caches_lookups(self, governed):
        system = _cached_fleet_system()
        policy = FeedPolicy.basic(
            state_cache_bytes=64 * MIB, enrichment_memo_bytes=16 * MIB
        )
        caches = {feed: system.registry.caches_for(feed) for feed in ("FA", "FB")}
        seen = {feed: (0, 0) for feed in caches}
        reported_state = reported_memo = 0
        for start in (0, 100):  # the second fleet run starts warm
            fabric = FeedFabric(2, memory_bytes=32 * MIB) if governed else None
            reports = system.start_feeds(
                [_launch(feed, policy, start) for feed in caches], fabric=fabric
            )
            for feed, (state, memo) in caches.items():
                report = reports[feed]
                state_probes = report.state_cache_hits + report.state_cache_misses
                memo_probes = report.memo_hits + report.memo_misses
                assert report.memo_hits > 0
                assert system.plan_cache_stats(feed=feed)["memo_hits"] == (
                    report.memo_hits
                )
                # the run's probes are the feed's own cache's, since launch
                state_before, memo_before = seen[feed]
                assert state_probes == _lookups(state) - state_before
                assert memo_probes == _lookups(memo) - memo_before
                seen[feed] = (_lookups(state), _lookups(memo))
                reported_state += state_probes
                reported_memo += memo_probes
            if start == 0:
                # ...and nobody else's: the feed alone reads the same
                alone = _cached_fleet_system().start_feeds([_launch("FA", policy)])
                for name in ("state_cache_hits", "state_cache_misses",
                             "memo_hits", "memo_misses"):
                    assert getattr(reports["FA"], name) == getattr(
                        alone["FA"], name
                    )
        # every lookup of every cache is in exactly one report
        assert reported_state == sum(_lookups(s) for s, _ in caches.values())
        assert reported_memo == sum(_lookups(m) for _, m in caches.values())
