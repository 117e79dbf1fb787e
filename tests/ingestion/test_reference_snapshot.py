"""Feed-level behaviour of ``Dataset.snapshot()``: physical reuse only.

A feed's batches share one scan and one hash build per committed version
of a reference dataset, while every batch is still *charged* its own scan
and build — so simulated time, counters and stored bytes cannot tell the
shared snapshot from a rescan per batch.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.core import AsterixLite
from repro.hyracks.cost import WorkMeter
from repro.ingestion import FeedFabric, FeedLaunch, FeedPolicy, GeneratorAdapter
from repro.ingestion.feed import AttachedFunction
from repro.storage import ReferenceSnapshot
from repro.udf import JavaUdf, JavaUdfDescriptor
from repro.udf.library import SQLPP_UDFS

from .test_fabric import build_fleet, elastic, raws
from .test_state_cache_feed import BATCH, FEED, build_system, raw_tweets, run_feed


def count_scans(dataset) -> list:
    """Wrap ``dataset.scan`` on the instance; the list grows by one per call."""
    calls = []
    scan = dataset.scan

    def counting_scan():
        calls.append(None)
        return scan()

    dataset.scan = counting_scan
    return calls


def rescan_on_every_read(dataset) -> None:
    """Defeat the held snapshot: every read scans, as a write and its
    revert between any two batches would force, with the LSM state (and so
    every activity penalty) left as it is."""
    dataset.snapshot = lambda: ReferenceSnapshot(
        tuple(dataset.scan()), tuple(tree.lsn for tree in dataset.partitions)
    )


def stored(system, name="EnrichedTweets") -> str:
    rows = sorted(system.catalog[name].scan(), key=lambda r: r["id"])
    return json.dumps(rows, sort_keys=True)


@pytest.fixture
def charges(monkeypatch):
    """Every ``WorkMeter`` as it stood each time it was charged."""
    seen = []
    charge = WorkMeter.charge

    def recording_charge(meter, cost):
        seen.append(tuple(getattr(meter, name) for name in WorkMeter._COUNTERS))
        return charge(meter, cost)

    monkeypatch.setattr(WorkMeter, "charge", recording_charge)
    return seen


@pytest.mark.parametrize(
    "policy",
    [FeedPolicy.basic(), FeedPolicy.basic(state_cache_bytes=8 << 20)],
    ids=["default", "state-cache"],
)
def test_ten_batches_scan_once_and_charge_ten_times(charges, policy):
    shared, rescanning = build_system(), build_system()
    rescan_on_every_read(rescanning.catalog["SafetyRatings"])
    scans = {
        label: count_scans(system.catalog["SafetyRatings"])
        for label, system in (("shared", shared), ("rescanning", rescanning))
    }
    tweets = raw_tweets(10 * BATCH)

    report = run_feed(shared, tweets, policy)
    shared_charges = list(charges)
    del charges[:]
    baseline = run_feed(rescanning, tweets, policy)

    assert report.num_computing_jobs == 10
    assert len(scans["shared"]) == 1
    # every batch pins its snapshot, whether or not the (modeled) state
    # cache then charges it as a reuse
    assert len(scans["rescanning"]) == 10

    # per-batch records_scanned / hash_builds / penalized_reads and the rest
    assert shared_charges == list(charges)
    scanned = WorkMeter._COUNTERS.index("records_scanned")
    assert sum(1 for c in shared_charges if c[scanned]) == (
        1 if policy.state_cache_bytes else 10
    )
    assert report.simulated_seconds == baseline.simulated_seconds
    assert report.batch_stats == baseline.batch_stats
    assert report.counters == baseline.counters
    assert stored(shared) == stored(rescanning)


def build_religions(function: str) -> AsterixLite:
    """A small ReligiousPopulations and the paper's ``function`` on FEED."""
    system = AsterixLite(num_nodes=2)
    system.execute(
        """
        CREATE TYPE TweetType AS OPEN { id: int64, text: string };
        CREATE DATASET EnrichedTweets(TweetType) PRIMARY KEY id;
        CREATE TYPE ReligionType AS OPEN { rid: int64 };
        CREATE DATASET ReligiousPopulations(ReligionType) PRIMARY KEY rid;
        """
    )
    system.insert(
        "ReligiousPopulations",
        [
            {
                "rid": i,
                "country_name": f"C{i % 4}",
                "religion_name": f"rel{i % 7}",
                "population": (37 * i) % 100,
            }
            for i in range(40)
        ],
    )
    system.catalog["ReligiousPopulations"].flush_all()
    system.execute(
        SQLPP_UDFS[function]
        + f""";
        CREATE FEED {FEED} WITH {{ "type-name": "TweetType" }};
        CONNECT FEED {FEED} TO DATASET EnrichedTweets
            APPLY FUNCTION {UDF_NAMES[function]};
        """
    )
    return system


UDF_NAMES = {"religious_population": "enrichTweetQ2", "largest_religions": "enrichTweetQ3"}


@pytest.mark.parametrize(
    "policy",
    [FeedPolicy.basic(), FeedPolicy.basic(state_cache_bytes=8 << 20)],
    ids=["default", "state-cache"],
)
@pytest.mark.parametrize("function", sorted(UDF_NAMES))
def test_q2_and_q3_shaped_rows_are_physical_reuse_only(charges, policy, function):
    """Q2's sums and Q3's sorted top 3 are shaped once per key from the
    shared snapshot and afresh every batch from a defeated one: the same
    charges, reports and stored bytes."""
    shared, rescanning = build_religions(function), build_religions(function)
    rescan_on_every_read(rescanning.catalog["ReligiousPopulations"])
    tweets = [  # country C4 has no reference rows
        json.dumps({"id": i, "text": f"t{i}", "country": f"C{i % 5}"})
        for i in range(10 * BATCH)
    ]

    report = run_feed(shared, tweets, policy)
    shared_charges = list(charges)
    del charges[:]
    baseline = run_feed(rescanning, tweets, policy)

    assert report.num_computing_jobs == 10
    assert shared_charges == list(charges)
    assert report.simulated_seconds == baseline.simulated_seconds
    assert report.batch_stats == baseline.batch_stats
    assert report.counters == baseline.counters
    assert stored(shared) == stored(rescanning)


class _UpsertAt(JavaUdf):
    """Passes records through; on one of them, upserts a reference record
    first — a write that lands in the middle of a computing job."""

    def __init__(self, dataset, at_id, record):
        super().__init__()
        self.dataset, self.at_id, self.record = dataset, at_id, record

    def evaluate(self, tweet):
        if tweet["id"] == self.at_id:
            self.dataset.upsert(self.record)
        return tweet


@pytest.mark.parametrize(
    "policy",
    [
        FeedPolicy.basic(),
        FeedPolicy.basic(state_cache_bytes=8 << 20),
        FeedPolicy.basic(enrichment_memo_bytes=8 << 20),
        FeedPolicy.basic(state_cache_bytes=8 << 20, enrichment_memo_bytes=8 << 20),
    ],
    ids=["default", "state-cache", "memo", "both"],
)
def test_mid_batch_upsert_is_seen_from_the_next_batch_on(policy):
    """Each tweet is its own memo binding, so the memo only ever misses
    here: what the memo rows check is that attaching it leaves the probes
    reading the snapshot their batch pinned."""
    system = build_system()
    ratings = system.catalog["SafetyRatings"]
    # batch 1 is ids 10..19, one node takes the even ids and then the other
    # the odd ones: the write lands after 10..18 and before 13, 15, 17, 19
    update = {"sid": 0, "county": "county0", "rating": 49}
    system.create_java_function(
        JavaUdfDescriptor(
            "udflib", "upsertAt", lambda: _UpsertAt(ratings, 11, update), 1, False
        )
    )
    system.connect_feed(
        FEED,
        "EnrichedTweets",
        [AttachedFunction("upsertAt", language="java", library="udflib"), "enrichSafety"],
    )
    tweets = [
        json.dumps({"id": i, "text": f"t{i}", "county": "county0"})
        for i in range(3 * BATCH)
    ]
    run_feed(system, tweets, policy)
    saw_update = {
        r["id"]: 49 in r["safety"] for r in system.catalog["EnrichedTweets"].scan()
    }
    assert not any(saw_update[i] for i in range(2 * BATCH))
    assert all(saw_update[i] for i in range(2 * BATCH, 3 * BATCH))


def test_fleet_tenants_share_one_snapshot():
    names = ["A", "B", "C", "D"]
    system = build_fleet(names)
    words = system.catalog["SensitiveWords"]
    scans = count_scans(words)
    before = copy.deepcopy(list(words.scan()))
    del scans[:]

    reports = system.start_feeds(
        [
            FeedLaunch(
                feed=name,
                adapter=GeneratorAdapter(raws(120, name)),
                batch_size=30,
                policy=elastic(cap=4),
            )
            for name in names
        ],
        fabric=FeedFabric(total_workers=8),
    )

    assert all(reports[name].records_stored == 120 for name in names)
    assert sum(reports[name].num_computing_jobs for name in names) == 16
    assert len(scans) == 1
    # shared by every tenant, so nobody may have written into it
    snapshot = words.snapshot()
    assert isinstance(snapshot.records, tuple)
    assert list(snapshot.records) == before
    assert len(scans) == 1  # ... and reading it again did not rescan
