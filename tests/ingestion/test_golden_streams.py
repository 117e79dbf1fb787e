"""Golden runs: seven feed scenarios whose event streams, report counters
and stored output hash to fixed digests.

``test_event_stream`` checks that two runs of the same code agree; these
digests pin what the runs *are*, so a refactor of the feed run's jobs must
keep every event, every counter and every stored byte.  A digest moves
only with a declared model change; regenerate it then with
``python tests/ingestion/test_golden_streams.py``, which prints the table.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.core import AsterixLite
from repro.errors import FeedFailedError
from repro.ingestion import (
    AttachedFunction,
    DynamicIngestionPipeline,
    FeedDefinition,
    FeedFabric,
    FeedLaunch,
    FeedPolicy,
    FileAdapter,
    GeneratorAdapter,
)
from repro.runtime import AdapterFailAt, CrashAt, FaultPlan
from repro.storage import CheckpointStore

RECORDS = 120
BATCH = 20


def build_system(feeds=("TweetFeed",)):
    """Two nodes, one sensitive-words EXISTS join per feed."""
    system = AsterixLite(num_nodes=2)
    system.execute(
        """
        CREATE TYPE TweetType AS OPEN { id: int64, text: string };
        CREATE TYPE WordType AS OPEN { wid: int64 };
        CREATE DATASET SensitiveWords(WordType) PRIMARY KEY wid;
        CREATE FUNCTION flagTweet(tweet) {
            LET flag = CASE
                EXISTS(SELECT w FROM SensitiveWords w
                       WHERE tweet.country = w.country
                         AND contains(tweet.text, w.word))
                WHEN true THEN "Red" ELSE "Green" END
            SELECT tweet.*, flag
        };
        """
    )
    system.insert(
        "SensitiveWords",
        [{"wid": i, "country": "US", "word": f"w{i}"} for i in range(20)],
    )
    for feed in feeds:
        system.execute(
            f"""
            CREATE DATASET {feed}Out(TweetType) PRIMARY KEY id;
            CREATE FEED {feed} WITH {{ "type-name": "TweetType" }};
            CONNECT FEED {feed} TO DATASET {feed}Out APPLY FUNCTION flagTweet;
            """
        )
    return system


def raws(records=RECORDS):
    return [
        json.dumps({"id": i, "text": f"tweet w{i % 30} {i}", "country": "US"})
        for i in range(records)
    ]


def digest(system, reports, extra_events=()):
    """sha256 over each run's event stream and report, then every stored
    row of every feed's target."""
    h = hashlib.sha256()
    for report in reports:
        h.update(repr(report.runtime.events).encode())
        h.update(repr(replace(report, runtime=None)).encode())
    h.update(repr(list(extra_events)).encode())
    for name in sorted(system.catalog):
        if name.endswith("Out"):
            rows = sorted(system.catalog[name].scan(), key=lambda r: r["id"])
            h.update(json.dumps(rows, sort_keys=True).encode())
    return h.hexdigest()


def solo(tmp_path):
    system = build_system()
    report = system.start_feed(
        "TweetFeed", GeneratorAdapter(raws()), batch_size=BATCH
    )
    return digest(system, [report])


def ablation(**flags):
    def scenario(tmp_path):
        system = build_system()
        feed = FeedDefinition(
            "TweetFeed", "TweetFeedOut", batch_size=BATCH,
            functions=[AttachedFunction("flagTweet")],
        )
        pipeline = DynamicIngestionPipeline(
            system.cluster, system.catalog, system.registry
        )
        report = pipeline.run(feed, GeneratorAdapter(raws()), **flags)
        return digest(system, [report])

    return scenario


def elastic_crash_split(tmp_path):
    system = build_system()
    report = system.start_feed(
        "TweetFeed",
        GeneratorAdapter(raws(240)),
        batch_size=40,
        policy=FeedPolicy.elastic(max_subbatch_records=15, max_restarts=3),
        fault_plan=FaultPlan(
            crashes=(CrashAt(at=0.02, target="computing"),),
            adapter_failures=(AdapterFailAt(after_records=90),),
        ),
    )
    kinds = {event.kind for event in report.runtime.events}
    assert {
        "split", "crash", "restart", "replay", "scale", "adapter_death",
        "adapter_reopen",
    } <= kinds
    return digest(system, [report])


def checkpoint_resume(tmp_path):
    path = tmp_path / "tweets.ndjson"
    path.write_text("\n".join(raws()) + "\n", encoding="utf-8")
    store = CheckpointStore(str(tmp_path / "ckpt"))
    policy = FeedPolicy.basic(intake_partitions=2, max_restarts=0)
    system = build_system()
    with pytest.raises(FeedFailedError):
        system.start_feed(
            "TweetFeed", FileAdapter(str(path)), batch_size=BATCH,
            policy=policy, checkpoint=store,
            fault_plan=FaultPlan(crashes=(CrashAt(at=0.4, target="computing"),)),
        )
    interrupted = store.load("TweetFeed")
    assert not interrupted.complete and interrupted.acked_batches > 0
    assert interrupted.cursors[1].resume is not None
    report = system.resume_run(
        "TweetFeed", FileAdapter(str(path)), checkpoint=store,
        batch_size=BATCH, policy=policy,
    )
    assert report.resumed_from_checkpoint
    return digest(system, [report], [interrupted, store.load("TweetFeed")])


def governed_fleet(tmp_path):
    counts = {"Heavy": 180, "Light": 40}
    system = build_system(feeds=list(counts))
    fabric = FeedFabric(total_workers=3, memory_bytes=64 * 1024)
    launches = [
        FeedLaunch(
            feed=name,
            adapter=GeneratorAdapter(raws(count)),
            batch_size=BATCH,
            policy=FeedPolicy.elastic(
                min_computing_workers=1, max_computing_workers=3,
                priority=2 if name == "Heavy" else 1,
                enrichment_memo_bytes=16 * 1024,
            ),
        )
        for name, count in counts.items()
    ]
    reports = system.start_feeds(launches, fabric=fabric)
    assert {"grant", "governor"} <= {event.kind for event in fabric.events}
    return digest(system, [reports[name] for name in counts], fabric.events)


def recall_fleet(tmp_path):
    """Three tenants over four workers: Alpha borrows the spare worker,
    goes quiet and is recalled for Beta's and Gamma's waiting grows, and
    Beta (priority 2) is funded first, then recalled for Gamma."""
    names = ["Alpha", "Beta", "Gamma"]
    system = build_system(feeds=names)
    fabric = FeedFabric(total_workers=4)
    launches = [
        FeedLaunch(
            feed=name,
            adapter=GeneratorAdapter(raws(160)),
            batch_size=batch_size,
            policy=FeedPolicy.elastic(
                min_computing_workers=1, max_computing_workers=3,
                priority=priority,
            ),
        )
        for name, batch_size, priority in zip(names, (40, 20, 20), (1, 2, 1))
    ]
    reports = system.start_feeds(launches, fabric=fabric)
    kinds = [event.kind for event in fabric.events]
    assert (kinds.count("recall"), kinds.count("grant")) == (3, 4)
    return digest(system, [reports[name] for name in names], fabric.events)


SCENARIOS = {
    "solo": solo,
    "no-predeploy": ablation(predeploy=False),
    "coupled": ablation(decoupled=False),
    "elastic-crash-split": elastic_crash_split,
    "checkpoint-resume": checkpoint_resume,
    "governed-fleet": governed_fleet,
    "recall-fleet": recall_fleet,
}

GOLDEN = {
    "checkpoint-resume": "78742c733e8be4110286bafb71ff087854446e4b1e779ccc4d3ee29b9f47bbc0",
    "coupled": "cc658274098d53b04821463e2949965f948405979b3a6a524ea9d2f25a317943",
    "elastic-crash-split": "af5c68b6ac46e4055ecd3b9ab65ac5e00b0e492534d23ab7b53c613e375afd67",
    "governed-fleet": "c632c0f81c68ff43d59209cf84c65aa51943c2810795d85a3fe019f5f2e7f589",
    "no-predeploy": "8f763f92c07f56eb48a0f47a6d56466890a394c2d7bbbc8244df1407cfd1afa9",
    "recall-fleet": "9f81110a56006e65a05046e291f4a0dcf99ad83b74498767b491124594814815",
    "solo": "06a4aef0daa1c80d9e3764ce190079ece6d402856f1c81d67c698e0fc3072100",
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_matches_its_golden_digest(name, tmp_path):
    assert SCENARIOS[name](tmp_path) == GOLDEN[name]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    for name in sorted(SCENARIOS):
        with tempfile.TemporaryDirectory() as scratch:
            print(f'    "{name}": "{SCENARIOS[name](Path(scratch))}",')
