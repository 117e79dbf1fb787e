"""Scale-out: partitioned intake, sub-batch parallelism, durable restart.

Every configuration here must store output byte-identical to the
single-lane baseline (N=1 intake partitions, K=1 sub-batches, W=1
worker) — parallelism and restarts change the schedule, never the data.
"""

import json

import pytest

from repro.core import AsterixLite
from repro.errors import FeedFailedError, FeedStateError, IngestionError
from repro.ingestion import (
    FeedPolicy,
    FileAdapter,
    GeneratorAdapter,
    QueueAdapter,
)
from repro.runtime import CrashAt, FaultPlan
from repro.storage import CheckpointStore

RECORDS = 240
BATCH = 40


def build_system(words=20):
    """A compute-bound enrichment feed (sensitive-words EXISTS join)."""
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
        CREATE FUNCTION flagTweet(tweet) {
            LET flag = CASE
                EXISTS(SELECT w FROM SensitiveWords w
                       WHERE tweet.country = w.country
                         AND contains(tweet.text, w.word))
                WHEN true THEN "Red" ELSE "Green" END
            SELECT tweet.*, flag
        };
        CREATE FEED TweetFeed WITH { "type-name": "TweetType" };
        CONNECT FEED TweetFeed TO DATASET EnrichedTweets
            APPLY FUNCTION flagTweet;
        """
    )
    return system


def raws(records=RECORDS):
    return [
        json.dumps({"id": i, "text": f"tweet w{i % 40} {i}", "country": "US"})
        for i in range(records)
    ]


def stored_bytes(system):
    """Canonical byte serialization of the enriched dataset."""
    rows = sorted(system.catalog["EnrichedTweets"].scan(), key=lambda r: r["id"])
    return json.dumps(rows, sort_keys=True).encode("utf-8")


def run_feed(adapter, policy=None, fault_plan=None, checkpoint=None, system=None):
    system = system or build_system()
    report = system.start_feed(
        "TweetFeed",
        adapter=adapter,
        batch_size=BATCH,
        policy=policy,
        fault_plan=fault_plan,
        checkpoint=checkpoint,
    )
    return system, report


def tweet_file(tmp_path, records=RECORDS):
    path = tmp_path / "tweets.ndjson"
    path.write_text("\n".join(raws(records)) + "\n", encoding="utf-8")
    return str(path)


def baseline_bytes():
    system, report = run_feed(GeneratorAdapter(raws()))
    assert report.records_stored == RECORDS
    return stored_bytes(system), report


def scaleout_policy(partitions=1, subbatch=0, workers=1, **overrides):
    return FeedPolicy.basic(
        intake_partitions=partitions,
        max_subbatch_records=subbatch,
        min_computing_workers=workers,
        max_computing_workers=workers,
        **overrides,
    )


class TestPartitionedIntake:
    def test_split_file_adapter_matches_single_lane(self, tmp_path):
        expected, _ = baseline_bytes()
        path = tweet_file(tmp_path)
        system, report = run_feed(
            FileAdapter(path), policy=scaleout_policy(partitions=4)
        )
        assert report.intake_partitions == 4
        assert len(report.intake_partition_busy) == 4
        assert all(busy > 0 for busy in report.intake_partition_busy.values())
        assert report.records_stored == RECORDS
        assert stored_bytes(system) == expected

    def test_explicit_adapter_sequence_matches_single_lane(self):
        expected, _ = baseline_bytes()
        stream = raws()
        adapters = [GeneratorAdapter(iter(stream[p::3])) for p in range(3)]
        system, report = run_feed(adapters, policy=scaleout_policy(partitions=3))
        assert report.intake_partitions == 3
        assert stored_bytes(system) == expected

    def test_interleaved_queue_adapters_merge_under_one_cursor(self):
        expected, _ = baseline_bytes()
        queues = [QueueAdapter(), QueueAdapter()]
        # interleave pushes across the two sockets: partition p carries
        # the odd/even halves of the id space in alternating order
        for raw in raws():
            queues[json.loads(raw)["id"] % 2].send(raw)
        for queue in queues:
            queue.end()
        system, report = run_feed(queues, policy=scaleout_policy(partitions=2))
        assert report.intake_partitions == 2
        assert report.records_stored == RECORDS
        assert stored_bytes(system) == expected

    def test_unsplittable_adapter_rejected(self):
        with pytest.raises(IngestionError, match="range-splittable"):
            run_feed(
                GeneratorAdapter(raws()), policy=scaleout_policy(partitions=4)
            )

    def test_adapter_count_must_match_policy(self):
        adapters = [GeneratorAdapter(raws(10)), GeneratorAdapter([])]
        with pytest.raises(IngestionError):
            run_feed(adapters, policy=scaleout_policy(partitions=3))

    def test_static_framework_rejects_partitioned_intake(self):
        system = build_system()
        adapters = [GeneratorAdapter(raws(10)), GeneratorAdapter(raws(10))]
        with pytest.raises(FeedStateError, match="dynamic framework"):
            system.start_feed("TweetFeed", adapters, framework="static")

    @pytest.mark.parametrize(
        "field, overrides",
        [
            ("state_cache_bytes", {"state_cache_bytes": 1 << 20}),
            ("enrichment_memo_bytes", {"enrichment_memo_bytes": 1 << 20}),
            ("intake_partitions", {"intake_partitions": 4}),
            ("max_subbatch_records", {"max_subbatch_records": 5}),
            ("max_computing_workers", {"max_computing_workers": 4}),
            (
                "min_computing_workers",
                {"min_computing_workers": 4, "max_computing_workers": 4},
            ),
        ],
    )
    def test_static_framework_rejects_a_policy_it_cannot_honour(
        self, field, overrides
    ):
        """One job, no caches, partitions, sub-batches or pool: a policy
        that asks for one is refused by name, not silently ignored."""
        system = build_system()
        with pytest.raises(FeedStateError, match=f"'{field}' needs the dynamic"):
            system.start_feed(
                "TweetFeed",
                GeneratorAdapter(raws(10)),
                framework="static",
                policy=FeedPolicy.basic(**overrides),
            )


class TestSubBatchParallelism:
    def test_split_batches_store_identical_output(self):
        expected, _ = baseline_bytes()
        system, report = run_feed(
            GeneratorAdapter(raws()),
            policy=scaleout_policy(subbatch=10, workers=3),
        )
        # 240 records / 40-record batches, each split into ceil(40/10)=4
        assert report.subbatches_dispatched == 24
        assert report.runtime.subbatch_merges == 6
        assert stored_bytes(system) == expected

    def test_partitions_and_subbatches_compose(self, tmp_path):
        expected, _ = baseline_bytes()
        path = tweet_file(tmp_path)
        system, report = run_feed(
            FileAdapter(path),
            policy=scaleout_policy(partitions=4, subbatch=12, workers=3),
        )
        assert report.intake_partitions == 4
        assert report.subbatches_dispatched > 0
        assert stored_bytes(system) == expected

    def test_worker_crash_mid_subbatch_recovers_byte_identical(self):
        expected, _baseline = baseline_bytes()
        # early enough that sub-batches are still in flight on every worker
        plan = FaultPlan(crashes=(CrashAt(at=0.02, target="computing"),))
        system, report = run_feed(
            GeneratorAdapter(raws()),
            policy=scaleout_policy(
                subbatch=10, workers=3, max_restarts=3
            ),
            fault_plan=plan,
        )
        # a layer-targeted crash hits every worker in the pool
        assert report.faults.crashes == 3
        assert report.faults.restarts == 3
        assert report.faults.records_replayed > 0
        assert stored_bytes(system) == expected

    def test_intake_partition_crash_recovers_byte_identical(self, tmp_path):
        expected, _baseline = baseline_bytes()
        path = tweet_file(tmp_path)
        # suffix-match one partition's intake actor while it still streams
        # (each partition's 60-record lane is busy for ~1.5ms of sim time)
        plan = FaultPlan(crashes=(CrashAt(at=0.0008, target="intake.p1"),))
        system, report = run_feed(
            FileAdapter(path),
            policy=scaleout_policy(partitions=4, max_restarts=3),
            fault_plan=plan,
        )
        assert report.faults.crashes == 1
        assert report.records_stored == RECORDS
        assert stored_bytes(system) == expected


class TestDurableRestart:
    def test_uninterrupted_run_commits_and_finalizes_checkpoint(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "ckpt"))
        system, report = run_feed(
            GeneratorAdapter(raws()), checkpoint=store
        )
        assert report.checkpoint_commits > 0
        assert not report.resumed_from_checkpoint
        saved = store.load("TweetFeed")
        assert saved.complete
        assert saved.acked_batches == RECORDS // BATCH
        assert saved.records_stored == RECORDS
        assert saved.cursors[0].acked_seq == RECORDS - 1

    def test_kill_and_resume_is_byte_identical(self, tmp_path):
        # reference: one uninterrupted partitioned run
        path = tweet_file(tmp_path)
        policy = scaleout_policy(partitions=4, subbatch=12, workers=3)
        reference, uninterrupted = run_feed(FileAdapter(path), policy=policy)
        expected = stored_bytes(reference)

        # interrupted run: a zero-budget worker crash kills the process
        # mid-feed, after some batches were acked and checkpointed
        store = CheckpointStore(str(tmp_path / "ckpt"))
        system = build_system()
        plan = FaultPlan(
            crashes=(
                CrashAt(
                    at=uninterrupted.runtime.makespan_seconds * 0.6,
                    target="computing",
                ),
            )
        )
        with pytest.raises(FeedFailedError):
            run_feed(
                FileAdapter(path),
                policy=scaleout_policy(
                    partitions=4, subbatch=12, workers=3, max_restarts=0
                ),
                fault_plan=plan,
                checkpoint=store,
                system=system,
            )
        saved = store.load("TweetFeed")
        assert not saved.complete
        assert 0 < saved.acked_batches < RECORDS // BATCH
        assert saved.intake_partitions == 4

        # restart with FRESH adapters over the same file: acked records
        # are skipped via the durable cursors, the un-acked tail replays,
        # pk-upsert dedupes the overlap
        report = system.resume_run(
            "TweetFeed",
            FileAdapter(path),
            checkpoint=store,
            batch_size=BATCH,
            policy=policy,
        )
        assert report.resumed_from_checkpoint
        assert report.records_ingested < RECORDS  # acked prefix was skipped
        assert stored_bytes(system) == expected
        assert store.load("TweetFeed").complete

    def test_resume_run_requires_checkpoint_store(self):
        system = build_system()
        with pytest.raises(FeedStateError, match="CheckpointStore"):
            system.resume_run("TweetFeed", GeneratorAdapter(raws(10)))

    def test_resume_rejects_partition_count_mismatch(self, tmp_path):
        path = tweet_file(tmp_path)
        store = CheckpointStore(str(tmp_path / "ckpt"))
        system, _report = run_feed(
            FileAdapter(path),
            policy=scaleout_policy(partitions=4),
            checkpoint=store,
        )
        with pytest.raises(IngestionError, match="partition"):
            system.resume_run(
                "TweetFeed",
                FileAdapter(path),
                checkpoint=store,
                batch_size=BATCH,
                policy=scaleout_policy(partitions=2),
            )

    def test_static_framework_rejects_checkpoint(self, tmp_path):
        system = build_system()
        store = CheckpointStore(str(tmp_path / "ckpt"))
        with pytest.raises(FeedStateError, match="dynamic framework"):
            system.start_feed(
                "TweetFeed",
                GeneratorAdapter(raws(10)),
                framework="static",
                checkpoint=store,
            )
