"""Ingestion policies: soft errors, dead letters, congestion, recovery."""

import json

import pytest

from repro.adm import open_type
from repro.cluster import Cluster
from repro.core import AsterixLite
from repro.errors import AdmParseError, CircuitBreakerError
from repro.ingestion import (
    AttachedFunction,
    DynamicIngestionPipeline,
    FeedDefinition,
    FeedPolicy,
    Framework,
    FileAdapter,
    GeneratorAdapter,
    QueueAdapter,
    SoftErrorAction,
    SoftErrorHandler,
    StaticIngestionPipeline,
    CongestionAction,
)
from repro.runtime import CrashAt, FaultMetrics, FaultPlan
from repro.storage import Dataset
from repro.udf import FunctionRegistry


def make_env():
    target = Dataset("T", open_type("TT", id="int64"), "id",
                     num_partitions=2, validate=False)
    catalog = {"T": target}
    registry = FunctionRegistry(lambda: set(catalog))
    registry.register_sqlpp(
        """
        CREATE FUNCTION explodeOnSeven(t) {
            LET x = 1 / (t.id - 7)
            SELECT t.*, x
        }
        """
    )
    return catalog, registry


def raws_with_malformed(n, bad_ids=()):
    out = []
    for i in range(n):
        if i in bad_ids:
            out.append('{"id": %d, "text": ' % i)  # truncated JSON
        else:
            out.append(json.dumps({"id": i}))
    return out


class TestPresets:
    def test_preset_actions(self):
        assert FeedPolicy.basic().on_soft_error is SoftErrorAction.FAIL
        assert FeedPolicy.basic().max_restarts == 0
        spill = FeedPolicy.spill()
        assert spill.on_soft_error is SoftErrorAction.DEAD_LETTER
        assert spill.on_congestion is CongestionAction.BLOCK
        discard = FeedPolicy.discard()
        assert discard.on_soft_error is SoftErrorAction.SKIP
        assert discard.on_congestion is CongestionAction.DISCARD
        throttle = FeedPolicy.throttle()
        assert throttle.on_congestion is CongestionAction.THROTTLE
        elastic = FeedPolicy.elastic()
        assert elastic.max_consecutive_soft_errors == 64
        assert elastic.max_restarts == 8

    def test_preset_overrides(self):
        policy = FeedPolicy.spill(
            max_consecutive_soft_errors=3, dead_letter_dataset="Morgue"
        )
        assert policy.name == "Spill"
        assert policy.max_consecutive_soft_errors == 3
        assert policy.dead_letter_name("F") == "Morgue"
        assert FeedPolicy.spill().dead_letter_name("F") == "F_DeadLetters"

    def test_restart_policy_projection(self):
        policy = FeedPolicy.elastic(backoff_initial_seconds=0.1)
        restart = policy.restart_policy()
        assert restart.max_restarts == 8
        assert restart.backoff_initial_seconds == pytest.approx(0.1)


class TestSoftErrorHandler:
    def test_fail_reraises_original(self):
        handler = SoftErrorHandler("F", FeedPolicy.basic(), FaultMetrics())
        error = AdmParseError("bad", seq=3)
        with pytest.raises(AdmParseError):
            handler.handle("parse", "{bad", error)

    def test_skip_counts(self):
        faults = FaultMetrics()
        handler = SoftErrorHandler("F", FeedPolicy.discard(), faults)
        handler.handle("parse", "{bad", AdmParseError("bad"))
        assert faults.records_skipped == 1
        assert faults.records_dead_lettered == 0

    def test_dead_letter_without_dataset_degrades_to_skip(self):
        faults = FaultMetrics()
        handler = SoftErrorHandler("F", FeedPolicy.spill(), faults, None)
        handler.handle("parse", "{bad", AdmParseError("bad"))
        assert faults.records_skipped == 1

    def test_breaker_trips_after_consecutive_failures(self):
        faults = FaultMetrics()
        policy = FeedPolicy.discard(max_consecutive_soft_errors=2)
        handler = SoftErrorHandler("F", policy, faults)
        handler.handle("parse", "a", AdmParseError("bad"))
        handler.handle("parse", "b", AdmParseError("bad"))
        with pytest.raises(CircuitBreakerError) as info:
            handler.handle("parse", "c", AdmParseError("bad"))
        assert info.value.consecutive == 3
        assert faults.circuit_breaker_trips == 1

    def test_success_resets_breaker_streak(self):
        faults = FaultMetrics()
        policy = FeedPolicy.discard(max_consecutive_soft_errors=2)
        handler = SoftErrorHandler("F", policy, faults)
        for _ in range(5):
            handler.handle("parse", "a", AdmParseError("bad"))
            handler.note_success()
        handler.handle("parse", "a", AdmParseError("bad"))
        handler.handle("parse", "a", AdmParseError("bad"))
        assert faults.circuit_breaker_trips == 0

    def test_dead_letter_key_is_replay_stable(self):
        faults = FaultMetrics()
        dataset = Dataset(
            "DL", open_type("DLT", dl_id="string"), "dl_id", validate=False
        )
        handler = SoftErrorHandler("F", FeedPolicy.spill(), faults, dataset)
        for _ in range(2):  # the same record replayed after a crash
            handler.handle("parse", "{bad", AdmParseError("bad"), seq=17)
        assert len(dataset) == 1  # upserted, not duplicated
        entry = next(iter(dataset.scan()))
        assert entry["dl_id"] == "parse#17"
        assert entry["seq"] == 17
        assert entry["raw"] == "{bad"
        assert "AdmParseError" in entry["error"]


class TestBreakerEdges:
    """Edge behavior of the max-consecutive-failures feed breaker."""

    def _handler(self, limit, dataset=None):
        faults = FaultMetrics()
        policy = FeedPolicy.spill(max_consecutive_soft_errors=limit)
        return SoftErrorHandler("F", policy, faults, dataset), faults

    def test_exactly_n_failures_do_not_trip(self):
        # the limit is a tolerance: N consecutive soft errors are absorbed,
        # only failure N+1 escalates
        handler, faults = self._handler(limit=3)
        for seq in range(3):
            handler.handle("parse", f"r{seq}", AdmParseError("bad"), seq=seq)
        assert handler.consecutive == 3
        assert faults.circuit_breaker_trips == 0
        with pytest.raises(CircuitBreakerError) as info:
            handler.handle("parse", "r3", AdmParseError("bad"), seq=3)
        assert info.value.consecutive == 4
        assert info.value.limit == 3
        assert faults.circuit_breaker_trips == 1

    def test_success_at_boundary_resets_counter(self):
        # a success when the streak sits exactly at the limit resets it:
        # the next failure starts a fresh streak of one
        handler, faults = self._handler(limit=2)
        handler.handle("parse", "a", AdmParseError("bad"))
        handler.handle("parse", "b", AdmParseError("bad"))
        handler.note_success()
        assert handler.consecutive == 0
        handler.handle("parse", "c", AdmParseError("bad"))
        handler.handle("parse", "d", AdmParseError("bad"))
        assert faults.circuit_breaker_trips == 0

    def test_zero_limit_disables_breaker(self):
        handler, faults = self._handler(limit=0)
        for seq in range(50):
            handler.handle("parse", f"r{seq}", AdmParseError("bad"), seq=seq)
        assert faults.circuit_breaker_trips == 0

    def test_pre_trip_failures_are_dead_lettered_but_not_the_trip(self):
        # failures below the limit route to the dead-letter dataset; the
        # tripping failure escalates *instead of* being dead-lettered, so
        # the dataset holds exactly the absorbed residue
        dataset = Dataset(
            "DL", open_type("DLT", dl_id="string"), "dl_id", validate=False
        )
        handler, faults = self._handler(limit=2, dataset=dataset)
        handler.handle("parse", "a", AdmParseError("bad"), seq=0)
        handler.handle("parse", "b", AdmParseError("bad"), seq=1)
        with pytest.raises(CircuitBreakerError):
            handler.handle("parse", "c", AdmParseError("bad"), seq=2)
        assert faults.records_dead_lettered == 2
        assert sorted(r["dl_id"] for r in dataset.scan()) == [
            "parse#0",
            "parse#1",
        ]

    def test_feed_level_trip_escalates_and_keeps_dead_letters(self):
        system = AsterixLite(num_nodes=2)
        system.execute(
            """
            CREATE TYPE TweetType AS OPEN { id: int64 };
            CREATE DATASET Tweets(TweetType) PRIMARY KEY id;
            """
        )
        system.create_feed("TweetFeed", {"type-name": "TweetType"})
        system.connect_feed(
            "TweetFeed",
            "Tweets",
            policy=FeedPolicy.spill(max_consecutive_soft_errors=2),
        )
        # three consecutive malformed rows: two dead-letter, the third trips
        raws = [json.dumps({"id": i}) for i in range(4)]
        raws[1:1] = ['{"id": x', '{"id": y', '{"id": z']
        with pytest.raises(CircuitBreakerError):
            system.start_feed(
                "TweetFeed", GeneratorAdapter(raws), batch_size=4
            )
        dead = list(system.catalog["TweetFeed_DeadLetters"].scan())
        assert len(dead) == 2


class TestPipelinePolicies:
    def test_default_policy_fails_fast_like_the_seed(self):
        catalog, _registry = make_env()
        pipeline = DynamicIngestionPipeline(Cluster(2), catalog)
        feed = FeedDefinition("F", "T", batch_size=4)
        with pytest.raises(AdmParseError):
            pipeline.run(
                feed, GeneratorAdapter(raws_with_malformed(8, bad_ids={2}))
            )

    def test_skip_policy_drops_malformed_and_continues(self):
        catalog, _registry = make_env()
        pipeline = DynamicIngestionPipeline(Cluster(2), catalog)
        feed = FeedDefinition(
            "F", "T", batch_size=4, policy=FeedPolicy.discard()
        )
        report = pipeline.run(
            feed, GeneratorAdapter(raws_with_malformed(12, bad_ids={2, 9}))
        )
        assert report.records_stored == 10
        assert report.faults.records_skipped == 2
        assert sorted(r["id"] for r in catalog["T"].scan()) == [
            i for i in range(12) if i not in (2, 9)
        ]

    def test_udf_soft_errors_dead_lettered(self):
        catalog, registry = make_env()
        pipeline = DynamicIngestionPipeline(Cluster(2), catalog, registry)
        feed = FeedDefinition(
            "F", "T", batch_size=4,
            functions=[AttachedFunction("explodeOnSeven")],
            policy=FeedPolicy.spill(),
        )
        raws = [json.dumps({"id": i}) for i in range(10)]
        report = pipeline.run(feed, GeneratorAdapter(raws))
        assert report.records_stored == 9  # id 7 exploded
        assert report.faults.records_dead_lettered == 1
        entries = list(catalog["F_DeadLetters"].scan())
        assert len(entries) == 1
        assert entries[0]["stage"] == "udf"
        assert "ZeroDivisionError" in entries[0]["error"]
        assert json.loads(entries[0]["raw"])["id"] == 7

    def test_circuit_breaker_aborts_error_storm(self):
        catalog, _registry = make_env()
        pipeline = DynamicIngestionPipeline(Cluster(2), catalog)
        feed = FeedDefinition(
            "F", "T", batch_size=4,
            policy=FeedPolicy.discard(max_consecutive_soft_errors=3),
        )
        # ten malformed records in a row: the breaker must trip
        with pytest.raises(CircuitBreakerError):
            pipeline.run(
                feed,
                GeneratorAdapter(raws_with_malformed(10, bad_ids=set(range(10)))),
            )

    def test_static_pipeline_honors_skip_policy(self):
        catalog, _registry = make_env()
        pipeline = StaticIngestionPipeline(Cluster(2), catalog)
        feed = FeedDefinition(
            "F", "T", framework=Framework.STATIC,
            policy=FeedPolicy.discard(),
        )
        report = pipeline.run(
            feed, GeneratorAdapter(raws_with_malformed(8, bad_ids={5}))
        )
        assert report.records_stored == 7
        assert report.faults.records_skipped == 1

    def test_idle_adapter_times_out_per_policy(self):
        catalog, _registry = make_env()
        pipeline = DynamicIngestionPipeline(Cluster(2), catalog)
        adapter = QueueAdapter()
        adapter.send_many(json.dumps({"id": i}) for i in range(3))
        # the producer never calls end(): the policy's idle timeout is what
        # completes the feed instead of a FeedStateError crash
        feed = FeedDefinition(
            "F", "T", batch_size=8,
            policy=FeedPolicy.discard(
                adapter_idle_timeout_seconds=1.0, adapter_idle_poll_seconds=0.25
            ),
        )
        report = pipeline.run(feed, adapter)
        assert report.records_stored == 3
        assert report.faults.idle_timeouts == 1
        assert report.runtime.layers["intake"].idle >= 1.0


class TestCongestionReactions:
    def _congested_feed(self, policy):
        catalog, registry = make_env()
        pipeline = DynamicIngestionPipeline(Cluster(2), catalog, registry)
        feed = FeedDefinition(
            "F", "T", batch_size=8, intake_holder_capacity=1,
            functions=[AttachedFunction("explodeOnSeven")],
            policy=policy,
        )
        raws = [json.dumps({"id": i}) for i in range(64) if i != 7]
        report = pipeline.run(feed, GeneratorAdapter(raws))
        return report, catalog

    def test_discard_congestion_drops_frames_and_counts(self):
        report, catalog = self._congested_feed(
            FeedPolicy.discard(on_soft_error=SoftErrorAction.SKIP)
        )
        faults = report.faults
        # capacity-1 holders against a slow UDF job guarantee congestion
        assert faults.frames_dropped > 0
        assert faults.records_discarded > 0
        assert report.records_stored < report.records_ingested

    def test_throttle_congestion_slows_admission_losslessly(self):
        report, _catalog = self._congested_feed(FeedPolicy.throttle())
        assert report.records_stored == report.records_ingested
        # admission slowed instead of dropping: delays accrued, nothing lost
        assert report.faults.throttle_seconds > 0.0
        assert report.faults.records_discarded == 0


class TestSystemLevelDeadLetters:
    def _system(self):
        system = AsterixLite(num_nodes=2)
        system.execute(
            """
            CREATE TYPE TweetType AS OPEN { id: int64 };
            CREATE DATASET Tweets(TweetType) PRIMARY KEY id;
            """
        )
        system.create_feed("TweetFeed", {"type-name": "TweetType"})
        return system

    def test_dead_letters_queryable_via_sqlpp(self):
        system = self._system()
        system.connect_feed("TweetFeed", "Tweets", policy=FeedPolicy.spill())
        adapter = GeneratorAdapter(raws_with_malformed(20, bad_ids={4, 11}))
        report = system.start_feed("TweetFeed", adapter, batch_size=5)
        assert report.records_stored == 18
        assert report.faults.records_dead_lettered == 2
        rows = system.query(
            "SELECT VALUE d.seq FROM TweetFeed_DeadLetters d"
        )
        assert sorted(rows) == [4, 11]
        errors = system.query(
            "SELECT VALUE d.error FROM TweetFeed_DeadLetters d"
        )
        assert all("AdmParseError" in e for e in errors)

    @pytest.mark.parametrize("preset", ["spill", "discard", "basic"])
    def test_a_line_that_is_not_utf8_is_a_malformed_record(self, preset, tmp_path):
        """Line 5 is not UTF-8 and line 7 is not JSON: both are parse
        errors carrying their line number, under every policy."""
        lines = [json.dumps({"id": i}).encode() for i in range(1, 11)]
        lines[4] = b'{"id": 99, "text": "\xff\xfe"}'
        lines[6] = b'{"id": 7, "text": '
        path = tmp_path / "tweets.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        system = self._system()
        system.connect_feed("TweetFeed", "Tweets")
        adapter = FileAdapter(str(path))
        policy = getattr(FeedPolicy, preset)()
        if preset == "basic":
            with pytest.raises(AdmParseError, match="malformed JSON: 'utf-8'") as info:
                system.start_feed("TweetFeed", adapter, batch_size=4, policy=policy)
            assert (info.value.seq, info.value.source) == (5, "parse")
            return
        report = system.start_feed("TweetFeed", adapter, batch_size=4, policy=policy)
        assert report.records_stored == 8
        assert sorted(system.query("SELECT VALUE t.id FROM Tweets t")) == [
            1, 2, 3, 4, 6, 8, 9, 10
        ]
        assert adapter.resume_position()[0] == 10  # the cursor moved past both
        if preset == "discard":
            assert report.faults.records_skipped == 2
            return
        assert report.faults.records_dead_lettered == 2
        letters = {
            d["seq"]: d for d in system.query("SELECT VALUE d FROM TweetFeed_DeadLetters d")
        }
        assert sorted(letters) == [5, 7]
        assert letters[5]["raw"] == '{"id": 99, "text": "\\xff\\xfe"}'
        assert letters[5]["error"].startswith(
            "AdmParseError: malformed JSON: 'utf-8' codec can't decode byte 0xff"
        )
        assert letters[7]["raw"] == '{"id": 7, "text":'

    def test_start_feed_policy_overrides_connect_policy(self):
        system = self._system()
        system.connect_feed("TweetFeed", "Tweets")  # Basic by default
        adapter = GeneratorAdapter(raws_with_malformed(10, bad_ids={3}))
        report = system.start_feed(
            "TweetFeed", adapter, batch_size=5, policy=FeedPolicy.discard()
        )
        assert report.records_stored == 9
        assert report.faults.records_skipped == 1


class TestAcceptanceScenario:
    """ISSUE acceptance: 1% malformed + a mid-run computing crash under
    Spill completes with zero acked-record loss, queryable dead letters,
    and byte-identical fault counters across two identical runs."""

    BAD_IDS = frozenset(i for i in range(1000) if i % 100 == 37)

    def _run_once(self):
        system = AsterixLite(num_nodes=2)
        system.execute(
            """
            CREATE TYPE TweetType AS OPEN { id: int64 };
            CREATE DATASET Tweets(TweetType) PRIMARY KEY id;
            """
        )
        system.create_feed("TweetFeed", {"type-name": "TweetType"})
        system.connect_feed("TweetFeed", "Tweets", policy=FeedPolicy.spill())
        plan = FaultPlan(
            crashes=(CrashAt(at=0.01, target="computing"),), seed=7
        )
        adapter = GeneratorAdapter(
            raws_with_malformed(1000, bad_ids=self.BAD_IDS)
        )
        report = system.start_feed(
            "TweetFeed", adapter, batch_size=100, fault_plan=plan
        )
        return system, report

    def test_zero_acked_loss_and_deterministic_counters(self):
        system, report = self._run_once()
        faults = report.faults
        assert faults.crashes == 1
        assert faults.restarts == 1
        # every well-formed record survives the crash (at-least-once +
        # pk-upsert dedup)
        expected = {i for i in range(1000) if i not in self.BAD_IDS}
        stored = set(system.query("SELECT VALUE t.id FROM Tweets t"))
        assert stored == expected
        # every malformed record is dead-lettered exactly once, replay or no
        dead = system.query("SELECT VALUE d.seq FROM TweetFeed_DeadLetters d")
        assert sorted(dead) == sorted(self.BAD_IDS)
        # determinism: an identical second run produces byte-identical
        # fault counters
        _system2, report2 = self._run_once()
        assert json.dumps(faults.as_dict(), sort_keys=True) == json.dumps(
            report2.faults.as_dict(), sort_keys=True
        )
        assert report.simulated_seconds == report2.simulated_seconds


class TestCrashReplay:
    def test_inflight_batch_replays_after_computing_crash(self):
        catalog, _registry = make_env()
        pipeline = DynamicIngestionPipeline(Cluster(2), catalog)
        # crash inside a computing job's makespan: the un-acked batch must
        # replay after the restart
        plan = FaultPlan(crashes=(CrashAt(at=0.004, target="computing"),))
        feed = FeedDefinition(
            "F", "T", batch_size=16, policy=FeedPolicy.spill(),
            fault_plan=plan,
        )
        raws = [json.dumps({"id": i}) for i in range(64)]
        report = pipeline.run(feed, GeneratorAdapter(raws))
        assert report.faults.crashes == 1
        assert report.faults.records_replayed > 0
        assert sorted(r["id"] for r in catalog["T"].scan()) == list(range(64))
