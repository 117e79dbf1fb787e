"""Dead-letter replay: repaired rows re-ingest, residue stays queryable."""

import json

from repro.adm import serialize
from repro.core import AsterixLite
from repro.errors import AdmParseError, CircuitBreakerError
from repro.ingestion import (
    EnricherBinding,
    ExternalEnricher,
    ExternalFailureAction,
    FeedPolicy,
    GeneratorAdapter,
    replay_dead_letters,
)
from repro.ingestion.replay import classify_replay_error
from repro.runtime import EnricherOutage, FaultPlan


def make_system(policy=None):
    system = AsterixLite(num_nodes=2)
    system.execute(
        """
        CREATE TYPE TweetType AS OPEN { id: int64 };
        CREATE DATASET Tweets(TweetType) PRIMARY KEY id;
        """
    )
    system.create_feed("TweetFeed", {"type-name": "TweetType"})
    system.connect_feed(
        "TweetFeed", "Tweets", policy=policy or FeedPolicy.spill()
    )
    return system


def raws_with_malformed(n, bad_ids):
    return [
        '{"id": %d, "text": ' % i if i in bad_ids else json.dumps({"id": i})
        for i in range(n)
    ]


class TestReplayDeadLetters:
    def _ingest_with_failures(self, bad_ids={4, 11}):
        system = make_system()
        adapter = GeneratorAdapter(raws_with_malformed(20, bad_ids))
        report = system.start_feed("TweetFeed", adapter, batch_size=5)
        assert report.faults.records_dead_lettered == len(bad_ids)
        return system

    def test_repaired_rows_land_in_target_and_clear(self):
        system = self._ingest_with_failures()
        dead_letters = system.catalog["TweetFeed_DeadLetters"]
        # the operator repairs every broken row in place
        for row in list(dead_letters.scan()):
            repaired = dict(row)
            repaired["raw"] = json.dumps({"id": row["seq"]})
            dead_letters.upsert(repaired)

        result = system.replay_dead_letters("TweetFeed", batch_size=5)
        assert result.replayed == 2
        assert result.records_stored == 2
        assert result.still_dead == 0
        assert len(dead_letters) == 0
        stored = sorted(system.query("SELECT VALUE t.id FROM Tweets t"))
        assert stored == list(range(20))

    def test_still_broken_rows_return_to_dead_letters(self):
        system = self._ingest_with_failures()
        dead_letters = system.catalog["TweetFeed_DeadLetters"]
        # repair only seq 4; seq 11 stays malformed
        for row in list(dead_letters.scan()):
            if row["seq"] == 4:
                repaired = dict(row)
                repaired["raw"] = json.dumps({"id": 4})
                dead_letters.upsert(repaired)

        result = replay_dead_letters(system, "TweetFeed", batch_size=5)
        assert result.replayed == 2
        assert result.records_stored == 1
        assert result.still_dead == 1
        residue = list(dead_letters.scan())
        assert len(residue) == 1
        assert "AdmParseError" in residue[0]["error"]
        assert residue[0]["raw"].startswith('{"id": 11')

    def test_replay_without_dead_letters_is_a_no_op(self):
        system = make_system()
        adapter = GeneratorAdapter(raws_with_malformed(10, set()))
        system.start_feed("TweetFeed", adapter, batch_size=5)
        result = system.replay_dead_letters("TweetFeed")
        assert result.replayed == 0
        assert result.run is None

    def test_escalating_policy_falls_back_to_per_row_replay(self):
        system = self._ingest_with_failures()
        dead_letters = system.catalog["TweetFeed_DeadLetters"]
        before = sorted(row["dl_id"] for row in dead_letters.scan())
        # a fail-fast policy aborts the whole-batch replay on the first
        # still-bad row; the pass falls back to row-at-a-time replay and
        # re-dead-letters each failure instead of raising
        result = system.replay_dead_letters(
            "TweetFeed", policy=FeedPolicy.basic()
        )
        assert result.replayed == 2
        assert result.records_stored == 0
        assert result.still_dead == 2
        after = sorted(row["dl_id"] for row in dead_letters.scan())
        assert after == before  # original dl_ids survive the round-trip

    def test_partial_repair_survives_escalating_policy(self):
        # One repaired row, one still-broken row, fail-fast policy: the
        # old behavior aborted the whole pass; now the good row lands and
        # only the bad one returns to the dead-letter dataset.
        system = self._ingest_with_failures()
        dead_letters = system.catalog["TweetFeed_DeadLetters"]
        for row in list(dead_letters.scan()):
            if row["seq"] == 4:
                repaired = dict(row)
                repaired["raw"] = json.dumps({"id": 4})
                dead_letters.upsert(repaired)
        result = system.replay_dead_letters(
            "TweetFeed", policy=FeedPolicy.basic()
        )
        assert result.records_stored == 1
        assert result.still_dead == 1
        assert 4 in system.query("SELECT VALUE t.id FROM Tweets t")

    def test_replay_failures_carry_attempts_and_classification(self):
        system = self._ingest_with_failures(bad_ids={4})
        dead_letters = system.catalog["TweetFeed_DeadLetters"]
        first = system.replay_dead_letters("TweetFeed", batch_size=5)
        assert first.permanent_failures == 1
        assert first.retryable_failures == 0
        (residue,) = list(dead_letters.scan())
        assert residue["attempts"] == 1
        assert residue["retryable"] is False
        # a second pass without repair bumps the counter again
        second = system.replay_dead_letters("TweetFeed", batch_size=5)
        assert second.permanent_failures == 1
        (residue,) = list(dead_letters.scan())
        assert residue["attempts"] == 2

    def test_classify_replay_error(self):
        assert classify_replay_error(AdmParseError("bad")) == "permanent"
        assert (
            classify_replay_error(CircuitBreakerError("F", 3, 2))
            == "retryable"
        )
        assert classify_replay_error("AdmParseError: boom") == "permanent"
        assert (
            classify_replay_error("ExternalEnrichmentError: down")
            == "retryable"
        )

    def test_replay_report_carries_provenance(self):
        system = self._ingest_with_failures(bad_ids={3})
        dead_letters = system.catalog["TweetFeed_DeadLetters"]
        for row in list(dead_letters.scan()):
            repaired = dict(row)
            repaired["raw"] = json.dumps({"id": row["seq"]})
            dead_letters.upsert(repaired)
        result = system.replay_dead_letters("TweetFeed")
        assert result.dead_letter_dataset == "TweetFeed_DeadLetters"
        assert result.replayed_ids == ["parse#3"]
        assert result.run is not None
        assert result.run.records_stored == 1


TYPED_DDL = """
    CREATE TYPE TweetType AS OPEN {
        id: int64, created_at: datetime, location: point
    };
    CREATE DATASET Tweets(TweetType) PRIMARY KEY id;
"""
QUOTIENT = "CREATE FUNCTION quotient(t) {{ LET q = {expr} SELECT t.*, q }}"
RAISING = "6 / (t.id % 3)"  # ZeroDivisionError on ids 0 and 3
REPAIRED = "CASE t.id % 3 = 0 WHEN true THEN 0 ELSE 6 / (t.id % 3) END"


def typed_raws(n):
    return [
        json.dumps(
            {
                "id": i,
                "created_at": f"2019-03-01T10:0{i}:00Z",
                "location": [1.5 + i, 2.5],
                "user": f"u{i}",
            }
        )
        for i in range(n)
    ]


def stored_bytes(system):
    rows = sorted(system.catalog["Tweets"].scan(), key=lambda row: row["id"])
    return [serialize(row) for row in rows]


class TestReplayOfParsedRecords:
    """A dead letter written past the parser carries the record's ADM
    serialization, so its datetime and point fields parse back and the
    replay stores exactly what a run without the failure stores."""

    def _udf_system(self, body):
        system = AsterixLite(num_nodes=2)
        system.execute(TYPED_DDL)
        system.create_function(QUOTIENT.format(expr=body))
        system.create_feed("TweetFeed", {"type-name": "TweetType"})
        system.connect_feed(
            "TweetFeed", "Tweets", ["quotient"], policy=FeedPolicy.spill()
        )
        return system

    def _external_system(self):
        system = AsterixLite(num_nodes=2)
        system.execute(TYPED_DDL)
        system.create_feed("TweetFeed", {"type-name": "TweetType"})
        enricher = ExternalEnricher("geo", lookup=lambda key: {"user": key})
        system.connect_feed(
            "TweetFeed",
            "Tweets",
            policy=FeedPolicy.spill(
                external_on_failure=ExternalFailureAction.DEAD_LETTER
            ),
            external_enrichers=[EnricherBinding(enricher, "user", "user_geo")],
        )
        return system

    def test_udf_stage_dead_letters_replay_to_a_clean_runs_bytes(self):
        system = self._udf_system(RAISING)
        report = system.start_feed(
            "TweetFeed", GeneratorAdapter(typed_raws(6)), batch_size=6
        )
        assert report.records_stored == 4
        assert report.faults.records_dead_lettered == 2
        system.registry.replace_sqlpp(QUOTIENT.format(expr=REPAIRED))

        result = system.replay_dead_letters("TweetFeed", batch_size=6)
        assert (result.replayed, result.records_stored, result.still_dead) == (
            2,
            2,
            0,
        )
        clean = self._udf_system(REPAIRED)
        clean.start_feed("TweetFeed", GeneratorAdapter(typed_raws(6)), batch_size=6)
        assert stored_bytes(system) == stored_bytes(clean)

    def test_external_stage_dead_letters_replay_to_a_clean_runs_bytes(self):
        system = self._external_system()
        outage = FaultPlan(
            enricher_faults=[EnricherOutage("geo", at=0.0, duration=1e9)]
        )
        report = system.start_feed(
            "TweetFeed",
            GeneratorAdapter(typed_raws(4)),
            batch_size=4,
            fault_plan=outage,
        )
        assert report.external.records_dead_lettered == 4

        result = system.replay_dead_letters("TweetFeed", batch_size=4)
        assert (result.replayed, result.records_stored, result.still_dead) == (
            4,
            4,
            0,
        )
        clean = self._external_system()
        clean.start_feed("TweetFeed", GeneratorAdapter(typed_raws(4)), batch_size=4)
        assert stored_bytes(system) == stored_bytes(clean)
