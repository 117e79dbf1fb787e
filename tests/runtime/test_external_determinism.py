"""Enricher fault plans and byte-identical external enrichment replays."""

import json

import pytest

from repro.core import AsterixLite
from repro.ingestion import (
    EnricherBinding,
    EnrichmentCoordinator,
    ExternalEnricher,
    FeedPolicy,
    GeneratorAdapter,
)
from repro.ingestion.external import CHUNK_SIZE, CONCURRENT_CALLS
from repro.runtime import (
    EnricherFlaky,
    EnricherOutage,
    EnricherSlowdown,
    FaultPlan,
)


class TestEnricherFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            EnricherOutage("geo", at=-1.0, duration=1.0)
        with pytest.raises(ValueError):
            EnricherOutage("geo", at=0.0, duration=1.0, mode="explode")
        with pytest.raises(ValueError):
            EnricherSlowdown("geo", at=0.0, duration=1.0, factor=0.0)
        with pytest.raises(ValueError):
            EnricherFlaky("geo", rate=1.5)

    def test_enricher_faults_count_against_empty(self):
        assert FaultPlan().empty
        plan = FaultPlan(
            enricher_faults=[EnricherOutage("geo", at=0.0, duration=1.0)]
        )
        assert not plan.empty

    def test_outage_window_is_half_open_and_name_scoped(self):
        outage = EnricherOutage("geo", at=1.0, duration=2.0)
        plan = FaultPlan(enricher_faults=[outage])
        assert plan.enricher_outage("geo", 0.9) is None
        assert plan.enricher_outage("geo", 1.0) is outage
        assert plan.enricher_outage("geo", 2.9) is outage
        assert plan.enricher_outage("geo", 3.0) is None
        assert plan.enricher_outage("ip", 1.5) is None

    def test_earliest_listed_outage_wins_on_overlap(self):
        first = EnricherOutage("geo", at=0.0, duration=5.0, mode="error")
        second = EnricherOutage("geo", at=1.0, duration=5.0, mode="timeout")
        plan = FaultPlan(enricher_faults=[first, second])
        assert plan.enricher_outage("geo", 2.0) is first

    def test_overlapping_slowdowns_compound(self):
        plan = FaultPlan(
            enricher_faults=[
                EnricherSlowdown("geo", at=0.0, duration=2.0, factor=3.0),
                EnricherSlowdown("geo", at=1.0, duration=2.0, factor=4.0),
            ]
        )
        assert plan.enricher_latency_factor("geo", 0.5) == pytest.approx(3.0)
        assert plan.enricher_latency_factor("geo", 1.5) == pytest.approx(12.0)
        assert plan.enricher_latency_factor("geo", 2.5) == pytest.approx(4.0)
        assert plan.enricher_latency_factor("geo", 9.0) == pytest.approx(1.0)

    def test_flaky_defaults_to_an_unbounded_window(self):
        flaky = EnricherFlaky("geo", rate=0.3)
        plan = FaultPlan(enricher_faults=[flaky])
        assert plan.enricher_flaky("geo", 0.0) is flaky
        assert plan.enricher_flaky("geo", 1e12) is flaky
        assert plan.enricher_flaky("other", 0.0) is None


def chaos_plan():
    return FaultPlan(
        enricher_faults=[
            EnricherOutage("geo", at=0.0, duration=0.02, mode="error"),
            EnricherSlowdown("geo", at=0.03, duration=0.02, factor=20.0),
            EnricherFlaky("geo", rate=0.3, mode="timeout", at=0.05),
        ]
    )


class TestCoordinatorDeterminism:
    def _run_once(self):
        enricher = ExternalEnricher("geo", seed=11)
        coordinator = EnrichmentCoordinator(
            [EnricherBinding(enricher, "user", "user_geo")],
            FeedPolicy.spill(
                external_breaker_failures=2,
                external_breaker_reset_seconds=0.01,
                external_max_attempts=2,
            ),
            fault_plan=chaos_plan(),
            feed_name="F",
        )
        elapsed = []
        keys = CONCURRENT_CALLS * CHUNK_SIZE  # a chunk on every lane
        for batch in range(6):
            records = [
                {"id": batch * 2 * keys + i, "user": f"u{i % keys}"}
                for i in range(2 * keys)
            ]
            elapsed.append(
                coordinator.enrich_batch([records], now=batch * 0.012)
            )
        return {
            "events": coordinator.events,
            "metrics": coordinator.finalize().as_dict(),
            "elapsed": elapsed,
            "completeness": coordinator.completeness,
        }

    def test_identical_runs_replay_byte_identically(self):
        a, b = self._run_once(), self._run_once()
        assert json.dumps(a, sort_keys=True, default=str) == json.dumps(
            b, sort_keys=True, default=str
        )
        # the run actually exercised the stack it claims to replay
        assert a["metrics"]["retries"] > 0
        assert a["metrics"]["breaker_opens"] >= 1
        assert {
            e.detail["state"]
            for e in a["events"]
            if e.kind == "breaker" and e.subject == "geo"
        } >= {"open", "half_open"}

    def test_enricher_seed_perturbs_the_schedule(self):
        def with_seed(seed):
            enricher = ExternalEnricher("geo", seed=seed)
            coordinator = EnrichmentCoordinator(
                [EnricherBinding(enricher, "user", "user_geo")],
                FeedPolicy.spill(),
                fault_plan=FaultPlan(
                    enricher_faults=[EnricherFlaky("geo", rate=0.5)]
                ),
            )
            records = [{"id": i, "user": f"u{i}"} for i in range(20)]
            coordinator.enrich_batch([records], now=0.0)
            return [e for e in coordinator.events if e.kind == "call"]

        assert with_seed(1) == with_seed(1)
        assert with_seed(1) != with_seed(2)


class TestFeedDeterminism:
    def _run_feed(self):
        system = AsterixLite(num_nodes=2)
        system.execute(
            """
            CREATE TYPE TweetType AS OPEN { id: int64 };
            CREATE DATASET Tweets(TweetType) PRIMARY KEY id;
            """
        )
        system.create_feed("TweetFeed", {"type-name": "TweetType"})
        enricher = ExternalEnricher("geo", seed=5)
        system.connect_feed(
            "TweetFeed",
            "Tweets",
            policy=FeedPolicy.spill(
                external_breaker_failures=2,
                external_breaker_reset_seconds=0.01,
                external_max_attempts=2,
            ),
            external_enrichers=[EnricherBinding(enricher, "user", "user_geo")],
        )
        raws = [
            json.dumps({"id": i, "user": f"u{i % 9}"}) for i in range(200)
        ]
        report = system.start_feed(
            "TweetFeed",
            GeneratorAdapter(raws),
            batch_size=25,
            fault_plan=chaos_plan(),
        )
        rows = [
            json.dumps(r, sort_keys=True, default=str)
            for r in system.catalog["Tweets"].scan()
        ]
        return {
            "external": report.external.as_dict(),
            "faults": report.faults.as_dict(),
            "simulated_seconds": report.simulated_seconds,
            "completeness": report.enrichment_completeness,
            "stored": rows,
            "calls": [e for e in report.runtime.events if e.kind == "call"],
        }

    def test_feed_runs_with_identical_plans_are_byte_identical(self):
        a, b = self._run_feed(), self._run_feed()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        # chaos really happened and ingestion still held every record
        assert a["external"]["errors"] > 0
        assert len(a["stored"]) == 200
