"""External enrichment: resilient batched clients on the simulated clock."""

import json

import pytest

from repro.core import AsterixLite
from repro.errors import ExternalEnrichmentError, IngestionError
from repro.ingestion import (
    PENDING_FIELD,
    CircuitBreaker,
    EnricherBinding,
    EnrichmentCoordinator,
    ExternalEnricher,
    ExternalFailureAction,
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


def geo_lookup(key):
    return {"user": key, "region": f"r{len(str(key)) % 3}"}


def make_system(policy=None, enricher=None, fault_plan=None):
    system = AsterixLite(num_nodes=2)
    system.execute(
        """
        CREATE TYPE TweetType AS OPEN { id: int64 };
        CREATE DATASET Tweets(TweetType) PRIMARY KEY id;
        """
    )
    system.create_feed("TweetFeed", {"type-name": "TweetType"})
    enricher = enricher or ExternalEnricher("geo", lookup=geo_lookup)
    binding = EnricherBinding(enricher, "user", "user_geo")
    system.connect_feed(
        "TweetFeed",
        "Tweets",
        policy=policy or FeedPolicy.spill(),
        external_enrichers=[binding],
    )
    return system, enricher, binding


def raws(n, cardinality=10):
    return [
        json.dumps({"id": i, "user": f"u{i % cardinality}"}) for i in range(n)
    ]


class TestExternalEnricher:
    def test_healthy_call_resolves_every_key(self):
        enricher = ExternalEnricher("geo", lookup=geo_lookup)
        result = enricher.call(["u1", "u2"], now=0.0, deadline=1.0)
        assert result.outcome == "ok"
        assert set(result.results) == {"u1", "u2"}
        assert result.results["u1"]["region"].startswith("r")
        assert 0.0 < result.latency < 1.0

    def test_latency_is_deterministic_per_call_index(self):
        def five_calls(seed):
            enricher = ExternalEnricher("geo", seed=seed)
            return [enricher.call(["k"], now=0.0, deadline=1.0) for _ in range(5)]

        assert five_calls(7) == five_calls(7)
        # a different seed perturbs the jitter stream
        assert five_calls(8) != five_calls(7)

    def test_deadline_turns_slow_call_into_timeout(self):
        enricher = ExternalEnricher("geo", base_latency_seconds=0.5)
        result = enricher.call(["k"], now=0.0, deadline=0.05)
        assert result.outcome == "timeout"
        assert result.latency == pytest.approx(0.05)  # burns the deadline

    def test_outage_modes(self):
        plan = FaultPlan(
            enricher_faults=[
                EnricherOutage("geo", at=0.0, duration=1.0, mode="error"),
                EnricherOutage(
                    "geo",
                    at=2.0,
                    duration=1.0,
                    mode="rate_limit",
                    retry_after_seconds=0.2,
                ),
            ]
        )
        enricher = ExternalEnricher("geo")
        assert enricher.call(["k"], 0.5, 1.0, plan).outcome == "error"
        limited = enricher.call(["k"], 2.5, 1.0, plan)
        assert limited.outcome == "rate_limited"
        assert limited.retry_after == pytest.approx(0.2)
        # outside both windows the enricher is healthy
        assert enricher.call(["k"], 4.0, 1.0, plan).outcome == "ok"

    def test_slowdown_scales_latency(self):
        plan = FaultPlan(
            enricher_faults=[
                EnricherSlowdown("geo", at=0.0, duration=1.0, factor=100.0)
            ]
        )
        enricher = ExternalEnricher("geo", base_latency_seconds=0.005)
        slow = enricher.call(["k"], 0.5, deadline=10.0, fault_plan=plan)
        fast = enricher.call(["k"], 5.0, deadline=10.0, fault_plan=plan)
        assert slow.latency > 50 * fast.latency

    def test_flaky_fails_a_deterministic_subset(self):
        plan = FaultPlan(
            enricher_faults=[EnricherFlaky("geo", rate=0.5, mode="error")]
        )
        outcomes = []
        for run in range(2):
            enricher = ExternalEnricher("geo", seed=3)
            outcomes.append(
                [
                    enricher.call(["k"], 0.0, 1.0, plan).outcome
                    for _ in range(20)
                ]
            )
        assert outcomes[0] == outcomes[1]  # same calls fail on both runs
        assert "error" in outcomes[0] and "ok" in outcomes[0]


def entered(breaker, state):
    return [event.detail["state"] for event in breaker.events].count(state)


class TestCircuitBreaker:
    def _breaker(self, threshold=3, reset=1.0, probes=1):
        return CircuitBreaker(threshold, reset, probes)

    def test_opens_at_threshold_and_fails_fast(self):
        breaker = self._breaker(threshold=3)
        for t in range(3):
            assert breaker.allow(float(t))
            breaker.on_failure(float(t))
        assert breaker.state == CircuitBreaker.OPEN
        assert entered(breaker, CircuitBreaker.OPEN) == 1
        assert not breaker.allow(2.5)  # inside the cool-off: fail fast

    def test_half_open_probe_success_closes(self):
        breaker = self._breaker(threshold=1, reset=1.0)
        breaker.allow(0.0)
        breaker.on_failure(0.0)
        assert breaker.allow(1.5)  # past the cool-off: probe admitted
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.on_success(1.6)
        assert breaker.state == CircuitBreaker.CLOSED
        assert entered(breaker, CircuitBreaker.HALF_OPEN) == 1
        assert entered(breaker, CircuitBreaker.CLOSED) == 1

    def test_half_open_probe_failure_reopens(self):
        breaker = self._breaker(threshold=1, reset=1.0)
        breaker.on_failure(0.0)
        breaker.allow(1.5)
        breaker.on_failure(1.6)
        assert breaker.state == CircuitBreaker.OPEN
        assert entered(breaker, CircuitBreaker.OPEN) == 2
        assert not breaker.allow(2.0)  # new cool-off starts at the reopen
        assert breaker.allow(2.7)

    def test_probe_budget_bounds_half_open_admissions(self):
        breaker = self._breaker(threshold=1, reset=1.0, probes=2)
        breaker.on_failure(0.0)
        assert breaker.allow(1.5)
        assert breaker.allow(1.5)
        assert not breaker.allow(1.5)  # probe budget exhausted

    def test_zero_threshold_disables(self):
        breaker = self._breaker(threshold=0)
        for t in range(50):
            breaker.on_failure(float(t))
            assert breaker.allow(float(t))
        assert entered(breaker, CircuitBreaker.OPEN) == 0

    def test_transitions_are_recorded(self):
        breaker = self._breaker(threshold=1, reset=1.0)
        breaker.on_failure(0.5)
        breaker.allow(2.0)
        breaker.on_success(2.1)
        assert [(event.at, event.detail["state"]) for event in breaker.events] == [
            (0.5, "open"),
            (2.0, "half_open"),
            (2.1, "closed"),
        ]

    def test_without_a_reset_it_never_half_opens(self):
        # the soft-error handler's configuration: once open, it stays open
        breaker = CircuitBreaker(2)
        breaker.on_failure()
        breaker.on_failure()
        assert not breaker.allow(1e9)
        assert breaker.state == CircuitBreaker.OPEN
        assert entered(breaker, CircuitBreaker.HALF_OPEN) == 0


class TestCoordinator:
    def _coordinator(self, policy=None, fault_plan=None, enricher=None):
        enricher = enricher or ExternalEnricher("geo", lookup=geo_lookup)
        binding = EnricherBinding(enricher, "user", "user_geo")
        coordinator = EnrichmentCoordinator(
            [binding],
            policy or FeedPolicy.spill(),
            fault_plan=fault_plan,
            feed_name="F",
        )
        return coordinator, enricher

    def _records(self, n, cardinality):
        return [{"id": i, "user": f"u{i % cardinality}"} for i in range(n)]

    def _calls(self, coordinator):
        """``(start, outcome, latency)`` of each call event, in call order."""
        return [
            (e.at, e.detail["outcome"], e.detail["latency"])
            for e in coordinator.events
            if e.kind == "call"
        ]

    def test_keys_are_deduped_per_batch(self):
        coordinator, enricher = self._coordinator()
        records = self._records(60, cardinality=5)
        coordinator.enrich_batch([records], now=0.0)
        assert enricher.calls == 1  # 5 distinct keys -> one chunk
        assert coordinator.finalize().keys_requested == 5
        assert all(r["user_geo"]["user"] == r["user"] for r in records)

    def test_chunking_splits_large_key_sets(self):
        coordinator, enricher = self._coordinator()
        keys = 2 * CHUNK_SIZE + 1
        coordinator.enrich_batch(
            [self._records(2 * keys, cardinality=keys)], now=0.0
        )
        assert enricher.calls == 3  # ceil(keys / CHUNK_SIZE)
        assert coordinator.finalize().keys_requested == keys

    def test_bounded_concurrency_shortens_fanout(self):
        # one chunk per lane: the fan-out takes about one call, not the sum
        coordinator, enricher = self._coordinator()
        keys = CONCURRENT_CALLS * CHUNK_SIZE
        elapsed = coordinator.enrich_batch(
            [self._records(keys, cardinality=keys)], now=0.0
        )
        assert enricher.calls == CONCURRENT_CALLS
        calls = self._calls(coordinator)
        assert {start for start, _o, _l in calls} == {0.0}  # lanes start at once
        assert elapsed == max(latency for _s, _o, latency in calls)
        assert coordinator.finalize().call_seconds / elapsed > 2.0
        # one chunk more than lanes waits for the earliest-free lane
        coordinator, enricher = self._coordinator()
        coordinator.enrich_batch(
            [self._records(keys + 1, cardinality=keys + 1)], now=0.0
        )
        calls = self._calls(coordinator)
        first = min(latency for _s, _o, latency in calls[:-1])
        assert calls[-1][0] == pytest.approx(first)

    def test_retries_back_off_then_succeed(self):
        # one flaky window long enough that some chunks need a retry
        plan = FaultPlan(
            enricher_faults=[EnricherFlaky("geo", rate=0.4, mode="error")]
        )
        coordinator, _ = self._coordinator(
            policy=FeedPolicy.spill(external_max_attempts=5),
            fault_plan=plan,
        )
        records = self._records(10 * CHUNK_SIZE, cardinality=10 * CHUNK_SIZE)
        coordinator.enrich_batch([records], now=0.0)
        m = coordinator.finalize()
        assert m.errors > 0
        assert m.retries > 0
        assert m.backoff_seconds > 0
        assert all(r["user_geo"] is not None for r in records)
        assert coordinator.completeness == 1.0

    def test_retry_budget_exhaustion_marks_pending(self):
        plan = FaultPlan(
            enricher_faults=[EnricherOutage("geo", at=0.0, duration=1e9)]
        )
        coordinator, _ = self._coordinator(
            policy=FeedPolicy.spill(external_breaker_failures=0),
            fault_plan=plan,
        )
        records = self._records(10, cardinality=2)
        coordinator.enrich_batch([records], now=0.0)
        assert all(r["user_geo"] is None for r in records)
        assert all(r[PENDING_FIELD] == ["geo:user_geo"] for r in records)
        assert coordinator.completeness == 0.0

    def test_open_breaker_fails_fast_without_calls(self):
        plan = FaultPlan(
            enricher_faults=[EnricherOutage("geo", at=0.0, duration=1e9)]
        )
        coordinator, enricher = self._coordinator(
            policy=FeedPolicy.spill(
                external_breaker_failures=2,
                external_max_attempts=1,
            ),
            fault_plan=plan,
        )
        keys = 10 * CHUNK_SIZE  # ten chunks
        coordinator.enrich_batch([self._records(keys, cardinality=keys)], now=0.0)
        m = coordinator.finalize()
        assert m.fail_fast == 8  # 2 real failures open it; 8 chunks skip
        assert enricher.calls == 2
        assert m.breaker_opens == 1

    def test_records_without_key_pass_through(self):
        coordinator, enricher = self._coordinator()
        records = [{"id": 1}, {"id": 2, "user": "u1"}]
        coordinator.enrich_batch([records], now=0.0)
        assert "user_geo" not in records[0]
        assert records[1]["user_geo"]["user"] == "u1"
        assert coordinator.completeness == 1.0


class TestFeedIntegration:
    def test_healthy_feed_enriches_every_record(self):
        system, _e, _b = make_system()
        report = system.start_feed(
            "TweetFeed", GeneratorAdapter(raws(100)), batch_size=25
        )
        assert report.records_stored == 100
        assert report.enrichment_completeness == 1.0
        assert report.external.records_enriched == 100
        # dedup across records: 4 batches x 10 distinct keys
        assert report.external.keys_requested == 40
        rows = list(system.catalog["Tweets"].scan())
        assert all(r["user_geo"]["user"] == r["user"] for r in rows)
        assert report.runtime.external is report.external

    def test_external_time_lands_on_the_makespan(self):
        system, _e, _b = make_system()
        baseline_system = AsterixLite(num_nodes=2)
        baseline_system.execute(
            """
            CREATE TYPE TweetType AS OPEN { id: int64 };
            CREATE DATASET Tweets(TweetType) PRIMARY KEY id;
            """
        )
        baseline_system.create_feed("TweetFeed", {"type-name": "TweetType"})
        baseline_system.connect_feed(
            "TweetFeed", "Tweets", policy=FeedPolicy.spill()
        )
        enriched = system.start_feed(
            "TweetFeed", GeneratorAdapter(raws(100)), batch_size=25
        )
        plain = baseline_system.start_feed(
            "TweetFeed", GeneratorAdapter(raws(100)), batch_size=25
        )
        assert enriched.simulated_seconds > plain.simulated_seconds

    def test_hard_down_marks_pending_and_backfills(self):
        system, _e, _b = make_system()
        plan = FaultPlan(
            enricher_faults=[EnricherOutage("geo", at=0.0, duration=1e9)]
        )
        report = system.start_feed(
            "TweetFeed",
            GeneratorAdapter(raws(100)),
            batch_size=25,
            fault_plan=plan,
        )
        # ingestion held: every record stored, enrichment degraded
        assert report.records_stored == 100
        assert report.enrichment_completeness == 0.0
        assert report.external.records_pending == 100
        assert report.external.breaker_opens >= 1
        rows = list(system.catalog["Tweets"].scan())
        assert all(r[PENDING_FIELD] == ["geo:user_geo"] for r in rows)
        assert all(r["user_geo"] is None for r in rows)
        # the remote recovers: the catch-up pass clears every marker
        backfill = system.backfill_pending("TweetFeed")
        assert backfill.scanned == 100
        assert backfill.backfilled == 100
        assert backfill.still_pending == 0
        assert backfill.completeness == 1.0
        rows = list(system.catalog["Tweets"].scan())
        assert all(PENDING_FIELD not in r for r in rows)
        assert all(r["user_geo"]["user"] == r["user"] for r in rows)

    def test_dead_letter_action_routes_records_with_provenance(self):
        policy = FeedPolicy.spill(
            external_on_failure=ExternalFailureAction.DEAD_LETTER
        )
        system, _e, _b = make_system(policy=policy)
        plan = FaultPlan(
            enricher_faults=[EnricherOutage("geo", at=0.0, duration=1e9)]
        )
        report = system.start_feed(
            "TweetFeed",
            GeneratorAdapter(raws(20)),
            batch_size=5,
            fault_plan=plan,
        )
        assert report.records_stored == 0
        assert report.external.records_dead_lettered == 20
        dead = list(system.catalog["TweetFeed_DeadLetters"].scan())
        assert len(dead) == 20
        entry = dead[0]
        assert entry["stage"] == "external"
        assert entry["enrichers"] == ["geo:user_geo"]
        assert "error" in entry["error"] or entry["error"]
        # zero loss: every ingested id is accounted for in the dl dataset
        ids = sorted(json.loads(r["raw"])["id"] for r in dead)
        assert ids == list(range(20))
        # the remote recovers: replay pushes them through the full pipeline
        result = system.replay_dead_letters("TweetFeed", batch_size=5)
        assert result.records_stored == 20
        assert result.still_dead == 0
        rows = list(system.catalog["Tweets"].scan())
        assert len(rows) == 20
        assert all(r["user_geo"]["user"] == r["user"] for r in rows)

    def test_fail_action_escalates(self):
        policy = FeedPolicy.spill(
            external_on_failure=ExternalFailureAction.FAIL
        )
        system, _e, _b = make_system(policy=policy)
        plan = FaultPlan(
            enricher_faults=[EnricherOutage("geo", at=0.0, duration=1e9)]
        )
        with pytest.raises(ExternalEnrichmentError):
            system.start_feed(
                "TweetFeed",
                GeneratorAdapter(raws(20)),
                batch_size=5,
                fault_plan=plan,
            )

    def test_breaker_recovers_within_a_run(self):
        # outage covers the first batches; the breaker opens, half-opens
        # after the cool-off, closes on a healthy probe, and late batches
        # enrich normally
        policy = FeedPolicy.spill(
            external_breaker_failures=2,
            external_breaker_reset_seconds=0.01,
            external_max_attempts=1,
        )
        system, enricher, binding = make_system(policy=policy)
        plan = FaultPlan(
            enricher_faults=[EnricherOutage("geo", at=0.0, duration=0.02)]
        )
        report = system.start_feed(
            "TweetFeed",
            GeneratorAdapter(raws(400)),
            batch_size=25,
            fault_plan=plan,
        )
        external = report.external
        assert external.breaker_opens >= 1
        assert external.breaker_half_opens >= 1
        assert external.breaker_closes >= 1
        assert 0.0 < report.enrichment_completeness < 1.0
        backfill = system.backfill_pending("TweetFeed")
        assert backfill.completeness == 1.0

    def test_fault_windows_are_run_relative(self):
        """An enricher outage at ``at=0.0`` starts with each run, as a
        ``CrashAt`` does: a second run of the feed on the same system (its
        shared clock already past the window) sees the outage again."""
        policy = FeedPolicy.spill(
            external_breaker_failures=2,
            external_breaker_reset_seconds=0.01,
            external_max_attempts=1,
        )
        system, _e, _b = make_system(policy=policy)
        runs = []
        for _ in range(2):
            report = system.start_feed(
                "TweetFeed",
                GeneratorAdapter(raws(400)),
                batch_size=25,
                fault_plan=FaultPlan(
                    enricher_faults=[EnricherOutage("geo", at=0.0, duration=0.02)]
                ),
            )
            runs.append(
                (report.external.breaker_opens, report.enrichment_completeness)
            )
        assert runs[0] == runs[1]
        assert runs[0][0] >= 1 and runs[0][1] < 1.0

    def test_static_framework_rejects_external_enrichers(self):
        system, _e, _b = make_system()
        with pytest.raises(IngestionError):
            system.start_feed(
                "TweetFeed",
                GeneratorAdapter(raws(10)),
                framework="static",
            )

    def test_default_off_feed_reports_no_external_metrics(self):
        system = AsterixLite(num_nodes=2)
        system.execute(
            """
            CREATE TYPE TweetType AS OPEN { id: int64 };
            CREATE DATASET Tweets(TweetType) PRIMARY KEY id;
            """
        )
        system.create_feed("TweetFeed", {"type-name": "TweetType"})
        system.connect_feed("TweetFeed", "Tweets", policy=FeedPolicy.spill())
        report = system.start_feed(
            "TweetFeed", GeneratorAdapter(raws(50)), batch_size=25
        )
        assert report.external is None
        assert report.enrichment_completeness == 1.0
        assert report.runtime.external is None

    def test_backfill_without_enrichers_raises(self):
        system = AsterixLite(num_nodes=2)
        system.execute(
            """
            CREATE TYPE TweetType AS OPEN { id: int64 };
            CREATE DATASET Tweets(TweetType) PRIMARY KEY id;
            """
        )
        system.create_feed("TweetFeed", {"type-name": "TweetType"})
        system.connect_feed("TweetFeed", "Tweets")
        with pytest.raises(IngestionError):
            system.backfill_pending("TweetFeed")
