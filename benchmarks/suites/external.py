"""External-enrichment benchmark: resilience under scripted remote faults.

Every scenario drives a full feed whose records fan out through an
:class:`~repro.ingestion.external.ExternalEnricher` behind the complete
resilience stack (deadline, retry/backoff, rate limiting, circuit
breaker).  Remote misbehavior is scripted on the feed's
:class:`~repro.runtime.faults.FaultPlan` (``EnricherOutage`` /
``EnricherSlowdown`` / ``EnricherFlaky``), so — like the chaos suite —
this is *not* a flaky stress test: each scenario runs twice and must
produce byte-identical external counters and makespans.

Invariants proven per run:

* **zero acked loss** — every input record ends up stored (possibly
  with a pending marker) or dead-lettered with provenance; nothing
  vanishes, no matter how broken the remote is;
* **determinism** — repeated runs are byte-identical;
* **every record accounted** — enriched + pending + dead-lettered
  covers every enrichment-requiring record;

and across scenarios:

* **monotone degradation** — completeness orders healthy ≥ flaky ≥
  partial outage ≥ hard-down;
* **breaker pays for itself** — a hard-down run with the breaker fails
  fast and finishes in less simulated time than the same run without it;
* **breaker recovery** — a mid-run outage drives the breaker through
  open → half-open → closed and the feed finishes enriching;
* **backfill restores completeness** — after the remote recovers,
  :func:`~repro.ingestion.external.backfill_pending` drives a degraded
  dataset back to completeness 1.0, and replay re-ingests dead-lettered
  records.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.core.system import AsterixLite
from repro.ingestion.adapter import GeneratorAdapter
from repro.ingestion.external import EnricherBinding, ExternalEnricher
from repro.ingestion.policy import ExternalFailureAction, FeedPolicy
from repro.runtime.faults import (
    EnricherFlaky,
    EnricherOutage,
    EnricherSlowdown,
    FaultPlan,
)

from .common import raw_records

FULL = (2000, 200)  # (records, batch_size)
SMOKE = (600, 100)
FEED = "GeoFeed"
DATASET = "GeoTweets"
ENRICHER = "geo"
KEY_CARDINALITY = 40  # distinct probe keys — exercises per-batch dedup


def _geo_lookup(key):
    return {"user": key, "region": f"r{len(str(key)) % 5}"}


def _run_feed(
    records: int,
    batch_size: int,
    policy: FeedPolicy,
    plan: Optional[FaultPlan],
):
    system = AsterixLite(num_nodes=2)
    system.execute(
        """
        CREATE TYPE GeoTweetType AS OPEN { id: int64, user: string };
        CREATE DATASET GeoTweets(GeoTweetType) PRIMARY KEY id;
        """
    )
    system.create_feed(FEED, {"type-name": "GeoTweetType"})
    enricher = ExternalEnricher(ENRICHER, lookup=_geo_lookup)
    system.connect_feed(
        FEED,
        DATASET,
        policy=policy,
        external_enrichers=[EnricherBinding(enricher, "user", "user_geo")],
    )
    adapter = GeneratorAdapter(
        raw_records(
            records, lambda i: {"id": i, "user": f"u{i % KEY_CARDINALITY}"}
        )
    )
    report = system.start_feed(
        FEED, adapter, batch_size=batch_size, fault_plan=plan
    )
    return system, report


def _signature(report) -> str:
    """Everything that must be byte-identical across repeated runs."""
    return json.dumps(
        {
            "external": report.external.as_dict(),
            "faults": report.faults.as_dict(),
            "simulated_seconds": report.simulated_seconds,
            "completeness": report.enrichment_completeness,
        },
        sort_keys=True,
    )


def _accounted(system, report, records: int) -> Dict[str, bool]:
    """The per-scenario loss/accounting invariants."""
    stored_ids = set(system.query(f"SELECT VALUE t.id FROM {DATASET} t"))
    dl_name = f"{FEED}_DeadLetters"
    dead = (
        list(system.catalog[dl_name].scan())
        if dl_name in system.catalog
        else []
    )
    dead_ids = {json.loads(row["raw"])["id"] for row in dead}
    external = report.external
    return {
        "zero_acked_loss": stored_ids | dead_ids == set(range(records)),
        "every_record_accounted": (
            external.records_enriched
            + external.records_pending
            + external.records_dead_lettered
            == records
        ),
    }


def _scenarios(healthy_makespan: float) -> List[Dict]:
    """Fault schedules scaled to the measured healthy makespan ``H``."""
    H = healthy_makespan
    return [
        {
            "name": "healthy",
            "description": "remote up: completeness 1.0, zero retries",
            "policy": FeedPolicy.spill(),
            "plan": None,
        },
        {
            "name": "flaky_remote",
            "description": "40% of calls error; retries absorb the noise",
            "policy": FeedPolicy.spill(external_max_attempts=6),
            "plan": FaultPlan(
                enricher_faults=(EnricherFlaky(ENRICHER, rate=0.4),)
            ),
        },
        {
            "name": "slow_remote",
            "description": "a 60x slowdown window pushes calls past the "
            "deadline; timeouts burn it, late batches recover",
            "policy": FeedPolicy.spill(
                external_breaker_reset_seconds=0.05 * H
            ),
            "plan": FaultPlan(
                enricher_faults=(
                    EnricherSlowdown(
                        ENRICHER, at=0.0, duration=0.4 * H, factor=60.0
                    ),
                )
            ),
        },
        {
            "name": "outage_recovery",
            "description": "the remote is down for the first part of the "
            "run: the breaker opens, half-opens after the cool-off, and "
            "closes on a healthy probe",
            "policy": FeedPolicy.spill(
                external_max_attempts=2,
                external_breaker_failures=3,
                external_breaker_reset_seconds=0.05 * H,
            ),
            "plan": FaultPlan(
                enricher_faults=(
                    EnricherOutage(ENRICHER, at=0.0, duration=0.4 * H),
                )
            ),
        },
        {
            "name": "hard_down",
            "description": "the remote never answers: every record stores "
            "with a pending marker; backfill restores completeness",
            "policy": FeedPolicy.spill(),
            "plan": FaultPlan(
                enricher_faults=(
                    EnricherOutage(ENRICHER, at=0.0, duration=1e9),
                )
            ),
            "backfill": True,
        },
        {
            "name": "hard_down_no_breaker",
            "description": "same outage with the breaker disabled: every "
            "chunk burns its full retry budget (what fail-fast saves)",
            "policy": FeedPolicy.spill(external_breaker_failures=0),
            "plan": FaultPlan(
                enricher_faults=(
                    EnricherOutage(ENRICHER, at=0.0, duration=1e9),
                )
            ),
        },
        {
            "name": "hard_down_dead_letter",
            "description": "same outage under the DEAD_LETTER action: "
            "records park in the dead-letter dataset with provenance and "
            "replay re-ingests them once the remote recovers",
            "policy": FeedPolicy.spill(
                external_on_failure=ExternalFailureAction.DEAD_LETTER
            ),
            "plan": FaultPlan(
                enricher_faults=(
                    EnricherOutage(ENRICHER, at=0.0, duration=1e9),
                )
            ),
            "replay": True,
        },
    ]


def run(smoke: bool) -> Dict:
    """Run every external-resilience scenario twice; results + checks."""
    records, batch_size = SMOKE if smoke else FULL
    # Measure the healthy makespan first: fault windows scale to it, so
    # scenario schedules stay meaningful across workload sizes.
    _, probe = _run_feed(records, batch_size, FeedPolicy.spill(), None)
    healthy_makespan = probe.simulated_seconds

    results: Dict = {
        "records": records,
        "batch_size": batch_size,
        "key_cardinality": KEY_CARDINALITY,
        "healthy_makespan_seconds": healthy_makespan,
        "scenarios": {},
    }
    ok = True
    by_name: Dict[str, Dict] = {}
    for scenario in _scenarios(healthy_makespan):
        runs = [
            _run_feed(
                records, batch_size, scenario["policy"], scenario["plan"]
            )
            for _ in range(2)
        ]
        system, report = runs[0]
        checks = _accounted(system, report, records)
        checks["deterministic"] = _signature(report) == _signature(
            runs[1][1]
        )
        if scenario["plan"] is None:
            checks["no_retries_when_healthy"] = (
                report.external.retries == 0
                and report.external.errors == 0
                and report.enrichment_completeness == 1.0
            )
        entry = {
            "description": scenario["description"],
            "throughput_records_per_sim_second": report.throughput,
            "simulated_seconds": report.simulated_seconds,
            "records_stored": report.records_stored,
            "enrichment_completeness": report.enrichment_completeness,
            "external": report.external.as_dict(),
            "checks": checks,
        }
        if scenario.get("backfill"):
            # the remote recovers: the catch-up pass clears every marker
            backfill = system.backfill_pending(FEED)
            entry["backfill"] = {
                "scanned": backfill.scanned,
                "backfilled": backfill.backfilled,
                "still_pending": backfill.still_pending,
                "simulated_seconds": backfill.simulated_seconds,
                "completeness": backfill.completeness,
            }
            checks["backfill_restores_completeness"] = (
                backfill.completeness == 1.0 and backfill.still_pending == 0
            )
        if scenario.get("replay"):
            replay = system.replay_dead_letters(FEED, batch_size=batch_size)
            stored = set(system.query(f"SELECT VALUE t.id FROM {DATASET} t"))
            entry["replay"] = {
                "replayed": replay.replayed,
                "records_stored": replay.records_stored,
                "still_dead": replay.still_dead,
            }
            checks["replay_restores_records"] = (
                replay.still_dead == 0 and stored == set(range(records))
            )
        ok = ok and all(checks.values())
        results["scenarios"][scenario["name"]] = entry
        by_name[scenario["name"]] = entry

    completeness = {
        name: entry["enrichment_completeness"]
        for name, entry in by_name.items()
    }
    cross = {
        # progressive degradation is ordered, not cliff-edged
        "monotone_completeness": (
            completeness["healthy"]
            >= completeness["flaky_remote"]
            >= completeness["outage_recovery"]
            >= completeness["hard_down"]
        ),
        # fail-fast beats burning every chunk's full retry budget
        "breaker_saves_wasted_time": (
            by_name["hard_down"]["simulated_seconds"]
            < by_name["hard_down_no_breaker"]["simulated_seconds"]
        ),
        # the outage scenario really walked open -> half-open -> closed
        "breaker_recovered_in_run": (
            by_name["outage_recovery"]["external"]["breaker_opens"] >= 1
            and by_name["outage_recovery"]["external"]["breaker_half_opens"]
            >= 1
            and by_name["outage_recovery"]["external"]["breaker_closes"] >= 1
        ),
        "degraded_mode_keeps_ingesting": (
            by_name["hard_down"]["records_stored"] == records
        ),
    }
    ok = ok and all(cross.values())
    results["cross_scenario_checks"] = cross
    results["ok"] = ok
    return results


def summarize(result: Dict) -> Dict:
    """The suite's trajectory-row entry."""
    return {
        "scenarios": len(result["scenarios"]),
        "hard_down_completeness": result["scenarios"]["hard_down"][
            "enrichment_completeness"
        ],
        "ok": result["ok"],
    }
