"""Elastic computing-pool benchmark: makespan vs worker count.

A compute-bound enrichment (the paper's sensitive-words EXISTS join) is
pushed through the same feed at static pool sizes 1, 2, and 4 workers,
then once more under ``FeedPolicy.elastic()`` where the controller grows
the pool from sampled intake congestion.  The harness verifies the
invariants that make the pool trustworthy, not just fast:

* **speedup** — simulated makespan at 4 workers is at least 1.8x the
  single-worker makespan on this compute-bound UDF;
* **identical outputs** — every worker count stores the byte-identical
  enriched dataset (the sequencer preserves storage order/content);
* **determinism** — re-running any configuration reproduces the same
  makespan and output hash;
* **elastic reaction** — the elastic run actually scales (peak workers >
  1, at least one scale-up) and lands between the 1- and 4-worker
  makespans.

Each configuration's per-layer utilization table is printed as it runs;
the result holds numbers only.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.bench.reporting import layer_utilization_table
from repro.ingestion.adapter import GeneratorAdapter
from repro.ingestion.policy import FeedPolicy

from .common import heavy_check_system, ratio, raw_records, sha256_json

FULL = (2400, 80)  # (records, batch_size)
SMOKE = (960, 40)
WORKER_COUNTS = (1, 2, 4)
WORDS = 300
FEED = "ElasticFeed"
DATASET = "EnrichedTweets"
SPEEDUP_FLOOR = 1.8  # acceptance: >= this at 4 workers vs 1


def _run_once(policy: FeedPolicy, records: int, batch_size: int):
    """One feed run of the compute-bound enrichment; returns (report, hash)."""
    system = heavy_check_system(WORDS)
    system.execute(
        """
        CREATE DATASET EnrichedTweets(TweetType) PRIMARY KEY id;
        CREATE FEED ElasticFeed WITH { "type-name": "TweetType" };
        CONNECT FEED ElasticFeed TO DATASET EnrichedTweets
            APPLY FUNCTION heavyCheck;
        """
    )
    report = system.start_feed(
        FEED,
        adapter=GeneratorAdapter(
            raw_records(
                records,
                lambda i: {"id": i, "text": f"tweet {i}", "country": "US"},
            )
        ),
        batch_size=batch_size,
        policy=policy,
    )
    digest = sha256_json(
        sorted((r["id"], r["flag"]) for r in system.catalog[DATASET].scan())
    )
    return report, digest


def _run_summary(label: str, report, digest: str) -> Dict:
    metrics = report.runtime
    print(layer_utilization_table(metrics, per_process=True, label=label))
    return {
        "makespan_seconds": metrics.makespan_seconds,
        "throughput_records_per_sim_second": report.throughput,
        "records_stored": report.records_stored,
        "computing_busy_aggregate_seconds": report.computing_seconds,
        "computing_wall_seconds": report.computing_wall_seconds,
        "computing_concurrency": report.computing_concurrency,
        "computing_worker_busy": dict(report.computing_worker_busy),
        "peak_workers": report.peak_computing_workers,
        "scale_ups": report.scale_ups,
        "scale_downs": report.scale_downs,
        "reordered_batches": report.reordered_batches,
        "worker_pool_timeline": [
            [at, size] for at, size in metrics.worker_pool_timeline
        ],
        "output_sha256": digest,
    }


def run(smoke: bool) -> Dict:
    """Run the static-pool sweep plus the elastic run; returns results."""
    records, batch_size = SMOKE if smoke else FULL
    results: Dict = {
        "records": records,
        "batch_size": batch_size,
        "speedup_floor": SPEEDUP_FLOOR,
        "static": {},
    }
    makespans: Dict[int, float] = {}
    digests: Dict[int, str] = {}
    repeats: Dict[int, Tuple[float, str]] = {}
    for workers in WORKER_COUNTS:
        policy = FeedPolicy.spill(
            min_computing_workers=workers, max_computing_workers=workers
        )
        report, digest = _run_once(policy, records, batch_size)
        report2, digest2 = _run_once(policy, records, batch_size)
        makespans[workers] = report.runtime.makespan_seconds
        digests[workers] = digest
        repeats[workers] = (report2.runtime.makespan_seconds, digest2)
        results["static"][str(workers)] = _run_summary(
            f"{workers} worker(s)", report, digest
        )

    elastic_report, elastic_digest = _run_once(
        FeedPolicy.elastic(), records, batch_size
    )
    elastic_repeat, elastic_digest2 = _run_once(
        FeedPolicy.elastic(), records, batch_size
    )
    results["elastic"] = _run_summary("elastic", elastic_report, elastic_digest)

    base = makespans[min(WORKER_COUNTS)]
    top = max(WORKER_COUNTS)
    speedup = ratio(base, makespans[top])
    results["speedup_at_max_workers"] = speedup
    results["elastic_speedup"] = ratio(
        base, elastic_report.runtime.makespan_seconds
    )

    checks = {
        "speedup_reaches_floor": speedup >= SPEEDUP_FLOOR,
        "outputs_identical_across_worker_counts": (
            len({digests[w] for w in WORKER_COUNTS} | {elastic_digest}) == 1
        ),
        "deterministic_repeats": all(
            repeats[w] == (makespans[w], digests[w]) for w in WORKER_COUNTS
        )
        and (
            elastic_repeat.runtime.makespan_seconds,
            elastic_digest2,
        )
        == (elastic_report.runtime.makespan_seconds, elastic_digest),
        "elastic_scaled_up": (
            elastic_report.peak_computing_workers > 1
            and elastic_report.scale_ups >= 1
        ),
        "elastic_beats_single_worker": (
            elastic_report.runtime.makespan_seconds < base
        ),
        "all_records_stored": all(
            results["static"][str(w)]["records_stored"] == records
            for w in WORKER_COUNTS
        )
        and elastic_report.records_stored == records,
    }
    results["checks"] = checks
    results["ok"] = all(checks.values())
    return results


def summarize(result: Dict) -> Dict:
    """The suite's trajectory-row entry."""
    return {
        "speedup_at_max_workers": result["speedup_at_max_workers"],
        "elastic_speedup": result["elastic_speedup"],
        "ok": result["ok"],
    }
