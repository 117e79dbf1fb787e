"""Multi-tenant feed-fabric benchmark: shared worker budget vs equal split.

Eight feeds run concurrently on one shared simulated runtime
(:meth:`AsterixLite.start_feeds`), all pushing the paper's compute-bound
sensitive-words EXISTS join.  Two worker-allocation regimes compete over
the same cluster budget:

* **baseline** — static equal-split partitioning: every feed gets a fixed
  ``total_workers / num_feeds`` pool (``min == max``), the allocation a
  cluster without a fabric would pin per tenant;
* **fabric** — a :class:`~repro.ingestion.fabric.FeedFabric` with the
  same total budget: per-feed elastic controllers bid congestion signals
  into the global arbiter, so congested feeds borrow the workers idle
  tenants are not using (never below any feed's floor).

The harness verifies the fabric is a pure scheduler win:

* **skewed speedup** — on a skewed workload (2 heavy feeds, 6 light) the
  fabric's fleet makespan beats equal-split by at least 1.5x;
* **uniform parity** — on a uniform workload (no skew to exploit) the
  fabric stays within tolerance of equal-split;
* **identical outputs** — per-feed stored datasets are byte-identical
  fabric-on vs fabric-off (the sequencer fixes order; the fabric only
  moves pool sizes over time);
* **determinism** — every configuration re-runs to the same makespan and
  per-feed output hashes;
* **governed caches** (info) — a fabric carrying a
  :class:`~repro.ingestion.fabric.MemoryGovernor` splits one cache
  budget across tenants without changing any stored byte.

The fabric fleets' per-tenant utilization tables are printed as they
run; the result holds numbers only.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.reporting import fleet_utilization_table
from repro.core.system import AsterixLite
from repro.ingestion.adapter import GeneratorAdapter
from repro.ingestion.fabric import LEASE_KINDS, FeedFabric, FeedLaunch
from repro.ingestion.policy import FeedPolicy

from .common import heavy_check_system, ratio, raw_records, sha256_json

FULL = (2400, 80, 200)  # (heavy_records, batch_size, words)
SMOKE = (800, 40, 120)
GATED_RATIOS = ("skewed_speedup",)
SKEWED_SPEEDUP_FLOOR = 1.5  # acceptance: fabric vs equal split, skewed fleet
UNIFORM_PARITY_FLOOR = 0.80  # fabric must not tank a fleet with no skew
# What the uniform fleet's event streams show (full size, 0.8364x): every
# tenant retires a worker at t = 0.5877 on its own starvation verdict
# while its 60-record final batch is still queued — a batch under one
# batch size reads as backlog < 1, and ``IntakeBuffer.collect`` honours a
# retire token before it hands out a batch — so all eight finish at
# 0.8231 where equal split finishes at 0.6898.  No recall fires: a tick
# that drops a bid does not recall for the bids still queued.  Checking
# for a batch first reaches 0.9505x uniform but drops skewed from 2.812x
# to 2.666x, a model change of its own, so parity here still means
# "close", not "equal".
NUM_FEEDS = 8
NUM_HEAVY = 2
TOTAL_WORKERS = 16


def _feed_name(index: int) -> str:
    return f"Tenant{index}"


def _dataset_name(index: int) -> str:
    return f"EnrichedTenant{index}"


def _build_system(num_feeds: int, words: int) -> AsterixLite:
    system = heavy_check_system(words)
    for index in range(num_feeds):
        system.execute(
            f"""
            CREATE DATASET {_dataset_name(index)}(TweetType) PRIMARY KEY id;
            CREATE FEED {_feed_name(index)} WITH {{ "type-name": "TweetType" }};
            CONNECT FEED {_feed_name(index)} TO DATASET {_dataset_name(index)}
                APPLY FUNCTION heavyCheck;
            """
        )
    return system


def _digest(system: AsterixLite, index: int) -> str:
    return sha256_json(
        sorted(
            (r["id"], r["flag"])
            for r in system.catalog[_dataset_name(index)].scan()
        )
    )


def _run_fleet(
    per_feed_records: Sequence[int],
    policies: Sequence[FeedPolicy],
    batch_size: int,
    words: int,
    fabric_workers: Optional[int] = None,
    memory_bytes: int = 0,
) -> Tuple[Dict, Dict[str, str], float, Optional[FeedFabric]]:
    """One fleet run; returns (reports, per-feed digests, makespan, fabric)."""
    system = _build_system(len(per_feed_records), words)
    fabric = (
        FeedFabric(fabric_workers, memory_bytes=memory_bytes)
        if fabric_workers is not None
        else None
    )
    launches = [
        FeedLaunch(
            feed=_feed_name(index),
            adapter=GeneratorAdapter(
                raw_records(
                    count,
                    lambda i: {
                        "id": i,
                        "text": f"tweet {i} of tenant {index}",
                        "country": "US",
                    },
                )
            ),
            batch_size=batch_size,
            policy=policies[index],
        )
        for index, count in enumerate(per_feed_records)
    ]
    reports = system.start_feeds(launches, fabric=fabric)
    digests = {
        _feed_name(index): _digest(system, index)
        for index in range(len(per_feed_records))
    }
    makespan = max(r.runtime.makespan_seconds for r in reports.values())
    return reports, digests, makespan, fabric


def _fabric_policies(per_feed_records: Sequence[int]) -> List[FeedPolicy]:
    """Elastic floor-1 policies; heavier feeds get priority and headroom."""
    heavy_cutoff = max(per_feed_records)
    policies = []
    for count in per_feed_records:
        heavy = count == heavy_cutoff and max(per_feed_records) > min(
            per_feed_records
        )
        policies.append(
            FeedPolicy.elastic(
                min_computing_workers=1,
                max_computing_workers=8 if heavy else 4,
                priority=2 if heavy else 1,
            )
        )
    return policies


def _baseline_policies(num_feeds: int, total_workers: int) -> List[FeedPolicy]:
    """Static equal split: each feed pinned to total/num fixed workers."""
    share = max(1, total_workers // num_feeds)
    return [
        FeedPolicy.spill(
            min_computing_workers=share, max_computing_workers=share
        )
        for _ in range(num_feeds)
    ]


def _per_feed_summary(reports: Dict) -> Dict[str, Dict]:
    return {
        name: {
            "records_stored": report.records_stored,
            "peak_workers": report.peak_computing_workers,
            "borrowed_workers": report.borrowed_workers,
            "scale_ups": report.scale_ups,
            "latency_p50": report.latency_p50,
            "latency_p95": report.latency_p95,
            "latency_p99": report.latency_p99,
        }
        for name, report in sorted(reports.items())
    }


def _scenario(
    name: str,
    per_feed_records: Sequence[int],
    batch_size: int,
    words: int,
    total_workers: int,
) -> Dict:
    """Fabric vs equal-split on one workload shape, each run twice."""
    fabric_policies = _fabric_policies(per_feed_records)
    baseline_policies = _baseline_policies(len(per_feed_records), total_workers)

    fab_reports, fab_digests, fab_makespan, fabric = _run_fleet(
        per_feed_records, fabric_policies, batch_size, words,
        fabric_workers=total_workers,
    )
    _, fab_digests2, fab_makespan2, _ = _run_fleet(
        per_feed_records, fabric_policies, batch_size, words,
        fabric_workers=total_workers,
    )
    base_reports, base_digests, base_makespan, _ = _run_fleet(
        per_feed_records, baseline_policies, batch_size, words,
    )
    _, base_digests2, base_makespan2, _ = _run_fleet(
        per_feed_records, baseline_policies, batch_size, words,
    )
    print(f"--- {name} fleet under the fabric ---")
    print(fleet_utilization_table(fab_reports))

    speedup = ratio(base_makespan, fab_makespan)
    return {
        "records_per_feed": list(per_feed_records),
        "total_workers": total_workers,
        "fabric": {
            "makespan_seconds": fab_makespan,
            "per_feed": _per_feed_summary(fab_reports),
            "fabric_summary": fabric.summary(),
        },
        "baseline": {
            "makespan_seconds": base_makespan,
            "per_feed": _per_feed_summary(base_reports),
        },
        "speedup": speedup,
        "checks": {
            "outputs_identical_fabric_on_off": fab_digests == base_digests,
            "deterministic_repeats": (
                (fab_makespan, fab_digests) == (fab_makespan2, fab_digests2)
                and (base_makespan, base_digests)
                == (base_makespan2, base_digests2)
            ),
            "all_records_stored": all(
                fab_reports[_feed_name(i)].records_stored == count
                and base_reports[_feed_name(i)].records_stored == count
                for i, count in enumerate(per_feed_records)
            ),
            "budget_never_exceeded": all(
                event.detail["total"] <= total_workers
                for event in fabric.events
                if event.kind in LEASE_KINDS
            ),
        },
        "digests": fab_digests,
    }


def run(smoke: bool) -> Dict:
    """Skewed + uniform fleets, fabric vs equal split; returns results."""
    heavy_records, batch_size, words = SMOKE if smoke else FULL
    light_records = max(batch_size, heavy_records // 10)
    skewed = [heavy_records] * NUM_HEAVY + [light_records] * (
        NUM_FEEDS - NUM_HEAVY
    )
    total_records = sum(skewed)
    uniform = [total_records // NUM_FEEDS] * NUM_FEEDS

    results: Dict = {
        "num_feeds": NUM_FEEDS,
        "batch_size": batch_size,
        "skewed_speedup_floor": SKEWED_SPEEDUP_FLOOR,
        "uniform_parity_floor": UNIFORM_PARITY_FLOOR,
        "skewed": _scenario(
            "skewed", skewed, batch_size, words, TOTAL_WORKERS
        ),
        "uniform": _scenario(
            "uniform", uniform, batch_size, words, TOTAL_WORKERS
        ),
    }

    # Governed-cache info run: same skewed fleet, fabric also arbitrating
    # one memory budget across per-tenant caches.  Stored bytes must not
    # move — the governor resizes caches, never results.
    governed_policies = [
        FeedPolicy.elastic(
            min_computing_workers=1,
            max_computing_workers=8 if count == max(skewed) else 4,
            priority=2 if count == max(skewed) else 1,
            state_cache_bytes=64 * 1024,
            enrichment_memo_bytes=64 * 1024,
        )
        for count in skewed
    ]
    gov_reports, gov_digests, gov_makespan, gov_fabric = _run_fleet(
        skewed, governed_policies, batch_size, words,
        fabric_workers=TOTAL_WORKERS, memory_bytes=1024 * 1024,
    )
    results["governed"] = {
        "makespan_seconds": gov_makespan,
        "per_feed": _per_feed_summary(gov_reports),
        "governor": gov_fabric.governor.summary(),
        "governor_grants": sum(
            event.kind == "governor"
            for report in gov_reports.values()
            for event in report.runtime.fabric_events
        ),
    }

    skewed_speedup = results["skewed"]["speedup"]
    uniform_speedup = results["uniform"]["speedup"]
    results["skewed_speedup"] = skewed_speedup
    results["uniform_speedup"] = uniform_speedup

    checks = {
        "skewed_speedup_reaches_floor": skewed_speedup >= SKEWED_SPEEDUP_FLOOR,
        "uniform_within_tolerance": uniform_speedup >= UNIFORM_PARITY_FLOOR,
        "heavy_feeds_borrowed": all(
            results["skewed"]["fabric"]["per_feed"][_feed_name(i)][
                "borrowed_workers"
            ]
            >= 1
            for i in range(NUM_HEAVY)
        ),
        "governed_outputs_match": gov_digests == results["skewed"]["digests"],
        "governor_rebalanced": (
            gov_fabric.governor.summary()["rebalances"] > 1
            and gov_fabric.governor.summary()["grants"] > 0
        ),
    }
    for scenario_name in ("skewed", "uniform"):
        for check, passed in results[scenario_name]["checks"].items():
            checks[f"{scenario_name}_{check}"] = passed
    results["checks"] = checks
    results["ok"] = all(checks.values())
    return results


def summarize(result: Dict) -> Dict:
    """The suite's trajectory-row entry."""
    return {
        "skewed_speedup": result["skewed_speedup"],
        "uniform_speedup": result["uniform_speedup"],
        "recalls_issued": result["skewed"]["fabric"]["fabric_summary"][
            "recalls_issued"
        ],
        "ok": result["ok"],
    }
