"""Key-skew x update-rate sweep for the key-level enrichment memo.

A hash-join enrichment feed (tweets joined to ``SafetyRatings`` on
``county``) runs with the cross-batch enrichment memo off and on across
two key-distribution profiles:

* **high_skew** — a small county pool, so the same probe keys recur in
  every batch.  After the cold first batch the memo serves whole batches
  without touching (or even building) the reference hash table; the memo
  must win by at least :data:`SIM_WIN_FLOOR` in simulated computing cost
  at update rate 0 (its wall-clock side is the ``enrich_updates``
  workload of ``BENCHMARK.json``);
* **all_unique** — every record probes a distinct key, so the memo can
  never hit.  The memo-on run must be *exact* parity (1.00x simulated
  cost, byte-identical stored output) — the miss path charges precisely
  what the unmemoized path charges.

The update-rate axis reuses :class:`~repro.bench.updates.\
BatchScheduledUpdates` so memo-on and memo-off runs see the identical
upsert schedule (pure function of the batch index): version bumps land
between batch boundaries, displacing memo entries and degrading the win
gracefully toward the per-batch baseline.

At **every** sweep point — including a 4-worker computing pool and a
4-partition intake — stored output is byte-identical memo-on vs.
memo-off: the memo changes cost, never results.

Results go to ``BENCH_memo.json`` at the repo root;
``benchmarks/results/`` stays reserved for the paper-figure tables.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Sequence

from ..core.system import AsterixLite
from ..ingestion.adapter import GeneratorAdapter
from ..ingestion.feed import AttachedFunction, FeedDefinition
from ..ingestion.pipelines import DynamicIngestionPipeline
from ..ingestion.policy import FeedPolicy
from ..ingestion.updates import ReferenceUpdateClient
from .updates import BatchScheduledUpdates, NOMINAL_BATCH_SECONDS

FEED = "MemoSweepFeed"
DATASET = "EnrichedTweets"
REFERENCE = "SafetyRatings"
UPDATE_RATES = (0.0, 1.0, 10.0, 100.0)
SIM_WIN_FLOOR = 2.0  # acceptance: memo-on computing win, high skew, rate 0
PARITY_EPSILON = 1e-9  # all-unique keys: memo-on must cost *exactly* parity
MEMO_BUDGET = 32 << 20


def _raw_tweets(count: int, counties: int) -> List[str]:
    """``counties == count`` gives the all-unique profile (no key recurs)."""
    return [
        json.dumps(
            {"id": i, "text": f"tweet {i}", "county": f"county{i % counties}"}
        )
        for i in range(count)
    ]


def _update_stream(counties: int):
    i = 0
    while True:
        county = i % counties
        yield {
            "sid": county,
            "county": f"county{county}",
            "rating": (17 * (i + 3)) % 100,
        }
        i += 1


def _build_system(ref_records: int, counties: int) -> AsterixLite:
    system = AsterixLite(num_nodes=4)
    system.execute(
        """
        CREATE TYPE TweetType AS OPEN { id: int64, text: string };
        CREATE DATASET EnrichedTweets(TweetType) PRIMARY KEY id;
        CREATE TYPE RatingType AS OPEN { sid: int64 };
        CREATE DATASET SafetyRatings(RatingType) PRIMARY KEY sid;
        """
    )
    system.insert(
        REFERENCE,
        [
            {
                "sid": i,
                "county": f"county{i % counties}",
                "rating": (13 * i) % 100,
            }
            for i in range(ref_records)
        ],
    )
    system.catalog[REFERENCE].flush_all()
    system.execute(
        """
        CREATE FUNCTION enrichSafety(t) {
            LET ratings = (SELECT VALUE s.rating FROM SafetyRatings s
                           WHERE s.county = t.county)
            SELECT t.*, ratings AS safety
        };
        """
    )
    return system


def _run_once(
    memo_on: bool,
    rate: float,
    ref_records: int,
    counties: int,
    tweets: int,
    batch_size: int,
    work_scale: float,
    policy_overrides: Optional[Dict] = None,
):
    """One sweep cell; returns (report, output_sha256)."""
    system = _build_system(ref_records, counties)
    policy = FeedPolicy.basic(
        enrichment_memo_bytes=MEMO_BUDGET if memo_on else 0,
        **(policy_overrides or {}),
    )
    feed = FeedDefinition(
        name=FEED,
        target_dataset=DATASET,
        datatype=system.types.get("TweetType"),
        batch_size=batch_size,
        functions=[AttachedFunction("enrichSafety")],
        policy=policy,
    )
    feed.reference_work_scale = work_scale
    update_client = None
    if rate > 0:
        update_client = BatchScheduledUpdates(
            ReferenceUpdateClient(
                rate, _update_stream(counties), system.catalog[REFERENCE].upsert
            ),
            NOMINAL_BATCH_SECONDS,
        )
    pipeline = DynamicIngestionPipeline(
        system.cluster, system.catalog, system.registry, afm=system.afm
    )
    raw = _raw_tweets(tweets, counties)
    if policy.intake_partitions > 1:
        # round-robin pre-split: partition p streams tweets p, p+N, ... —
        # the union is exactly the single-adapter stream
        adapter = [
            GeneratorAdapter(iter(raw[p :: policy.intake_partitions]))
            for p in range(policy.intake_partitions)
        ]
    else:
        adapter = GeneratorAdapter(raw)
    report = pipeline.run(feed, adapter, update_client=update_client)
    stored = sorted(
        (r["id"], tuple(r.get("safety") or ()))
        for r in system.catalog[DATASET].scan()
    )
    digest = hashlib.sha256(
        json.dumps(stored, sort_keys=True).encode()
    ).hexdigest()
    return report, digest


def _summarize(report, digest: str) -> Dict:
    return {
        "computing_seconds": report.computing_seconds,
        "simulated_seconds": report.simulated_seconds,
        "throughput_records_per_sim_second": report.throughput,
        "records_stored": report.records_stored,
        "memo_hits": report.memo_hits,
        "memo_misses": report.memo_misses,
        "memo_evictions": report.memo_evictions,
        "memo_bytes": report.memo_bytes,
        "output_sha256": digest,
    }


def _cell(off, on) -> Dict:
    off_report, off_digest = off
    on_report, on_digest = on
    win = (
        off_report.computing_seconds / on_report.computing_seconds
        if on_report.computing_seconds > 0
        else 0.0
    )
    return {
        "memo_off": _summarize(off_report, off_digest),
        "memo_on": _summarize(on_report, on_digest),
        "computing_seconds_win": win,
        "output_hashes_equal": off_digest == on_digest,
    }


def run_memo_sweep(
    ref_records: int = 20000,
    high_skew_counties: int = 8,
    tweets: int = 3000,
    batch_size: int = 100,
    work_scale: float = 30.0,
    rates: Sequence[float] = UPDATE_RATES,
) -> Dict:
    """Run the memo-off/memo-on sweep; returns the results + gate verdicts."""
    results: Dict = {
        "ref_records": ref_records,
        "high_skew_counties": high_skew_counties,
        "tweets": tweets,
        "batch_size": batch_size,
        "reference_work_scale": work_scale,
        "memo_budget_bytes": MEMO_BUDGET,
        "sim_win_floor": SIM_WIN_FLOOR,
        "profiles": {},
    }

    def sweep(counties: int, profile_rates: Sequence[float]) -> Dict:
        cells = {}
        for rate in profile_rates:
            off = _run_once(
                False, rate, ref_records, counties, tweets, batch_size,
                work_scale,
            )
            on = _run_once(
                True, rate, ref_records, counties, tweets, batch_size,
                work_scale,
            )
            cells[str(rate)] = _cell(off, on)
        return cells

    # High skew: the memo's home turf, swept over the update-rate axis.
    high = sweep(high_skew_counties, rates)
    results["profiles"]["high_skew"] = {"counties": high_skew_counties, "rates": high}
    # All-unique: every record probes a fresh key; rate axis adds nothing
    # (there is no reuse to displace), so only rate 0 runs.
    unique = sweep(tweets, (0.0,))
    results["profiles"]["all_unique"] = {"counties": tweets, "rates": unique}

    # Byte-identity must also survive the concurrent shapes: a 4-worker
    # computing pool and a 4-partition intake (high skew, rate 0).
    shapes = {
        "workers_4": dict(min_computing_workers=4, max_computing_workers=4),
        "intake_partitions_4": dict(intake_partitions=4),
    }
    results["shapes"] = {}
    for name, overrides in shapes.items():
        off = _run_once(
            False, 0.0, ref_records, high_skew_counties, tweets, batch_size,
            work_scale, policy_overrides=overrides,
        )
        on = _run_once(
            True, 0.0, ref_records, high_skew_counties, tweets, batch_size,
            work_scale, policy_overrides=overrides,
        )
        results["shapes"][name] = _cell(off, on)

    wins = [high[str(rate)]["computing_seconds_win"] for rate in rates]
    unique_cell = unique["0.0"]
    every_cell = (
        list(high.values()) + list(unique.values())
        + list(results["shapes"].values())
    )
    checks = {
        "sim_win_high_skew_rate0_reaches_floor": wins[0] >= SIM_WIN_FLOOR,
        "win_degrades_with_update_rate": all(
            wins[i] >= wins[i + 1] - 0.05 for i in range(len(wins) - 1)
        ),
        "exact_parity_at_all_unique_keys": (
            abs(unique_cell["computing_seconds_win"] - 1.0) <= PARITY_EPSILON
            and unique_cell["memo_on"]["memo_hits"] == 0
        ),
        "output_hashes_equal_everywhere": all(
            cell["output_hashes_equal"] for cell in every_cell
        ),
        "memo_hits_observed_at_high_skew": (
            high[str(rates[0])]["memo_on"]["memo_hits"] > 0
        ),
        "memo_inert_when_disabled": all(
            cell["memo_off"]["memo_hits"] == 0
            and cell["memo_off"]["memo_misses"] == 0
            for cell in every_cell
        ),
    }
    results["wins"] = wins
    results["checks"] = checks
    results["ok"] = all(checks.values())
    return results
