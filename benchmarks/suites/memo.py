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

The feed, the reference data and the update schedule are the ``updates``
suite's scenario (:func:`~suites.updates.run_cell`), so memo-on and
memo-off runs see the identical upsert schedule (pure function of the
batch index): version bumps land between batch boundaries, displacing
memo entries and degrading the win gracefully toward the per-batch
baseline.

At **every** sweep point — including a 4-worker computing pool and a
4-partition intake — stored output is byte-identical memo-on vs.
memo-off: the memo changes cost, never results.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.ingestion.policy import FeedPolicy

from .common import ratio
from .updates import FULL, SMOKE, UPDATE_RATES, run_cell

HIGH_SKEW_COUNTIES = 8
SIM_WIN_FLOOR = 2.0  # acceptance: memo-on computing win, high skew, rate 0
PARITY_EPSILON = 1e-9  # all-unique keys: memo-on must cost *exactly* parity
MEMO_BUDGET = 32 << 20
GATED_RATIOS = ("sim_win_rate0",)


def _cell_summary(report, digest: str) -> Dict:
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


def run(smoke: bool) -> Dict:
    """Run the memo-off/memo-on sweep; returns the results + gate verdicts."""
    ref_records, tweets, batch_size, work_scale = SMOKE if smoke else FULL
    results: Dict = {
        "ref_records": ref_records,
        "high_skew_counties": HIGH_SKEW_COUNTIES,
        "tweets": tweets,
        "batch_size": batch_size,
        "reference_work_scale": work_scale,
        "memo_budget_bytes": MEMO_BUDGET,
        "sim_win_floor": SIM_WIN_FLOOR,
        "profiles": {},
    }

    def off_vs_on(rate: float, counties: int, **policy_overrides) -> Dict:
        """One sweep point: the same feed with the memo off, then on."""

        def feed_run(memo_bytes: int):
            return run_cell(
                FeedPolicy.basic(
                    enrichment_memo_bytes=memo_bytes, **policy_overrides
                ),
                rate, ref_records, counties, tweets, batch_size, work_scale,
            )

        off_report, off_digest, _ = feed_run(0)
        on_report, on_digest, _ = feed_run(MEMO_BUDGET)
        return {
            "memo_off": _cell_summary(off_report, off_digest),
            "memo_on": _cell_summary(on_report, on_digest),
            "computing_seconds_win": ratio(
                off_report.computing_seconds, on_report.computing_seconds
            ),
            "output_hashes_equal": off_digest == on_digest,
        }

    def sweep(counties: int, profile_rates: Sequence[float]) -> Dict:
        return {str(rate): off_vs_on(rate, counties) for rate in profile_rates}

    # High skew: the memo's home turf, swept over the update-rate axis.
    high = sweep(HIGH_SKEW_COUNTIES, UPDATE_RATES)
    results["profiles"]["high_skew"] = {"counties": HIGH_SKEW_COUNTIES, "rates": high}
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
    results["shapes"] = {
        name: off_vs_on(0.0, HIGH_SKEW_COUNTIES, **overrides)
        for name, overrides in shapes.items()
    }

    wins = [high[str(rate)]["computing_seconds_win"] for rate in UPDATE_RATES]
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
            high[str(UPDATE_RATES[0])]["memo_on"]["memo_hits"] > 0
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


def summarize(result: Dict) -> Dict:
    """The suite's trajectory-row entry."""
    rate0 = result["profiles"]["high_skew"]["rates"]["0.0"]
    return {
        "sim_win_rate0": rate0["computing_seconds_win"],
        "memo_hits_rate0": rate0["memo_on"]["memo_hits"],
        "parity_all_unique": result["checks"]["exact_parity_at_all_unique_keys"],
        "ok": result["ok"],
    }
