"""Chaos benchmark: feeds under injected faults, with recovery invariants.

Every scenario is a deterministic discrete-event schedule (a
:class:`~repro.runtime.faults.FaultPlan`), so this benchmark is *not* a
flaky stress test: each scenario runs twice and the two runs must produce
byte-identical fault counters, and every scenario checks **zero
acked-record loss** — each well-formed input record is present in the
target dataset after recovery (at-least-once replay + primary-key upsert).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.core.system import AsterixLite
from repro.ingestion.adapter import GeneratorAdapter
from repro.ingestion.policy import FeedPolicy
from repro.runtime.faults import (
    AdapterFailAt,
    ChannelSendFailure,
    CrashAt,
    FaultPlan,
    HolderDisconnect,
    StallAt,
)

from .common import raw_records

FULL = (2000, 200)  # (records, batch_size)
SMOKE = (600, 100)
FEED = "ChaosFeed"
DATASET = "ChaosTweets"


def _malformed_ids(records: int, malformed_every: int) -> set:
    """Every ``malformed_every``-th input position (none when 0)."""
    if not malformed_every:
        return set()
    return set(range(37 % malformed_every, records, malformed_every))


def _run_feed(
    records: int,
    batch_size: int,
    malformed_every: int,
    policy: FeedPolicy,
    plan: Optional[FaultPlan],
):
    system = AsterixLite(num_nodes=2)
    system.execute(
        """
        CREATE TYPE ChaosTweetType AS OPEN { id: int64, text: string };
        CREATE DATASET ChaosTweets(ChaosTweetType) PRIMARY KEY id;
        """
    )
    system.create_feed(FEED, {"type-name": "ChaosTweetType"})
    system.connect_feed(FEED, DATASET, policy=policy)
    raw = raw_records(records, lambda i: {"id": i, "text": f"tweet {i}"})
    for i in _malformed_ids(records, malformed_every):
        raw[i] = '{"id": %d, "text": ' % i  # truncated JSON
    adapter = GeneratorAdapter(raw)
    report = system.start_feed(
        FEED, adapter, batch_size=batch_size, fault_plan=plan
    )
    return system, report


def _scenarios(records: int) -> List[Dict]:
    """The fault schedules, scaled to a ``records``-sized workload."""
    return [
        {
            "name": "baseline_no_faults",
            "description": "clean run: every fault counter must stay zero",
            "malformed_every": 0,
            "policy": FeedPolicy.spill(),
            "plan": None,
        },
        {
            "name": "malformed_plus_computing_crash",
            "description": "1% malformed input and a mid-run computing-job "
            "crash under the Spill policy",
            "malformed_every": 100,
            "policy": FeedPolicy.spill(),
            "plan": FaultPlan(crashes=(CrashAt(at=0.01, target="computing"),)),
        },
        {
            "name": "storage_stall",
            "description": "the storage actor stalls mid-run (slow consumer)",
            "malformed_every": 0,
            "policy": FeedPolicy.spill(),
            "plan": FaultPlan(
                stalls=(StallAt(at=0.01, target="storage", duration=0.05),)
            ),
        },
        {
            "name": "intake_holder_disconnect",
            "description": "intake partition holder 0 unreachable for a window",
            "malformed_every": 0,
            "policy": FeedPolicy.spill(),
            "plan": FaultPlan(
                disconnects=(
                    HolderDisconnect(
                        holder_id=f"intake-{FEED}",
                        partition=0,
                        at=0.0,
                        duration=0.02,
                    ),
                )
            ),
        },
        {
            "name": "worker_pool_crash",
            "description": "every worker of a 4-strong computing pool "
            "crashes mid-run; each replays its own in-flight batch",
            "malformed_every": 0,
            "policy": FeedPolicy.spill(
                min_computing_workers=4, max_computing_workers=4
            ),
            "plan": FaultPlan(crashes=(CrashAt(at=0.01, target="computing"),)),
        },
        {
            "name": "adapter_crash_resume",
            "description": "the adapter's source dies mid-fetch; intake "
            "re-opens it from the resume cursor with no acked loss",
            "malformed_every": 0,
            "policy": FeedPolicy.spill(),
            "plan": FaultPlan(
                adapter_failures=(
                    AdapterFailAt(after_records=max(1, records // 3)),
                )
            ),
        },
        {
            "name": "channel_send_failure",
            "description": "a computing-to-storage hand-off fails transiently "
            "and is resent",
            "malformed_every": 0,
            "policy": FeedPolicy.spill(),
            "plan": FaultPlan(
                channel_failures=(
                    ChannelSendFailure(
                        channel=".storage", put_index=1, retry_seconds=0.01
                    ),
                )
            ),
        },
    ]


def run(smoke: bool) -> Dict:
    """Run every chaos scenario twice; returns results + invariant checks.

    Per scenario:

    * ``zero_acked_loss`` — every well-formed input id is stored;
    * ``deterministic`` — both runs produced byte-identical fault counters
      and the same simulated makespan;
    * ``recovered`` — the feed completed despite the injected faults.
    """
    records, batch_size = SMOKE if smoke else FULL
    results: Dict = {"records": records, "batch_size": batch_size, "scenarios": {}}
    ok = True
    for scenario in _scenarios(records):
        runs = []
        for _ in range(2):
            system, report = _run_feed(
                records,
                batch_size,
                scenario["malformed_every"],
                scenario["policy"],
                scenario["plan"],
            )
            runs.append((system, report))
        system, report = runs[0]
        faults = report.faults
        counters = faults.as_dict()
        counters2 = runs[1][1].faults.as_dict()
        expected = set(range(records)) - _malformed_ids(
            records, scenario["malformed_every"]
        )
        stored = set(system.query(f"SELECT VALUE t.id FROM {DATASET} t"))
        checks = {
            "zero_acked_loss": expected <= stored,
            "deterministic": (
                json.dumps(counters, sort_keys=True)
                == json.dumps(counters2, sort_keys=True)
                and report.simulated_seconds == runs[1][1].simulated_seconds
            ),
            "recovered": report.records_stored > 0,
        }
        if scenario["plan"] is None:
            checks["no_spurious_faults"] = not faults.any_activity
        dead_letters = (
            len(system.catalog[f"{FEED}_DeadLetters"])
            if f"{FEED}_DeadLetters" in system.catalog
            else 0
        )
        ok = ok and all(checks.values())
        results["scenarios"][scenario["name"]] = {
            "description": scenario["description"],
            "throughput_records_per_sim_second": report.throughput,
            "simulated_seconds": report.simulated_seconds,
            "records_ingested": report.records_ingested,
            "records_stored": report.records_stored,
            "dead_letters": dead_letters,
            "faults": counters,
            "checks": checks,
        }
    results["ok"] = ok
    return results


def summarize(result: Dict) -> Dict:
    """The suite's trajectory-row entry."""
    return {"scenarios": len(result["scenarios"]), "ok": result["ok"]}
