"""One round of one workload, in a fresh interpreter.

Set-up (imports, reference catalog, UDF registration, feeds, one warm-up
feed) -> timed region (only the ``start_feed`` / ``start_feeds`` calls) ->
verification (untimed).  Prints one JSON object on the last line of stdout.
Set-up and the timed calls are read off a ``SteadyClock`` (``steady.py``):
seconds with the machine's changing speed divided out.

A round is a process of its own because an in-process re-run is 25-60 %
faster than the first (heap growth, GC thresholds): sharing a process would
make every number depend on what ran before it.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
from typing import Dict, List

from steady import SteadyClock


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank, as ``RuntimeMetrics.latency_percentile`` (which is
    bound to one feed's report; a workload pools its feeds' batches)."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def report_metrics(bench, results, storage_before: Dict[str, int]) -> Dict[str, float]:
    """The exact counts and simulated values: identical run to run."""
    reports = [r for result in results for r in result.reports.values()]
    latencies = [
        latency
        for report in reports
        for latency in report.runtime.batch_latencies_seconds
    ]
    storage_after = storage_stats(bench)
    datasets = bench.datasets()
    out = {
        "ingestion.computing_jobs": sum(r.num_computing_jobs for r in reports),
        "ingestion.stalls": sum(r.stalls for r in reports),
        "ingestion.peak_workers": max(r.peak_computing_workers for r in reports),
        "ingestion.scale_events": sum(r.scale_ups + r.scale_downs for r in reports),
        "ingestion.sim_intake_s": sum(r.intake_seconds for r in reports),
        "ingestion.sim_computing_s": sum(r.computing_seconds for r in reports),
        "ingestion.sim_storage_s": sum(r.storage_seconds for r in reports),
        "ingestion.fabric_lease_events": sum(
            len(result.fabric.lease_events) for result in results if result.fabric
        ),
        "sqlpp.vectorized_batches": sum(r.vectorized_batches for r in reports),
        "sqlpp.scalar_fallbacks": sum(r.scalar_fallbacks for r in reports),
        "sqlpp.state_cache_hits": sum(r.state_cache_hits for r in reports),
        "sqlpp.state_cache_misses": sum(r.state_cache_misses for r in reports),
        "sqlpp.memo_hits": sum(r.memo_hits for r in reports),
        "sqlpp.memo_misses": sum(r.memo_misses for r in reports),
        "storage.ref_upserts": sum(
            client.applied for result in results for client in result.update_clients
        ),
        "storage.read_amplification": sum(d.read_amplification for d in datasets)
        / len(datasets),
        "runtime.processes": sum(len(r.runtime.processes) for r in reports),
        "runtime.subbatches": sum(r.runtime.subbatches for r in reports),
        "runtime.reordered_batches": sum(r.runtime.reordered_batches for r in reports),
        "runtime.sim_batch_latency_samples": len(latencies),
        "runtime.sim_batch_latency_p50_s": _percentile(latencies, 50),
        # a p90 needs ten samples beyond it
        "runtime.sim_batch_latency_p90_s": (
            _percentile(latencies, 90) if len(latencies) >= 100 else 0.0
        ),
    }
    for stat in ("flushes", "merges", "component_reads", "wal_appends"):
        out[f"storage.{stat}"] = storage_after[stat] - storage_before[stat]
    return out


def storage_stats(bench) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for dataset in bench.datasets():
        for stat, value in dataset.storage_stats().items():
            totals[stat] = totals.get(stat, 0) + value
    return totals


#: span name -> the per-layer metric its summed self time feeds
SELF_TIME_METRICS = {
    "ingestion.start_feed": "ingestion.launch_self_s",
    "ingestion.adapter_read": "ingestion.adapter_read_s",
    "ingestion.fabric": "ingestion.fabric_s",
    "adm.parse": "adm.parse_s",
    "cluster.invoke": "cluster.invoke_self_s",
    "hyracks.execute": "hyracks.execute_self_s",
    "sqlpp.udf_eval": "sqlpp.udf_eval_s",
    "udf.java_eval": "udf.java_eval_s",
    "storage.upsert": "storage.upsert_s",
    "storage.flush_merge": "storage.flush_merge_s",
    "storage.ref_read": "storage.ref_read_s",
    "storage.ref_upsert": "storage.ref_upsert_s",
    "runtime.run": "runtime.run_self_s",
    "runtime.sequencer": "runtime.sequencer_self_s",
}


def trace_metrics(tracer) -> Dict[str, float]:
    totals = tracer.totals()
    out = {metric: 0.0 for metric in SELF_TIME_METRICS.values()}
    for name, row in totals.items():
        out[SELF_TIME_METRICS[name]] += row["self_s"]
    out["adm.parse_calls"] = totals.get("adm.parse", {}).get("count", 0)
    out["storage.ref_records_read"] = totals.get("storage.ref_read", {}).get("count", 0)
    root = tracer.root_seconds()
    out["trace.root_s"] = root
    out["trace.self_coverage"] = (
        sum(row["self_s"] for row in totals.values()) / root if root else 0.0
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--input", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--oracle", type=int, default=1)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    # set-up starts at the parent's spawn call; the clock has to tick while
    # ``repro`` is imported, so those imports come after it
    clock = SteadyClock(origin=args.spawned_at).start()
    import workloads
    from tracer import Tracer
    from verify import verify

    bench = workloads.Bench(args.workload, args.input, args.scale, args.seed)
    tracer = None
    if args.trace:
        tracer = Tracer()
        targets = [
            bench.system.catalog[feed.dataset]
            for feed in workloads.feeds_of(args.workload)
        ]
        references = [bench.system.catalog[n] for n in bench.reference_names]
        tracer.install(targets, references)
    storage_before = storage_stats(bench)
    setup_s = clock.now()
    wall_before = clock.wall

    try:
        results = [
            bench.run_call(
                call,
                wrap_apply=tracer.wrap_apply if tracer else None,
                around=tracer.root if tracer else None,
                clock=clock.now,
            )
            for call in bench.calls
        ]
    finally:
        timed_wall_s = clock.wall - wall_before
        clock.stop()
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = report_metrics(bench, results, storage_before)
    layers = {
        f"ingestion.feed_s.{result.name}": result.timed_seconds for result in results
    }
    timed_s = sum(result.timed_seconds for result in results)
    if tracer:
        # spans are raw wall seconds with the clock's ticks inside them:
        # scaled so that they sum to the steady seconds of the timed calls
        to_steady = timed_s / tracer.root_seconds()
        layers.update(
            {
                name: value * to_steady if name.endswith("_s") else value
                for name, value in trace_metrics(tracer).items()
            }
        )
        if args.trace_out:
            tracer.export(
                args.trace_out + ".spans.jsonl", args.trace_out + ".chrome.json"
            )
    checked = verify(bench, results, args.seed, oracle=bool(args.oracle))

    sim_s = sum(result.sim_seconds for result in results)
    verified = checked["attempted"] - checked["failed"]
    print(
        json.dumps(
            {
                "workload": args.workload,
                "traced": bool(tracer),
                "timed_s": timed_s,
                # the same calls in raw wall seconds; wall / steady is how
                # slow the machine was (1.0 = the clock's reference state)
                "timed_wall_s": timed_wall_s,
                "machine_slowdown": timed_wall_s / timed_s,
                "sim_s": sim_s,
                "records_per_s": verified / timed_s,
                "sim_records_per_s": verified / sim_s,
                "peak_rss_mb": peak_rss_mb,
                "setup_s": setup_s,
                "attempted": checked["attempted"],
                "failed": checked["failed"],
                "output_digest": checked["output_digest"],
                "feeds": checked["feeds"],
                # exact counts and simulated values / wall-clock measurements
                "report": report,
                "layers": layers,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
