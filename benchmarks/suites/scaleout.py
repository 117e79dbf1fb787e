"""Scale-out benchmark: partitioned intake, sub-batch splits, restart.

Three sweeps over the real partitioned execution path (no simulated
stand-ins), each verifying byte-identical stored output next to its
makespan numbers:

* **intake partitions** — an intake-bound plain-ingestion feed (no UDF,
  a single intake location, a worker pool wide enough that computing
  never bottlenecks) at N = 1/2/4 adapter partitions.  Acceptance:
  >= 1.8x simulated-makespan improvement at 4 partitions and identical
  output hashes at every N;
* **sub-batch splits** — one oversized 16X batch of the paper's Tweet
  Context enrichment (four reference datasets) split K ways across a
  4-worker pool, with the enrichment-state cache keeping the build-side
  state shared across sub-invocations.  Acceptance: splitting into
  quarter-batches beats the unsplit run by >= 1.5x with identical
  hashes (each sub-invocation still pays the per-job overhead, so the
  win comes from the per-record work);
* **durable restart** — a partitioned + sub-batched file feed killed
  mid-run by a zero-restart-budget worker crash, then resumed from the
  on-disk :class:`~repro.storage.CheckpointStore` with fresh adapters.
  Acceptance: the interrupted run checkpointed progress, the resumed
  run skips the acked prefix, and the final dataset is byte-identical
  to an uninterrupted run.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Dict, List

from repro.bench.harness import ExperimentHarness, scaled_batch_sizes
from repro.cluster.controller import Cluster
from repro.core.system import AsterixLite
from repro.errors import FeedFailedError
from repro.ingestion.adapter import FileAdapter, GeneratorAdapter
from repro.ingestion.feed import AttachedFunction, FeedDefinition
from repro.ingestion.pipelines import DynamicIngestionPipeline
from repro.ingestion.policy import FeedPolicy
from repro.runtime import CrashAt, FaultPlan
from repro.storage.checkpoint import CheckpointStore
from repro.workloads.tweets import TWEET_TYPE_FULL

from .common import intake_adapters, ratio, raw_records

FULL = (4800, 480)  # (records, batch_size)
SMOKE = (2400, 240)
TWEETS = 480  # the sub-batch sweep's Tweet Context feed
PARTITION_COUNTS = (1, 2, 4)
FEED = "ScaleoutFeed"
INTAKE_SPEEDUP_FLOOR = 1.8  # acceptance: >= this at 4 partitions vs 1
SUBBATCH_SPEEDUP_FLOOR = 1.5  # acceptance: quarter-splits vs unsplit
STATE_CACHE_BYTES = 256 * 1024 * 1024


def _raw_records(records: int) -> List[str]:
    return raw_records(
        records, lambda i: {"id": i, "text": f"tweet {i}", "country": "US"}
    )


def _digest(rows) -> str:
    canonical = json.dumps(sorted(rows, key=lambda r: str(r)),
                           sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _build_plain_system() -> AsterixLite:
    """A no-UDF ingestion feed: intake is the only per-record hot loop."""
    system = AsterixLite(num_nodes=8)
    system.execute(
        """
        CREATE TYPE TweetType AS OPEN { id: int64, text: string };
        CREATE DATASET Tweets(TweetType) PRIMARY KEY id;
        """
    )
    system.create_feed(FEED, {"type-name": "TweetType"})
    system.connect_feed(FEED, "Tweets")
    return system


def _run_plain(
    records: int,
    batch_size: int,
    partitions: int,
    workers: int,
    subbatch: int = 0,
):
    system = _build_plain_system()
    policy = FeedPolicy.basic(
        intake_partitions=partitions,
        max_subbatch_records=subbatch,
        min_computing_workers=workers,
        max_computing_workers=workers,
    )
    report = system.start_feed(
        FEED,
        adapter=intake_adapters(_raw_records(records), partitions),
        batch_size=batch_size,
        policy=policy,
    )
    digest = _digest(list(system.catalog["Tweets"].scan()))
    return report, digest


def _run_summary(report, digest: str) -> Dict:
    metrics = report.runtime
    return {
        "makespan_seconds": metrics.makespan_seconds,
        "records_stored": report.records_stored,
        "intake_bottleneck_seconds": report.intake_seconds,
        "intake_partitions": report.intake_partitions,
        "intake_partition_busy": {
            str(p): busy
            for p, busy in sorted(report.intake_partition_busy.items())
        },
        "subbatches_dispatched": report.subbatches_dispatched,
        "subbatch_merges": metrics.subbatch_merges,
        "checkpoint_commits": report.checkpoint_commits,
        "output_sha256": digest,
    }


# ---------------------------------------------------------------- sub-batches


def _run_tweet_context(
    harness: ExperimentHarness,
    tweets: int,
    batch_size: int,
    subbatch: int,
    workers: int,
):
    """One Tweet Context run; returns (report, stored-output digest).

    Mirrors :meth:`ExperimentHarness.run_enrichment` but keeps a handle
    on the target dataset so the stored output can be hashed.
    """
    case_datasets = ("AverageIncomes", "DistrictAreas", "Facilities", "Persons")
    catalog = harness.catalog_for(case_datasets)
    target = harness.workload.enriched_tweets_dataset()
    catalog["EnrichedTweets"] = target
    registry = harness.registry_for(catalog)

    feed = FeedDefinition(
        name="bench-tweet-context-scaleout",
        target_dataset="EnrichedTweets",
        datatype=TWEET_TYPE_FULL,
        batch_size=batch_size,
        functions=[AttachedFunction("enrichTweetQ7")],
        policy=FeedPolicy.basic(
            max_subbatch_records=subbatch,
            min_computing_workers=workers,
            max_computing_workers=workers,
            state_cache_bytes=STATE_CACHE_BYTES,
        ),
    )
    feed.reference_work_scale = harness.reference_work_scale

    pipeline = DynamicIngestionPipeline(Cluster(6), catalog, registry)
    adapter = GeneratorAdapter(
        harness.workload.tweet_generator.raw_json(tweets)
    )
    report = pipeline.run(feed, adapter)
    digest = _digest(list(target.scan()))
    return report, digest


# ------------------------------------------------------------------- restart


def _run_restart_cycle(records: int, batch_size: int) -> Dict:
    """Kill a partitioned + sub-batched file feed mid-run, then resume."""
    partitions, workers = 4, 3
    subbatch = max(batch_size // 4, 1)
    policy = FeedPolicy.basic(
        intake_partitions=partitions,
        max_subbatch_records=subbatch,
        min_computing_workers=workers,
        max_computing_workers=workers,
    )

    handle, path = tempfile.mkstemp(suffix=".ndjson")
    with os.fdopen(handle, "w", encoding="utf-8") as stream:
        stream.write("\n".join(_raw_records(records)) + "\n")
    checkpoint_dir = tempfile.mkdtemp()
    try:
        # the uninterrupted reference run
        system = _build_plain_system()
        reference = system.start_feed(
            FEED, FileAdapter(path), batch_size=batch_size, policy=policy
        )
        expected = _digest(list(system.catalog["Tweets"].scan()))

        # the interrupted run: no restart budget, so the injected worker
        # crash kills the whole process mid-feed
        store = CheckpointStore(checkpoint_dir)
        system = _build_plain_system()
        plan = FaultPlan(
            crashes=(
                CrashAt(
                    at=reference.runtime.makespan_seconds * 0.6,
                    target="computing",
                ),
            )
        )
        crashed = False
        try:
            system.start_feed(
                FEED,
                FileAdapter(path),
                batch_size=batch_size,
                policy=FeedPolicy.basic(
                    intake_partitions=partitions,
                    max_subbatch_records=subbatch,
                    min_computing_workers=workers,
                    max_computing_workers=workers,
                    max_restarts=0,
                ),
                fault_plan=plan,
                checkpoint=store,
            )
        except FeedFailedError:
            crashed = True
        interrupted = store.load(FEED)

        # fresh adapters over the same file: resume from the durable
        # cursors, replay the un-acked tail, dedupe via pk-upsert
        resumed = system.resume_run(
            FEED,
            FileAdapter(path),
            checkpoint=store,
            batch_size=batch_size,
            policy=policy,
        )
        final = _digest(list(system.catalog["Tweets"].scan()))
        completed = store.load(FEED)
    finally:
        os.unlink(path)
        for name in os.listdir(checkpoint_dir):
            os.unlink(os.path.join(checkpoint_dir, name))
        os.rmdir(checkpoint_dir)

    total_batches = -(-records // batch_size)
    return {
        "records": records,
        "batch_size": batch_size,
        "intake_partitions": partitions,
        "max_subbatch_records": subbatch,
        "crashed": crashed,
        "acked_batches_at_crash": interrupted.acked_batches if interrupted else None,
        "records_stored_at_crash": interrupted.records_stored if interrupted else None,
        "resumed_records_ingested": resumed.records_ingested,
        "resumed_from_checkpoint": resumed.resumed_from_checkpoint,
        "final_records_stored": resumed.records_stored,
        "uninterrupted_sha256": expected,
        "final_sha256": final,
        "checks": {
            "crash_interrupted_the_run": crashed,
            "progress_was_checkpointed": (
                interrupted is not None
                and not interrupted.complete
                and 0 < interrupted.acked_batches < total_batches
            ),
            "resume_skipped_acked_prefix": (
                resumed.resumed_from_checkpoint
                and resumed.records_ingested < records
            ),
            "final_output_byte_identical": final == expected,
            "checkpoint_finalized": completed is not None and completed.complete,
        },
    }


# ----------------------------------------------------------------------- main


def run(smoke: bool) -> Dict:
    """Run all three sweeps; returns the results document."""
    records, batch_size = SMOKE if smoke else FULL
    results: Dict = {
        "records": records,
        "batch_size": batch_size,
        "intake_speedup_floor": INTAKE_SPEEDUP_FLOOR,
        "subbatch_speedup_floor": SUBBATCH_SPEEDUP_FLOOR,
        "intake_sweep": {},
        "subbatch_sweep": {},
    }

    # --- intake-partition sweep (intake-bound: no UDF, 8 workers) ---
    workers = 8
    makespans: Dict[int, float] = {}
    digests: Dict[int, str] = {}
    for partitions in PARTITION_COUNTS:
        report, digest = _run_plain(records, batch_size, partitions, workers)
        makespans[partitions] = report.runtime.makespan_seconds
        digests[partitions] = digest
        results["intake_sweep"][str(partitions)] = _run_summary(report, digest)
    top = max(PARTITION_COUNTS)
    intake_speedup = ratio(makespans[1], makespans[top])
    results["intake_speedup_at_max_partitions"] = intake_speedup

    # combined partitions x sub-batches on the same feed
    combined_report, combined_digest = _run_plain(
        records, batch_size, top, workers, subbatch=max(batch_size // 4, 1)
    )
    results["combined"] = _run_summary(combined_report, combined_digest)

    # --- sub-batch sweep (compute-bound: Tweet Context, one 16X batch) ---
    harness = ExperimentHarness()
    batch_16x = scaled_batch_sizes()["16X"]
    sub_makespans: Dict[int, float] = {}
    sub_digests: Dict[int, str] = {}
    sub_workers = 4
    for subbatch in (0, batch_16x // 2, batch_16x // 4):
        report, digest = _run_tweet_context(
            harness, TWEETS, batch_16x, subbatch, sub_workers
        )
        sub_makespans[subbatch] = report.runtime.makespan_seconds
        sub_digests[subbatch] = digest
        results["subbatch_sweep"][str(subbatch)] = _run_summary(report, digest)
    quarter = batch_16x // 4
    subbatch_speedup = ratio(sub_makespans[0], sub_makespans[quarter])
    results["subbatch_speedup_at_quarter_splits"] = subbatch_speedup

    # --- durable restart cycle ---
    results["restart"] = _run_restart_cycle(records, batch_size)

    checks = {
        "intake_speedup_reaches_floor": intake_speedup >= INTAKE_SPEEDUP_FLOOR,
        "intake_outputs_identical": len(set(digests.values())) == 1,
        "combined_output_identical": combined_digest == digests[1],
        "combined_split_batches": combined_report.subbatches_dispatched > 0,
        "subbatch_speedup_reaches_floor": (
            subbatch_speedup >= SUBBATCH_SPEEDUP_FLOOR
        ),
        "subbatch_outputs_identical": len(set(sub_digests.values())) == 1,
        "all_records_stored": all(
            results["intake_sweep"][str(p)]["records_stored"] == records
            for p in PARTITION_COUNTS
        ),
        "restart_cycle_ok": all(results["restart"]["checks"].values()),
    }
    results["checks"] = checks
    results["ok"] = all(checks.values())
    return results


def summarize(result: Dict) -> Dict:
    """The suite's trajectory-row entry."""
    return {
        "intake_speedup_at_max_partitions": result[
            "intake_speedup_at_max_partitions"
        ],
        "subbatch_speedup_at_quarter_splits": result[
            "subbatch_speedup_at_quarter_splits"
        ],
        "ok": result["ok"],
    }
