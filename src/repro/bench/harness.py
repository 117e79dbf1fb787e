"""The experiment harness shared by every figure benchmark.

Encapsulates the Section 7 setup: build the reference catalog at a chosen
scale, register the paper UDFs (SQL++ and Java), assemble the feed, run it
on a simulated cluster of the requested size, and report throughput /
refresh periods in the paper's units.

Environment knobs (all optional):

* ``REPRO_BENCH_SCALE``  — reference-data scale factor (default 0.01;
  1.0 = the paper's cardinalities, much slower);
* ``REPRO_BENCH_TWEETS`` — multiplier on per-run tweet counts (default 1.0).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..cluster.controller import Cluster
from ..ingestion.adapter import GeneratorAdapter
from ..ingestion.feed import (
    AttachedFunction,
    ComputingModel,
    FeedDefinition,
    FeedRunReport,
    Framework,
)
from ..ingestion.pipelines import DynamicIngestionPipeline, StaticIngestionPipeline
from ..ingestion.updates import ReferenceUpdateClient
from ..udf.library import register_paper_udfs
from ..udf.registry import FunctionRegistry
from ..workloads.reference import PaperWorkload, WorkloadScale
from ..workloads.tweets import TWEET_TYPE_FULL

#: the paper's batch sizes (§7.1)
BATCH_1X = 420
BATCH_4X = 1680
BATCH_16X = 6720
BATCH_SIZES = {"1X": BATCH_1X, "4X": BATCH_4X, "16X": BATCH_16X}


@dataclass(frozen=True)
class UseCase:
    """One enrichment workload: its UDFs and required reference datasets."""

    key: str
    title: str
    sqlpp_function: str
    datasets: tuple
    java_key: Optional[str] = None  # udflib entry, when a Java twin exists
    update_dataset: Optional[str] = None  # the §7.3 update target


USE_CASES: Dict[str, UseCase] = {
    case.key: case
    for case in [
        UseCase(
            "safety_rating",
            "Safety Rating",
            "enrichTweetQ1",
            ("SafetyRatings",),
            java_key="safety_rating",
            update_dataset="SafetyRatings",
        ),
        UseCase(
            "religious_population",
            "Religious Population",
            "enrichTweetQ2",
            ("ReligiousPopulations",),
            java_key="religious_population",
            update_dataset="ReligiousPopulations",
        ),
        UseCase(
            "largest_religions",
            "Largest Religions",
            "enrichTweetQ3",
            ("ReligiousPopulations",),
            java_key="largest_religions",
            update_dataset="ReligiousPopulations",
        ),
        UseCase(
            "fuzzy_suspects",
            "Fuzzy Suspects",
            "annotateTweetQ4",
            ("SensitiveNamesDataset",),
            java_key="fuzzy_suspects",
            update_dataset="SensitiveNamesDataset",
        ),
        UseCase(
            "nearby_monuments",
            "Nearby Monuments",
            "enrichTweetQ5",
            ("monumentList",),
            java_key="nearby_monuments",
            update_dataset="monumentList",
        ),
        UseCase(
            "naive_nearby_monuments",
            "Naive Nearby Monuments",
            "enrichTweetQ5Naive",
            ("monumentList",),
        ),
        UseCase(
            "suspicious_names",
            "Suspicious Names",
            "enrichTweetQ6",
            ("Facilities", "ReligiousBuildings", "SuspiciousNames"),
        ),
        UseCase(
            "tweet_context",
            "Tweet Context",
            "enrichTweetQ7",
            ("AverageIncomes", "DistrictAreas", "Facilities", "Persons"),
        ),
        UseCase(
            "worrisome_tweets",
            "Worrisome Tweets",
            "enrichTweetQ8",
            ("ReligiousBuildings", "AttackEvents"),
        ),
    ]
}

#: Figure 25/26/27 workloads (use cases 1-5)
SIMPLE_CASES = [
    "safety_rating",
    "religious_population",
    "largest_religions",
    "fuzzy_suspects",
    "nearby_monuments",
]

#: Figure 29/31 workloads (the complex UDFs)
COMPLEX_CASES = [
    "nearby_monuments",
    "suspicious_names",
    "tweet_context",
    "worrisome_tweets",
]


def env_scale(default: float = 0.01) -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", default))


def env_tweets(count: int) -> int:
    return max(10, int(count * float(os.environ.get("REPRO_BENCH_TWEETS", 1.0))))


def scaled_batch_sizes() -> Dict[str, int]:
    """The paper's 1X/4X/16X batch sizes, scaled to the bench tweet volume.

    The paper streams millions of tweets, so a 420-record batch recurs
    thousands of times; the scaled-down benches stream thousands, so batch
    sizes shrink proportionally (default 1/14, i.e. 30/120/480) to keep
    the jobs-per-run ratios — override with ``REPRO_BENCH_BATCH_SCALE=1``
    for the paper's absolute sizes.
    """
    scale = float(os.environ.get("REPRO_BENCH_BATCH_SCALE", 1.0 / 14.0))
    return {
        label: max(10, int(size * scale)) for label, size in BATCH_SIZES.items()
    }


class ExperimentHarness:
    """Runs one feed configuration over a freshly built catalog and registry."""

    def __init__(
        self,
        reference_scale: Optional[float] = None,
        num_partitions: int = 6,
        seed: int = 7,
        reference_work_scale: Optional[float] = None,
    ):
        self.scale = WorkloadScale(
            reference_scale=reference_scale
            if reference_scale is not None
            else env_scale(),
            seed=seed,
        )
        # default: charge reference work as if at the paper's cardinality;
        # Figure 28 overrides this so 2X generated data charges 2X work.
        self.reference_work_scale = (
            reference_work_scale
            if reference_work_scale is not None
            else 1.0 / self.scale.reference_scale
        )
        self.num_partitions = num_partitions
        self.workload = PaperWorkload(
            scale=self.scale, num_partitions=num_partitions
        )

    # ----------------------------------------------------------------- setup

    def catalog_for(self, datasets: Sequence[str]) -> Dict[str, object]:
        """Build the reference datasets a use case needs, fresh every call:
        a run's reference upserts end with the run."""
        return self.workload.build_catalog(sorted(datasets))

    def registry_for(self, catalog: Dict[str, object]) -> FunctionRegistry:
        registry = FunctionRegistry(lambda: set(catalog))
        register_paper_udfs(registry, self.workload.java_resources(catalog))
        return registry

    # ------------------------------------------------------------------- run

    def run_enrichment(
        self,
        use_case: Optional[str],
        tweets: int,
        num_nodes: int,
        batch_size: int = BATCH_16X,
        language: str = "sqlpp",
        framework: Framework = Framework.DYNAMIC,
        balanced_intake: bool = False,
        update_rate: float = 0.0,
        computing_model: ComputingModel = ComputingModel.PER_BATCH,
        predeploy: bool = True,
        decoupled: bool = True,
        stream_memory_budget: Optional[int] = None,
        intake_partitions: int = 1,
        max_subbatch_records: int = 0,
        computing_workers: int = 1,
        state_cache_bytes: int = 0,
    ) -> FeedRunReport:
        """Run one feed configuration and return its report.

        ``use_case=None`` runs the no-UDF basic-ingestion feed (Fig. 24).

        ``intake_partitions > 1`` runs partitioned intake: the tweet
        stream is round-robin pre-split across that many adapters, one
        intake actor each (dynamic framework only).
        ``max_subbatch_records`` caps the records one computing invocation
        handles — oversized batches are split across the worker pool and
        reassembled in order (intra-batch parallelism);
        ``computing_workers`` sizes that (fixed) pool.
        """
        case = USE_CASES[use_case] if use_case else None
        catalog = self.catalog_for(case.datasets if case else [])
        target = self.workload.enriched_tweets_dataset()
        catalog["EnrichedTweets"] = target
        registry = self.registry_for(catalog)

        functions: List[AttachedFunction] = []
        if case is not None:
            if language == "java":
                if case.java_key is None:
                    raise ValueError(f"{case.key} has no Java implementation")
                functions.append(
                    AttachedFunction(case.java_key, language="java", library="udflib")
                )
            else:
                functions.append(AttachedFunction(case.sqlpp_function))

        feed = FeedDefinition(
            name=f"bench-{use_case or 'plain'}",
            target_dataset="EnrichedTweets",
            datatype=TWEET_TYPE_FULL,
            batch_size=batch_size,
            framework=framework,
            computing_model=computing_model,
            functions=functions,
            balanced_intake=balanced_intake,
        )
        if stream_memory_budget is not None:
            feed.stream_memory_budget = stream_memory_budget
        if (
            intake_partitions > 1
            or max_subbatch_records > 0
            or computing_workers > 1
            or state_cache_bytes > 0
        ):
            from ..ingestion.policy import FeedPolicy

            # FeedPolicy.basic() mirrors the no-policy default, so the
            # scale-out knobs are the only behavioral difference
            feed.policy = FeedPolicy.basic(
                intake_partitions=intake_partitions,
                max_subbatch_records=max_subbatch_records,
                min_computing_workers=computing_workers,
                max_computing_workers=computing_workers,
                state_cache_bytes=state_cache_bytes,
            )
        # Charge reference-data work at the harness's configured scale
        # (by default: as if the datasets were at paper cardinality).
        feed.reference_work_scale = self.reference_work_scale

        cluster = Cluster(num_nodes)
        if intake_partitions > 1:
            # round-robin pre-split of the deterministic tweet stream:
            # partition p streams tweets p, p+N, p+2N, ... — the union is
            # exactly the single-adapter stream
            raw = list(self.workload.tweet_generator.raw_json(tweets))
            adapter = [
                GeneratorAdapter(iter(raw[p::intake_partitions]))
                for p in range(intake_partitions)
            ]
        else:
            adapter = GeneratorAdapter(
                self.workload.tweet_generator.raw_json(tweets)
            )

        update_client = None
        if update_rate > 0 and case is not None and case.update_dataset:
            ref = catalog[case.update_dataset]
            update_client = ReferenceUpdateClient(
                update_rate,
                self.workload.update_stream(case.update_dataset),
                ref.upsert,
            )

        if framework is Framework.STATIC:
            pipeline = StaticIngestionPipeline(cluster, catalog, registry)
            report = pipeline.run(feed, adapter)
        else:
            pipeline = DynamicIngestionPipeline(cluster, catalog, registry)
            report = pipeline.run(
                feed,
                adapter,
                update_client=update_client,
                predeploy=predeploy,
                decoupled=decoupled,
            )
        if update_client is not None:
            report.extra["updates_applied"] = float(update_client.applied)
        return report


# ------------------------------------------------------------------ printing


def format_table(title: str, headers: List[str], rows: List[List]) -> str:
    """Render a paper-style ASCII results table."""
    out = [title]
    cells = [headers] + [[_fmt(value) for value in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    line = "  ".join("-" * w for w in widths)
    out.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    out.append(line)
    for row in cells[1:]:
        out.append("  ".join(value.rjust(w) for value, w in zip(row, widths)))
    return "\n".join(out)


def _fmt(value) -> str:
    if isinstance(value, float):
        if value >= 100:
            return f"{value:,.0f}"
        if value >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)
