"""The five workloads: which feeds run, over how many records, under which policy.

Everything here goes through the public facade (``AsterixLite.create_feed``
/ ``connect_feed`` / ``start_feed`` / ``start_feeds``) over a
``PaperWorkload`` reference catalog and ``register_paper_udfs``; input is a
newline-delimited JSON file read by ``FileAdapter``.  Importing this module
imports ``repro``, so only the child process does it.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro import AsterixLite
from repro.bench.harness import USE_CASES
from repro.ingestion.adapter import FileAdapter
from repro.ingestion.fabric import FeedFabric, FeedLaunch
from repro.ingestion.feed import AttachedFunction, FeedRunReport
from repro.ingestion.policy import FeedPolicy
from repro.ingestion.updates import ReferenceUpdateClient
from repro.udf.library import register_paper_udfs
from repro.workloads import TWEET_TYPE_FULL, PaperWorkload, WorkloadScale

#: the paper's 1X batch (§7.1), used by every feed
BATCH_SIZE = 420
#: records in the untimed warm-up feed
WARMUP_RECORDS = 420
#: every count below is the issue's full-size count times this factor, so
#: that three rounds of any workload fit the contract's per-run time cap
SCALE = 1.0 / 3.0
#: ``--smoke`` runs at 1/50 of the issue's counts
SMOKE_SCALE = 1.0 / 50.0

REFERENCE_SCALE = 0.01
NUM_PARTITIONS = 2
NUM_NODES = 2
TYPE_NAME = "TweetType"

#: reference datasets each UDF reads (SQL++ name or udflib key)
_DATASETS_OF: Dict[str, Tuple[str, ...]] = {}
for _case in USE_CASES.values():
    _DATASETS_OF[_case.sqlpp_function] = _case.datasets
    if _case.java_key:
        _DATASETS_OF[_case.java_key] = _case.datasets


@dataclass(frozen=True)
class UpdateSpec:
    """A §7.3 reference-update client riding beside the feed."""

    dataset: str
    rate_per_sim_second: float


@dataclass(frozen=True)
class FeedSpec:
    name: str
    records: int  # the issue's full-size count; scaled at run time
    function: Optional[str] = None  # SQL++ UDF
    java: Optional[str] = None  # udflib key
    policy: Optional[Callable[[], FeedPolicy]] = None
    update: Optional[UpdateSpec] = None
    split: int = 1  # FileAdapter.split(n) intake partitions

    @property
    def udf(self) -> Optional[str]:
        return self.function or self.java

    @property
    def dataset(self) -> str:
        return f"Out_{self.name}"


@dataclass(frozen=True)
class CallSpec:
    """One timed call: a ``start_feed`` or, with a fabric, a ``start_feeds``."""

    name: str  # the ``ingestion.feed_s.<name>`` suffix
    feeds: Tuple[FeedSpec, ...]
    fabric_workers: int = 0  # > 0: start_feeds over a FeedFabric


def _solo(spec: FeedSpec) -> CallSpec:
    return CallSpec(spec.name, (spec,))


_MIB = 1024 * 1024


def _pool_policy() -> FeedPolicy:
    return FeedPolicy.basic(
        intake_partitions=4,
        max_subbatch_records=105,
        min_computing_workers=4,
        max_computing_workers=4,
    )


def _cached_policy() -> FeedPolicy:
    return FeedPolicy.basic(
        state_cache_bytes=64 * _MIB, enrichment_memo_bytes=16 * _MIB
    )


def _tenant_policy() -> FeedPolicy:
    return FeedPolicy.elastic(min_computing_workers=1, max_computing_workers=4)


WORKLOADS: Dict[str, Tuple[CallSpec, ...]] = {
    "ingest_plain": (_solo(FeedSpec("plain", 150_000)),),
    "enrich_hash": (
        _solo(FeedSpec("q1", 30_000, function="enrichTweetQ1")),
        _solo(FeedSpec("q2", 30_000, function="enrichTweetQ2")),
        _solo(FeedSpec("q3", 30_000, function="enrichTweetQ3")),
        _solo(FeedSpec("q1_java", 30_000, java="safety_rating")),
    ),
    "enrich_complex": (
        _solo(FeedSpec("q4", 1_500, function="annotateTweetQ4")),
        _solo(FeedSpec("q5", 4_000, function="enrichTweetQ5")),
        _solo(FeedSpec("q5naive", 100, function="enrichTweetQ5Naive")),
        _solo(FeedSpec("q6", 8_000, function="enrichTweetQ6")),
        _solo(FeedSpec("q7", 2_500, function="enrichTweetQ7")),
        _solo(FeedSpec("q8", 12_000, function="enrichTweetQ8")),
    ),
    "enrich_updates": (
        # rates are per *simulated* second, fixed from a scratch run:
        # upd_cold lands one reference upsert per ~5 tweets, upd_cached
        # fires once per ~8 batches (5 updates over 40 batches at SCALE)
        _solo(
            FeedSpec(
                "upd_cold",
                50_000,
                function="enrichTweetQ1",
                update=UpdateSpec("SafetyRatings", 620.0),
            )
        ),
        _solo(
            FeedSpec(
                "upd_cached",
                50_000,
                function="enrichTweetQ2",
                policy=_cached_policy,
                update=UpdateSpec("ReligiousPopulations", 1.0),
            )
        ),
    ),
    "scaleout_fleet": (
        _solo(
            FeedSpec(
                "pool", 30_000, function="enrichTweetQ1",
                policy=_pool_policy, split=4,
            )
        ),
        CallSpec(
            "fleet",
            tuple(
                FeedSpec(f"fleet_{q}", 10_000, function=fn, policy=_tenant_policy)
                for q, fn in (
                    ("q1", "enrichTweetQ1"),
                    ("q2", "enrichTweetQ2"),
                    ("q3", "enrichTweetQ3"),
                    ("q6", "enrichTweetQ6"),
                )
            ),
            fabric_workers=8,
        ),
    ),
}


def paper_workload(seed: int) -> PaperWorkload:
    """Reference data and the tweet generator, both drawn from ``seed``."""
    return PaperWorkload(
        scale=WorkloadScale(reference_scale=REFERENCE_SCALE, seed=seed),
        num_partitions=NUM_PARTITIONS,
    )


def scaled(records: int, scale: float) -> int:
    return max(1, round(records * scale))


def feeds_of(workload: str) -> List[FeedSpec]:
    return [feed for call in WORKLOADS[workload] for feed in call.feeds]


def input_records(workload: str, scale: float) -> int:
    """Lines the workload's input file needs: every feed reads a prefix."""
    return max(
        WARMUP_RECORDS,
        max(scaled(feed.records, scale) for feed in feeds_of(workload)),
    )


@dataclass
class CallResult:
    name: str
    timed_seconds: float
    sim_seconds: float  # a fleet's shared makespan counts once
    reports: Dict[str, FeedRunReport]
    fabric: Optional[FeedFabric] = None
    update_clients: List[ReferenceUpdateClient] = field(default_factory=list)


class Bench:
    """One workload's system, set up and ready for its timed calls."""

    def __init__(self, workload: str, input_path: str, scale: float, seed: int):
        self.workload = workload
        self.calls = WORKLOADS[workload]
        self.input_path = input_path
        self.scale = scale
        self.paper = paper_workload(seed)
        self.system = system = AsterixLite(
            num_nodes=NUM_NODES, default_partitions=NUM_PARTITIONS
        )
        feeds = feeds_of(workload)
        needed = sorted(
            {name for f in feeds if f.udf for name in _DATASETS_OF[f.udf]}
        )
        self.reference_names = needed
        system.catalog.update(self.paper.build_catalog(needed))
        register_paper_udfs(
            system.registry, self.paper.java_resources(system.catalog)
        )
        system.create_type(TYPE_NAME, dict(TWEET_TYPE_FULL.fields))
        for spec in feeds:
            self._create_feed(spec)
        self._warm_up(feeds[0])

    # ---------------------------------------------------------------- set-up

    def _create_feed(self, spec: FeedSpec, dataset: Optional[str] = None) -> None:
        system = self.system
        dataset = dataset or spec.dataset
        system.create_dataset(dataset, TYPE_NAME, "id")
        system.create_feed(spec.name, {"type-name": TYPE_NAME})
        functions = []
        if spec.java:
            functions.append(
                AttachedFunction(spec.java, language="java", library="udflib")
            )
        elif spec.function:
            functions.append(AttachedFunction(spec.function))
        system.connect_feed(spec.name, dataset, functions)

    def _warm_up(self, first: FeedSpec) -> None:
        """One small untimed feed so plan/kernel compilation is paid here."""
        warm = FeedSpec("warmup", 0, function=first.function, java=first.java)
        self._create_feed(warm, dataset="WarmupOut")
        self.system.start_feed(
            warm.name,
            adapter=FileAdapter(self.input_path, end_line=WARMUP_RECORDS),
            batch_size=BATCH_SIZE,
        )

    def records_of(self, spec: FeedSpec) -> int:
        return scaled(spec.records, self.scale)

    def datasets(self) -> List:
        """Every dataset the timed calls touch (targets + references)."""
        catalog = self.system.catalog
        return [catalog[name] for name in self.reference_names] + [
            catalog[feed.dataset] for feed in feeds_of(self.workload)
        ]

    # ----------------------------------------------------------------- timed

    def _adapter(self, spec: FeedSpec):
        adapter = FileAdapter(self.input_path, end_line=self.records_of(spec))
        return adapter.split(spec.split) if spec.split > 1 else adapter

    def _update_client(self, spec: FeedSpec, wrap_apply) -> Optional[ReferenceUpdateClient]:
        if spec.update is None:
            return None
        apply = self.system.catalog[spec.update.dataset].upsert
        return ReferenceUpdateClient(
            spec.update.rate_per_sim_second,
            self.paper.update_stream(spec.update.dataset),
            wrap_apply(apply) if wrap_apply else apply,
        )

    def run_call(
        self, call: CallSpec, wrap_apply=None, around=None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> CallResult:
        """Run one timed call; only the facade call is inside the timer.

        ``around(name)`` is the tracer's root-span context manager;
        ``wrap_apply`` wraps the update client's ``apply`` callable;
        ``clock`` reads the seconds the call is timed in.
        """
        system = self.system
        clients = [self._update_client(spec, wrap_apply) for spec in call.feeds]
        adapters = [self._adapter(spec) for spec in call.feeds]
        fabric = FeedFabric(call.fabric_workers) if call.fabric_workers else None
        if fabric is not None:
            launches = [
                FeedLaunch(
                    feed=spec.name,
                    adapter=adapter,
                    batch_size=BATCH_SIZE,
                    policy=spec.policy() if spec.policy else None,
                    update_client=client,
                )
                for spec, adapter, client in zip(call.feeds, adapters, clients)
            ]

            def invoke():
                return system.start_feeds(launches, fabric=fabric)
        else:
            (spec,), (adapter,), (client,) = call.feeds, adapters, clients
            policy = spec.policy() if spec.policy else None

            def invoke():
                report = system.start_feed(
                    spec.name,
                    adapter=adapter,
                    batch_size=BATCH_SIZE,
                    update_client=client,
                    policy=policy,
                )
                return {spec.name: report}

        with around(call.name) if around else contextlib.nullcontext():
            started = clock()
            reports = invoke()
            elapsed = clock() - started
        sims = [report.simulated_seconds for report in reports.values()]
        return CallResult(
            name=call.name,
            timed_seconds=elapsed,
            sim_seconds=max(sims) if fabric is not None else sum(sims),
            reports=reports,
            fabric=fabric,
            update_clients=[c for c in clients if c is not None],
        )
