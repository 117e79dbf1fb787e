"""A feed run owns the cyclic collector, and its garbage is per run.

Every batch a run's storage job releases is frozen into the permanent
generation (``StorageJob.release``) and ``drive_runs`` thaws on every way out,
so a run leaves the permanent generation empty.  Cyclic garbage a run
makes is held until it ends, which is why the SQL++ path must not make
any per record: the run's own actors and closures are a constant.
"""

import gc
import itertools

import pytest

from repro import AsterixLite
from repro.adm import open_type
from repro.cluster import Cluster
from repro.ingestion import (
    AttachedFunction,
    FeedFabric,
    FeedLaunch,
    FileAdapter,
    GeneratorAdapter,
    ReferenceUpdateClient,
)
from repro.ingestion.storage_job import StorageJob
from repro.storage import CheckpointStore, Dataset
from repro.udf.library import register_paper_udfs
from repro.workloads import TWEET_TYPE_FULL, PaperWorkload, WorkloadScale

from .test_fabric import build_fleet, elastic
from .test_fabric import raws as fleet_raws
from .test_failure_handling import ClosingAdapter, make_system
from .test_scaleout import BATCH, RECORDS, run_feed, tweet_file

#: the paper's UDFs as a feed attaches them: (SQL++ function, udflib key)
PAPER_UDFS = {
    "q1": ("enrichTweetQ1", None),
    "q2": ("enrichTweetQ2", None),
    "q3": ("enrichTweetQ3", None),
    "q1_java": (None, "safety_rating"),
    "q4": ("annotateTweetQ4", None),
    "q5": ("enrichTweetQ5", None),
    "q5naive": ("enrichTweetQ5Naive", None),
    "q6": ("enrichTweetQ6", None),
    "q7": ("enrichTweetQ7", None),
    "q8": ("enrichTweetQ8", None),
}
N = 20
#: unreachable objects the 2N run may leave beyond the N run's
SLACK = 8


@pytest.fixture(scope="module")
def paper_system():
    paper = PaperWorkload(
        scale=WorkloadScale(reference_scale=0.002, persons=300, districts=50),
        num_partitions=2,
    )
    system = AsterixLite(num_nodes=2, default_partitions=2)
    system.catalog.update(paper.build_catalog())
    register_paper_udfs(system.registry, paper.java_resources(system.catalog))
    system.create_type("TweetType", dict(TWEET_TYPE_FULL.fields))
    return system, list(paper.tweet_generator.raw_json(2 * N))


def unreachable_after_feed(system, key, records) -> int:
    """Objects a feed run of ``records`` tweets leaves for the collector."""
    function, java = PAPER_UDFS[key]
    name = f"{key}_{len(system.catalog)}"
    system.create_dataset(f"Out_{name}", "TweetType", "id")
    system.create_feed(name, {"type-name": "TweetType"})
    attached = (
        AttachedFunction(java, language="java", library="udflib")
        if java
        else AttachedFunction(function)
    )
    system.connect_feed(name, f"Out_{name}", [attached])
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        system.start_feed(name, adapter=GeneratorAdapter(records), batch_size=10)
        gc.collect()
        return len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


@pytest.mark.parametrize("key", list(PAPER_UDFS))
def test_garbage_is_per_run_not_per_record(paper_system, key):
    system, tweets = paper_system
    unreachable_after_feed(system, key, tweets[:5])  # plans compile here
    once = unreachable_after_feed(system, key, tweets[:N])
    twice = unreachable_after_feed(system, key, tweets[: 2 * N])
    assert twice <= once + SLACK, (key, once, twice)


class TestTheRunOwnsTheCollector:
    """The permanent generation is empty before and after every way a run
    is driven, and holds the committed batches while it runs."""

    def test_solo_feed_freezes_mid_run(self):
        system = build_fleet(["A"])
        seen = []
        client = ReferenceUpdateClient(
            1e6,
            itertools.repeat({"wid": 0}, 20),
            lambda record: seen.append(gc.get_freeze_count()),
        )
        assert gc.get_freeze_count() == 0
        report = system.start_feed(
            "A",
            adapter=GeneratorAdapter(fleet_raws(60, "A")),
            batch_size=20,
            update_client=client,
        )
        assert report.records_stored == 60
        assert seen and min(seen) > 0
        assert gc.get_freeze_count() == 0

    def test_fleet_on_a_fabric(self):
        system = build_fleet(["A", "B"])
        launches = [
            FeedLaunch(
                feed=name,
                adapter=GeneratorAdapter(fleet_raws(60, name)),
                batch_size=20,
                policy=elastic(cap=2),
            )
            for name in ("A", "B")
        ]
        assert gc.get_freeze_count() == 0
        reports = system.start_feeds(launches, fabric=FeedFabric(total_workers=4))
        assert all(report.records_stored == 60 for report in reports.values())
        assert gc.get_freeze_count() == 0

    def test_resume_run(self, tmp_path):
        path = tweet_file(tmp_path)
        store = CheckpointStore(str(tmp_path / "ckpt"))
        system, _ = run_feed(FileAdapter(path, end_line=RECORDS // 2), checkpoint=store)
        assert gc.get_freeze_count() == 0
        report = system.resume_run(
            "TweetFeed", FileAdapter(path), checkpoint=store, batch_size=BATCH
        )
        assert report.resumed_from_checkpoint
        assert gc.get_freeze_count() == 0

    def test_run_that_raises(self):
        system = make_system()
        assert gc.get_freeze_count() == 0
        with pytest.raises(ZeroDivisionError):
            # the batch holding id 7 fails after the first batch committed
            system.start_feed("F", adapter=ClosingAdapter(range(20)), batch_size=4)
        assert gc.get_freeze_count() == 0

    def test_direct_store_batch_never_freezes(self):
        dataset = Dataset(
            "T", open_type("TT", id="int64"), "id", num_partitions=2, validate=False
        )
        storage = StorageJob(Cluster(2), dataset)
        assert gc.get_freeze_count() == 0
        storage.store_batch([[{"id": 1}], [{"id": 2}, {"id": 3}]])
        assert storage.records_stored == 3
        assert gc.get_freeze_count() == 0
