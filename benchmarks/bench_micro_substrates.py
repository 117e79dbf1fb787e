"""Micro-benchmarks of the substrates (wall-clock, for regression tracking).

These are not paper figures; they measure the real Python performance of
the building blocks so substrate regressions are visible independently of
the simulated-time results.
"""

import json
import random

import pytest

from repro.adm import DateTime, Point, open_type, parse_json
from repro.cluster import Cluster
from repro.ingestion.pipelines import _StorageLayer
from repro.sqlpp import EvaluationContext, Evaluator, edit_distance, parse_expression
from repro.storage import BPlusTree, Dataset, LSMTree, RTree
from repro.udf.library import SQLPP_UDFS, RemoveSpecialUdf
from repro.workloads import (
    TWEET_TYPE_FULL,
    PaperWorkload,
    TweetGenerator,
    WorkloadScale,
)


def test_micro_adm_parse(benchmark):
    raws = list(TweetGenerator().raw_json(500))

    def parse_all():
        # against the feed's type, so the codec and DateTime.parse are timed
        for raw in raws:
            parse_json(raw, TWEET_TYPE_FULL)

    benchmark(parse_all)


def test_micro_datetime_parse(benchmark):
    # tweets are 100 ms apart, so both wire shapes occur: one stamp in ten
    # is whole seconds (``…:40Z``), the rest carry milliseconds (``…:40.100Z``)
    stamps = [json.loads(raw)["created_at"] for raw in TweetGenerator().raw_json(500)]
    assert {len(stamp) for stamp in stamps} == {20, 24}

    def parse_all():
        for stamp in stamps:
            DateTime.parse(stamp)

    benchmark(parse_all)


def test_micro_store_batch(benchmark):
    """50 batches of 420 through the storage job on a 2-partition dataset."""
    raws = TweetGenerator().raw_json(50 * 420)
    records = [parse_json(raw, TWEET_TYPE_FULL) for raw in raws]
    batches = [
        [records[at : at + 420 : 2], records[at + 1 : at + 420 : 2]]
        for at in range(0, len(records), 420)
    ]

    def store_all():
        target = Dataset("Tweets", TWEET_TYPE_FULL, "id", num_partitions=2)
        storage = _StorageLayer(Cluster(2), target, "upsert")
        for outputs in batches:
            storage.store_batch(outputs)
        storage.close()
        return storage.records_stored

    assert benchmark(store_all) == 50 * 420


def test_micro_lsm_insert(benchmark):
    def insert_2000():
        tree = LSMTree(memtable_budget=256)
        for i in range(2000):
            tree.upsert(i, {"id": i})
        return tree

    benchmark(insert_2000)


def test_micro_lsm_lookup(benchmark):
    tree = LSMTree(memtable_budget=256)
    for i in range(5000):
        tree.upsert(i, {"id": i})
    keys = random.Random(0).sample(range(5000), 500)

    def lookup_all():
        for key in keys:
            tree.get(key)

    benchmark(lookup_all)


def test_micro_btree_probe(benchmark):
    tree = BPlusTree(order=32)
    for i in range(10_000):
        tree.insert(i, f"pk{i}")
    keys = random.Random(0).sample(range(10_000), 1000)

    def probe_all():
        for key in keys:
            tree.search(key)

    benchmark(probe_all)


def test_micro_rtree_build(benchmark):
    rnd = random.Random(0)
    points = [Point(rnd.uniform(0, 100), rnd.uniform(0, 100)) for _ in range(5000)]

    def insert_5000():
        tree = RTree(max_entries=16)
        for pk, point in enumerate(points):
            tree.insert(point, pk)
        return tree

    benchmark(insert_5000)


def test_micro_rtree_probe(benchmark):
    rnd = random.Random(0)
    tree = RTree(max_entries=16)
    for i in range(5000):
        tree.insert(Point(rnd.uniform(0, 100), rnd.uniform(0, 100)), i)
    from repro.adm import Circle

    queries = [
        Circle(Point(rnd.uniform(0, 100), rnd.uniform(0, 100)), 1.5)
        for _ in range(200)
    ]

    def probe_all():
        for query in queries:
            list(tree.search(query))

    benchmark(probe_all)


def test_micro_edit_distance(benchmark):
    """Q4's pairs: cleaned screen names against the sensitive-name list."""
    workload = PaperWorkload(scale=WorkloadScale(reference_scale=0.01))
    suspects = [record["sensitiveName"] for record in workload.sensitive_names()]
    clean = RemoveSpecialUdf().evaluate
    names = [
        clean(json.loads(raw)["user"]["screen_name"])
        for raw in workload.tweet_generator.raw_json(100)
    ]

    def all_pairs():
        for name in names:
            for suspect in suspects:
                edit_distance(name, suspect)

    benchmark(all_pairs)


def test_micro_sqlpp_parse(benchmark):
    source = SQLPP_UDFS["tweet_context"]

    def parse_udf():
        from repro.sqlpp import parse_function

        return parse_function(source)

    benchmark(parse_udf)


def test_micro_sqlpp_hash_enrichment(benchmark):
    ratings = Dataset(
        "SafetyRatings", open_type("T"), "country_code", num_partitions=4,
        validate=False,
    )
    for i in range(2000):
        ratings.insert({"country_code": f"C{i:04d}", "safety_rating": "3"})
    ratings.flush_all()
    ctx = EvaluationContext({"SafetyRatings": ratings})
    evaluator = Evaluator(ctx)
    expr = parse_expression(
        "SELECT VALUE s.safety_rating FROM SafetyRatings s "
        "WHERE t.country = s.country_code"
    )
    tweets = [{"country": f"C{i % 2000:04d}"} for i in range(500)]

    def enrich_all():
        ctx.refresh_batch()
        for tweet in tweets:
            evaluator.evaluate_query(expr, {"t": tweet})

    benchmark(enrich_all)
