"""Micro-benchmarks of the substrates (wall-clock, for regression tracking).

These are not paper figures; they measure the real Python performance of
the building blocks so substrate regressions are visible independently of
the simulated-time results.
"""

import json
import random

import pytest

from repro.adm import Circle, DateTime, Point, Rectangle, open_type, parse_json
from repro.cluster import Cluster
from repro.ingestion.storage_job import StorageJob
from repro.sqlpp import (
    EvaluationContext,
    Evaluator,
    edit_distance,
    parse_expression,
    parse_function,
)
from repro.sqlpp.columnar import compile_block_kernel
from repro.sqlpp.state_cache import StateCache
from repro.storage import BPlusTree, Dataset, LSMTree, RTree
from repro.udf import FunctionRegistry, register_paper_udfs
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
        storage = StorageJob(Cluster(2), target)
        for outputs in batches:
            storage.store_batch(outputs)
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


def test_micro_storage_snapshot_forward(benchmark):
    """One upsert into a 5,000-record, 2-partition reference dataset, then
    the next generation's snapshot, its hash table and the state cache's
    byte estimate of both: the held snapshot and what it derived move
    forward by the upsert's WAL record."""
    ratings = Dataset(
        "SafetyRatings", open_type("T"), "sid", num_partitions=2, validate=False
    )
    for i in range(5000):
        ratings.insert({"sid": i, "county": f"county{i % 500}", "rating": i % 10})
    ratings.flush_all()
    ctx = EvaluationContext(
        {"SafetyRatings": ratings}, state_cache=StateCache(64 << 20)
    )
    updates = iter(range(10**9))

    def upsert_and_read():
        i = next(updates)
        ratings.upsert({"sid": i % 5000, "county": f"county{i % 499}", "rating": i})
        ctx.refresh_batch()
        Evaluator(ctx)._hash_table(ratings, "county")

    benchmark(upsert_and_read)


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


def test_micro_rtree_build_rectangles(benchmark):
    """5,000 DistrictAreas-shaped cells: a grid of rectangles that share
    their edges, in row-major order, so enlargements tie and the split
    hands entries out by area."""
    columns, rows = 70, 72
    width, height = 100.0 / columns, 100.0 / rows
    cells = [
        Rectangle(c * width, r * height, (c + 1) * width, (r + 1) * height)
        for r in range(rows)
        for c in range(columns)
    ][:5000]

    def insert_5000():
        tree = RTree(max_entries=16)
        for pk, cell in enumerate(cells):
            tree.insert(cell, pk)
        return tree

    benchmark(insert_5000)


def test_micro_rtree_upsert_churn(benchmark):
    """1,000 upserts into a 5,000-point tree, each a delete and then an
    insert of the moved point (``SecondaryIndex.on_upsert``): underfull
    leaves are condensed and their entries reinserted."""
    rnd = random.Random(0)
    points = [Point(rnd.uniform(0, 100), rnd.uniform(0, 100)) for _ in range(5000)]
    moves = [
        (pk, Point(rnd.uniform(0, 100), rnd.uniform(0, 100)))
        for pk in rnd.sample(range(5000), 1000)
    ]

    def build():
        tree = RTree(max_entries=16)
        for pk, point in enumerate(points):
            tree.insert(point, pk)
        return (tree,), {}

    def churn(tree):
        for pk, moved in moves:
            tree.delete(points[pk], pk)
            tree.insert(moved, pk)

    benchmark.pedantic(churn, setup=build, rounds=5)


def test_micro_rtree_probe(benchmark):
    rnd = random.Random(0)
    tree = RTree(max_entries=16)
    for i in range(5000):
        tree.insert(Point(rnd.uniform(0, 100), rnd.uniform(0, 100)), i)
    queries = [
        Circle(Point(rnd.uniform(0, 100), rnd.uniform(0, 100)), 1.5)
        for _ in range(200)
    ]

    def probe_all():
        for query in queries:
            list(tree.search(query, []))

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


def _religion_kernel(udf):
    """``(ctx, kernel, religions, tweets)``: the paper UDF ``udf``'s
    BlockKernel over 200 countries x 25 religion rows and one 420-tweet
    batch."""
    workload = PaperWorkload(scale=WorkloadScale(reference_scale=0.01))
    religions = Dataset(
        "ReligiousPopulations", open_type("T"), "rid", num_partitions=4,
        validate=False,
    )
    for record in workload.religious_populations():
        religions.insert(record)
    religions.flush_all()
    catalog = {"ReligiousPopulations": religions}
    ctx = EvaluationContext(catalog)
    definition = parse_function(SQLPP_UDFS[udf])
    params = tuple(definition.params)
    plan = ctx.plan_cache.plan_for(definition.body, frozenset(params), catalog)
    kernel = compile_block_kernel(plan, params, ctx)
    tweets = [json.loads(raw) for raw in workload.tweet_generator.raw_json(420)]
    return ctx, kernel, religions, tweets


def test_micro_sqlpp_probe_kernel(benchmark):
    """Q3's BlockKernel over one 420-tweet batch against 200 countries x 25
    religion rows, one generation per round: the snapshot, its hash table
    and its shaped rows stay, as they do between a feed's batches.  The
    per-record interpreter path is test_micro_sqlpp_hash_enrichment."""
    ctx, kernel, _religions, tweets = _religion_kernel("largest_religions")

    def enrich_batch():
        ctx.refresh_batch()
        kernel.run(Evaluator(ctx), tweets)

    benchmark(enrich_batch)


def test_micro_sqlpp_probe_kernel_reshaping(benchmark):
    """Q2's BlockKernel as above, with one ReligiousPopulations upsert
    before each round: the write moves the snapshot and its hash table
    forward by one record, and the round reshapes only the key whose
    match list that record changed."""
    ctx, kernel, religions, tweets = _religion_kernel("religious_population")
    record = dict(next(iter(religions.snapshot().records)))
    populations = iter(range(1_000, 10**9))

    def upsert_and_enrich_batch():
        record["population"] = next(populations)
        religions.upsert(dict(record))
        ctx.refresh_batch()
        kernel.run(Evaluator(ctx), tweets)

    benchmark(upsert_and_enrich_batch)


def _complex_world(datasets):
    """The e2e benchmark's reference data for ``datasets`` (scale 0.01, two
    partitions, with its R-trees) and the paper UDFs registered over it."""
    workload = PaperWorkload(
        scale=WorkloadScale(reference_scale=0.01, seed=7), num_partitions=2
    )
    catalog = workload.build_catalog(datasets)
    registry = FunctionRegistry(lambda: set(catalog))
    register_paper_udfs(registry)
    return workload, catalog, registry


def _tweet_circles(workload, count):
    return [
        Circle(Point(tweet["latitude"], tweet["longitude"]), 1.5)
        for tweet in workload.tweet_generator.records(count)
    ]


def test_micro_rtree_monument_probes(benchmark):
    """Q5's R-tree searches: one 420-tweet batch of 1.5-radius circles
    against one partition of the e2e monumentList (about 2,500 monuments)."""
    workload, catalog, _registry = _complex_world(["monumentList"])
    (index, *_rest) = catalog["monumentList"].indexes["monumentList_spatial"]
    circles = _tweet_circles(workload, 420)

    def probe_batch():
        for circle in circles:
            index.probe_spatial(circle, [])

    benchmark(probe_batch)


def test_micro_sqlpp_q4_block(benchmark):
    """Q4 record by record: the similarity join of 50 screen names against
    the 50 SensitiveNamesDataset rows, ``removeSpecial`` once per tweet."""
    workload, catalog, registry = _complex_world(["SensitiveNamesDataset"])
    ctx = EvaluationContext(catalog, functions=registry)
    evaluator = Evaluator(ctx)
    expr = parse_expression("annotateTweetQ4(t)")
    tweets = list(workload.tweet_generator.records(50))

    def enrich_all():
        ctx.refresh_batch()
        for tweet in tweets:
            evaluator.evaluate_query(expr, {"t": tweet})

    benchmark(enrich_all)


def test_micro_sqlpp_no_index_spatial_filter(benchmark):
    """Q5Naive's no-index filter: 20 tweets' circles against the 5,000
    monuments of one snapshot, bisected by x."""
    workload, catalog, registry = _complex_world(["monumentList"])
    ctx = EvaluationContext(catalog, functions=registry)
    evaluator = Evaluator(ctx)
    expr = parse_expression("enrichTweetQ5Naive(t)")
    tweets = list(workload.tweet_generator.records(20))

    def enrich_all():
        ctx.refresh_batch()
        for tweet in tweets:
            evaluator.evaluate_query(expr, {"t": tweet})

    benchmark(enrich_all)


def _complex_block_kernel(udf, datasets):
    """``(ctx, kernel, tweets)``: the paper UDF ``udf``'s BlockKernel over
    ``_complex_world(datasets)`` and one 420-tweet batch parsed against
    the full tweet type."""
    workload, catalog, registry = _complex_world(datasets)
    ctx = EvaluationContext(catalog, functions=registry)
    definition = parse_function(SQLPP_UDFS[udf])
    params = tuple(definition.params)
    plan = ctx.plan_cache.plan_for(definition.body, frozenset(params), catalog)
    kernel = compile_block_kernel(plan, params, ctx)
    tweets = [
        parse_json(raw, TWEET_TYPE_FULL)
        for raw in workload.tweet_generator.raw_json(420)
    ]
    return ctx, kernel, tweets


def test_micro_sqlpp_q7_block(benchmark):
    """Q7 (Tweet Context) over one 420-tweet batch: three two-term spatial
    join steps, each driven by a DistrictAreas R-tree search per tweet."""
    ctx, kernel, tweets = _complex_block_kernel(
        "tweet_context", ["AverageIncomes", "DistrictAreas", "Facilities", "Persons"]
    )

    def enrich_batch():
        ctx.refresh_batch()
        kernel.run(Evaluator(ctx), tweets)

    benchmark(enrich_batch)


def test_micro_sqlpp_q8_block(benchmark):
    """Q8 (Worrisome Tweets) over one 420-tweet batch: one two-term join
    step, a ReligiousBuildings R-tree search per tweet and a hash probe of
    AttackEvents per building found."""
    ctx, kernel, tweets = _complex_block_kernel(
        "worrisome_tweets", ["ReligiousBuildings", "AttackEvents"]
    )

    def enrich_batch():
        ctx.refresh_batch()
        kernel.run(Evaluator(ctx), tweets)

    benchmark(enrich_batch)
