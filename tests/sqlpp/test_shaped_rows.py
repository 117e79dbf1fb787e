"""Shaped probe rows are derived once per build key and match list.

The columnar probe kernel shapes a key's match list once per compiled
kernel and serves every later record probing that key from the kernel's
store, which a write to the reference dataset carries forward minus the
keys whose matches it changed.  These tests pin the store's bound, its
key and its lifetime, the memo's bookings over it, and
hash-join keys that are arrays or objects on every path that probes a
build table.
"""

from __future__ import annotations

import json

import pytest

from repro.adm import open_type
from repro.core import AsterixLite
from repro.ingestion import GeneratorAdapter
from repro.ingestion.feed import AttachedFunction
from repro.ingestion.udf_operator import make_invoker
from repro.runtime.metrics import RunCounters
from repro.sqlpp import EvaluationContext, Evaluator, parse_function
from repro.sqlpp import columnar
from repro.sqlpp.columnar import compile_block_kernel
from repro.sqlpp.evaluator import Env
from repro.sqlpp.memo import EnrichmentMemo
from repro.sqlpp.state_cache import estimate_entry_bytes
from repro.storage import Dataset
from repro.udf import FunctionRegistry


def _catalog(name, key, records):
    dataset = Dataset(name, open_type(f"{name}T"), key, num_partitions=2, validate=False)
    for record in records:
        dataset.insert(record)
    dataset.flush_all()
    return {name: dataset}


def _religions():
    rows = [("US", "A", 10), ("US", "B", 30), ("US", "C", 20), ("US", "D", 5), ("FR", "A", 7)]
    return _catalog(
        "ReligiousPopulations",
        "rid",
        [
            {"rid": rid, "country_name": c, "religion_name": r, "population": p}
            for rid, (c, r, p) in enumerate(rows)
        ],
    )


TOP = """CREATE FUNCTION top(t) {
    LET religions = (SELECT VALUE r.religion_name FROM ReligiousPopulations r
                     WHERE r.country_name = t.country
                     ORDER BY r.population DESC LIMIT %d)
    SELECT t.*, religions
}"""


def _kernel(catalog, source):
    ctx = EvaluationContext(catalog)
    definition = parse_function(source)
    params = tuple(definition.params)
    plan = ctx.plan_cache.plan_for(definition.body, frozenset(params), catalog)
    return ctx, compile_block_kernel(plan, params, ctx), plan


@pytest.fixture
def stores(monkeypatch):
    """``stores()``: each kernel's current shaped-row store, one per kernel
    that shaped, in the order they first did."""
    helds = []
    shaped_rows = columnar._shaped_rows

    def spy(ev, dataset, field, shaping, held, token, keys):
        if not any(seen is held for seen in helds):
            helds.append(held)
        return shaped_rows(ev, dataset, field, shaping, held, token, keys)

    monkeypatch.setattr(columnar, "_shaped_rows", spy)
    return lambda: [held[0][1] for held in helds]


@pytest.fixture
def shaped(monkeypatch):
    """The keys every kernel shaped rows for, in order: a match list's
    country, ``None`` for the empty one."""
    calls = []
    shaped_rows = columnar._shaped_rows

    def spy(ev, dataset, field, shape, held, token, keys):
        def counting_shape(ev, matches):
            calls.append(matches[0]["country_name"] if matches else None)
            return shape(ev, matches)

        return shaped_rows(ev, dataset, field, counting_shape, held, token, keys)

    monkeypatch.setattr(columnar, "_shaped_rows", spy)
    return calls


def _batches(ctx, kernel, countries):
    """``batch()``: a new generation's kernel run over one tweet per
    country, as each tweet's religions."""
    tweets = [{"id": i, "country": c} for i, c in enumerate(countries)]

    def batch():
        ctx.refresh_batch()
        return [row["religions"] for row in kernel.run(Evaluator(ctx), tweets)]

    return batch


def test_keys_that_match_nothing_share_one_stored_entry(stores):
    catalog = _religions()
    ctx, kernel, _plan = _kernel(catalog, TOP % 3)
    tweets = [{"id": i, "country": f"absent{i}"} for i in range(500)]
    rows = kernel.run(Evaluator(ctx), tweets)
    assert all(row["religions"] == [] for row in rows)
    (store,) = stores()
    assert len(store) == 1
    assert ctx.meter.hash_probes == 500 and ctx.meter.sort_items == 0

    ctx.refresh_batch()
    rows = kernel.run(
        Evaluator(ctx),
        [{"id": 0, "country": None}, {"id": 1}, {"id": 2, "country": float("nan")},
         {"id": 3, "country": "US"}, {"id": 4, "country": "US"}],
    )
    assert [row["religions"] for row in rows] == [[], [], [], ["B", "C", "A"], ["B", "C", "A"]]
    assert len(store) == 2  # the empty entry and "US": distinct keys (2) + 1 bounds it
    # every record is charged its probe and its sort items, shaped or not
    assert ctx.meter.hash_probes == 505 and ctx.meter.sort_items == 8


def test_two_registries_over_one_catalog_keep_their_own_rows(stores):
    """Plan tokens are per registry and both start at 1, so the store keys
    on the compiled shaping, never on the token."""
    catalog = _religions()
    tweets = [{"id": 0, "country": "US"}, {"id": 1, "country": "FR"}]
    results, tokens = [], []
    for limit in (3, 1):
        registry = FunctionRegistry(lambda: set(catalog))
        registry.register_sqlpp(TOP % limit)
        ctx = EvaluationContext(catalog, functions=registry)
        results.append(
            make_invoker([AttachedFunction("top")], registry, RunCounters())(tweets, ctx)
        )
        tokens.append(sorted(plan.token for plan in registry.plan_cache._plans.values()))
    three, one = results
    assert tokens[0] == tokens[1]
    assert [row["religions"] for row in three] == [["B", "C", "A"], ["A"]]
    assert [row["religions"] for row in one] == [["B"], ["A"]]
    three_store, one_store = stores()
    assert three_store is not one_store
    assert (three_store["US"][0], one_store["US"][0]) == (["B", "C", "A"], ["B"])


def test_a_recompiled_kernel_leaves_nothing_on_the_snapshot(stores):
    """A new registration recompiles the kernel; its store goes with the
    old kernel, and the static snapshot derives nothing more."""
    catalog = _religions()
    snapshot = catalog["ReligiousPopulations"].snapshot()
    registry = FunctionRegistry(lambda: set(catalog))
    registry.register_sqlpp(TOP % 3)
    ctx = EvaluationContext(catalog, functions=registry)
    invoke = make_invoker([AttachedFunction("top")], registry, RunCounters())
    tweets = [{"id": 0, "country": "US"}, {"id": 1, "country": "XX"}]
    invoke(tweets, ctx)
    derived = dict(snapshot._derived)
    for n in range(3):
        registry.register_sqlpp(f"CREATE FUNCTION other{n}(t) {{ SELECT VALUE t }}")
        ctx.refresh_batch()
        rows = invoke(tweets, ctx)
        assert [row["religions"] for row in rows] == [["B", "C", "A"], []]
    assert catalog["ReligiousPopulations"].snapshot() is snapshot
    assert snapshot._derived == derived
    assert len(stores()) == 4  # one store per compiled kernel, each bounded
    assert all(len(store) == 2 for store in stores())


def test_an_upsert_reshapes_at_the_next_generation_only():
    catalog = _religions()
    ctx, kernel, _plan = _kernel(catalog, TOP % 1)
    tweet = {"id": 0, "country": "US"}
    assert kernel.run(Evaluator(ctx), [tweet])[0]["religions"] == ["B"]
    catalog["ReligiousPopulations"].upsert(
        {"rid": 0, "country_name": "US", "religion_name": "A", "population": 99}
    )
    # the generation pinned its snapshot: the write stays invisible
    assert kernel.run(Evaluator(ctx), [tweet])[0]["religions"] == ["B"]
    ctx.refresh_batch()
    assert kernel.run(Evaluator(ctx), [tweet])[0]["religions"] == ["A"]


def test_a_write_reshapes_only_the_keys_whose_matches_it_changed(stores, shaped):
    catalog = _religions()
    ctx, kernel, _plan = _kernel(catalog, TOP % 3)
    batch = _batches(ctx, kernel, ["US", "FR", "XX", None, "US"])
    assert batch() == [["B", "C", "A"], ["A"], [], [], ["B", "C", "A"]]
    assert shaped == ["US", "FR", None]
    (store,) = stores()
    before = dict(store)

    catalog["ReligiousPopulations"].upsert(
        {"rid": 0, "country_name": "US", "religion_name": "A", "population": 99}
    )
    del shaped[:]
    assert batch() == [["A", "B", "C"], ["A"], [], [], ["A", "B", "C"]]
    assert shaped == ["US"]
    assert store["US"] is not before["US"]
    # carried forward: the untouched key and the shared empty entry
    assert store["FR"] is before["FR"] and store[None] is before[None]
    assert len(store) == 3


def test_a_key_that_appears_or_loses_its_last_match_reshapes(stores, shaped):
    catalog = _religions()
    religions = catalog["ReligiousPopulations"]
    ctx, kernel, _plan = _kernel(catalog, TOP % 3)
    batch = _batches(ctx, kernel, ["US", "FR", "DE"])
    assert batch() == [["B", "C", "A"], ["A"], []]
    religions.upsert(
        {"rid": 9, "country_name": "DE", "religion_name": "E", "population": 1}
    )
    religions.delete(4)  # FR's one row
    del shaped[:]
    rows = batch()
    assert rows == [["B", "C", "A"], [], ["E"]]
    assert shaped == ["DE"]  # FR now takes the shared empty entry
    (store,) = stores()
    assert set(store) == {"US", "DE", None}
    ctx, fresh, _plan = _kernel(catalog, TOP % 3)
    assert _batches(ctx, fresh, ["US", "FR", "DE"])() == rows


def test_the_memo_books_a_key_at_its_entry_size(stores):
    """A key's rows are sized once, in its store entry, and every record
    the memo books them for books that size."""
    catalog = _religions()
    memo = EnrichmentMemo(1 << 20)
    ctx = EvaluationContext(catalog, memo=memo)
    definition = parse_function(TOP % 3)
    plan = ctx.plan_cache.plan_for(definition.body, frozenset("t"), catalog)
    kernel = compile_block_kernel(plan, ("t",), ctx)
    _batches(ctx, kernel, ["US", "US", "FR"])()
    (store,) = stores()
    assert len(memo) == 2
    for (_probe, _token, key), entry in memo._entries.items():
        assert entry.nbytes == store[key][3] == estimate_entry_bytes(store[key][0])


def test_the_memo_books_keys_and_an_all_booked_batch_builds_nothing(stores):
    """Per batch, a key is asked of the memo on every record until it hits;
    a record whose key is booked is charged the booking, not its probe or
    its sort items, and only a batch with an unbooked key charges the
    build."""
    catalog = _religions()
    memo = EnrichmentMemo(1 << 20)
    ctx = EvaluationContext(catalog, memo=memo)
    definition = parse_function(TOP % 3)
    plan = ctx.plan_cache.plan_for(definition.body, frozenset("t"), catalog)
    kernel = compile_block_kernel(plan, ("t",), ctx)
    built = ("hash", "ReligiousPopulations", "country_name")

    def batch(countries):
        ctx.refresh_batch()
        for meter in (ctx.meter, ctx.shared_meter):
            meter.reset()
        tweets = [{"id": i, "country": c} for i, c in enumerate(countries)]
        return [row["religions"] for row in kernel.run(Evaluator(ctx), tweets)]

    first = batch(["US", "US", "FR", "XX", None, "US"])
    assert first == [["B", "C", "A"]] * 2 + [["A"], [], [], ["B", "C", "A"]]
    assert (memo.hits, memo.misses, len(memo)) == (0, 5, 3)
    assert all(entry.value is None for entry in memo._entries.values())
    assert batch(["US", "US", "FR", "XX", None, "US"]) == first
    assert (memo.hits, memo.misses) == (3, 5)
    assert (ctx.meter.memo_hits, ctx.meter.hash_probes) == (5, 1)
    assert built in ctx.snapshots.built  # the NULL key is never booked
    assert batch(["US", "FR", "US"]) == [["B", "C", "A"], ["A"], ["B", "C", "A"]]
    assert (memo.hits, memo.misses) == (5, 5)
    assert ctx.meter.memo_reused_records == 7
    assert ctx.meter.hash_probes == ctx.meter.sort_items == 0
    assert built not in ctx.snapshots.built
    assert ctx.shared_meter.hash_builds == ctx.shared_meter.records_scanned == 0
    (store,) = stores()
    assert len(store) == 3  # "US", "FR" and the empty entry


# ------------------------------------------------- array and object join keys

RATINGS = [
    {"sid": 0, "country": "US", "rating": 3},
    {"sid": 1, "country": ["US"], "rating": 9},
    {"sid": 2, "country": {"code": "FR"}, "rating": 5},
    {"sid": 3, "country": "FR", "rating": 4},
]
RATE = """CREATE FUNCTION rateTweet(t) {
    LET ratings = (SELECT VALUE s.rating FROM SafetyRatings s
                   WHERE s.country = t.country)
    SELECT t.*, ratings
}"""
PROBES = ["US", ["US"], {"code": "FR"}, "FR", ["FR"], None]
EXPECTED = [[3], [9], [5], [4], [], []]


@pytest.mark.parametrize("path", ["interpreter", "planned", "kernel"])
def test_array_and_object_keys_join_by_value(path):
    """``'US' = ['US']`` is false and ``['US'] = ['US']`` true, as
    ``plans.apply_binary`` says; neither side may raise ``unhashable``."""
    catalog = _catalog("SafetyRatings", "sid", RATINGS)
    definition = parse_function(RATE)
    tweets = [{"id": i, "country": c} for i, c in enumerate(PROBES)]
    ctx = EvaluationContext(catalog, use_plans=path != "interpreter")
    ev = Evaluator(ctx)
    if path == "interpreter":
        rows = [r for t in tweets for r in ev.evaluate_select(definition.body, Env({"t": t}))]
    else:
        plan = ctx.plan_cache.plan_for(definition.body, frozenset("t"), catalog)
        if path == "planned":
            rows = [r for t in tweets for r in ev._planned_select(plan, Env({"t": t}))]
        else:
            rows = compile_block_kernel(plan, ("t",), ctx).run(ev, tweets)
    assert [row["ratings"] for row in rows] == EXPECTED


def test_a_feed_joining_an_array_valued_reference_row_stores_every_record():
    system = AsterixLite(num_nodes=2)
    system.execute(
        """
        CREATE TYPE TweetType AS OPEN { id: int64, text: string };
        CREATE DATASET EnrichedTweets(TweetType) PRIMARY KEY id;
        CREATE TYPE RatingType AS OPEN { sid: int64 };
        CREATE DATASET SafetyRatings(RatingType) PRIMARY KEY sid;
        """
    )
    system.insert("SafetyRatings", RATINGS)
    system.execute(
        RATE
        + """;
        CREATE FEED RatingFeed WITH { "type-name": "TweetType" };
        CONNECT FEED RatingFeed TO DATASET EnrichedTweets APPLY FUNCTION rateTweet;
        """
    )
    countries = ["US", "FR", "XX", ["US"]] * 5
    raws = [
        json.dumps({"id": i, "text": f"t{i}", "country": c})
        for i, c in enumerate(countries)
    ]
    report = system.start_feed("RatingFeed", adapter=GeneratorAdapter(raws), batch_size=10)
    assert report.records_stored == len(raws)
    stored = {r["id"]: r["ratings"] for r in system.catalog["EnrichedTweets"].scan()}
    expected = {"US": [3], "FR": [4], "XX": []}
    assert stored == {
        i: [9] if isinstance(c, list) else expected[c] for i, c in enumerate(countries)
    }
