"""Registering a function starts every feed's caches cold.

A SQL++ function named after a builtin shadows it (a call looks the
registry up first), so a result a feed cached before the registration may
be one the new function would not compute.  Registration clears the
feed's state cache and memo, as DDL and ``replace_sqlpp`` do; each test
shows a cache answering with a stale value otherwise.
"""

from __future__ import annotations

import json

from repro.adm import open_type
from repro.core import AsterixLite
from repro.ingestion import FeedPolicy, GeneratorAdapter
from repro.sqlpp import EvaluationContext, Evaluator, parse_expression
from repro.storage import Dataset
from repro.udf import FunctionRegistry

SHADOW_LOWER = 'CREATE FUNCTION lower(s) { "SHADOWED" }'
SHADOW_UPPER = 'CREATE FUNCTION upper(s) { "SHADOWED" }'


def _registry():
    ref = Dataset("R", open_type("RT"), "id", num_partitions=2, validate=False)
    ref.insert({"id": 0, "c": "x", "name": "Alpha"})
    ref.flush_all()
    catalog = {"R": ref}
    return catalog, FunctionRegistry(lambda: set(catalog))


def _evaluate(catalog, registry, query, caches=None):
    state_cache, memo = caches if caches is not None else (None, None)
    ctx = EvaluationContext(
        catalog, functions=registry, state_cache=state_cache, memo=memo
    )
    return Evaluator(ctx).evaluate_query(
        parse_expression(query), {"t": {"c": "x"}}
    )


def test_a_shadowing_registration_clears_the_memo():
    catalog, registry = _registry()
    caches = registry.caches_for("F")
    caches[1].configure(1 << 20)
    query = "(SELECT VALUE lower(r.name) FROM R r WHERE r.c = t.c)"
    assert _evaluate(catalog, registry, query, caches) == ["alpha"]
    assert len(caches[1]) == 1
    registry.register_sqlpp(SHADOW_LOWER)
    assert len(caches[1]) == 0
    assert _evaluate(catalog, registry, query, caches) == ["SHADOWED"]
    assert _evaluate(catalog, registry, query) == ["SHADOWED"]


def test_a_shadowing_registration_clears_the_state_cache():
    catalog, registry = _registry()
    caches = registry.caches_for("F")
    caches[0].configure(1 << 20)
    query = "(SELECT VALUE upper(r.name) FROM R r)"
    assert _evaluate(catalog, registry, query, caches) == ["ALPHA"]
    assert ("uncorrelated",) in {key[:1] for key in caches[0]._entries}
    registry.register_sqlpp(SHADOW_UPPER)
    assert len(caches[0]) == 0
    assert _evaluate(catalog, registry, query, caches) == ["SHADOWED"]


def test_a_java_registration_clears_both_caches():
    catalog, registry = _registry()
    state_cache, memo = registry.caches_for("F")
    for cache in (state_cache, memo):
        cache.configure(1 << 20)
        cache.put(("scan", "R"), (("R", (1, 1)),), None, 1, 600)

    class Descriptor:
        qualified_name = "lib#f"

    registry.register_java(Descriptor())
    assert (len(state_cache), len(memo)) == (0, 0)


def test_a_feed_rerun_after_a_shadowing_registration_stores_new_values():
    """The probe subquery runs per record (its WHERE is more than the
    probe conjunct), so the memo holds its values per ``c``; the
    uncorrelated block is the state cache's."""
    system = AsterixLite(num_nodes=2)
    system.execute(
        """
        CREATE TYPE TweetType AS OPEN { id: int64, text: string };
        CREATE DATASET EnrichedTweets(TweetType) PRIMARY KEY id;
        CREATE TYPE RefType AS OPEN { sid: int64 };
        CREATE DATASET Ref(RefType) PRIMARY KEY sid;
        """
    )
    system.insert(
        "Ref", [{"sid": i, "c": f"c{i % 3}", "name": f"Name{i}"} for i in range(6)]
    )
    system.execute(
        """
        CREATE FUNCTION enrichNames(t) {
            LET c = t.c,
                names = (SELECT VALUE lower(s.name) FROM Ref s
                         WHERE s.c = c AND s.sid >= 0),
                first = (SELECT VALUE upper(s.name) FROM Ref s
                         ORDER BY s.sid LIMIT 1)
            SELECT t.*, names, first
        };
        CREATE FEED NameFeed WITH { "type-name": "TweetType" };
        CONNECT FEED NameFeed TO DATASET EnrichedTweets
            APPLY FUNCTION enrichNames;
        """
    )
    policy = FeedPolicy.basic(state_cache_bytes=1 << 20, enrichment_memo_bytes=1 << 20)

    def run(start):
        raws = [
            json.dumps({"id": i, "text": "t", "c": f"c{i % 3}"})
            for i in range(start, start + 12)
        ]
        report = system.start_feed(
            "NameFeed", adapter=GeneratorAdapter(raws), batch_size=4, policy=policy
        )
        stored = {r["id"]: r for r in system.catalog["EnrichedTweets"].scan()}
        return report, [stored[i] for i in range(start, start + 12)]

    report, rows = run(0)
    assert report.memo_hits > 0 and report.state_cache_hits > 0
    assert sorted(rows[0]["names"]) == ["name0", "name3"]
    assert rows[0]["first"] == ["NAME0"]
    system.execute(SHADOW_LOWER + ";\n" + SHADOW_UPPER + ";")
    _report, rows = run(100)
    assert all(row["names"] == ["SHADOWED", "SHADOWED"] for row in rows)
    assert all(row["first"] == ["SHADOWED"] for row in rows)
