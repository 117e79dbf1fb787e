"""Plan-layer tests: compile-once caching, invalidation, token stability.

The tentpole guarantee: per-record evaluation of an attached UDF performs
ZERO structural analysis (free_vars / split_conjuncts / join ordering)
after the first record of a feed, and plans are dropped the instant a
``replace_sqlpp`` UPSERT or a DDL change could make them stale.
"""

from __future__ import annotations

import gc

import pytest

import repro.sqlpp.evaluator as evaluator_module
import repro.sqlpp.plans as plans_module
from repro.adm.values import MISSING
from repro.core.system import AsterixLite
from repro.errors import IndexError_, SqlppAnalysisError
from repro.ingestion.feed import AttachedFunction
from repro.ingestion.udf_operator import make_invoker
from repro.runtime.metrics import RunCounters
from repro.sqlpp import EvaluationContext, Evaluator, parse_expression, parse_function
from repro.sqlpp.ast import FieldAccess, VarRef
from repro.sqlpp.evaluator import Env, Group
from repro.sqlpp.plans import PlanCache
from repro.storage import Dataset, IndexKind
from repro.udf import FunctionRegistry
from tests.udf import per_record_chain


def _counting(target, counter, key):
    def wrapper(*args, **kwargs):
        counter[key] += 1
        return target(*args, **kwargs)

    return wrapper


def test_zero_per_record_analysis_after_warmup(
    small_catalog, registry, sample_tweet, monkeypatch
):
    """After the first batch, the hot loop never re-analyzes the AST —
    neither the feed's batch invoker nor per-record invocation."""
    ctx = EvaluationContext(small_catalog, functions=registry)
    attached = [AttachedFunction("enrichTweetQ1"), AttachedFunction("enrichTweetQ5")]
    invokers = (
        make_invoker(attached, registry, RunCounters()),
        lambda records, ctx: per_record_chain(attached, registry, records, ctx),
    )
    for invoker in invokers:
        invoker([sample_tweet], ctx)  # warm-up: plans are built here

    counter = {"free_vars": 0, "split_conjuncts": 0, "order_terms": 0}
    monkeypatch.setattr(
        plans_module,
        "free_vars",
        _counting(plans_module.free_vars, counter, "free_vars"),
    )
    monkeypatch.setattr(
        evaluator_module,
        "free_vars",
        _counting(evaluator_module.free_vars, counter, "free_vars"),
    )
    monkeypatch.setattr(
        plans_module,
        "split_conjuncts",
        _counting(plans_module.split_conjuncts, counter, "split_conjuncts"),
    )
    monkeypatch.setattr(
        evaluator_module,
        "split_conjuncts",
        _counting(evaluator_module.split_conjuncts, counter, "split_conjuncts"),
    )
    monkeypatch.setattr(
        plans_module,
        "order_terms",
        _counting(plans_module.order_terms, counter, "order_terms"),
    )
    monkeypatch.setattr(
        evaluator_module,
        "order_terms",
        _counting(evaluator_module.order_terms, counter, "order_terms"),
    )

    for batch in range(3):
        for invoker in invokers:
            invoker([dict(sample_tweet, id=100 * batch + i) for i in range(10)], ctx)
        ctx.refresh_batch()  # new generation must NOT trigger replanning

    assert counter == {"free_vars": 0, "split_conjuncts": 0, "order_terms": 0}


def test_plan_cache_reports_hits_after_first_record(
    small_catalog, registry, sample_tweet
):
    ctx = EvaluationContext(small_catalog, functions=registry)
    invoker = make_invoker(
        [AttachedFunction("enrichTweetQ1")], registry, RunCounters()
    )
    assert ctx.plan_cache is registry.plan_cache

    invoker([sample_tweet], ctx)
    first = registry.plan_cache.stats()
    assert first["plans"] > 0
    assert first["misses"] == first["plans"]

    invoker([dict(sample_tweet, id=2)], ctx)
    second = registry.plan_cache.stats()
    assert second["plans"] == first["plans"]  # nothing new compiled
    assert second["hits"] > first["hits"]


def test_replace_sqlpp_mid_feed_uses_new_body_next_batch(
    small_catalog, registry, sample_tweet
):
    """§3.2 instant updates: an UPSERT drops stale plans immediately."""
    ctx = EvaluationContext(small_catalog, functions=registry)
    invoker = make_invoker(
        [AttachedFunction("enrichTweetQ1")], registry, RunCounters()
    )

    before = invoker([sample_tweet], ctx)
    assert before[0]["safety_rating"] == ["3"]  # US rating from the catalog

    registry.replace_sqlpp(
        parse_function(
            """
            CREATE FUNCTION enrichTweetQ1(t) {
                LET safety_rating = "patched"
                SELECT t.*, safety_rating
            }
            """
        )
    )
    assert registry.plan_cache.stats()["invalidations"] >= 1

    ctx.refresh_batch()  # next batch of the running feed
    after = invoker([dict(sample_tweet, id=2)], ctx)
    assert after[0]["safety_rating"] == "patched"


def test_dropped_and_recreated_index_flips_access_path(
    small_catalog, registry, sample_tweet
):
    """Physical access is decided per batch, not baked into the plan."""
    dataset = small_catalog["SafetyRatings"]
    invoker = make_invoker(
        [AttachedFunction("enrichTweetQ1")], registry, RunCounters()
    )

    def run_batch(ctx, batch):
        ctx.refresh_batch()
        invoker([dict(sample_tweet, id=batch)], ctx)
        return ctx

    ctx = EvaluationContext(small_catalog, functions=registry)
    run_batch(ctx, 1)
    assert ctx.meter.hash_probes > 0  # no index yet: batch hash join
    assert ctx.meter.btree_probes == 0

    dataset.create_index("sr_cc", "country_code", IndexKind.BTREE)
    before = ctx.meter.btree_probes
    run_batch(ctx, 2)
    assert ctx.meter.btree_probes > before  # flipped to live B-tree probes

    dataset.drop_index("sr_cc")
    hash_before = ctx.meter.hash_probes
    run_batch(ctx, 3)
    assert ctx.meter.hash_probes > hash_before  # back to the hash build

    # the flip needed no replanning: index choice is consulted at runtime
    assert registry.plan_cache.stats()["invalidations"] == 0


def test_plan_tokens_survive_gc_and_invalidation():
    """Tokens are monotonic — never recycled, even after id() reuse."""
    cache = PlanCache()

    def make_block():
        return parse_function(
            "CREATE FUNCTION f(t) { SELECT VALUE t.x FROM [t] t }"
        ).body

    block = make_block()
    token = cache.token_for(block)
    assert cache.token_for(block) == token  # stable across calls

    del block
    gc.collect()
    fresh_tokens = {cache.token_for(make_block()) for _ in range(5)}
    assert token not in fresh_tokens  # id() reuse cannot collide

    cache.invalidate()
    after = cache.token_for(make_block())
    assert after > token  # the counter is never reset


def test_dataset_drop_index_unknown_name():
    system = AsterixLite(num_nodes=1)
    system.execute(
        """
        CREATE TYPE RT AS OPEN { rid: int64 };
        CREATE DATASET Ref(RT) PRIMARY KEY rid;
        """
    )
    with pytest.raises(IndexError_):
        system.drop_index("Ref", "nope")


def test_system_ddl_invalidates_and_exposes_stats(sample_tweet):
    system = AsterixLite(num_nodes=1)
    system.execute(
        """
        CREATE TYPE RT AS OPEN { country_code: string };
        CREATE DATASET Ratings(RT) PRIMARY KEY country_code;
        """
    )
    system.insert("Ratings", [{"country_code": "US", "safety_rating": "3"}])
    system.create_function(
        """
        CREATE FUNCTION rate(t) {
            LET r = (SELECT VALUE s.safety_rating FROM Ratings s
                     WHERE s.country_code = t.country)[0]
            SELECT t.*, r
        }
        """
    )
    ctx = system.evaluation_context()
    out = system.registry.invoke("rate", [sample_tweet], ctx)
    assert out[0]["r"] == "3"

    stats = system.plan_cache_stats()
    assert stats["plans"] > 0

    invalidations = stats["invalidations"]
    system.create_index("r_cc", "Ratings", "country_code")
    assert system.plan_cache_stats()["invalidations"] > invalidations
    system.drop_index("Ratings", "r_cc")
    assert system.plan_cache_stats()["plans"] == 0  # dropped, will replan


# ------------------------------------------- closures bound at compile time

T_F = FieldAccess(VarRef("t"), "f")


def _grouped(key_values):
    """A scope inside one group whose keys are ``key_values``, over a
    tuple that binds ``t`` to ``{"f": "row"}``."""
    env = Env({"t": {"f": "row"}})
    env.group = Group([], key_values)
    return env.child({})


@pytest.mark.parametrize(
    "env, catalog, expected",
    [
        (_grouped({T_F: "key"}), {}, "key"),  # GROUP BY t.f
        (_grouped({VarRef("t"): {"f": "group"}}), {}, "group"),  # GROUP BY t AS t
        (_grouped({VarRef("t"): 7}), {}, MISSING),  # a group key that is no record
        (Env({}), {"t": Dataset("t", None, "id")}, MISSING),  # a dataset's name
    ],
    ids=["group-by-field", "group-by-var", "group-by-var-scalar", "dataset-name"],
)
def test_fused_var_field_equals_field_over_varref(env, catalog, expected):
    """``var.field`` compiles to one closure; it returns what the field
    over the variable returns (the tree-walking evaluation), with the
    field expression's group key checked before the variable's."""
    evaluator = Evaluator(EvaluationContext(catalog))
    assert evaluator.evaluate(T_F, env) == expected
    assert plans_module.compile_expr(T_F)(evaluator, env) == expected


def test_fused_var_field_raises_on_an_unresolved_name():
    evaluator = Evaluator(EvaluationContext({}))
    with pytest.raises(SqlppAnalysisError) as tree_walk:
        evaluator.evaluate(T_F, Env({}))
    with pytest.raises(SqlppAnalysisError) as compiled:
        plans_module.compile_expr(T_F)(evaluator, Env({}))
    assert str(compiled.value) == str(tree_walk.value) == "unresolved variable: t"


def test_udf_registered_after_compile_shadows_the_builtin():
    """A call's builtin is bound when it compiles; a SQL++ function of the
    same name registered later still wins on the next call."""
    registry = FunctionRegistry()
    evaluator = Evaluator(EvaluationContext({}, functions=registry))
    call = plans_module.compile_expr(parse_expression('upper("ab")'))
    assert call(evaluator, Env({})) == "AB"
    registry.register_sqlpp('CREATE FUNCTION upper(s) { "shadowed" };')
    assert call(evaluator, Env({})) == "shadowed"
