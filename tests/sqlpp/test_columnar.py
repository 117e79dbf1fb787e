"""Columnar kernel compilation: column kinds and fallback triggers.

A shape with no batched form must either fail kernel compilation for the
whole block (:class:`Unsupported`, surfaced as the ``UNSUPPORTED``
sentinel through :func:`kernel_for`), run its subquery per record inside
that one column (``fallback_lets``), or abort at run time
(:class:`KernelFallback`) — never silently produce different results.
"""

from __future__ import annotations

import pytest

from repro.errors import SqlppAnalysisError
from repro.hyracks.cost import WorkMeter
from repro.ingestion.feed import AttachedFunction
from repro.ingestion.udf_operator import make_batch_invoker, make_invoker
from repro.runtime.metrics import RunCounters
from repro.sqlpp import EvaluationContext, Evaluator, parse_function
from repro.sqlpp.evaluator import Env
from repro.sqlpp.columnar import (
    UNSUPPORTED,
    KernelFallback,
    Unsupported,
    compile_block_kernel,
    kernel_for,
)
from repro.storage import IndexKind


def _compile(ctx, source):
    definition = parse_function(source)
    plan = ctx.plan_cache.plan_for(
        definition.body, frozenset(definition.params), ctx.catalog
    )
    return compile_block_kernel(plan, tuple(definition.params), ctx), plan


def _ctx(small_catalog, registry):
    return EvaluationContext(small_catalog, functions=registry, use_plans=True)


# ------------------------------------------------------- whole-block shapes


WHOLE_BLOCK_UNSUPPORTED = [
    (
        "non_unary",
        "CREATE FUNCTION f(a, b) { SELECT a.*, b AS other }",
        "unary",
    ),
    (
        "top_level_from",
        """CREATE FUNCTION f(t) {
            SELECT VALUE s.safety_rating FROM SafetyRatings s
            WHERE s.country_code = t.country
        }""",
        "FROM",
    ),
    (
        "top_level_distinct",
        "CREATE FUNCTION f(t) { SELECT DISTINCT t.country AS c }",
        "GROUP/ORDER/DISTINCT",
    ),
]


@pytest.mark.parametrize(
    "source,match",
    [(source, match) for _key, source, match in WHOLE_BLOCK_UNSUPPORTED],
    ids=[key for key, _source, _match in WHOLE_BLOCK_UNSUPPORTED],
)
def test_whole_block_shapes_stay_scalar(small_catalog, registry, source, match):
    ctx = _ctx(small_catalog, registry)
    with pytest.raises(Unsupported, match=match):
        _compile(ctx, source)


def test_kernel_for_caches_unsupported_sentinel(small_catalog, registry):
    ctx = _ctx(small_catalog, registry)
    definition = parse_function(WHOLE_BLOCK_UNSUPPORTED[1][1])
    plan = ctx.plan_cache.plan_for(
        definition.body, frozenset(definition.params), ctx.catalog
    )
    params = tuple(definition.params)
    assert kernel_for(plan, params, ctx, registry.version) is UNSUPPORTED
    # Cached on the plan: the second lookup returns without recompiling.
    assert plan.batch_kernel == (registry.version, UNSUPPORTED)
    assert kernel_for(plan, params, ctx, registry.version) is UNSUPPORTED


def test_registry_version_bump_recompiles_kernel(small_catalog, registry):
    ctx = _ctx(small_catalog, registry)
    kernel, plan = _compile(
        ctx,
        "CREATEFN".replace(
            "CREATEFN",
            "CREATE FUNCTION f(t) { LET x = lower(t.text) SELECT t.*, x }",
        ),
    )
    params = ("t",)
    first = kernel_for(plan, params, ctx, registry.version)
    assert first is kernel_for(plan, params, ctx, registry.version)
    registry.register_sqlpp(
        "CREATE FUNCTION unrelatedBump(q) { SELECT q.* }"
    )
    second = kernel_for(plan, params, ctx, registry.version)
    assert second is not first  # version moved, kernel recompiled


# ------------------------------------------------------------ column kinds
#
# (key, LET clause, per-batch fallbacks).  A column counts as a fallback
# exactly when one of its subqueries runs per record: it sits in a
# conditionally-evaluated position or the probe kernel declined its shape.
# Everything else without a batched form — Java, registry, metered or
# unknown calls, unbound names — is just the plan's scalar closure mapped
# over the batch: nothing to count, only parity to hold.


COLUMN_CASES = [
    ("java_library_call", "LET x = testlib#removeSpecial(t.text)", 0),
    ("metered_builtin", 'LET x = edit_distance(t.text, "abc")', 0),
    ("registry_function", "LET x = enrichTweetQ1(t)", 0),
    ("unknown_function", "LET x = no_such_function(t.text)", 0),
    ("zero_argument_call", "LET x = coalesce()", 0),
    ("unknown_column", "LET x = unbound_name", 0),
    (
        "subquery_in_conditional_position",
        """LET x = t.id > 100 OR EXISTS (
            SELECT VALUE s FROM SafetyRatings s
            WHERE s.country_code = t.country)""",
        1,
    ),
    (
        "multi_conjunct_probe_where",
        """LET x = (SELECT VALUE s.safety_rating FROM SafetyRatings s
            WHERE s.country_code = t.country AND s.safety_rating = "3")""",
        1,
    ),
    (
        "inner_lets",
        """LET x = (SELECT VALUE r FROM SafetyRatings s
            LET r = s.safety_rating
            WHERE s.country_code = t.country)""",
        1,
    ),
    (
        "inner_distinct",
        """LET x = (SELECT DISTINCT VALUE s.safety_rating
            FROM SafetyRatings s WHERE s.country_code = t.country)""",
        1,
    ),
    (
        "explicit_group_by",
        """LET x = (SELECT s.country_code AS c, count(*) AS n
            FROM SafetyRatings s WHERE s.country_code = t.country
            GROUP BY s.country_code)""",
        1,
    ),
    (
        "multi_key_order_by",
        """LET x = (SELECT VALUE s.population FROM ReligiousPopulations s
            WHERE s.country_name = t.country
            ORDER BY s.population DESC, s.religion_name)""",
        1,
    ),
    (
        "order_by_over_named_projections",
        """LET x = (SELECT s.safety_rating AS r FROM SafetyRatings s
            WHERE s.country_code = t.country ORDER BY s.safety_rating)""",
        1,
    ),
    (
        "non_literal_limit",
        """LET x = (SELECT VALUE s.safety_rating FROM SafetyRatings s
            WHERE s.country_code = t.country LIMIT t.id)""",
        1,
    ),
    (
        "star_projection_over_match",
        """LET x = (SELECT s.* FROM SafetyRatings s
            WHERE s.country_code = t.country)""",
        1,
    ),
]


def _outcome(small_catalog, registry, definition, tweets, batched):
    """(rows, all three meters' counters) — or the exception type raised."""
    ctx = _ctx(small_catalog, registry)
    params = tuple(definition.params)
    plan = ctx.plan_cache.plan_for(definition.body, frozenset(params), ctx.catalog)
    ev = Evaluator(ctx)
    try:
        if batched:
            rows = compile_block_kernel(plan, params, ctx).run(ev, tweets)
        else:
            rows = [
                row
                for tweet in tweets
                for row in ev._planned_select(plan, Env({params[0]: tweet}))
            ]
    except Exception as exc:
        # the operator discards an aborted attempt's scratch meter, so
        # only the error's type is comparable
        return type(exc)
    meters = (ctx.meter, ctx.shared_meter, ctx.replicated_meter)
    return rows, [
        {name: getattr(meter, name) for name in WorkMeter._COUNTERS}
        for meter in meters
    ]


@pytest.mark.parametrize(
    "let_clause,fallbacks",
    [(clause, fallbacks) for _key, clause, fallbacks in COLUMN_CASES],
    ids=[key for key, _clause, _fallbacks in COLUMN_CASES],
)
def test_unsupported_construct_falls_back_per_column(
    small_catalog, registry, sample_tweet, let_clause, fallbacks
):
    definition = parse_function(
        "CREATE FUNCTION f(t) { "
        + let_clause
        + ", supported = lower(t.text) SELECT t.*, x, supported }"
    )
    ctx = _ctx(small_catalog, registry)
    plan = ctx.plan_cache.plan_for(
        definition.body, frozenset(definition.params), ctx.catalog
    )
    kernel = compile_block_kernel(plan, tuple(definition.params), ctx)
    assert kernel.fallback_lets == fallbacks

    # Same rows and same WorkMeter totals as record-at-a-time evaluation;
    # an error surfaces as the same exception type.
    tweets = [
        dict(sample_tweet, id=index, country=country)
        for index, country in enumerate(("US", "FR", "Atlantis", "US"))
    ]
    batched = _outcome(small_catalog, registry, definition, tweets, True)
    scalar = _outcome(small_catalog, registry, definition, tweets, False)
    assert batched == scalar
    if let_clause.startswith(("LET x = no_such", "LET x = unbound")):
        assert batched is SqlppAnalysisError


def test_registry_function_shadowing_a_builtin_is_honoured_per_match(
    small_catalog, registry, sample_tweet
):
    """One compiler, one lookup: a registered ``upper`` wins inside a probe
    subquery's projection on all three paths, the batched one included."""
    registry.register_sqlpp('CREATE FUNCTION upper(x) { "SHADOWED" }')
    registry.register_sqlpp(
        """CREATE FUNCTION shadowProbe(t) {
            LET codes = (SELECT VALUE upper(r.country_code)
                         FROM SafetyRatings r
                         WHERE r.country_code = t.country)
            SELECT t.*, codes
        }"""
    )
    attached = [AttachedFunction("shadowProbe")]
    tweets = [
        dict(sample_tweet, id=index, country=country)
        for index, country in enumerate(("US", "FR"))
    ]

    def context(use_plans):
        return EvaluationContext(
            small_catalog, functions=registry, use_plans=use_plans
        )

    batched = make_batch_invoker(attached, registry, RunCounters())(
        tweets, context(True)
    )
    scalar = make_invoker(attached, registry)
    planned, interpreted = (
        [row for tweet in tweets for row in scalar(tweet, context(use_plans))]
        for use_plans in (True, False)
    )
    assert [row["codes"] for row in interpreted] == [["SHADOWED"], ["SHADOWED"]]
    assert batched == planned == interpreted


# ------------------------------------------------------- runtime fallbacks


def test_dict_rows_under_order_by_abort_at_runtime(
    small_catalog, registry, sample_tweet
):
    ctx = _ctx(small_catalog, registry)
    kernel, _plan = _compile(
        ctx,
        """CREATE FUNCTION f(t) {
            LET x = (SELECT VALUE s FROM SafetyRatings s
                     WHERE s.country_code = t.country
                     ORDER BY s.safety_rating)
            SELECT t.*, x
        }""",
    )
    assert kernel.fallback_lets == 0  # compiles: rows might not be dicts
    with pytest.raises(KernelFallback, match="dict rows under ORDER BY"):
        kernel.run(Evaluator(ctx), [dict(sample_tweet)])


def test_btree_index_created_after_compile_aborts_at_runtime(
    small_catalog, registry, sample_tweet
):
    ctx = _ctx(small_catalog, registry)
    kernel, _plan = _compile(
        ctx,
        """CREATE FUNCTION f(t) {
            LET x = (SELECT VALUE s.safety_rating FROM SafetyRatings s
                     WHERE s.country_code = t.country)
            SELECT t.*, x
        }""",
    )
    rows = kernel.run(Evaluator(ctx), [dict(sample_tweet)])
    assert rows and rows[0]["x"] == ["3"]

    # The scalar path would now probe the B-tree per record with different
    # charges, so the compiled hash-probe kernel must refuse the batch.
    small_catalog["SafetyRatings"].create_index(
        "by_cc", "country_code", IndexKind.BTREE
    )
    with pytest.raises(KernelFallback, match="B-tree"):
        kernel.run(Evaluator(ctx), [dict(sample_tweet)])


# --------------------------------------------------------- batch invoker


def test_batch_invoker_declines_java_functions(registry):
    attached = [
        AttachedFunction("enrichTweetQ1"),
        AttachedFunction("remove_special", language="java", library="udflib"),
    ]
    assert make_batch_invoker(attached, registry, RunCounters()) is None
    assert make_batch_invoker([], registry, RunCounters()) is None


def test_batch_invoker_requires_plans(small_catalog, registry, sample_tweet):
    invoker = make_batch_invoker(
        [AttachedFunction("enrichTweetQ1")], registry, RunCounters()
    )
    assert invoker is not None
    ctx = EvaluationContext(small_catalog, functions=registry, use_plans=False)
    assert invoker([dict(sample_tweet)], ctx) is None


def test_batch_invoker_counts_unsupported_bodies(
    small_catalog, registry, sample_tweet
):
    registry.register_sqlpp(
        """CREATE FUNCTION colUnsupported(t) {
            SELECT VALUE s.safety_rating FROM SafetyRatings s
            WHERE s.country_code = t.country
        }"""
    )
    ctx = _ctx(small_catalog, registry)
    counters = RunCounters()
    invoker = make_batch_invoker(
        [AttachedFunction("colUnsupported")], registry, counters
    )
    assert invoker([dict(sample_tweet)], ctx) is None
    assert counters.scalar_fallbacks == 1
    assert counters.vectorized_batches == 0
