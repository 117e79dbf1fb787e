"""Columnar vs. scalar parity over the nine paper UDFs, caches attached.

The batch kernels are a pure wall-clock optimization on top of the plan
layer, and so are the cross-batch memo and state cache: for every UDF,
one invoker call per batch and one planned ``FunctionRegistry.invoke``
per record, each with both caches attached, store the interpreter's
records, and every probe the interpreter charges is a probe or a memo
hit (``test_sqlpp_paths.differential``; ``test_plan_parity`` runs it
with no cache).  The expected per-batch fallback column counts are
pinned so a supported construct silently dropping out of the vector
subset fails loudly.
"""

import pytest

from repro.ingestion.feed import AttachedFunction
from repro.ingestion.udf_operator import make_invoker
from repro.runtime.metrics import RunCounters
from repro.sqlpp import EvaluationContext
from tests.properties.test_sqlpp_paths import (
    PAPER_UDFS,
    differential,
    paper_generations,
)

#: fn -> LET columns expected to fall back per batch (everything else
#: vectorizes).  Q4: edit_distance; Q5/Q5Naive: spatial_intersect; Q6/Q7:
#: spatial LETs; Q8: spatial probe.
EXPECTED_FALLBACK_LETS = {
    "enrichTweetQ1": 0,
    "enrichTweetQ2": 0,
    "enrichTweetQ3": 0,
    "annotateTweetQ4": 1,
    "enrichTweetQ5": 1,
    "enrichTweetQ5Naive": 1,
    "enrichTweetQ6": 2,
    "enrichTweetQ7": 3,
    "enrichTweetQ8": 1,
}


@pytest.mark.parametrize("fn_name", PAPER_UDFS)
def test_columnar_matches_scalar(small_catalog, registry, sample_tweet, fn_name):
    generations = paper_generations(sample_tweet)
    caches = (1 << 20, 1 << 20)  # the memo's and the state cache's bytes
    differential(lambda: small_catalog, registry, fn_name, generations, caches)


@pytest.mark.parametrize("fn_name", PAPER_UDFS)
def test_vectorization_counters(small_catalog, registry, sample_tweet, fn_name):
    generations = paper_generations(sample_tweet)
    counters = RunCounters()
    invoke = make_invoker([AttachedFunction(fn_name)], registry, counters)
    ctx = EvaluationContext(small_catalog, functions=registry)
    for tweets, _write in generations:
        ctx.refresh_batch()
        invoke(tweets, ctx)
    assert counters.vectorized_batches == 2
    assert counters.vectorized_records == sum(len(tweets) for tweets, _ in generations)
    # One fallback per fallen-back column per batch.
    assert counters.scalar_fallbacks == 2 * EXPECTED_FALLBACK_LETS[fn_name]
