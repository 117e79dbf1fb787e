"""Columnar vs. scalar parity over the nine paper UDFs.

The batch kernels are a pure wall-clock optimization on top of the plan
layer: for every UDF, every enriched record AND every WorkMeter counter
(on all three meters) must be identical between one batch-invoker call
per batch and the record-at-a-time scalar invoker — including the
aggregated per-batch charges, which must sum to exactly the per-record
totals.  The expected per-batch fallback column counts are pinned so a
supported construct silently dropping out of the vector subset fails
loudly.
"""

from __future__ import annotations

import pytest

from repro.hyracks.cost import WorkMeter
from repro.ingestion.feed import AttachedFunction
from repro.ingestion.udf_operator import make_batch_invoker, make_invoker
from repro.runtime.metrics import RunCounters
from repro.sqlpp import EvaluationContext

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

#: batches of 3 + 2 records with a refresh (generation bump) in between
SPLIT = 3


def _tweet_sample(sample_tweet):
    """A fixed mini-stream exercising hits, misses, and absent fields."""
    variants = [
        {},
        {"country": "FR", "latitude": 8.4, "longitude": 8.9},
        {"country": "DE", "user": {"screen_name": "jon_smyth", "name": "name3"}},
        {"country": "Atlantis", "latitude": 55.0, "longitude": 55.0},
        {"latitude": 0.2, "longitude": 9.7, "user": {"screen_name": "x", "name": "y"}},
    ]
    return [
        dict(sample_tweet, id=index, **overrides)
        for index, overrides in enumerate(variants)
    ]


def _run_scalar(catalog, registry, fn_name, tweets):
    ctx = EvaluationContext(catalog, functions=registry, use_plans=True)
    invoker = make_invoker([AttachedFunction(fn_name)], registry)
    out = []
    for position, tweet in enumerate(tweets):
        if position == SPLIT:
            ctx.refresh_batch()
        out.extend(invoker(tweet, ctx))
    return out, ctx


def _run_batched(catalog, registry, fn_name, tweets):
    ctx = EvaluationContext(catalog, functions=registry, use_plans=True)
    counters = RunCounters()
    invoker = make_batch_invoker([AttachedFunction(fn_name)], registry, counters)
    assert invoker is not None
    out = []
    for batch in (tweets[:SPLIT], tweets[SPLIT:]):
        if out:
            ctx.refresh_batch()
        rows = invoker(batch, ctx)
        assert rows is not None, f"{fn_name}: batch declined vectorization"
        out.extend(rows)
    return out, ctx, counters


@pytest.mark.parametrize("fn_name", sorted(EXPECTED_FALLBACK_LETS))
def test_columnar_matches_scalar(small_catalog, registry, sample_tweet, fn_name):
    tweets = _tweet_sample(sample_tweet)
    batched, batch_ctx, _ = _run_batched(small_catalog, registry, fn_name, tweets)
    scalar, scalar_ctx = _run_scalar(small_catalog, registry, fn_name, tweets)

    assert batched == scalar

    # Aggregated per-batch charging sums to exactly the per-record totals,
    # on the node-local, shared, and replicated meters alike.
    for batch_meter, scalar_meter in (
        (batch_ctx.meter, scalar_ctx.meter),
        (batch_ctx.shared_meter, scalar_ctx.shared_meter),
        (batch_ctx.replicated_meter, scalar_ctx.replicated_meter),
    ):
        for counter in WorkMeter._COUNTERS:
            assert getattr(batch_meter, counter) == getattr(
                scalar_meter, counter
            ), f"{fn_name}: {counter} diverged"


@pytest.mark.parametrize("fn_name", sorted(EXPECTED_FALLBACK_LETS))
def test_vectorization_counters(small_catalog, registry, sample_tweet, fn_name):
    tweets = _tweet_sample(sample_tweet)
    _out, _ctx, counters = _run_batched(small_catalog, registry, fn_name, tweets)
    assert counters.vectorized_batches == 2
    assert counters.vectorized_records == len(tweets)
    # One fallback per fallen-back column per batch.
    assert counters.scalar_fallbacks == 2 * EXPECTED_FALLBACK_LETS[fn_name]
