"""The key-level enrichment memo: canonical keys + cross-batch reuse."""

from __future__ import annotations

import pytest

from repro.sqlpp import EvaluationContext
from repro.sqlpp.memo import (
    EXTERNAL_VERSION_KEY,
    EnrichmentMemo,
    canonical_probe_key,
)
from repro.sqlpp.state_cache import StateCache
from repro.storage import IndexKind


class TestCanonicalProbeKey:
    def test_scalars_pass_through(self):
        for value in (None, "us", 7, 2.5, True, b"raw"):
            assert canonical_probe_key(value) == value

    def test_numeric_collapse_matches_dict_key_equality(self):
        # 1, 1.0, True are one dict key in a hash-probe table; the memo
        # must collapse them identically or hits would depend on spelling.
        assert canonical_probe_key(1) == canonical_probe_key(1.0)
        assert canonical_probe_key(1) == canonical_probe_key(True)

    def test_dict_field_order_invariant(self):
        a = canonical_probe_key({"lat": 1.0, "lon": 2.0})
        b = canonical_probe_key({"lon": 2.0, "lat": 1.0})
        assert a == b
        assert isinstance(hash(a), int)

    def test_list_and_tuple_values_canonicalize_equal(self):
        assert canonical_probe_key([1, "a"]) == canonical_probe_key((1, "a"))
        assert isinstance(hash(canonical_probe_key([1, "a"])), int)

    def test_nested_values(self):
        a = canonical_probe_key({"k": [{"x": 1, "y": [2]}], "t": "s"})
        b = canonical_probe_key({"t": "s", "k": [{"y": [2], "x": 1}]})
        assert a == b

    def test_array_never_collides_with_string(self):
        assert canonical_probe_key(["a"]) != canonical_probe_key("a")
        assert canonical_probe_key([]) != canonical_probe_key("")
        assert canonical_probe_key({}) != canonical_probe_key("")

    def test_unhashable_opaque_fallback(self):
        class Blob:
            __hash__ = None

            def __repr__(self):
                return "Blob()"

        key = canonical_probe_key(Blob())
        assert isinstance(hash(key), int)
        assert key == canonical_probe_key(Blob())


class TestEnrichmentMemoUnit:
    def test_version_guarded_like_state_cache(self):
        memo = EnrichmentMemo(budget_bytes=1 << 20)
        memo.put(("probe", 1, "us"), (("R", 3),), ["ok"], 1)
        assert memo.get(("probe", 1, "us"), (("R", 3),)).value == ["ok"]
        assert memo.get(("probe", 1, "us"), (("R", 4),)) is None
        assert memo.stats()["version_mismatches"] == 1

    def test_external_version_key_is_constant(self):
        memo = EnrichmentMemo(budget_bytes=1 << 20)
        memo.put(("external", "geo:loc", "1.2.3.4"), EXTERNAL_VERSION_KEY, {"c": "US"}, 1)
        assert (
            memo.get(("external", "geo:loc", "1.2.3.4"), EXTERNAL_VERSION_KEY).value
            == {"c": "US"}
        )

    def test_hit_ratio(self):
        memo = EnrichmentMemo(budget_bytes=1 << 20)
        memo.put(("probe", 1, "us"), (("R", 3),), ["ok"], 1)
        memo.get(("probe", 1, "us"), (("R", 3),))
        memo.get(("probe", 1, "fr"), (("R", 3),))
        assert memo.stats()["hit_ratio"] == pytest.approx(0.5)


@pytest.fixture
def memo_ctx(small_catalog, registry):
    ctx = EvaluationContext(small_catalog, functions=registry)
    ctx.memo = EnrichmentMemo(budget_bytes=8 << 20)
    return ctx


class TestScalarEvaluatorMemo:
    def _invoke(self, registry, ctx, tweet):
        return registry.invoke("enrichTweetQ1", [tweet], ctx)

    def _fresh_output(self, registry, ctx, tweet):
        fresh = EvaluationContext(ctx.catalog, functions=registry)
        return registry.invoke("enrichTweetQ1", [tweet], fresh)

    def test_correlated_result_reused_across_batches(
        self, memo_ctx, registry, sample_tweet
    ):
        ctx = memo_ctx
        self._invoke(registry, ctx, sample_tweet)
        assert ctx.meter.memo_hits == 0  # cold first batch
        ctx.refresh_batch()
        ctx.meter.reset()
        ctx.shared_meter.reset()
        out = self._invoke(registry, ctx, sample_tweet)
        # Second batch: the whole correlated subquery is skipped — no
        # scan, no build (shared_meter), no probe (per-record meter);
        # explicit memo charges instead.
        assert ctx.meter.memo_hits > 0
        assert ctx.meter.memo_reused_records > 0
        assert ctx.shared_meter.hash_builds == 0
        assert ctx.shared_meter.records_scanned == 0
        assert ctx.meter.hash_probes == 0
        assert out == self._fresh_output(registry, ctx, sample_tweet)

    def test_distinct_keys_do_not_share_entries(
        self, memo_ctx, registry, sample_tweet
    ):
        ctx = memo_ctx
        us = dict(sample_tweet)
        fr = dict(sample_tweet, country="FR")
        out_us = self._invoke(registry, ctx, us)
        out_fr = self._invoke(registry, ctx, fr)
        ctx.refresh_batch()
        assert self._invoke(registry, ctx, us) == out_us
        assert self._invoke(registry, ctx, fr) == out_fr
        assert out_us[0]["safety_rating"] != out_fr[0]["safety_rating"]

    def test_version_bump_invalidates_at_batch_boundary(
        self, memo_ctx, registry, sample_tweet
    ):
        ctx = memo_ctx
        self._invoke(registry, ctx, sample_tweet)
        ctx.catalog["SafetyRatings"].upsert(
            {"country_code": sample_tweet["country"], "safety_rating": "1"}
        )
        ctx.refresh_batch()
        ctx.meter.reset()
        out = self._invoke(registry, ctx, sample_tweet)
        assert ctx.meter.memo_hits == 0  # stale entry displaced
        assert out[0]["safety_rating"] == ["1"]
        assert ctx.memo.stats()["version_mismatches"] >= 1

    def test_live_index_on_dep_bypasses_memo(
        self, memo_ctx, registry, sample_tweet
    ):
        """A B-tree on the probed field keeps per-probe freshness — the
        memo must step aside rather than mask live index lookups."""
        ctx = memo_ctx
        ctx.catalog["SafetyRatings"].create_index(
            "sr_cc", "country_code", IndexKind.BTREE
        )
        self._invoke(registry, ctx, sample_tweet)
        ctx.refresh_batch()
        ctx.meter.reset()
        self._invoke(registry, ctx, sample_tweet)
        assert ctx.meter.memo_hits == 0
        assert len(ctx.memo) == 0

    def test_no_memo_attached_means_no_counters(
        self, small_catalog, registry, sample_tweet
    ):
        ctx = EvaluationContext(small_catalog, functions=registry)
        assert ctx.memo is None
        self._invoke(registry, ctx, sample_tweet)
        ctx.refresh_batch()
        self._invoke(registry, ctx, sample_tweet)
        assert ctx.meter.memo_hits == 0
        assert ctx.meter.memo_reused_records == 0

    def test_registry_clears_cover_the_memo(self, registry):
        _, memo = registry.caches_for("F")
        memo.configure(1 << 20)
        memo.put(("probe", 1, "us"), (("R", 1),), [], 0)
        registry.invalidate_plans()
        assert len(memo) == 0
        memo.put(("probe", 1, "us"), (("R", 1),), [], 0)
        registry.replace_sqlpp(
            "CREATE FUNCTION enrichTweetQ1(t) { SELECT t.* }"
        )
        assert len(memo) == 0

    def test_a_called_functions_datasets_guard_the_entry(
        self, small_catalog, registry, sample_tweet
    ):
        """A block's result depends on what the functions it calls read:
        a write to that dataset displaces the entry, for the memo and the
        state cache alike."""
        registry.register_sqlpp(
            "CREATE FUNCTION ratingOf(c) { SELECT VALUE s.safety_rating"
            " FROM SafetyRatings s WHERE s.country_code = c }"
        )
        registry.register_sqlpp(
            "CREATE FUNCTION rated(t) { SELECT VALUE [ratingOf(t.country),"
            " (SELECT VALUE ratingOf(w.country) FROM SensitiveWords w LIMIT 1)] }"
        )
        ratings = small_catalog["SafetyRatings"]

        def context(**cache):
            return EvaluationContext(small_catalog, functions=registry, **cache)

        for ctx in (
            context(memo=EnrichmentMemo(8 << 20)),
            context(state_cache=StateCache(8 << 20)),
        ):
            assert registry.invoke("rated", [sample_tweet], ctx) == [[["3"], [["3"]]]]
            ratings.upsert({"country_code": "US", "safety_rating": "1"})
            ctx.refresh_batch()
            assert registry.invoke("rated", [sample_tweet], ctx) == [[["1"], [["1"]]]]
            ratings.upsert({"country_code": "US", "safety_rating": "3"})

    def test_an_outer_group_key_bypasses_the_memo(
        self, memo_ctx, registry, sample_tweet
    ):
        """Inside a GROUP BY group, the key shadows ``r.religion_name`` in
        the inner block, so its rows differ per group for one binding."""
        registry.register_sqlpp(
            """CREATE FUNCTION perReligion(t) {
                SELECT VALUE (SELECT VALUE r.population
                              FROM ReligiousPopulations r WHERE r.country_name
                              = t.country AND r.religion_name = "A")
                FROM ReligiousPopulations r GROUP BY r.religion_name
            }"""
        )
        rows = registry.invoke("perReligion", [sample_tweet], memo_ctx)
        assert rows == [[10, 20, 30, 5], [], [], []]
        assert memo_ctx.meter.memo_hits == 0
