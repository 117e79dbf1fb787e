"""The cross-batch enrichment-state cache (version-keyed build reuse)."""

from __future__ import annotations

import pytest

from repro.adm import open_type
from repro.ingestion.feed import AttachedFunction
from repro.ingestion.udf_operator import make_batch_invoker, make_invoker
from repro.runtime.metrics import RunCounters
from repro.sqlpp import EvaluationContext, Evaluator
from repro.sqlpp.memo import EnrichmentMemo
from repro.sqlpp.state_cache import (
    ENTRY_OVERHEAD_BYTES,
    StateCache,
    dataset_version_key,
    estimate_payload_bytes,
)
from repro.storage import Dataset
from repro.udf import FunctionRegistry


def payload_entry_bytes(value) -> int:
    """What ``put`` charges when no explicit ``nbytes`` is given."""
    return ENTRY_OVERHEAD_BYTES + estimate_payload_bytes(value)


class TestStateCacheUnit:
    def test_hit_requires_matching_version(self):
        cache = StateCache(budget_bytes=1 << 20)
        cache.put(("hash", "R", "f"), 3, {"a": [1]}, records=1)
        assert cache.get(("hash", "R", "f"), 3).value == {"a": [1]}
        assert cache.get(("hash", "R", "f"), 4) is None  # stale version
        assert cache.get(("hash", "Q", "f"), 3) is None  # absent key
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 2
        assert stats["version_mismatches"] == 1

    def test_put_replaces_stale_entry(self):
        cache = StateCache(budget_bytes=1 << 20)
        cache.put(("scan", "R"), 1, ["old"], records=1)
        cache.put(("scan", "R"), 2, ["new"], records=1)
        assert len(cache) == 1
        assert cache.get(("scan", "R"), 2).value == ["new"]
        assert cache.current_bytes == payload_entry_bytes(["new"])

    def test_lru_eviction_by_bytes(self):
        size = payload_entry_bytes("a")  # one-char payloads weigh the same
        budget = size * 2  # room for two such entries
        cache = StateCache(budget_bytes=budget)
        cache.put(("scan", "A"), 1, "a", records=10)
        cache.put(("scan", "B"), 1, "b", records=10)
        cache.get(("scan", "A"), 1)  # touch A: B becomes LRU
        cache.put(("scan", "C"), 1, "c", records=10)
        assert ("scan", "A") in cache
        assert ("scan", "B") not in cache
        assert ("scan", "C") in cache
        assert cache.stats()["evictions"] == 1
        assert cache.current_bytes <= budget

    def test_oversized_entry_not_admitted(self):
        cache = StateCache(budget_bytes=payload_entry_bytes("a" * 64))
        cache.put(("scan", "A"), 1, "a", records=5)
        cache.put(("scan", "BIG"), 1, "x" * 4096, records=1)
        # The oversized entry is rejected without flushing the cache.
        assert ("scan", "BIG") not in cache
        assert ("scan", "A") in cache
        assert cache.stats()["evictions"] == 0

    def test_configure_shrink_evicts_immediately(self):
        size = payload_entry_bytes("A")
        cache = StateCache(budget_bytes=size * 4)
        for name in "ABCD":
            cache.put(("scan", name), 1, name, records=10)
        cache.configure(size)
        assert len(cache) == 1
        assert cache.current_bytes <= size

    def test_clear_counts_invalidation(self):
        cache = StateCache(budget_bytes=1 << 20)
        cache.put(("scan", "A"), 1, "a", records=1)
        cache.clear()
        cache.clear()  # empty clear is not counted
        assert len(cache) == 0
        assert cache.current_bytes == 0
        assert cache.stats()["invalidations"] == 1

    def test_eviction_never_invalidates_a_pinned_value(self):
        """A batch that installed the value into its batch cache keeps a
        strong reference, so eviction only drops the cache's own ref."""
        table = {"k": ["v"]}
        cache = StateCache(budget_bytes=payload_entry_bytes(table))
        cache.put(("hash", "R", "f"), 1, table, records=10)
        pinned = cache.get(("hash", "R", "f"), 1).value
        cache.put(("hash", "S", "f"), 1, {"o": []}, records=10)  # evicts R
        assert ("hash", "R", "f") not in cache
        assert pinned is table and pinned["k"] == ["v"]

    def test_payload_sizer_tracks_actual_weight(self):
        """Ten fat documents must weigh far more than ten bare ints —
        the regression a row-count estimate could not see."""
        fat = [{"body": "x" * 1024, "tags": ["a", "b", "c"]} for _ in range(10)]
        thin = list(range(10))
        assert estimate_payload_bytes(fat) > 20 * estimate_payload_bytes(thin)
        # Nesting is walked, not flat-priced.
        assert estimate_payload_bytes({"a": [1, 2]}) > estimate_payload_bytes(
            {"a": []}
        )
        # Scalars and strings scale with content.
        assert estimate_payload_bytes("x" * 100) > estimate_payload_bytes("x")

    def test_eviction_order_tracks_entry_weight(self):
        """LRU budgeting uses per-entry payload weight: admitting one heavy
        entry evicts as many light LRU entries as its weight displaces."""
        light = {"v": 1}
        heavy = [{"doc": "y" * 512} for _ in range(8)]
        light_size = payload_entry_bytes(light)
        heavy_size = payload_entry_bytes(heavy)
        assert heavy_size > 3 * light_size
        budget = heavy_size + 2 * light_size
        cache = StateCache(budget_bytes=budget)
        for name in "ABCD":  # 4 light entries, all fit
            cache.put(("scan", name), 1, dict(light), records=1)
        assert len(cache) == 4
        cache.put(("scan", "HEAVY"), 1, heavy, records=8)
        # The heavy entry displaced exactly the LRU tail its weight needs:
        # A and B go, C and D stay.
        assert ("scan", "A") not in cache
        assert ("scan", "B") not in cache
        assert ("scan", "C") in cache
        assert ("scan", "D") in cache
        assert ("scan", "HEAVY") in cache
        assert cache.current_bytes <= budget
        assert cache.stats()["evictions"] == 2

    def test_hit_ratio_in_stats(self):
        cache = StateCache(budget_bytes=1 << 20)
        assert cache.hit_ratio == 0.0  # no lookups yet
        cache.put(("scan", "R"), 1, ["r"], records=1)
        cache.get(("scan", "R"), 1)  # hit
        cache.get(("scan", "R"), 2)  # stale -> miss
        cache.get(("scan", "Q"), 1)  # absent -> miss
        stats = cache.stats()
        assert stats["hit_ratio"] == pytest.approx(1 / 3)
        assert cache.hit_ratio == pytest.approx(1 / 3)

    def test_dataset_version_key_sorted_and_filtered(self):
        class FakeDs:
            def __init__(self, version):
                self.version = version

        catalog = {"B": FakeDs(7), "A": FakeDs(2)}
        key = dataset_version_key(
            catalog, {"B", "A", "Missing"}, lambda dataset: dataset.version
        )
        assert key == (("A", 2), ("B", 7))


@pytest.fixture
def cached_ctx(small_catalog, registry):
    ctx = EvaluationContext(small_catalog, functions=registry)
    ctx.state_cache = StateCache(budget_bytes=8 << 20)
    return ctx


class TestEvaluatorIntegration:
    def _invoke(self, registry, ctx, tweet):
        return registry.invoke("enrichTweetQ1", [tweet], ctx)

    def test_hash_build_reused_across_batches(
        self, cached_ctx, registry, sample_tweet
    ):
        ctx = cached_ctx
        self._invoke(registry, ctx, sample_tweet)
        builds_first = ctx.shared_meter.hash_builds
        assert builds_first > 0
        assert ctx.shared_meter.state_cache_hits == 0

        ctx.refresh_batch()
        ctx.shared_meter.reset()
        out = self._invoke(registry, ctx, sample_tweet)
        # Second batch: the build table (and its scan) come from the
        # cache — no rebuild charges, explicit reuse charges instead.
        assert ctx.shared_meter.hash_builds == 0
        assert ctx.shared_meter.records_scanned == 0
        assert ctx.shared_meter.state_cache_hits > 0
        assert ctx.shared_meter.state_cache_reused_records > 0
        assert out == self._fresh_output(registry, ctx, sample_tweet)

    def _fresh_output(self, registry, ctx, tweet):
        fresh = EvaluationContext(ctx.catalog, functions=registry)
        return registry.invoke("enrichTweetQ1", [tweet], fresh)

    def test_version_bump_forces_rebuild(
        self, cached_ctx, registry, sample_tweet
    ):
        ctx = cached_ctx
        self._invoke(registry, ctx, sample_tweet)
        ratings = ctx.catalog["SafetyRatings"]
        ratings.upsert(
            {"country_code": sample_tweet["country"], "safety_rating": "1"}
        )
        ctx.refresh_batch()
        ctx.shared_meter.reset()
        out = self._invoke(registry, ctx, sample_tweet)
        assert ctx.shared_meter.hash_builds > 0  # rebuilt, not reused
        assert ctx.state_cache.stats()["version_mismatches"] >= 1
        # The rebuild observes the update — same freshness as baseline.
        assert out[0]["safety_rating"] == ["1"]

    def test_stale_within_batch_semantics_preserved(
        self, cached_ctx, registry, sample_tweet
    ):
        """An update *inside* a batch stays invisible until the next
        batch boundary, exactly like the per-batch-rebuild baseline."""
        ctx = cached_ctx
        before = self._invoke(registry, ctx, sample_tweet)
        ctx.catalog["SafetyRatings"].upsert(
            {"country_code": sample_tweet["country"], "safety_rating": "1"}
        )
        within = self._invoke(registry, ctx, sample_tweet)
        assert within == before  # stale within the batch
        ctx.refresh_batch()
        after = self._invoke(registry, ctx, sample_tweet)
        assert after[0]["safety_rating"] == ["1"]

    @pytest.mark.parametrize("with_memo", [False, True], ids=["cache", "memo"])
    @pytest.mark.parametrize("path", ["interpreted", "planned", "columnar"])
    @pytest.mark.parametrize("first_touch", ["scan", "cached_table"])
    def test_write_inside_a_job_is_filed_under_the_pinned_version(
        self, small_catalog, registry, sample_tweet, first_touch, path, with_memo
    ):
        """State probed from the scan a job *pinned* must not be cached as
        if it were built at the version a mid-job write moved to — the next
        job would hit it and never see the write."""
        ctx = EvaluationContext(
            small_catalog,
            functions=registry,
            use_plans=path != "interpreted",
            state_cache=StateCache(budget_bytes=8 << 20),
            memo=EnrichmentMemo(budget_bytes=8 << 20) if with_memo else None,
        )
        attached = [AttachedFunction("enrichTweetQ1")]
        if path == "columnar":
            batch = make_batch_invoker(attached, registry, RunCounters())
            invoke = lambda tweet: batch([tweet], ctx)  # noqa: E731
        else:
            scalar = make_invoker(attached, registry)
            invoke = lambda tweet: scalar(tweet, ctx)  # noqa: E731
        ratings = small_catalog["SafetyRatings"]
        tweet = dict(sample_tweet, country="XX")

        if first_touch == "scan":
            Evaluator(ctx)._scan_dataset(ratings)  # the job pins its snapshot
        else:
            # ... or reads a table an earlier job cached, pinning no scan
            invoke(sample_tweet)
            ctx.refresh_batch()
            invoke(sample_tweet)
        ratings.insert({"country_code": "XX", "safety_rating": "9"})
        assert invoke(tweet)[0]["safety_rating"] == []  # stale within the job
        ctx.refresh_batch()
        assert invoke(tweet)[0]["safety_rating"] == ["9"]

    @pytest.mark.parametrize("with_memo", [False, True], ids=["cache", "memo"])
    @pytest.mark.parametrize("path", ["interpreted", "planned", "columnar"])
    def test_partition_write_invalidates_like_a_dataset_write(
        self, small_catalog, registry, sample_tweet, path, with_memo
    ):
        """A write straight to a partition moves the WAL LSN but not
        ``Dataset.version``; the caches key on what the snapshot keys on,
        so the next batch sees it — cache-on equals cache-off."""
        ratings = small_catalog["SafetyRatings"]
        attached = [AttachedFunction("enrichTweetQ1")]

        def second_batch(**caches):
            ctx = EvaluationContext(
                small_catalog,
                functions=registry,
                use_plans=path != "interpreted",
                **caches,
            )
            if path == "columnar":
                batch = make_batch_invoker(attached, registry, RunCounters())
                invoke = lambda: batch([sample_tweet], ctx)  # noqa: E731
            else:
                scalar = make_invoker(attached, registry)
                invoke = lambda: scalar(sample_tweet, ctx)  # noqa: E731
            ratings.upsert({"country_code": "US", "safety_rating": "3"})
            invoke()
            version = ratings.version
            update = {"country_code": "US", "safety_rating": "8"}
            key, hashed = ratings.locate(update)
            ratings.partitions[hashed % ratings.num_partitions].upsert(key, update)
            assert ratings.version == version
            ctx.refresh_batch()
            return invoke()[0]["safety_rating"], ctx

        uncached, _ = second_batch()
        cached, ctx = second_batch(
            state_cache=StateCache(budget_bytes=8 << 20),
            memo=EnrichmentMemo(budget_bytes=8 << 20) if with_memo else None,
        )
        assert cached == uncached == ["8"]
        assert ctx.state_cache.stats()["version_mismatches"] >= 1

    def test_interpreted_path_uses_cache_too(
        self, small_catalog, registry, sample_tweet
    ):
        ctx = EvaluationContext(
            small_catalog, functions=registry, use_plans=False
        )
        ctx.state_cache = StateCache(budget_bytes=8 << 20)
        planned_ctx = EvaluationContext(small_catalog, functions=registry)
        planned_ctx.state_cache = StateCache(budget_bytes=8 << 20)
        for c in (ctx, planned_ctx):
            registry.invoke("enrichTweetQ1", [sample_tweet], c)
            c.refresh_batch()
            c.shared_meter.reset()
        out_interp = registry.invoke("enrichTweetQ1", [sample_tweet], ctx)
        out_planned = registry.invoke(
            "enrichTweetQ1", [sample_tweet], planned_ctx
        )
        assert out_interp == out_planned
        assert ctx.shared_meter.state_cache_hits > 0
        assert (
            ctx.shared_meter.state_cache_hits
            == planned_ctx.shared_meter.state_cache_hits
        )

    def test_no_cache_attached_means_no_counters(
        self, small_catalog, registry, sample_tweet
    ):
        ctx = EvaluationContext(small_catalog, functions=registry)
        assert ctx.state_cache is None
        registry.invoke("enrichTweetQ1", [sample_tweet], ctx)
        ctx.refresh_batch()
        registry.invoke("enrichTweetQ1", [sample_tweet], ctx)
        assert ctx.shared_meter.state_cache_hits == 0
        assert ctx.shared_meter.state_cache_reused_records == 0

    def test_registry_invalidate_plans_clears_cache(self, registry):
        caches = [registry.caches_for(feed)[0] for feed in ("A", "B")]
        for cache in caches:
            cache.configure(1 << 20)
            cache.put(("scan", "R"), 1, [], records=0)
        assert [len(cache) for cache in caches] == [1, 1]
        registry.invalidate_plans()
        assert [len(cache) for cache in caches] == [0, 0]

    def test_replace_sqlpp_clears_cache(self, registry):
        caches = [registry.caches_for(feed)[0] for feed in ("A", "B")]
        for cache in caches:
            cache.configure(1 << 20)
            cache.put(("scan", "R"), 1, [], records=0)
        registry.replace_sqlpp(
            "CREATE FUNCTION enrichTweetQ1(t) { SELECT t.* }"
        )
        assert [len(cache) for cache in caches] == [0, 0]

    def test_a_feed_keeps_one_cache_pair_and_shares_it_with_no_other(
        self, registry
    ):
        assert registry.caches_for("A") is registry.caches_for("A")
        a_state, a_memo = registry.caches_for("A")
        b_state, b_memo = registry.caches_for("B")
        assert len({id(c) for c in (a_state, a_memo, b_state, b_memo)}) == 4
        assert (a_state.kind, a_memo.kind) == ("state", "memo")
        assert a_state.budget_bytes == a_memo.budget_bytes == 0


#: Figure 18's shape: a LET whose subquery reads only catalog datasets
UNCORRELATED = {
    "top2": "SELECT VALUE p.country FROM Pop p ORDER BY p.population DESC LIMIT 2",
    "empty": "SELECT VALUE p.country FROM Pop p WHERE p.population < 0",
}


class TestUncorrelatedSubqueryReuse:
    """An uncorrelated subquery's result is the one cached value that no
    snapshot can re-derive: the entry itself carries it across batches."""

    def _three_generations(self, path, subquery, state_cache):
        """Per generation: (rows, hits, reused records, records scanned);
        a write lands before the third."""
        pop = Dataset("Pop", open_type("PopT"), "country", 2, validate=False)
        for rank, country in enumerate("ABC"):
            pop.insert({"country": country, "population": 10 * rank})
        registry = FunctionRegistry(lambda: {"Pop"})
        registry.register_sqlpp(
            f"CREATE FUNCTION ranked(t) {{ LET top = ({UNCORRELATED[subquery]}) "
            "SELECT t.*, top }"
        )
        ctx = EvaluationContext(
            {"Pop": pop},
            functions=registry,
            use_plans=path != "interpreted",
            state_cache=state_cache,
        )
        attached = [AttachedFunction("ranked")]
        if path == "columnar":
            batch = make_batch_invoker(attached, registry, RunCounters())
            invoke = lambda t: batch([t], ctx)  # noqa: E731
        else:
            scalar = make_invoker(attached, registry)
            invoke = lambda t: scalar(t, ctx)  # noqa: E731
        generations = []
        for generation in range(3):
            if generation == 2:
                pop.insert({"country": "D", "population": 99})
            ctx.refresh_batch()
            ctx.shared_meter.reset()
            rows = invoke({"id": generation}) + invoke({"id": generation + 10})
            meter = ctx.shared_meter
            generations.append(
                (
                    rows,
                    meter.state_cache_hits,
                    meter.state_cache_reused_records,
                    meter.records_scanned,
                )
            )
        return generations

    @pytest.mark.parametrize("subquery", sorted(UNCORRELATED))
    @pytest.mark.parametrize("path", ["interpreted", "planned", "columnar"])
    def test_result_reused_until_a_write(self, path, subquery):
        cache = StateCache(budget_bytes=8 << 20)
        plain = self._three_generations(path, subquery, None)
        cached = self._three_generations(path, subquery, cache)

        assert [rows for rows, *_ in cached] == [rows for rows, *_ in plain]
        top = {"top2": (["C", "B"], ["D", "C"]), "empty": ([], [])}[subquery]
        assert [rows[0]["top"] for rows, *_ in cached] == [top[0], top[0], top[1]]

        assert [gen[1:] for gen in plain] == [(0, 0, 3), (0, 0, 3), (0, 0, 4)]
        # generation 1 builds (and scans); generation 2 is one hit, charged
        # as a reuse of the cached rows, with no scan behind it — an empty
        # result list is a hit like any other; the write makes generation 3
        # a version-mismatched miss that rebuilds
        assert [gen[1:] for gen in cached] == [
            (0, 0, 3),
            (1, len(top[0]), 0),
            (0, 0, 4),
        ]
        stats = cache.stats()
        assert stats["hits"] == 1
        # ("uncorrelated", token) and ("scan", "Pop"): absent, then stale
        assert stats["misses"] == 4
        assert stats["version_mismatches"] == 2
