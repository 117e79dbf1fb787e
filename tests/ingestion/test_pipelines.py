"""The ingestion frameworks: correctness, staleness semantics, lifecycle."""

import json

import pytest

from repro.adm import open_type
from repro.cluster import Cluster
from repro.errors import IngestionError, StreamingJoinError
from repro.ingestion import (
    AttachedFunction,
    ComputingModel,
    DynamicIngestionPipeline,
    FeedDefinition,
    Framework,
    GeneratorAdapter,
    StaticIngestionPipeline,
)
from repro.storage import Dataset
from repro.udf import FunctionRegistry


def make_target(parts=3):
    return Dataset(
        "EnrichedTweets", open_type("T", id="int64"), "id",
        num_partitions=parts, validate=False,
    )


def raw_tweets(count, country="US"):
    return [
        json.dumps({"id": i, "text": f"tweet {i}", "country": country})
        for i in range(count)
    ]


@pytest.fixture
def env():
    """catalog with a SensitiveWords reference dataset + safety-check UDF."""
    words = Dataset("SensitiveWords", open_type("W", wid="int64"), "wid",
                    num_partitions=2, validate=False)
    words.insert({"wid": 1, "country": "US", "word": "bomb"})
    words.flush_all()
    catalog = {"SensitiveWords": words, "EnrichedTweets": make_target()}
    registry = FunctionRegistry(lambda: set(catalog))
    registry.register_sqlpp(
        """
        CREATE FUNCTION tweetSafetyCheck(tweet) {
            LET safety_check_flag = CASE
                EXISTS(SELECT s FROM SensitiveWords s
                       WHERE tweet.country = s.country AND
                             contains(tweet.text, s.word))
                WHEN true THEN "Red" ELSE "Green"
                END
            SELECT tweet.*, safety_check_flag
        }
        """
    )
    return catalog, registry


def dynamic_feed(batch_size=16, functions=(), **kwargs):
    return FeedDefinition(
        "F", "EnrichedTweets", batch_size=batch_size,
        functions=list(functions), **kwargs,
    )


class TestDynamicPipeline:
    def test_exactly_once_no_udf(self, env):
        catalog, registry = env
        pipeline = DynamicIngestionPipeline(Cluster(3), catalog, registry)
        report = pipeline.run(dynamic_feed(), GeneratorAdapter(raw_tweets(101)))
        assert report.records_ingested == 101
        assert report.records_stored == 101
        assert sorted(r["id"] for r in catalog["EnrichedTweets"].scan()) == list(
            range(101)
        )

    def test_partial_final_batch_drained(self, env):
        catalog, registry = env
        pipeline = DynamicIngestionPipeline(Cluster(3), catalog, registry)
        report = pipeline.run(dynamic_feed(batch_size=50),
                              GeneratorAdapter(raw_tweets(70)))
        assert report.records_stored == 70
        assert report.num_computing_jobs == 2

    def test_udf_applied_per_record(self, env):
        catalog, registry = env
        feed = dynamic_feed(functions=[AttachedFunction("tweetSafetyCheck")])
        raws = [
            json.dumps({"id": 0, "text": "a bomb", "country": "US"}),
            json.dumps({"id": 1, "text": "hello", "country": "US"}),
            json.dumps({"id": 2, "text": "a bomb", "country": "FR"}),
        ]
        DynamicIngestionPipeline(Cluster(2), catalog, registry).run(
            feed, GeneratorAdapter(raws)
        )
        flags = {r["id"]: r["safety_check_flag"]
                 for r in catalog["EnrichedTweets"].scan()}
        assert flags == {0: "Red", 1: "Green", 2: "Green"}

    def test_reference_updates_visible_at_batch_boundaries(self, env):
        """The paper's core guarantee: batch k+1 sees updates made during k."""
        catalog, registry = env
        feed = dynamic_feed(
            batch_size=10, functions=[AttachedFunction("tweetSafetyCheck")]
        )
        raws = [
            json.dumps({"id": i, "text": "new-word here", "country": "US"})
            for i in range(30)
        ]

        class InjectingAdapter(GeneratorAdapter):
            """Adds a sensitive word after the first batch is consumed."""

            def __init__(self, raws, words):
                super().__init__(raws)
                self.words = words
                self.count = 0

            def envelopes(self):
                for envelope in super().envelopes():
                    self.count += 1
                    if self.count == 11:
                        self.words.upsert(
                            {"wid": 2, "country": "US", "word": "new-word"}
                        )
                    yield envelope

        DynamicIngestionPipeline(Cluster(2), catalog, registry).run(
            feed, InjectingAdapter(raws, catalog["SensitiveWords"])
        )
        flags = {r["id"]: r["safety_check_flag"]
                 for r in catalog["EnrichedTweets"].scan()}
        assert flags[0] == "Green"  # first batch: word not yet added
        assert flags[29] == "Red"  # later batch: update observed

    def test_computing_jobs_predeployed_and_invoked(self, env, monkeypatch):
        catalog, registry = env
        cluster = Cluster(2)
        invoked = []
        invoke = cluster.controller.invoke

        def counting_invoke(job_id, params):
            invoked.append(job_id)
            return invoke(job_id, params)

        monkeypatch.setattr(cluster.controller, "invoke", counting_invoke)
        pipeline = DynamicIngestionPipeline(cluster, catalog, registry)
        report = pipeline.run(dynamic_feed(batch_size=20),
                              GeneratorAdapter(raw_tweets(100)))
        assert report.num_computing_jobs == 5
        # one deployed job, invoked once per batch, undeployed afterwards
        assert len(invoked) == 5 and len(set(invoked)) == 1
        assert cluster.controller.deployed_job_ids() == []

    def test_batch_stats_recorded(self, env):
        catalog, registry = env
        pipeline = DynamicIngestionPipeline(Cluster(2), catalog, registry)
        report = pipeline.run(dynamic_feed(batch_size=25),
                              GeneratorAdapter(raw_tweets(100)))
        assert len(report.batch_stats) == 4
        assert all(b.records == 25 for b in report.batch_stats)
        assert report.refresh_period > 0
        assert report.refresh_rate > 0

    def test_per_record_model_forces_batch_of_one(self, env):
        catalog, registry = env
        feed = dynamic_feed(
            batch_size=50, functions=[AttachedFunction("tweetSafetyCheck")],
            computing_model=ComputingModel.PER_RECORD,
        )
        report = DynamicIngestionPipeline(Cluster(2), catalog, registry).run(
            feed, GeneratorAdapter(raw_tweets(10))
        )
        assert report.num_computing_jobs == 10

    def test_balanced_intake_spreads_receive_cost(self, env):
        catalog, registry = env
        single = DynamicIngestionPipeline(Cluster(4), catalog, registry).run(
            dynamic_feed(batch_size=64), GeneratorAdapter(raw_tweets(256))
        )
        catalog["EnrichedTweets"] = make_target()
        balanced = DynamicIngestionPipeline(Cluster(4), catalog, registry).run(
            dynamic_feed(batch_size=64, balanced_intake=True),
            GeneratorAdapter(raw_tweets(256)),
        )
        assert balanced.intake_seconds < single.intake_seconds

    def test_no_predeploy_ablation_slower(self, env):
        catalog, registry = env
        fast = DynamicIngestionPipeline(Cluster(3), catalog, registry).run(
            dynamic_feed(batch_size=16), GeneratorAdapter(raw_tweets(128))
        )
        catalog["EnrichedTweets"] = make_target()
        slow = DynamicIngestionPipeline(Cluster(3), catalog, registry).run(
            dynamic_feed(batch_size=16), GeneratorAdapter(raw_tweets(128)),
            predeploy=False,
        )
        assert slow.computing_seconds > fast.computing_seconds
        assert slow.records_stored == 128

    def test_coupled_storage_ablation_slower(self, env):
        catalog, registry = env
        decoupled = DynamicIngestionPipeline(Cluster(3), catalog, registry).run(
            dynamic_feed(batch_size=16), GeneratorAdapter(raw_tweets(128))
        )
        catalog["EnrichedTweets"] = make_target()
        coupled = DynamicIngestionPipeline(Cluster(3), catalog, registry).run(
            dynamic_feed(batch_size=16), GeneratorAdapter(raw_tweets(128)),
            decoupled=False,
        )
        assert coupled.computing_seconds > decoupled.computing_seconds

    def test_round_robin_balances_computing_input(self, env):
        catalog, registry = env
        pipeline = DynamicIngestionPipeline(Cluster(4), catalog, registry)
        report = pipeline.run(dynamic_feed(batch_size=40),
                              GeneratorAdapter(raw_tweets(400)))
        assert report.records_stored == 400

    def test_udf_feed_requires_registry(self, env):
        catalog, _registry = env
        pipeline = DynamicIngestionPipeline(Cluster(2), catalog, registry=None)
        with pytest.raises(IngestionError, match="registry"):
            pipeline.run(
                dynamic_feed(functions=[AttachedFunction("tweetSafetyCheck")]),
                GeneratorAdapter(raw_tweets(5)),
            )


class TestComputingModelsPerFramework:
    """Each framework runs the computing models it can honour and refuses
    the one it cannot, instead of silently running another."""

    @pytest.mark.parametrize(
        "framework, model, jobs",
        [
            ("dynamic", "per_record", 40),
            ("dynamic", "per_batch", 4),
            ("dynamic", "stream", None),
            ("static", "per_record", None),
            ("static", "per_batch", 1),
            ("static", "stream", 1),
        ],
    )
    def test_model_honoured_or_refused(self, env, framework, model, jobs):
        framework, model = Framework(framework), ComputingModel(model)
        catalog, registry = env
        registry.register_sqlpp(
            "CREATE FUNCTION stampModel(t) { LET m = 1 SELECT t.*, m }"
        )
        feed = dynamic_feed(
            batch_size=10,
            functions=[AttachedFunction("stampModel")],
            framework=framework,
            computing_model=model,
        )
        pipeline = (
            StaticIngestionPipeline
            if framework is Framework.STATIC
            else DynamicIngestionPipeline
        )(Cluster(2), catalog, registry)
        adapter = GeneratorAdapter(raw_tweets(40))
        if jobs is None:
            with pytest.raises(IngestionError, match=f"'{model.value}'"):
                pipeline.run(feed, adapter)
            return
        report = pipeline.run(feed, adapter)
        assert report.num_computing_jobs == jobs
        assert report.records_stored == 40


class TestStaticPipeline:
    def test_exactly_once_no_udf(self, env):
        catalog, registry = env
        report = StaticIngestionPipeline(Cluster(3), catalog, registry).run(
            FeedDefinition("S", "EnrichedTweets"), GeneratorAdapter(raw_tweets(77))
        )
        assert report.records_stored == 77
        assert len(catalog["EnrichedTweets"]) == 77

    def test_stateful_sqlpp_rejected(self, env):
        catalog, registry = env
        feed = FeedDefinition(
            "S", "EnrichedTweets",
            functions=[AttachedFunction("tweetSafetyCheck")],
        )
        with pytest.raises(IngestionError, match="stateful"):
            StaticIngestionPipeline(Cluster(2), catalog, registry).run(
                feed, GeneratorAdapter(raw_tweets(5))
            )

    def test_stateless_sqlpp_allowed(self, env):
        catalog, registry = env
        registry.register_sqlpp(
            """
            CREATE FUNCTION stampTweet(t) {
                LET stamped = true
                SELECT t.*, stamped
            }
            """
        )
        feed = FeedDefinition(
            "S", "EnrichedTweets", functions=[AttachedFunction("stampTweet")]
        )
        StaticIngestionPipeline(Cluster(2), catalog, registry).run(
            feed, GeneratorAdapter(raw_tweets(10))
        )
        assert all(r["stamped"] for r in catalog["EnrichedTweets"].scan())

    def test_stream_model_optin_with_small_build_works_but_stale(self, env):
        """§4.3.4 case 1: fits in memory, runs, never sees updates."""
        catalog, registry = env
        feed = FeedDefinition(
            "S", "EnrichedTweets",
            functions=[AttachedFunction("tweetSafetyCheck")],
            computing_model=ComputingModel.STREAM,
        )

        class InjectingAdapter(GeneratorAdapter):
            def __init__(self, raws, words):
                super().__init__(raws)
                self.words = words
                self.count = 0

            def envelopes(self):
                for envelope in super().envelopes():
                    self.count += 1
                    if self.count == 2:
                        self.words.upsert(
                            {"wid": 9, "country": "US", "word": "tweet"}
                        )
                    yield envelope

        StaticIngestionPipeline(Cluster(2), catalog, registry).run(
            feed, InjectingAdapter(raw_tweets(20), catalog["SensitiveWords"])
        )
        flags = {r["id"]: r["safety_check_flag"]
                 for r in catalog["EnrichedTweets"].scan()}
        # every tweet contains "tweet"; the stream model never saw the update
        assert all(flag == "Green" for flag in flags.values())

    def test_stream_model_spill_raises(self, env):
        """§4.3.4 case 2: build side exceeding memory cannot stream."""
        catalog, registry = env
        feed = FeedDefinition(
            "S", "EnrichedTweets",
            functions=[AttachedFunction("tweetSafetyCheck")],
            computing_model=ComputingModel.STREAM,
            stream_memory_budget=0,
        )
        with pytest.raises(StreamingJoinError, match="memory budget"):
            StaticIngestionPipeline(Cluster(2), catalog, registry).run(
                feed, GeneratorAdapter(raw_tweets(5))
            )

    def test_java_udf_stale_resources(self, env):
        """§7.2: static Java enrichment never re-reads resource files."""
        catalog, registry = env
        from repro.udf import JavaUdfDescriptor
        from repro.udf.library import KeywordSafetyCheckJavaUdf

        lines = ["1|US|bomb"]
        registry.register_java(
            JavaUdfDescriptor(
                "udflib",
                "keyword_safety_check",
                lambda: KeywordSafetyCheckJavaUdf(
                    {"keyword_list": lambda: list(lines)}
                ),
                1,
                True,
            )
        )
        feed = FeedDefinition(
            "S", "EnrichedTweets",
            functions=[
                AttachedFunction(
                    "keyword_safety_check", language="java", library="udflib"
                )
            ],
        )

        class InjectingAdapter(GeneratorAdapter):
            def __init__(self, raws):
                super().__init__(raws)
                self.count = 0

            def envelopes(self):
                for envelope in super().envelopes():
                    self.count += 1
                    if self.count == 2:
                        lines.append("2|US|tweet")  # resource file updated
                    yield envelope

        StaticIngestionPipeline(Cluster(2), catalog, registry).run(
            feed, InjectingAdapter(raw_tweets(20))
        )
        flags = [r["safety_check_flag"] for r in catalog["EnrichedTweets"].scan()]
        assert all(flag == "Green" for flag in flags)


class TestThroughputShapes:
    """Coarse sanity on the simulated-performance relationships."""

    def test_larger_batches_fewer_jobs_higher_throughput(self, env):
        catalog, registry = env
        reports = {}
        for batch in (10, 40, 160):
            catalog["EnrichedTweets"] = make_target()
            reports[batch] = DynamicIngestionPipeline(
                Cluster(4), catalog, registry
            ).run(
                dynamic_feed(
                    batch_size=batch,
                    functions=[AttachedFunction("tweetSafetyCheck")],
                ),
                GeneratorAdapter(raw_tweets(320)),
            )
        assert (
            reports[10].num_computing_jobs
            > reports[40].num_computing_jobs
            > reports[160].num_computing_jobs
        )
        assert reports[160].throughput > reports[10].throughput
        assert reports[160].refresh_period > reports[10].refresh_period

    def test_static_faster_than_dynamic_for_stateless_udf(self, env):
        catalog, registry = env
        registry.register_sqlpp(
            "CREATE FUNCTION stamp2(t) { LET s = 1 SELECT t.*, s }"
        )
        fn = [AttachedFunction("stamp2")]
        static = StaticIngestionPipeline(Cluster(4), catalog, registry).run(
            FeedDefinition("S", "EnrichedTweets", functions=fn),
            GeneratorAdapter(raw_tweets(300)),
        )
        catalog["EnrichedTweets"] = make_target()
        dynamic = DynamicIngestionPipeline(Cluster(4), catalog, registry).run(
            dynamic_feed(batch_size=20, functions=fn),
            GeneratorAdapter(raw_tweets(300)),
        )
        assert static.throughput > dynamic.throughput
