"""Utilization-table rendering."""


class TestLayerUtilizationTable:
    def _metrics(self, workers=4):
        import json

        from repro.bench.reporting import layer_utilization_table
        from repro.core import AsterixLite
        from repro.ingestion import FeedPolicy, GeneratorAdapter

        system = AsterixLite(num_nodes=2)
        system.execute(
            """
            CREATE TYPE TweetType AS OPEN { id: int64 };
            CREATE DATASET Tweets(TweetType) PRIMARY KEY id;
            """
        )
        system.create_feed("TweetFeed", {"type-name": "TweetType"})
        system.connect_feed("TweetFeed", "Tweets")
        policy = FeedPolicy.spill(
            min_computing_workers=workers, max_computing_workers=workers
        )
        raws = (json.dumps({"id": i}) for i in range(120))
        report = system.start_feed(
            "TweetFeed", GeneratorAdapter(raws), batch_size=20, policy=policy
        )
        return layer_utilization_table, report.runtime

    def test_default_output_has_no_per_process_rows(self):
        table, metrics = self._metrics()
        rendered = table(metrics)
        assert "computing" in rendered
        assert ".w1" not in rendered and "w1 " not in rendered
        assert "pool:" not in rendered

    def test_per_process_adds_worker_rows_and_pool_summary(self):
        table, metrics = self._metrics()
        rendered = table(metrics, per_process=True)
        # one indented row per pool worker under the computing layer
        for worker in ("computing ", "w1", "w2", "w3"):
            assert worker in rendered
        assert "computing pool: peak 4 worker(s)" in rendered

    def test_single_worker_per_process_stays_compact(self):
        table, metrics = self._metrics(workers=1)
        rendered = table(metrics, per_process=True)
        assert "pool:" not in rendered  # nothing elastic to summarize
