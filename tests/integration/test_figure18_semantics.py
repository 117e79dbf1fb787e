"""Figure 18's nested-subquery UDF: the top-10 list refreshes per batch.

``highRiskTweetCheck`` flags tweets from the ten countries with the most
sensitive keywords.  Section 4.3.4's point: under the stream model that
top-10 list would never refresh; under the paper's per-batch model it is
recomputed each computing job, so keyword churn re-ranks countries between
batches.
"""

import json

import pytest

from repro import AsterixLite
from repro.ingestion import GeneratorAdapter
from repro.udf.library import SQLPP_UDFS


@pytest.fixture
def system():
    s = AsterixLite(num_nodes=2)
    s.execute(
        """
        CREATE TYPE TweetType AS OPEN { id: int64, text: string };
        CREATE TYPE WordType AS OPEN { wid: int64 };
        CREATE DATASET SensitiveWords(WordType) PRIMARY KEY wid;
        CREATE DATASET EnrichedTweets(TweetType) PRIMARY KEY id;
        """
    )
    s.execute(SQLPP_UDFS["high_risk_tweet_check"])
    # 12 countries; CXX gets XX keywords, so the top-10 are C12..C03
    wid = 0
    for country_index in range(1, 13):
        for _ in range(country_index):
            s.insert(
                "SensitiveWords",
                [{"wid": wid, "country": f"C{country_index:02d}", "word": "w"}],
            )
            wid += 1
    return s


class TestTop10Refresh:
    def test_top10_membership(self, system):
        got = system.query('SELECT VALUE highRiskTweetCheck(t)[0] FROM [{"id": 1, "country": "C12"}] t')
        assert got[0]["high_risk_flag"] == "Red"
        got = system.query('SELECT VALUE highRiskTweetCheck(t)[0] FROM [{"id": 1, "country": "C02"}] t')
        assert got[0]["high_risk_flag"] == "Green"  # rank 11

    def test_reranking_visible_at_batch_boundary(self, system):
        system.execute(
            'CREATE FEED F WITH { "type-name": "TweetType" };'
            "CONNECT FEED F TO DATASET EnrichedTweets "
            "APPLY FUNCTION highRiskTweetCheck;"
        )

        class Promoter(GeneratorAdapter):
            """Gives C02 twenty new keywords after the first batch."""

            def __init__(self, raws, words):
                super().__init__(raws)
                self.words = words
                self.count = 0

            def envelopes(self):
                for envelope in super().envelopes():
                    self.count += 1
                    if self.count == 11:
                        for i in range(20):
                            self.words.upsert(
                                {"wid": 10_000 + i, "country": "C02", "word": "w"}
                            )
                    yield envelope

        raws = [
            json.dumps({"id": i, "text": "x", "country": "C02"})
            for i in range(30)
        ]
        system.start_feed(
            "F",
            adapter=Promoter(raws, system.catalog["SensitiveWords"]),
            batch_size=10,
        )
        flags = {
            r["id"]: r["high_risk_flag"]
            for r in system.catalog["EnrichedTweets"].scan()
        }
        # batch 1 (ids 0-9): C02 outside the top 10 -> Green
        assert all(flags[i] == "Green" for i in range(10))
        # after promotion C02 leads the ranking -> Red
        assert all(flags[i] == "Red" for i in range(20, 30))

    def test_cached_within_batch(self, system):
        """The top-10 list is evaluated once per generation, not per record."""
        from repro.sqlpp import EvaluationContext, Evaluator, parse_expression

        ctx = EvaluationContext(system.catalog, functions=system.registry)
        evaluator = Evaluator(ctx)
        expr = parse_expression("highRiskTweetCheck(t)")
        for i in range(25):
            evaluator.evaluate_query(expr, {"t": {"id": i, "country": "C05"}})
        # one cached uncorrelated-subquery entry; the group/sort work of
        # computing the ranking was charged once (shared), not 25 times
        cached = [k for k in ctx.snapshots.built if k[0] == "uncorrelated"]
        assert len(cached) == 1
        assert ctx.shared_meter.group_items == 78  # sum(1..12) keywords
