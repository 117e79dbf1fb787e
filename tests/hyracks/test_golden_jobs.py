"""Golden job results: the three job shapes this system builds, each run
through its real caller, with every result's simulated cost pinned.

* the static feed job (``StaticIngestionPipeline``), with and without
  balanced intake, and once with a stream-model UDF;
* the per-batch computing job, through a dynamic run with predeployment
  on and off;
* the insert job (``run_insert``) over 4 partitions.

Each result is pinned by the ``repr`` of its makespan, its sorted per-node
and per-operator busy seconds and its ``records_out``, so a change to how
a job is specified, wired or executed must keep every float.  A line moves
only with a declared cost-model change; regenerate the table then with
``python tests/hyracks/test_golden_jobs.py``.
"""

import json

import pytest

from repro.cluster import Cluster
from repro.core import AsterixLite
from repro.core.system import run_insert
from repro.hyracks.executor import LocalJobRunner
from repro.ingestion import (
    AttachedFunction,
    ComputingModel,
    DynamicIngestionPipeline,
    FeedDefinition,
    GeneratorAdapter,
    StaticIngestionPipeline,
)
from repro.storage import Dataset
from repro.workloads import TWEET_TYPE_FULL


def build_system(num_nodes=2):
    """A sensitive-words EXISTS join over a feed target."""
    system = AsterixLite(num_nodes=num_nodes)
    system.execute(
        """
        CREATE TYPE TweetType AS OPEN { id: int64, text: string };
        CREATE TYPE WordType AS OPEN { wid: int64 };
        CREATE DATASET SensitiveWords(WordType) PRIMARY KEY wid;
        CREATE DATASET TweetsOut(TweetType) PRIMARY KEY id;
        CREATE FUNCTION flagTweet(tweet) {
            LET flag = CASE
                EXISTS(SELECT w FROM SensitiveWords w
                       WHERE tweet.country = w.country
                         AND contains(tweet.text, w.word))
                WHEN true THEN "Red" ELSE "Green" END
            SELECT tweet.*, flag
        };
        """
    )
    system.insert(
        "SensitiveWords",
        [{"wid": i, "country": "US", "word": f"w{i}"} for i in range(20)],
    )
    return system


def raws(records):
    return [
        json.dumps({"id": i, "text": f"tweet w{i % 30} {i}", "country": "US"})
        for i in range(records)
    ]


# Each scenario sets its system up and returns the run whose jobs are pinned.


def static(balanced, udf):
    def scenario():
        system = build_system()
        feed = FeedDefinition(
            "TweetFeed", "TweetsOut", balanced_intake=balanced,
            functions=[AttachedFunction("flagTweet")] if udf else [],
            computing_model=ComputingModel.STREAM,
        )
        pipeline = StaticIngestionPipeline(
            system.cluster, system.catalog, system.registry
        )
        return lambda: pipeline.run(feed, GeneratorAdapter(raws(90)))

    return scenario


def computing(predeploy):
    def scenario():
        system = build_system()
        feed = FeedDefinition(
            "TweetFeed", "TweetsOut", batch_size=30,
            functions=[AttachedFunction("flagTweet")],
        )
        pipeline = DynamicIngestionPipeline(
            system.cluster, system.catalog, system.registry
        )
        return lambda: pipeline.run(
            feed, GeneratorAdapter(raws(100)), predeploy=predeploy
        )

    return scenario


def insert():
    cluster = Cluster(4)
    catalog = {
        "Tweets": Dataset(
            "Tweets", TWEET_TYPE_FULL, "id", num_partitions=4, validate=False
        )
    }
    rows = [{"id": i, "text": f"t{i}"} for i in range(50)]

    def run():
        run_insert(cluster, catalog, "Tweets", rows)
        run_insert(cluster, catalog, "Tweets", rows[20:], upsert=True)

    return run


SCENARIOS = {
    "static": static(balanced=False, udf=False),
    "static-balanced": static(balanced=True, udf=False),
    "static-stream-udf": static(balanced=True, udf=True),
    "computing-predeployed": computing(predeploy=True),
    "computing-fresh": computing(predeploy=False),
    "insert": insert,
}


def job_results(name, monkeypatch):
    """One ``repr`` line per job the scenario's run executes."""
    run = SCENARIOS[name]()
    lines = []
    execute = LocalJobRunner.execute

    def recorded(runner, spec, predeployed=False):
        result = execute(runner, spec, predeployed)
        lines.append(
            f"{result.job_name} {result.makespan_seconds!r} "
            f"{sorted(result.node_busy_seconds.items())!r} "
            f"{sorted(result.per_operator_busy.items())!r} "
            f"{result.records_out!r}"
        )
        return result

    monkeypatch.setattr(LocalJobRunner, "execute", recorded)
    run()
    return lines


GOLDEN = {
    "computing-fresh": [
        "feed-TweetFeed-computing 0.056198000000000005 [(0, 0.001098), (1, 0.001098)] [('collector', 0.0), ('feed-pipeline-sink', 5.9999999999999995e-05), ('parser', 0.00195), ('udf-evaluator', 0.000186)] 0",
        "feed-TweetFeed-computing 0.056198000000000005 [(0, 0.001098), (1, 0.001098)] [('collector', 0.0), ('feed-pipeline-sink', 5.9999999999999995e-05), ('parser', 0.00195), ('udf-evaluator', 0.000186)] 0",
        "feed-TweetFeed-computing 0.056198000000000005 [(0, 0.001098), (1, 0.001098)] [('collector', 0.0), ('feed-pipeline-sink', 5.9999999999999995e-05), ('parser', 0.00195), ('udf-evaluator', 0.000186)] 0",
        "feed-TweetFeed-computing 0.055466 [(0, 0.000366), (1, 0.000366)] [('collector', 0.0), ('feed-pipeline-sink', 1.9999999999999998e-05), ('parser', 0.00065), ('udf-evaluator', 6.199999999999999e-05)] 0",
    ],
    "computing-predeployed": [
        "feed-TweetFeed-computing 0.0071979999999999995 [(0, 0.001098), (1, 0.001098)] [('collector', 0.0), ('feed-pipeline-sink', 5.9999999999999995e-05), ('parser', 0.00195), ('udf-evaluator', 0.000186)] 0",
        "feed-TweetFeed-computing 0.0071979999999999995 [(0, 0.001098), (1, 0.001098)] [('collector', 0.0), ('feed-pipeline-sink', 5.9999999999999995e-05), ('parser', 0.00195), ('udf-evaluator', 0.000186)] 0",
        "feed-TweetFeed-computing 0.0071979999999999995 [(0, 0.001098), (1, 0.001098)] [('collector', 0.0), ('feed-pipeline-sink', 5.9999999999999995e-05), ('parser', 0.00195), ('udf-evaluator', 0.000186)] 0",
        "feed-TweetFeed-computing 0.0064659999999999995 [(0, 0.000366), (1, 0.000366)] [('collector', 0.0), ('feed-pipeline-sink', 1.9999999999999998e-05), ('parser', 0.00065), ('udf-evaluator', 6.199999999999999e-05)] 0",
    ],
    "insert": [
        "insert-Tweets 0.061678 [(0, 0.001478), (1, 0.00146), (2, 0.001452), (3, 0.00147)] [('rows', 0.0), ('store', 0.0057)] 50",
        "insert-Tweets 0.061576 [(0, 0.0013499999999999999), (1, 0.0013759999999999998), (2, 0.0013599999999999999), (3, 0.001354)] [('rows', 0.0), ('store', 0.005339999999999999)] 30",
    ],
    "static": [
        "feed-TweetFeed-static 0.06512000000000001 [(0, 0.01002), (1, 0.00201)] [('adapter', 0.00198), ('parser', 0.005849999999999999), ('storage', 0.00402)] 90",
    ],
    "static-balanced": [
        "feed-TweetFeed-static 0.061125000000000006 [(0, 0.006024999999999999), (1, 0.006024999999999999)] [('adapter', 0.00198), ('parser', 0.005849999999999999), ('storage', 0.00402)] 90",
    ],
    "static-stream-udf": [
        "feed-TweetFeed-static 0.061500000000000006 [(0, 0.0063999999999999994), (1, 0.0063999999999999994)] [('adapter', 0.00198), ('parser', 0.005849999999999999), ('storage', 0.00402), ('udf-evaluator', 0.000558)] 90",
    ],
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_job_results_match_their_golden_lines(name, monkeypatch):
    assert job_results(name, monkeypatch) == GOLDEN[name]


if __name__ == "__main__":
    for name in sorted(SCENARIOS):
        with pytest.MonkeyPatch.context() as patch:
            lines = job_results(name, patch)
        print(f'    "{name}": [')
        for line in lines:
            print(f"        {line!r},")
        print("    ],")
