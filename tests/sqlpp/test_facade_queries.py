"""Queries through the facade: one executor, checked against the oracle.

``AsterixLite.query`` / ``execute`` evaluate every query through the planned
executor.  The reference is the tree-walking interpreter
(``use_plans=False``): equal lists under ORDER BY, equal multisets otherwise,
on the first execution and on a repeated one.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import pytest

from repro.core.system import AsterixLite, run_insert
from repro.errors import SqlppAnalysisError
from repro.ingestion.adapter import GeneratorAdapter
from repro.sqlpp import evaluator as evaluator_module
from repro.sqlpp.evaluator import EvaluationContext, Evaluator
from repro.sqlpp.parser import parse_expression


def country_of(i):
    # skewed group sizes (30/22/15/13/10) so ORDER BY count() has no ties
    for bucket, threshold in enumerate([30, 52, 67, 80, 90]):
        if i < threshold:
            return f"C{bucket}"


def build_system() -> AsterixLite:
    system = AsterixLite(num_nodes=3)
    system.execute(
        """
        CREATE TYPE T AS OPEN { id: int64 };
        CREATE DATASET Tweets(T) PRIMARY KEY id;
        CREATE DATASET Out(T) PRIMARY KEY id;
        """
    )
    system.insert(
        "Tweets",
        [
            {"id": i, "country": country_of(i), "score": i % 7, "text": f"t{i}"}
            for i in range(90)
        ],
    )
    return system


@pytest.fixture
def system():
    return build_system()


def interpret(system, text):
    ctx = EvaluationContext(
        system.catalog, functions=system.registry, use_plans=False
    )
    result = Evaluator(ctx).evaluate_query(parse_expression(text))
    return result if isinstance(result, list) else [result]


def canonical(rows):
    return sorted(repr(r) for r in rows)


def assert_matches_interpreter(system, query):
    expected = interpret(system, query)
    for _execution in range(2):
        got = system.query(query)
        if "ORDER BY" in query:
            assert got == expected
        else:
            assert canonical(got) == canonical(expected)


DIFFERENTIAL_QUERIES = {
    "scan": "SELECT VALUE t.id FROM Tweets t",
    "where": "SELECT VALUE t.id FROM Tweets t WHERE t.score > 3",
    "named-projections": "SELECT t.id, t.country FROM Tweets t WHERE t.country = 'C2'",
    "group-count": "SELECT t.country AS country, count(*) AS num FROM Tweets t GROUP BY t.country",
    "group-sum": "SELECT t.country, sum(t.score) AS total FROM Tweets t GROUP BY t.country",
    "order-desc-limit": "SELECT VALUE t.id FROM Tweets t ORDER BY t.id DESC LIMIT 5",
    "group-order-agg": "SELECT VALUE t.country FROM Tweets t GROUP BY t.country ORDER BY count(t) DESC LIMIT 2",
    "let-order-limit": "SELECT VALUE y FROM Tweets t LET y = t.score * 10 WHERE y >= 40 ORDER BY y LIMIT 7",
    # shapes that once took a different executor than the eight above
    "self-join": "SELECT VALUE [a.id, b.id] FROM Tweets a, Tweets b WHERE a.id = b.id AND a.id < 3",
    "global-aggregate": "SELECT count(*) AS n FROM Tweets t",
    "array-source": "SELECT VALUE x FROM [1, 2] x",
}


class TestDifferential:
    @pytest.mark.parametrize("shape", DIFFERENTIAL_QUERIES)
    def test_facade_matches_interpreter(self, system, shape):
        assert_matches_interpreter(system, DIFFERENTIAL_QUERIES[shape])

    def test_known_answers(self, system):
        assert len(system.query(DIFFERENTIAL_QUERIES["self-join"])) == 3
        assert system.query(DIFFERENTIAL_QUERIES["global-aggregate"]) == [{"n": 90}]
        assert system.query(DIFFERENTIAL_QUERIES["array-source"]) == [1, 2]

    def test_insert_select_stores_the_query_rows(self, system):
        stored = system.execute(
            "INSERT INTO Out (SELECT t.id, t.score FROM Tweets t WHERE t.score = 0)"
        )
        assert stored == 13
        assert canonical(system.query("SELECT VALUE o FROM Out o")) == canonical(
            interpret(system, "SELECT t.id, t.score FROM Tweets t WHERE t.score = 0")
        )


class TestRepeatedExecution:
    @pytest.mark.parametrize(
        "query",
        [
            "SELECT VALUE t.id FROM Tweets t ORDER BY t.id LIMIT 3",
            "SELECT VALUE t.id FROM Tweets t LIMIT 3",
        ],
        ids=["ordered", "unordered"],
    )
    def test_limit_is_repeatable(self, system, query):
        first = system.query(query)
        assert len(first) == 3
        assert system.query(query) == first
        assert system.execute(query + ";") == first


FEED_SETUP = """
    CREATE DATASET Enriched(T) PRIMARY KEY id;
    CREATE FUNCTION scoreBand(t) {
        LET peers = (SELECT VALUE p.id FROM Tweets p WHERE p.score = t.score)
        SELECT t.*, array_count(peers) AS peers
    };
    CREATE FEED F WITH { "type-name": "T" };
    CONNECT FEED F TO DATASET Enriched APPLY FUNCTION scoreBand;
"""


def run_feed(system):
    raws = [json.dumps({"id": i, "score": i % 7}) for i in range(40)]
    return system.start_feed("F", adapter=GeneratorAdapter(raws), batch_size=10)


class TestAdHocPlans:
    def test_registry_plan_cache_does_not_grow(self, system):
        system.execute(FEED_SETUP)
        run_feed(system)
        planned = len(system.registry.plan_cache)
        assert planned > 0
        for _ in range(100):
            assert system.query("SELECT count(*) AS n FROM Tweets t") == [{"n": 90}]
            system.execute("DELETE FROM Out o WHERE o.id IN (SELECT VALUE t.id FROM Tweets t)")
        assert len(system.registry.plan_cache) == planned

    def test_feed_counters_unchanged_by_adhoc_queries(self, system):
        quiet = build_system()
        system.execute(FEED_SETUP)
        quiet.execute(FEED_SETUP)
        for _ in range(100):
            system.query("SELECT VALUE t.id FROM Tweets t WHERE t.score = 1")
        busy_report, quiet_report = run_feed(system), run_feed(quiet)
        assert dataclasses.asdict(busy_report.counters) == dataclasses.asdict(
            quiet_report.counters
        )
        assert busy_report.counters.vectorized_batches > 0
        assert busy_report.simulated_seconds == quiet_report.simulated_seconds


def test_planned_execution_never_enters_the_tree_walker(system):
    """With plans on, the ``Evaluator._eval_*`` handlers are the oracle's
    alone: a query, a DELETE and a feed over a SELECT-bodied UDF run on
    compiled closures from the first node to the last."""
    system.execute(FEED_SETUP)
    walker_file = evaluator_module.__file__
    entered = set()

    def hook(frame, event, _arg):
        code = frame.f_code
        if (
            event == "call"
            and code.co_name.startswith("_eval_")
            and code.co_filename == walker_file
        ):
            entered.add(code.co_name)

    sys.setprofile(hook)
    try:
        system.query(
            "SELECT t.country, count(*) AS n, max(t.score) AS top FROM Tweets t "
            "LET band = CASE WHEN t.score > 3 THEN 'hi' ELSE 'lo' END "
            "WHERE band = 'hi' AND EXISTS (SELECT VALUE p FROM Tweets p WHERE p.id = t.id) "
            "GROUP BY t.country ORDER BY n DESC LIMIT 3"
        )
        system.query("SELECT VALUE scoreBand(t)[0].peers FROM Tweets t WHERE t.id < 5")
        deleted = system.execute("DELETE FROM Tweets t WHERE t.id >= 80 AND NOT (t.score = 0)")
        report = run_feed(system)
    finally:
        sys.setprofile(None)
    assert deleted == 9
    assert report.records_stored == 40
    assert entered == set()
    # the hook does see the walker when it runs
    sys.setprofile(hook)
    try:
        interpret(system, "SELECT VALUE t.id FROM Tweets t WHERE t.id < 2")
    finally:
        sys.setprofile(None)
    assert "_eval_binary" in entered


class TestRunInsert:
    def test_insert_job_routes_and_counts(self, system):
        result = run_insert(
            system.cluster, system.catalog, "Out", [{"id": i} for i in range(20)]
        )
        assert result.records_out == 20
        assert len(system.catalog["Out"]) == 20

    def test_unknown_dataset_rejected(self, system):
        with pytest.raises(SqlppAnalysisError):
            run_insert(system.cluster, system.catalog, "Nope", [])
