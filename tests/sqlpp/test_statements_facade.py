"""Facade-level statement handling and error paths."""

import pytest

from repro import AsterixLite
from repro.errors import FeedStateError, SqlppAnalysisError, SqlppSyntaxError


@pytest.fixture
def system():
    s = AsterixLite(num_nodes=2)
    s.execute(
        "CREATE TYPE T AS OPEN { id: int64 };"
        "CREATE DATASET D(T) PRIMARY KEY id;"
    )
    return s


class TestFacadeErrors:
    def test_query_requires_single_select(self, system):
        with pytest.raises(SqlppAnalysisError, match="exactly one SELECT"):
            system.query("CREATE TYPE X AS OPEN { id: int64 }")

    def test_unknown_dataset_query(self, system):
        with pytest.raises(SqlppAnalysisError, match="unresolved variable"):
            system.query("SELECT VALUE x FROM Nope x")

    def test_insert_into_unknown_dataset(self, system):
        with pytest.raises(SqlppAnalysisError, match="unknown dataset"):
            system.insert("Nope", [{"id": 1}])

    def test_syntax_error_has_location(self, system):
        with pytest.raises(SqlppSyntaxError) as info:
            system.execute("SELECT FROM WHERE")
        assert info.value.line is not None

    def test_duplicate_feed_rejected(self, system):
        system.create_feed("F")
        with pytest.raises(FeedStateError):
            system.create_feed("F")

    def test_connect_unknown_feed(self, system):
        with pytest.raises(FeedStateError, match="unknown feed"):
            system.connect_feed("Ghost", "D")

    def test_connect_unknown_dataset(self, system):
        system.create_feed("F")
        with pytest.raises(SqlppAnalysisError, match="unknown dataset"):
            system.connect_feed("F", "Ghost")

    def test_composite_index_rejected(self, system):
        with pytest.raises(SqlppAnalysisError, match="composite indexes"):
            system.execute("CREATE INDEX ab ON D(a, b);")
        assert system.catalog["D"].indexes == {}

    def test_unknown_index_kind_rejected(self, system):
        for kind in ("RTREE", "hash"):
            with pytest.raises(SqlppAnalysisError, match="unknown index type"):
                system.create_index("loc", "D", "b", kind=kind)
        assert system.catalog["D"].indexes == {}


#: every public method of the facade, each with a caller outside its own
#: unit test (benchmarks/census_never_called.txt names the exceptions)
FACADE_METHODS = {
    "create_type", "create_dataset", "create_index", "drop_index",
    "create_function", "create_java_function", "create_feed", "connect_feed",
    "set_feed_adapter", "start_feed", "start_feeds", "resume_run",
    "feed_report", "plan_cache_stats", "replay_dead_letters",
    "backfill_pending", "insert", "upsert", "delete_where", "query",
    "execute", "evaluation_context", "evaluator",
}


def test_facade_surface_is_pinned():
    """A facade method arrives only by someone deciding it has a caller."""
    public = {
        name for name, member in vars(AsterixLite).items()
        if callable(member) and not name.startswith("_")
    }
    assert public == FACADE_METHODS


class TestFacadeBehaviour:
    def test_upsert_via_facade(self, system):
        system.insert("D", [{"id": 1, "v": "a"}])
        system.upsert("D", [{"id": 1, "v": "b"}])
        assert system.catalog["D"].get(1)["v"] == "b"

    def test_execute_returns_last_result(self, system):
        result = system.execute(
            "INSERT INTO D ([{'id': 9}]); SELECT VALUE d.id FROM D d"
        )
        assert result == [9]

    def test_programmatic_type_fields(self, system):
        system.create_type("Geo", {"id": "int64", "loc": "point?"})
        system.create_dataset("Places", "Geo", "id")
        from repro.adm import Point

        system.insert("Places", [{"id": 1, "loc": Point(1, 2)}])
        assert len(system.catalog["Places"]) == 1

    def test_create_index_through_execute(self, system):
        system.insert("D", [{"id": 1, "score": 10}])
        system.execute("CREATE INDEX byScore ON D(score) TYPE BTREE")
        got = list(system.catalog["D"].index_probe_equal("byScore", 10))
        assert [r["id"] for r in got] == [1]

    def test_evaluator_helper(self, system):
        system.insert("D", [{"id": 1}])
        evaluator = system.evaluator()
        from repro.sqlpp import parse_expression

        assert evaluator.evaluate_query(
            parse_expression("SELECT VALUE d.id FROM D d")
        ) == [1]

    def test_multi_statement_script(self, system):
        system.execute(
            """
            CREATE TYPE U AS OPEN { uid: int64 };
            CREATE DATASET Users(U) PRIMARY KEY uid;
            INSERT INTO Users ([{"uid": 1}, {"uid": 2}]);
            """
        )
        assert len(system.catalog["Users"]) == 2

    def test_default_partitions_match_nodes(self):
        s = AsterixLite(num_nodes=4)
        s.execute("CREATE TYPE T AS OPEN { id: int64 };")
        ds = s.create_dataset("D", "T", "id")
        assert ds.num_partitions == 4


class TestDeleteStatement:
    @pytest.fixture
    def loaded(self, system):
        system.insert("D", [{"id": i, "v": i % 3} for i in range(30)])
        return system

    def test_delete_where(self, loaded):
        assert loaded.execute("DELETE FROM D d WHERE d.v = 1") == 10
        assert len(loaded.catalog["D"]) == 20
        assert loaded.query("SELECT VALUE count(d) FROM D d WHERE d.v = 1") == [0]

    def test_delete_all(self, loaded):
        assert loaded.execute("DELETE FROM D") == 30
        assert len(loaded.catalog["D"]) == 0

    def test_delete_nothing_matches(self, loaded):
        assert loaded.execute("DELETE FROM D d WHERE d.v = 99") == 0
        assert len(loaded.catalog["D"]) == 30

    def test_delete_maintains_indexes(self, loaded):
        loaded.execute("CREATE INDEX byV ON D(v)")
        loaded.execute("DELETE FROM D d WHERE d.v = 0")
        assert list(loaded.catalog["D"].index_probe_equal("byV", 0)) == []
        assert len(list(loaded.catalog["D"].index_probe_equal("byV", 1))) == 10

    def test_delete_unknown_dataset(self, system):
        with pytest.raises(SqlppAnalysisError, match="unknown dataset"):
            system.execute("DELETE FROM Nope")
