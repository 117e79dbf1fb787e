"""Built-in function library."""

import pytest

from repro.adm import Circle, DateTime, Duration, Point, Rectangle
from repro.adm.values import MISSING
from repro.hyracks.cost import WorkMeter
from repro.sqlpp import parse_expression
from repro.sqlpp.evaluator import EvaluationContext, Evaluator
from repro.sqlpp.functions import BUILTINS, edit_distance


def run(text, bindings=None):
    return Evaluator(EvaluationContext({})).evaluate_query(
        parse_expression(text), bindings or {}
    )


class TestStringFunctions:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ('contains("hello world", "world")', True),
            ('contains("hello", "x")', False),
            ('lower("ABC")', "abc"),
            ('upper("abc")', "ABC"),
            ('trim("  x  ")', "x"),
            ('length("abcd")', 4),
            ('starts_with("abc", "ab")', True),
            ('ends_with("abc", "bc")', True),
            ('substring("hello", 1, 3)', "ell"),
            ('replace("a-b", "-", "+")', "a+b"),
            ('split("a,b", ",")', ["a", "b"]),
            ("to_string(42)", "42"),
        ],
    )
    def test_functions(self, text, expected):
        assert run(text) == expected

    def test_missing_propagates(self):
        assert run("lower(x.nope)", {"x": {}}) is MISSING

    def test_null_propagates(self):
        assert run("lower(x)", {"x": None}) is None


class TestEditDistance:
    @pytest.mark.parametrize(
        "a,b,d",
        [
            ("", "", 0),
            ("abc", "abc", 0),
            ("abc", "abd", 1),
            ("kitten", "sitting", 3),
            ("", "abc", 3),
            ("ab", "ba", 2),
        ],
    )
    def test_distances(self, a, b, d):
        assert edit_distance(a, b) == d

    def test_symmetry(self):
        assert edit_distance("short", "a longer string") == edit_distance(
            "a longer string", "short"
        )

    def test_meter_counts_cells(self):
        meter = WorkMeter()
        edit_distance("abcd", "xyz", meter)
        assert meter.edit_distance_cells == 5 * 4

    def test_via_sqlpp(self):
        assert run('edit_distance("abc", "abd")') == 1


class TestNumericAndNullHandling:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("abs(-3)", 3),
            ("round(2.6)", 3),
            ("floor(2.9)", 2),
            ("ceil(2.1)", 3),
            ("sqrt(9)", 3.0),
            ("is_missing(x.nope)", True),
            ("is_null(null)", True),
            ("is_unknown(null)", True),
            ("coalesce(null, 2)", 2),
            ("if_missing(x.nope, 7)", 7),
        ],
    )
    def test_functions(self, text, expected):
        assert run(text, {"x": {}}) == expected


class TestArrayFunctions:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("array_count([1, 2])", 2),
            ("array_sum([1, 2, 3])", 6),
            ("array_min([3, 1])", 1),
            ("array_max([3, 1])", 3),
            ("array_avg([2, 4])", 3.0),
            ("array_contains([1, 2], 2)", True),
            ("array_distinct([1, 1, 2])", [1, 2]),
            ("array_flatten([[1], [2, 3]])", [1, 2, 3]),
        ],
    )
    def test_functions(self, text, expected):
        assert run(text) == expected

    def test_non_array_rejected(self):
        from repro.errors import SqlppEvaluationError

        with pytest.raises(SqlppEvaluationError):
            run("array_sum(5)")


class TestSpatialFunctions:
    def test_create_point(self):
        assert run("create_point(1.5, 2.5)") == Point(1.5, 2.5)

    def test_create_circle(self):
        assert run("create_circle(create_point(0, 0), 2)") == Circle(Point(0, 0), 2)

    def test_create_rectangle(self):
        got = run("create_rectangle(create_point(0, 0), create_point(2, 3))")
        assert got == Rectangle(0, 0, 2, 3)

    def test_create_rectangle_propagates_unknowns_like_its_siblings(self):
        from repro.errors import SqlppEvaluationError

        assert run("create_rectangle(null, create_point(1.0, 2.0))") is None
        assert run("create_rectangle(create_point(1.0, 2.0), null)") is None
        assert run("create_rectangle(missing, null)") is MISSING
        with pytest.raises(SqlppEvaluationError, match="corners must be points"):
            run("create_rectangle(1, create_point(1.0, 2.0))")

    def test_spatial_intersect_and_meter(self):
        ctx = EvaluationContext({})
        result = Evaluator(ctx).evaluate_query(
            parse_expression(
                "spatial_intersect(create_point(1, 1), "
                "create_circle(create_point(0, 0), 2))"
            )
        )
        assert result is True
        assert ctx.meter.spatial_tests == 1

    def test_spatial_distance(self):
        assert run("spatial_distance(create_point(0, 0), create_point(3, 4))") == 5.0

    def test_get_x_y(self):
        assert run("get_x(create_point(4, 5))") == 4
        assert run("get_y(create_point(4, 5))") == 5


class TestTemporalFunctions:
    def test_datetime_constructor(self):
        assert run('datetime("2019-01-01T00:00:00Z")') == DateTime.parse(
            "2019-01-01T00:00:00Z"
        )

    def test_duration_constructor(self):
        assert run('duration("P2M")') == Duration(2, 0)

    def test_get_year(self):
        assert run('get_year(datetime("2019-06-01T00:00:00Z"))') == 2019

    def test_datetime_comparison_via_sqlpp(self):
        got = run(
            't1 < t2 + duration("P2M")',
            {
                "t1": DateTime.parse("2019-03-15T00:00:00Z"),
                "t2": DateTime.parse("2019-02-01T00:00:00Z"),
            },
        )
        assert got is True


class TestRegistry:
    def test_lookup_case_insensitive(self):
        assert BUILTINS.lookup("CONTAINS") is BUILTINS.lookup("contains")

    def test_contains_protocol(self):
        assert "contains" in BUILTINS
        assert "no_such_fn" not in BUILTINS
