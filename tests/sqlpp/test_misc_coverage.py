"""Remaining builtin/evaluator/utility behaviours."""

import pytest

from repro.adm import DateTime, Duration
from repro.adm.values import MISSING
from repro.errors import SqlppEvaluationError
from repro.sqlpp import EvaluationContext, Evaluator, parse_expression


def run(text, bindings=None):
    return Evaluator(EvaluationContext({})).evaluate_query(
        parse_expression(text), bindings or {}
    )


class TestRemainingBuiltins:
    def test_string_concat(self):
        assert run('string_concat(["a", "b", "c"])') == "abc"

    def test_to_bigint(self):
        assert run('to_bigint("42")') == 42

    def test_if_missing_or_null(self):
        assert run("if_missing_or_null(null, x.nope, 9)", {"x": {}}) == 9

    def test_array_agg(self):
        got = run("SELECT VALUE array_agg(r.v) FROM [{'v': 1}, {'v': 2}] r")
        assert got == [[1, 2]]

    def test_len_alias(self):
        assert run("len([1, 2, 3])") == 3

    def test_substring_without_length(self):
        assert run('substring("hello", 2)') == "llo"


class TestArithmeticEdges:
    def test_datetime_minus_duration(self):
        got = run(
            'd - duration("P1M")',
            {"d": DateTime.parse("2019-03-15T00:00:00Z")},
        )
        assert got.isoformat().startswith("2019-02-15")

    def test_duration_plus_datetime_commutes(self):
        d = DateTime.parse("2019-01-01T00:00:00Z")
        a = run('duration("P2M") + d', {"d": d})
        b = run('d + duration("P2M")', {"d": d})
        assert a == b

    def test_unary_minus_propagates_unknowns(self):
        assert run("-x", {"x": None}) is None
        assert run("-x.nope", {"x": {}}) is MISSING

    def test_not_propagates_unknowns(self):
        assert run("NOT x", {"x": None}) is None
        assert run("NOT x.nope", {"x": {}}) is MISSING

    def test_membership_non_array_rejected(self):
        with pytest.raises(SqlppEvaluationError, match="array"):
            run("1 IN 5")

    def test_membership_null_array(self):
        assert run("1 IN x", {"x": None}) is None

    def test_comparison_type_error_message(self):
        with pytest.raises(SqlppEvaluationError, match="cannot combine"):
            run('1 < "a"')


class TestRuntimeMisc:
    def test_job_result_empty_busy(self):
        from repro.hyracks.executor import JobResult

        result = JobResult("j", 1.0, {}, 0.5)
        assert result.critical_node_seconds == 0.0

    def test_cluster_repr(self):
        from repro.cluster import Cluster

        assert "3 nodes" in repr(Cluster(3))

    def test_duration_serializes(self):
        from repro.adm import serialize

        assert serialize({"d": Duration(2, 0)}) == '{"d":"P2M"}'

    def test_frame_repr(self):
        from repro.hyracks import Frame

        assert "2 records" in repr(Frame([{}, {}]))
