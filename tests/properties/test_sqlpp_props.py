"""Property-based tests for SQL++ evaluation against Python models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hyracks.cost import WorkMeter
from repro.sqlpp import EvaluationContext, Evaluator, parse_expression
from repro.sqlpp.functions import edit_distance

rows = st.lists(
    st.fixed_dictionaries(
        {"k": st.integers(0, 5), "v": st.integers(-100, 100)}
    ),
    max_size=40,
)


# integers that may arrive as floats: ``1`` and ``1.0`` are one value
mixed_rows = st.lists(
    st.fixed_dictionaries(
        {
            "k": st.integers(0, 5),
            "v": st.integers(-5, 5).flatmap(lambda i: st.sampled_from([i, float(i)])),
        }
    ),
    max_size=40,
)

DISTINCT_QUERIES = [
    "SELECT DISTINCT VALUE r.v FROM data r",
    "array_distinct((SELECT VALUE r.v FROM data r))",
    "SELECT VALUE v FROM data r GROUP BY r.v AS v",
]


def run(text, bindings, use_plans=True):
    return Evaluator(EvaluationContext({}, use_plans=use_plans)).evaluate_query(
        parse_expression(text), bindings
    )


class TestSelectProperties:
    @given(rows)
    @settings(max_examples=60)
    def test_where_filter_model(self, data):
        got = run("SELECT VALUE r.v FROM data r WHERE r.v > 0", {"data": data})
        assert got == [r["v"] for r in data if r["v"] > 0]

    @given(rows)
    @settings(max_examples=60)
    def test_order_by_model(self, data):
        got = run("SELECT VALUE r.v FROM data r ORDER BY r.v", {"data": data})
        assert got == sorted(r["v"] for r in data)

    @given(rows, st.integers(0, 10))
    @settings(max_examples=60)
    def test_limit_model(self, data, limit):
        got = run(
            f"SELECT VALUE r.v FROM data r ORDER BY r.v LIMIT {limit}",
            {"data": data},
        )
        assert got == sorted(r["v"] for r in data)[:limit]

    @given(rows)
    @settings(max_examples=60)
    def test_group_by_count_model(self, data):
        got = run(
            "SELECT r.k AS k, count(*) AS n FROM data r GROUP BY r.k",
            {"data": data},
        )
        model = {}
        for r in data:
            model[r["k"]] = model.get(r["k"], 0) + 1
        assert {g["k"]: g["n"] for g in got} == model

    @given(rows)
    @settings(max_examples=60)
    def test_group_by_sum_model(self, data):
        got = run(
            "SELECT r.k AS k, sum(r.v) AS s FROM data r GROUP BY r.k",
            {"data": data},
        )
        model = {}
        for r in data:
            model[r["k"]] = model.get(r["k"], 0) + r["v"]
        assert {g["k"]: g["s"] for g in got} == model

    @given(rows)
    @settings(max_examples=60)
    def test_implicit_aggregate_model(self, data):
        got = run("SELECT count(*) AS n, sum(r.v) AS s FROM data r", {"data": data})
        expected_sum = sum(r["v"] for r in data) if data else None
        assert got == [{"n": len(data), "s": expected_sum}]

    @given(st.one_of(rows, mixed_rows))
    @settings(max_examples=60)
    def test_distinct_model(self, data):
        """DISTINCT, ``array_distinct`` and GROUP BY keep the first of
        each value, and ``1`` is ``1.0``."""
        seen, expected = set(), []
        for r in data:
            if r["v"] not in seen:
                seen.add(r["v"])
                expected.append(r["v"])
        for use_plans in (True, False):
            for query in DISTINCT_QUERIES:
                got = run(query, {"data": data}, use_plans)
                assert repr(got) == repr(expected), query

    @pytest.mark.parametrize("use_plans", [True, False])
    def test_distinct_objects_ignore_field_order(self, use_plans):
        data = [
            {"v": {"a": 1, "b": [2, {"c": 3}]}},
            {"v": {"b": [2.0, {"c": 3}], "a": 1.0}},
            {"v": {"a": True, "b": [2, {"c": 3}]}},
            {"v": {"a": 1, "b": [{"c": 3}, 2]}},
        ]
        expected = [data[0]["v"], data[2]["v"], data[3]["v"]]
        for query in DISTINCT_QUERIES:
            assert repr(run(query, {"data": data}, use_plans)) == repr(expected), query


words = st.text(alphabet="abcdef", max_size=12)


def textbook_edit_distance(a, b):
    """The full Levenshtein matrix, row by row: (distance, cells filled)."""
    previous = list(range(len(b) + 1))
    cells = len(previous)
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (ca != cb))
            )
        cells += len(current)
        previous = current
    return previous[-1], cells


# any unicode (mostly disjoint texts), two letters (every alignment is
# plausible), and few-letter texts running past one 64-bit word of pattern
texts = st.one_of(
    st.text(max_size=20),
    st.text(alphabet="ab", max_size=12),
    st.text(alphabet="abé☃", min_size=50, max_size=150),
)


class TestEditDistanceProperties:
    @given(texts, texts)
    @settings(max_examples=300)
    def test_bit_parallel_matches_the_textbook_matrix(self, a, b):
        meter = WorkMeter()
        expected, cells = textbook_edit_distance(a, b)
        assert edit_distance(a, b, meter) == expected
        assert meter.edit_distance_cells == cells

    @given(words, words)
    @settings(max_examples=100)
    def test_symmetric(self, a, b):
        assert edit_distance(a, b) == edit_distance(b, a)

    @given(words)
    @settings(max_examples=100)
    def test_identity(self, a):
        assert edit_distance(a, a) == 0

    @given(words, words)
    @settings(max_examples=100)
    def test_bounded_by_longer_length(self, a, b):
        d = edit_distance(a, b)
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))

    @given(words, words, words)
    @settings(max_examples=60)
    def test_triangle_inequality(self, a, b, c):
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)
