"""A GROUP BY key is a variable, bound when the block parses.

The clauses evaluated per group read a key through a name no identifier
spells, so an inner FROM, LET or GROUP BY name that re-binds what the key
reads shadows it (the SQL++ rule), while an inner block that re-binds
nothing reads the key.  Literal rows, on the interpreter, the planned
path and ``AsterixLite.query``.
"""

from __future__ import annotations

import pytest

from repro.core.system import AsterixLite
from repro.errors import SqlppEvaluationError
from repro.sqlpp import EvaluationContext, Evaluator, parse_expression
from repro.sqlpp.analysis import free_vars
from repro.sqlpp.ast import VarRef
from repro.sqlpp.evaluator import Env
from repro.sqlpp.plans import build_select_plan, compile_expr

DATA = {
    "R": [{"id": 1, "k": "US", "v": "a"}, {"id": 2, "k": "FR", "v": "b"}],
    "G": [
        {"id": 1, "k": "US", "v": "a", "o": {"f": "x"}},
        {"id": 2, "k": "FR", "v": "b", "o": 7},
        {"id": 3, "k": "US", "v": "c", "o": {"f": "x"}},
        {"id": 4, "k": None, "v": "d"},
    ],
}
CASES = {
    # the inner FROM re-binds ``r``: its ``r.k`` is the inner record's,
    # whether the block runs once per generation or once per group
    "inner-from-shadows-uncorrelated": (
        'SELECT VALUE (SELECT VALUE r.v FROM R r WHERE r.k = "US")'
        " FROM R r GROUP BY r.k",
        [["a"], ["a"]],
    ),
    "inner-from-shadows-correlated": (
        'LET t = {"id": 1} SELECT VALUE (SELECT VALUE r.v FROM R r'
        ' WHERE r.k = "US" AND t.id = 1) FROM R r GROUP BY r.k',
        [["a"], ["a"]],
    ),
    "inner-let-shadows": (
        "SELECT VALUE (LET g = {\"k\": 0} SELECT VALUE g.k)"
        " FROM G g GROUP BY g.k ORDER BY g.k",
        [[0], [0], [0]],
    ),
    # the key's variable is no alias an inner FROM can capture: the inner
    # ``k`` is the inner record, ``r.k`` still the outer key
    "inner-from-binds-the-alias": (
        "SELECT VALUE (SELECT VALUE r.k FROM R k ORDER BY k.id)"
        " FROM R r GROUP BY r.k AS k ORDER BY k",
        [["FR", "FR"], ["US", "US"]],
    ),
    # past its own grouping, an inner key's alias or default name re-binds
    # ``r``: the inner ``r.k`` is the inner key's field
    "inner-group-alias-shadows": (
        'SELECT VALUE (SELECT VALUE r.k FROM G s GROUP BY {"k": s.v} AS r'
        " ORDER BY r.k) FROM R r GROUP BY r.k ORDER BY r.k",
        [["a", "b", "c", "d"]] * 2,
    ),
    "inner-group-default-name-shadows": (
        'SELECT VALUE (SELECT VALUE r.k FROM G s LET w = {"r": {"k": s.v}}'
        " GROUP BY w.r ORDER BY r.k) FROM R r GROUP BY r.k ORDER BY r.k",
        [["a", "b", "c", "d"]] * 2,
    ),
    # a FROM term sees the terms left of it: the first reads the outer key
    "inner-from-source-left-of-a-rebinding": (
        "SELECT VALUE (SELECT VALUE [x, r.id] FROM [r.k] x, R r ORDER BY r.id)"
        " FROM R r GROUP BY r.k ORDER BY r.k",
        [[["FR", 1], ["FR", 2]], [["US", 1], ["US", 2]]],
    ),
    # ... and an inner block that re-binds nothing reads the key
    "inner-block-reads-the-key": (
        "SELECT VALUE (SELECT VALUE s.v FROM G s WHERE s.k = g.k ORDER BY s.id)"
        " FROM G g GROUP BY g.k ORDER BY g.k",
        [[], ["b"], ["a", "c"]],
    ),
    # an aggregate outside the inner block's own grouping folds the outer
    # group's members: the block reads the group, and runs once per group
    "inner-aggregate-folds-the-group": (
        "SELECT VALUE (SELECT VALUE s.v FROM R s WHERE s.id <= count(*) ORDER BY s.id)"
        " FROM G g GROUP BY g.k ORDER BY g.k",
        [["a"], ["a"], ["a", "b"]],
    ),
    "group-by-field": (
        "SELECT VALUE t.k FROM G t GROUP BY t.k ORDER BY t.k",
        [None, "FR", "US"],
    ),
    # a record key and a scalar one: ``t.f`` is the key's field
    "group-by-var": (
        'SELECT VALUE {"f": t.f, "n": count(*)} FROM G g LET t = g.o'
        " GROUP BY t AS t ORDER BY count(*)",
        [{"n": 1}, {"n": 1}, {"f": "x", "n": 2}],
    ),
    # output names are taken before the key reference is bound
    "default-name": (
        "SELECT g.k, count(*) AS n FROM G g GROUP BY g.k ORDER BY g.k",
        [{"k": None, "n": 1}, {"k": "FR", "n": 1}, {"k": "US", "n": 2}],
    ),
    "default-name-under-an-alias": (
        "SELECT g.k, g.k = key AS same FROM G g GROUP BY g.k AS key ORDER BY key",
        [
            {"k": None, "same": None},
            {"k": "FR", "same": True},
            {"k": "US", "same": True},
        ],
    ),
    "order-by-key": (
        "SELECT VALUE count(*) FROM G g GROUP BY g.k ORDER BY g.k DESC",
        [2, 1, 1],
    ),
    # an aggregate's argument folds the members, where ``g`` is the tuple's
    "aggregate-over-members": (
        "SELECT VALUE [g.k, count(g.k), count(g.v)] FROM G g GROUP BY g.k"
        " ORDER BY g.k",
        [[None, 0, 1], ["FR", 1, 1], ["US", 2, 2]],
    ),
}


def _system():
    system = AsterixLite(num_nodes=2)
    system.create_type("T", {"id": "int64"})
    for name, rows in DATA.items():
        system.create_dataset(name, "T", "id")
        system.insert(name, rows)
    return system


@pytest.fixture(scope="module")
def system():
    return _system()


def _canonical(rows, query):
    """``rows`` as a list under ORDER BY, as a multiset otherwise."""
    return repr(rows if "ORDER BY" in query else sorted(map(repr, rows)))


@pytest.mark.parametrize("use_plans", [False, True], ids=["interpreter", "planned"])
@pytest.mark.parametrize("case", list(CASES))
def test_engines_bind_group_keys(system, case, use_plans):
    query, expected = CASES[case]
    ctx = EvaluationContext(system.catalog, use_plans=use_plans)
    rows = Evaluator(ctx).evaluate_query(parse_expression(query))
    assert _canonical(rows, query) == _canonical(expected, query)


@pytest.mark.parametrize("case", list(CASES))
def test_facade_binds_group_keys(system, case):
    query, expected = CASES[case]
    for _execution in range(2):
        rows = system.query(query)
        assert _canonical(rows, query) == _canonical(expected, query)


@pytest.mark.parametrize("group_by", ["r.k", "r.k AS k"])
def test_a_key_is_a_variable_no_identifier_spells(group_by):
    block = parse_expression(f"SELECT VALUE r.k FROM R r GROUP BY {group_by}")
    (key,) = block.group_keys
    assert (key.alias or key.default) == "k" and not key.var.isidentifier()
    assert block.select_value == VarRef(key.var)
    assert free_vars(block) == {"R"}  # the top-10 block of Figure 18 stays uncorrelated


@pytest.mark.parametrize(
    "where, bound, correlated",
    [
        ("r.k = max(t.ks)", {"t"}, ("t",)),  # an array form over a parameter
        ('r.k = max(["US"])', set(), ()),  # ... and over a constant
        ("r.id <= count(*)", {"*"}, ("*",)),  # an enclosing group's members
    ],
)
def test_an_aggregate_outside_a_group_reads_an_array(where, bound, correlated):
    """Only where a group encloses the block does an aggregate read ``*``:
    elsewhere it is the array form, and the block keeps its index probe
    and its correlation verdict, the once-per-generation cache included."""
    block = parse_expression(f"SELECT VALUE r.v FROM R r WHERE {where}")
    plan = build_select_plan(block, frozenset(bound), frozenset({"R"}), token=0)
    assert plan.correlated_vars == correlated
    assert plan.cacheable == (not correlated)
    if where.startswith("r.k ="):
        assert plan.terms[0].access_kind == "equality"


@pytest.mark.parametrize(
    "query, bindings",
    [
        ("count()", {}),  # no argument, no group
        ("count(*)", {}),  # ``*`` outside a group
        ("SELECT VALUE count() FROM [1, 2] x GROUP BY x", {}),  # a group folds ``*``
        ("sum(x)", {"x": 3}),  # the array form over no array
    ],
)
def test_malformed_aggregates_raise_alike(query, bindings):
    """The compiled aggregate raises the interpreter's errors itself."""
    expr = parse_expression(query)
    interpreter = Evaluator(EvaluationContext({}, use_plans=False))
    with pytest.raises(SqlppEvaluationError) as interpreted:
        interpreter.evaluate_query(expr, bindings)
    with pytest.raises(SqlppEvaluationError) as compiled:
        compile_expr(expr)(Evaluator(EvaluationContext({})), Env(dict(bindings)))
    assert str(compiled.value) == str(interpreted.value)
