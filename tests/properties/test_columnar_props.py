"""Differential test: ``BlockKernel`` vs. the tree-walking interpreter.

The columnar layer has no expression semantics of its own — every column
is a column reference, a batched subquery, or the plan's scalar closure
mapped over the batch — so for *any* FROM-less UDF body it must store the
rows and charge the three ``WorkMeter``s exactly as ``Evaluator._eval_*``
(``use_plans=False``, the oracle ``benchmarks/e2e/verify.py`` uses) does
record by record.  Bodies are generated over every node kind
``plans.compile_expr`` handles, with probe, broadcast and kernel-declined
subqueries landing in always-evaluated and in conditional positions, Java /
registry / metered calls, a registry function shadowing a builtin inside a
probe projection, and an optional WHERE in front of the projections.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adm import open_type
from repro.hyracks.cost import WorkMeter
from repro.sqlpp import EvaluationContext, Evaluator, parse_function
from repro.sqlpp.ast import (
    ArrayConstructor,
    BinaryOp,
    Call,
    CaseExpr,
    Exists,
    FieldAccess,
    IndexAccess,
    LetClause,
    Literal,
    MissingLiteral,
    ObjectConstructor,
    Projection,
    SelectBlock,
    Star,
    UnaryOp,
    VarRef,
)
from repro.sqlpp.columnar import compile_block_kernel
from repro.sqlpp.evaluator import Env
from repro.storage import Dataset
from repro.udf import FunctionRegistry, register_paper_udfs

# ---------------------------------------------------------------- the system


def _dataset(name, key, records):
    dataset = Dataset(
        name, open_type(f"{name}T"), key, num_partitions=2, validate=False
    )
    for record in records:
        dataset.insert(record)
    dataset.flush_all()
    return dataset


CATALOG = {
    "SafetyRatings": _dataset(
        "SafetyRatings",
        "country_code",
        [
            {"country_code": code, "safety_rating": rating}
            for code, rating in (("US", "3"), ("FR", "5"))
        ],
    ),
    "ReligiousPopulations": _dataset(
        "ReligiousPopulations",
        "rid",
        [
            {"rid": i, "country_name": c, "religion_name": n, "population": p}
            for i, (c, n, p) in enumerate(
                [("US", "A", 10), ("US", "B", 30), ("US", "C", 20), ("FR", "A", 7)]
            )
        ],
    ),
}
REGISTRY = FunctionRegistry(lambda: set(CATALOG))
register_paper_udfs(REGISTRY)  # testlib#removeSpecial among them
REGISTRY.register_sqlpp('CREATE FUNCTION upper(x) { "SHADOWED" }')
REGISTRY.register_sqlpp(
    """CREATE FUNCTION ratingOf(c) {
        SELECT VALUE s.safety_rating FROM SafetyRatings s WHERE s.country_code = c
    }"""
)

RECORDS = [
    {"id": 0, "country": "US", "text": "a bomb", "tags": ["x", "y"]},
    {"id": 1, "country": "FR", "text": "Bonjour", "n": 2.5},
    {"id": 2, "country": "Atlantis", "text": "", "tags": []},
    {"id": 3, "country": None, "n": -1},
    {"id": 4, "text": "no country", "user": {"name": "ann"}},
]


def _subquery(select_text):
    """The parsed ``( SELECT ... )`` node; parsed once so plans are shared."""
    definition = parse_function(
        f"CREATE FUNCTION f(t) {{ LET x = ({select_text}) SELECT x }}"
    )
    return definition.body.lets[0].expr


SUBQUERIES = [
    _subquery(text)
    for text in (
        # probe kernel: SELECT VALUE, named projections, group, order + limit
        "SELECT VALUE s.safety_rating FROM SafetyRatings s "
        "WHERE s.country_code = t.country",
        "SELECT s.safety_rating AS r, length(s.country_code) AS n "
        "FROM SafetyRatings s WHERE t.country = s.country_code",
        "SELECT sum(r.population) AS total, count(*) AS n "
        "FROM ReligiousPopulations r WHERE r.country_name = t.country",
        "SELECT VALUE r.religion_name FROM ReligiousPopulations r "
        "WHERE r.country_name = t.country ORDER BY r.population DESC LIMIT 2",
        "SELECT VALUE r.rid FROM ReligiousPopulations r "
        "WHERE r.country_name = t.country LIMIT 1",
        # a registry function shadowing a builtin in the match projection
        "SELECT VALUE upper(s.country_code) FROM SafetyRatings s "
        "WHERE s.country_code = t.country",
        # broadcast: uncorrelated, once per batch
        "SELECT VALUE s.country_code FROM SafetyRatings s ORDER BY s.country_code",
        # shapes the probe kernel declines: these run per record
        "SELECT VALUE s.safety_rating FROM SafetyRatings s "
        'WHERE s.country_code = t.country AND s.safety_rating != "5"',
        "SELECT VALUE r.population + t.id FROM ReligiousPopulations r "
        "WHERE r.country_name = t.country",
    )
]

# ------------------------------------------------------------ the generators

T = VarRef("t")
LEAVES = st.one_of(
    st.sampled_from([0, 1, -1, 2.5, "US", "abc", True, False, None]).map(Literal),
    st.just(MissingLiteral()),
    st.just(T),
    st.sampled_from(["id", "country", "text", "tags", "n", "user", "nope"]).map(
        lambda name: FieldAccess(T, name)
    ),
    st.sampled_from(SUBQUERIES),
)


def _composites(e):
    call = st.one_of(
        st.builds(lambda a: Call("lower", (a,)), e),
        st.builds(lambda a, b: Call("coalesce", (a, b)), e, e),
        st.builds(lambda a: Call("edit_distance", (a, Literal("bomb"))), e),
        st.builds(lambda a: Call("count", (a,)), e),  # array-form aggregate
        st.builds(lambda a: Call("upper", (a,)), e),  # registry, shadows a builtin
        st.builds(lambda a: Call("ratingOf", (a,)), e),  # registry, reads a dataset
        st.builds(lambda a: Call("removeSpecial", (a,), "testlib"), e),
    )
    whens = st.lists(st.tuples(e, e), min_size=1, max_size=2).map(tuple)
    return st.one_of(
        st.builds(FieldAccess, e, st.sampled_from(["name", "r", "total"])),
        st.builds(IndexAccess, e, st.one_of(st.sampled_from([0, -1]).map(Literal), e)),
        st.builds(UnaryOp, st.sampled_from(["not", "-"]), e),
        st.builds(
            BinaryOp, st.sampled_from(["and", "or", "=", "!=", "<", "+", "in"]), e, e
        ),
        call,
        st.builds(CaseExpr, st.one_of(st.none(), e), whens, st.one_of(st.none(), e)),
        st.builds(lambda a, b: ObjectConstructor((("k", a), ("j", b))), e, e),
        st.builds(lambda a, b: ArrayConstructor((a, b)), e, e),
        st.builds(Exists, e),
    )


EXPRS = st.recursive(LEAVES, _composites, max_leaves=6)


@st.composite
def udf_bodies(draw):
    """A FROM-less block: LET a, b [WHERE] SELECT t.*, a, b, extra | VALUE."""
    first = draw(EXPRS)
    # the second LET may read the first
    second = draw(st.one_of(EXPRS, st.just(BinaryOp("=", VarRef("a"), draw(EXPRS)))))
    block = SelectBlock(lets=[LetClause("a", first), LetClause("b", second)])
    if draw(st.booleans()):
        block.where = draw(EXPRS)
    if draw(st.booleans()):
        block.select_value = draw(EXPRS)
    else:
        block.projections = [
            Projection(Star(T)),
            Projection(VarRef("a")),
            Projection(VarRef("b")),
            Projection(draw(EXPRS), alias="extra"),
        ]
    return block


# ---------------------------------------------------------------- the check


def _counters(ctx):
    return [
        {name: getattr(meter, name) for name in WorkMeter._COUNTERS}
        for meter in (ctx.meter, ctx.shared_meter, ctx.replicated_meter)
    ]


@settings(max_examples=200, deadline=None)
@given(udf_bodies(), st.lists(st.sampled_from(RECORDS), min_size=1, max_size=5))
def test_block_kernel_matches_the_interpreter(block, records):
    oracle_ctx = EvaluationContext(CATALOG, functions=REGISTRY, use_plans=False)
    oracle = Evaluator(oracle_ctx)
    kernel_ctx = EvaluationContext(CATALOG, functions=REGISTRY)
    plan = kernel_ctx.plan_cache.plan_for(block, frozenset("t"), CATALOG)
    kernel = compile_block_kernel(plan, ("t",), kernel_ctx)
    try:
        expected = [
            row
            for record in records
            for row in oracle.evaluate_select(block, Env({"t": record}))
        ]
    except Exception:
        # Which record's error comes first differs by evaluation order
        # (record-major vs column-major); the operator reruns the frame
        # on any of them, so only "it raises" is part of the contract.
        with pytest.raises(Exception):
            kernel.run(Evaluator(kernel_ctx), records)
        return
    rows = kernel.run(Evaluator(kernel_ctx), records)
    assert repr(rows) == repr(expected)  # repr: 1, 1.0 and True differ
    assert _counters(kernel_ctx) == _counters(oracle_ctx)
