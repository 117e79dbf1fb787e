"""Differential test: hoisted WHERE and probe subexpressions vs. the
interpreter.

``plans.Hoisting`` evaluates a FROM block's charge-safe subexpressions at
most once per binding of the names they read and replays each one's charge
at every use.  It has to be invisible: for generated one- to three-term
blocks whose conjuncts read outer names, earlier terms' variables (a
*prefix* of the join) and the innermost one, the planned path must return
the rows, charge the three ``WorkMeter``s and raise exactly as
``use_plans=False``, the tree-walking interpreter, does.  The generated
blocks include conjuncts that raise for some bindings, empty inner terms,
constants, pure and impure Java UDFs, a post-FROM LET, an outer GROUP BY
and a registered function shadowing a builtin.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adm import Point, open_type
from repro.hyracks.cost import WorkMeter
from repro.sqlpp import EvaluationContext, Evaluator, parse_expression
from repro.storage import Dataset, IndexKind
from repro.udf import FunctionRegistry
from repro.udf.java import JavaUdfDescriptor
from repro.udf.library import RemoveSpecialUdf

GRID = st.sampled_from([1.0, 2.0, 3.0, 4.0])
NAMES = st.sampled_from(["abc", "abd", "xbc", "a-b-c"])
TERMS = (("A", "a"), ("B", "b"), ("C", "c"))

#: conjunct templates; ``{x}`` and ``{y}`` are term variables
CONJUNCTS = [
    # outer only: once per block evaluation
    "edit_distance(lower(t.word), {x}.name) < 2",
    "lower(t.word) = upper({x}.name)",
    "testlib#strip(t.word) = {x}.name",
    "testlib#loud(t.word) = upper({x}.name)",
    "spatial_intersect({x}.loc, create_circle(create_point(t.lat, t.lon), t.r))",
    "spatial_intersect(create_point(t.lat, t.lon), create_circle({x}.loc, 1.5))",
    # a term and the outer: once per candidate of that term
    "spatial_intersect({x}.loc, create_circle({y}.loc, t.r))",
    "edit_distance({x}.name, {y}.name) < t.cut",
    "{x}.n = {y}.n",
    "{x}.n < {y}.n + length(t.word)",
    # constants: once per plan
    '{x}.n < array_count([1, 2, 3]) + edit_distance("ab", "abc")',
    'contains({x}.name, substring("abc", 0, 1))',
]

#: raise for some bindings: ``t.word`` may be a number; the last one
#: charges its edit distance before it raises
RAISING = [
    "{x}.n < length(t.word)",
    'upper(t.word) != {x}.name',
    '{x}.n < edit_distance("ab", "abc") + length(t.word)',
]


@st.composite
def datasets(draw):
    out = {}
    indexed = draw(st.booleans(), label="indexed")
    for name, _var in TERMS:
        ds = Dataset(
            name, open_type(f"{name}T"), "id", num_partitions=2, validate=False
        )
        size = draw(st.sampled_from([0, 1, 3, 5]), label=f"{name} size")
        for key in range(size):
            ds.insert({
                "id": key,
                "n": draw(st.integers(0, 3)),
                "name": draw(NAMES),
                "loc": Point(draw(GRID), draw(GRID)),
            })
        ds.flush_all()
        if indexed:
            ds.create_index(f"{name}_loc", "loc", IndexKind.RTREE)
        out[name] = ds
    return out


@st.composite
def blocks(draw):
    count = draw(st.integers(1, 3), label="terms")
    terms = TERMS[:count]
    names = [var for _name, var in terms]
    conjuncts = []
    for _ in range(draw(st.integers(1, 4), label="conjuncts")):
        template = draw(st.sampled_from(CONJUNCTS + RAISING))
        x, y = draw(st.sampled_from(names)), draw(st.sampled_from(names))
        conjuncts.append(template.format(x=x, y=y))
    let = ""
    if draw(st.sampled_from([False, False, True]), label="post-FROM LET"):
        let = f" LET d = edit_distance({names[-1]}.name, \"abd\")"
        conjuncts.append("d < 3")
    hint = draw(st.sampled_from(["", "/*+ no-index */ "]), label="hint")
    sources = ", ".join(f"{name} {hint}{var}" for name, var in terms)
    select = "SELECT VALUE [" + ", ".join(f"{var}.id" for var in names) + "]"
    block = f"{select} FROM {sources}{let} WHERE {' AND '.join(conjuncts)}"
    if draw(st.sampled_from(range(8)), label="outer group") == 0:
        # group keys shadow by expression: inside, ``a.n`` is the outer key
        return f"SELECT VALUE ({block}) FROM A a GROUP BY a.n"
    return block


@st.composite
def tweets(draw):
    tweet = {
        "lat": draw(GRID),
        "lon": draw(GRID),
        "r": draw(st.sampled_from([1.0, 2.5])),
        "word": draw(st.sampled_from(["ABC", "a!b!d", "xbc", 7, None])),
        "cut": draw(st.sampled_from([1, 3])),
    }
    if draw(st.sampled_from([False, False, True])):
        del tweet[draw(st.sampled_from(sorted(tweet)))]
    return tweet


class _Loud(RemoveSpecialUdf):
    """Not declared pure, and rightly: its value alternates with the
    number of calls, so evaluating it less often than once per use
    changes rows."""

    pure = False

    def initialize(self, node_info):
        super().initialize(node_info)
        self.calls = 0

    def evaluate(self, name):
        self.calls += 1
        stripped = super().evaluate(name)
        return None if stripped is None else stripped.upper()[: self.calls % 2 + 2]


def _registry(catalog, shadowed):
    registry = FunctionRegistry(lambda: set(catalog))
    for name, cls in (("strip", RemoveSpecialUdf), ("loud", _Loud)):
        registry.register_java(JavaUdfDescriptor("testlib", name, cls, 1, False))
    if shadowed:
        # hides a hoistable builtin behind the impure UDF
        registry.register_sqlpp("CREATE FUNCTION lower(s) { testlib#loud(s) }")
    return registry


def _run(use_plans, catalog, shadowed, query, bindings):
    ctx = EvaluationContext(
        catalog, functions=_registry(catalog, shadowed), use_plans=use_plans
    )
    evaluator = Evaluator(ctx)
    outcomes = []
    for tweet in bindings:
        try:
            outcomes.append(repr(evaluator.evaluate_query(query, {"t": tweet})))
        except Exception as exc:  # the differential compares whatever is raised
            outcomes.append((type(exc).__name__, str(exc)))
    counters = [
        {name: getattr(meter, name) for name in WorkMeter._COUNTERS}
        for meter in (ctx.meter, ctx.shared_meter, ctx.replicated_meter)
    ]
    return outcomes, counters


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_hoisted_blocks_match_the_interpreter(data):
    catalog = data.draw(datasets(), label="catalog")
    query = parse_expression(data.draw(blocks(), label="query"))
    bindings = data.draw(st.lists(tweets(), min_size=1, max_size=4), label="tweets")
    shadowed = data.draw(st.sampled_from([True] + [False] * 7), label="shadowed")
    planned = _run(True, catalog, shadowed, query, bindings)
    oracle = _run(False, catalog, shadowed, query, bindings)
    assert planned == oracle
