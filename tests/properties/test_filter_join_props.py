"""Differential test: the spatial filter-join kernel vs. the interpreter.

``Evaluator._spatial_filter_join`` tests a single-term block's candidates
against the probe region itself instead of binding an ``Env`` and walking
the WHERE closure for each.  It has to be invisible: for *any* such block
the planned path must return the rows, charge the three ``WorkMeter``s and
raise exactly as ``use_plans=False`` (the tree-walking oracle of
``benchmarks/e2e/verify.py``) does — whether the kernel ran, declined at
plan time (the spatial conjunct does not lead, the region is not
charge-free) or declined for one binding (unknown region under the circle
flip, a registered function or an outer GROUP BY key shadowing the
conjunct).  Blocks are generated over point / rectangle / circle / absent /
NULL / non-spatial field values, plain and flipped argument order, point
and non-point outer regions, an extra conjunct on either side, with and
without the R-tree and the ``no-index`` hint, three shapings and a
reference insert in the middle of the generation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adm import Circle, Point, Rectangle, open_type
from repro.hyracks.cost import WorkMeter
from repro.sqlpp import EvaluationContext, Evaluator, parse_expression
from repro.storage import Dataset, IndexKind
from repro.udf import FunctionRegistry

GRID = st.sampled_from([1.0, 1.5, 2.0, 2.5, 3.0, 9.0])  # mostly within reach
POINTS = st.builds(Point, GRID, GRID)
SHAPES = st.one_of(
    POINTS,
    st.builds(Rectangle, GRID, GRID, GRID, GRID),
    st.builds(Circle, POINTS, st.sampled_from([0.5, 1.0, 2.0])),
)
ABSENT = object()  # the field is left out of the record: MISSING


def _record(key, loc, kind, name):
    record = {"id": key, "kind": kind, "name": name}
    if loc is not ABSENT:
        record["loc"] = loc
    return record


@st.composite
def places(draw, indexed):
    # an R-tree refuses a value without an MBR, so only an unindexed
    # dataset can hold the non-spatial field the scan must trip over
    odd = [st.just(None), st.just(ABSENT)] + ([] if indexed else [st.just("nowhere")])
    # points dominate, as in the paper's catalogs
    locs = st.one_of(*[POINTS] * 6, SHAPES, *odd)
    row = st.tuples(locs, st.sampled_from("ab"), st.sampled_from(["abc", "xyz"]))
    rows = draw(st.lists(row, min_size=draw(st.sampled_from([0, 0, 3, 6])), max_size=12))
    return [_record(i, *row) for i, row in enumerate(rows)]


OUTER_POINT = "create_point(t.latitude, t.longitude)"
REGIONS = [
    f"create_circle({OUTER_POINT}, 1.5)",
    f"create_circle({OUTER_POINT}, t.radius)",
    OUTER_POINT,
    f"create_rectangle({OUTER_POINT}, create_point(2.0, 2.0))",
    "t.region",
    # not charge-free: the kernel must leave these to the scalar loop
    f"create_circle({OUTER_POINT}, edit_distance(t.word, \"abc\"))",
]
FLIP_OUTERS = [
    OUTER_POINT,
    OUTER_POINT,
    # no access path: the flip is an identity only for a point
    "t.region",
    f"create_circle({OUTER_POINT}, 1.0)",
]
EXTRAS = ['p.kind = "a"', 'edit_distance(p.name, "abd") < 2', "p.id < t.cut"]
SHAPINGS = [
    ("SELECT VALUE p.id", ""),
    ("SELECT p.kind AS kind, count(*) AS n", " GROUP BY p.kind"),
    ("SELECT VALUE p.id", " ORDER BY p.id DESC LIMIT 2"),
]


@st.composite
def queries(draw):
    def pick(*choices):  # uniform, which booleans() and integers() are not
        return draw(st.sampled_from(choices))

    if pick("plain", "flipped") == "plain":
        args = ["p.loc", pick(*REGIONS)]
    else:
        args = [pick(*FLIP_OUTERS), f"create_circle(p.loc, {pick('1.5', 't.radius')})"]
    if pick("field first", "field second") == "field second":
        args.reverse()
    conjuncts = [f"spatial_intersect({args[0]}, {args[1]})"]
    extra = pick(None, None, *EXTRAS)
    if extra is not None:
        conjuncts.insert(pick(0, 1, 1), extra)
    head, tail = pick(*SHAPINGS)
    hint = pick("", "/*+ no-index */ ")
    # a post-FROM LET is charged per candidate, before the WHERE
    let = pick("", "", "", ' LET d = edit_distance(p.name, "abd")')
    block = f"{head} FROM Places {hint}p{let} WHERE {' AND '.join(conjuncts)}{tail}"
    if pick(*range(8)):
        return block
    # the same block under an outer GROUP BY whose key is spelled like the
    # inner field path: group keys shadow by expression, so inside it every
    # ``p.loc`` reads the outer key
    return f"SELECT VALUE ({block}) FROM Places p GROUP BY p.loc"


#: (field, value) damage done to an otherwise well-formed tweet
UNKNOWNS = [
    ("latitude", None),
    ("longitude", ABSENT),
    ("radius", None),
    ("radius", ABSENT),
    ("radius", "wide"),
    ("region", None),
    ("region", ABSENT),
    ("region", "nowhere"),
]


@st.composite
def tweet_bindings(draw):
    tweet = {
        "latitude": draw(GRID),
        "longitude": draw(GRID),
        "radius": draw(st.sampled_from([1.5, 2])),
        "region": draw(SHAPES),
        "word": draw(st.sampled_from(["abc", "abcd"])),
        "cut": draw(st.sampled_from([3, 100])),
    }
    if draw(st.sampled_from([True, False, False])):
        field, value = draw(st.sampled_from(UNKNOWNS))
        tweet[field] = value
    return {k: v for k, v in tweet.items() if v is not ABSENT}


def _registry(shadowed):
    """No registry, or one whose UDF hides the builtin the kernel inlines."""
    if not shadowed:
        return None
    registry = FunctionRegistry(lambda: {"Places"})
    registry.register_sqlpp("CREATE FUNCTION spatial_intersect(a, b) { a = b }")
    return registry


def _run(use_plans, records, indexed, shadowed, query, tweets, insert_at, late):
    """Every tweet's outcome in one generation, and the final charges."""
    dataset = Dataset(
        "Places", open_type("PlacesT"), "id", num_partitions=2, validate=False
    )
    for record in records:
        dataset.insert(record)
    dataset.flush_all()
    if indexed:
        dataset.create_index("places_loc", "loc", IndexKind.RTREE)
    ctx = EvaluationContext(
        {"Places": dataset}, functions=_registry(shadowed), use_plans=use_plans
    )
    evaluator = Evaluator(ctx)
    outcomes = []
    for position, tweet in enumerate(tweets):
        if position == insert_at:
            # the R-tree sees it at once, the pinned scan not in this generation
            dataset.insert(late)
        try:
            outcomes.append(repr(evaluator.evaluate_query(query, {"t": tweet})))
        except Exception as exc:  # the differential compares whatever is raised
            outcomes.append((type(exc).__name__, str(exc)))
    counters = [
        {name: getattr(meter, name) for name in WorkMeter._COUNTERS}
        for meter in (ctx.meter, ctx.shared_meter, ctx.replicated_meter)
    ]
    return outcomes, counters


def _assert_same(*args):
    planned_outcomes, planned_counters = _run(True, *args)
    oracle_outcomes, oracle_counters = _run(False, *args)
    assert planned_outcomes == oracle_outcomes
    assert planned_counters == oracle_counters


FLIPPED = (
    "SELECT VALUE p.id FROM Places p WHERE spatial_intersect("
    "create_circle(p.loc, t.radius), create_point(t.latitude, t.longitude))"
)


@pytest.mark.parametrize(
    "locs, query, tweet",
    [
        # the scalar loop evaluates a region only per candidate: over an
        # empty scan a region that cannot be built raises nothing
        ([], FLIPPED, {"latitude": 1.0, "longitude": 1.0, "radius": "wide"}),
        # ... and over this one the first center's type error comes first
        (
            [Rectangle(1.0, 1.0, 2.0, 2.0), Point(1.0, 1.0)],
            FLIPPED,
            {"latitude": 1.0, "longitude": 1.0, "radius": "wide"},
        ),
        # an unknown outer point still type-checks every center
        ([Point(1.0, 1.0), Circle(Point(1.0, 1.0), 1.0)], FLIPPED, {"radius": 1.5}),
        # the builtin's caller wraps what the geometry itself raises
        (
            [Point(1.0, 1.0), Point("one", "one")],
            FLIPPED,
            {"latitude": 1.0, "longitude": 1.0, "radius": 1.5},
        ),
    ],
)
def test_corners_generation_rarely_reaches(locs, query, tweet):
    records = [_record(i, loc, "a", "abc") for i, loc in enumerate(locs)]
    late = _record(99, Point(1.0, 1.0), "a", "abc")
    _assert_same(records, False, False, parse_expression(query), [tweet], 9, late)


@settings(deadline=None)
@given(st.data())
def test_planned_spatial_blocks_match_the_interpreter(data):
    indexed = data.draw(st.booleans(), label="indexed")
    records = data.draw(places(indexed), label="records")
    query = parse_expression(data.draw(queries(), label="query"))
    tweets = data.draw(st.lists(tweet_bindings(), min_size=1, max_size=4), label="tweets")
    insert_at = data.draw(st.integers(0, len(tweets)), label="insert_at")
    late = _record(99, data.draw(POINTS, label="late"), "a", "abc")
    shadowed = data.draw(st.sampled_from([True] + [False] * 7), label="udf")
    _assert_same(records, indexed, shadowed, query, tweets, insert_at, late)
