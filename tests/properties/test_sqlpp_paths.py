"""Differential test: every physical SQL++ path vs. the interpreter.

The planned engine, the batch kernel and the facade may change how fast
a UDF or a query runs, never what it returns.  For any world
``sqlpp_blocks`` draws, each path returns the rows of ``use_plans=False``
(the tree-walking oracle of ``benchmarks/e2e/verify.py``) and raises
where it raises:

* the planned path, one ``FunctionRegistry.invoke`` per record;
* the batch kernel, one ``make_invoker`` call per generation (two when
  a write lands inside it);
* the facade, ``AsterixLite.query`` on 1–4 nodes, for a closed block.

Each path reads its own catalog.  A generation's reference write lands
on each before the same binding, so within the generation the live R-tree
sees it and the pinned snapshots do not; the kernel's two calls are the
bindings before the write and those after it.  The kernel only has to
raise when the oracle raises: which record fails first depends on
evaluation order.  With no cache attached, the three ``WorkMeter``s
equal the oracle's.  With the memo attached, a kernel with
no per-record fallback is charged a hash probe or a memo hit where the
oracle is charged a probe.

The generated entry points each draw the worlds of one focus of
``sqlpp_blocks`` and run them through every path:
``test_hoisting_props``, ``test_filter_join_props`` (two: the filter
step's and the join step's), ``test_columnar_props`` (every world),
``test_shaped_rows_props`` and ``test_facade_query_props``.  ``tests/sqlpp/test_plan_parity`` and
``test_columnar_parity`` run the nine paper UDFs over
:func:`paper_generations`; the filter-step corners that generation
rarely reaches are fixed examples here.
"""

from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import settings

from repro import AsterixLite
from repro.adm import Circle, Point, Rectangle
from repro.hyracks.cost import WorkMeter
from repro.ingestion.feed import AttachedFunction
from repro.ingestion.udf_operator import make_invoker
from repro.runtime.metrics import RunCounters
from repro.sqlpp import EvaluationContext, Evaluator, columnar, parse_expression
from repro.sqlpp.memo import EnrichmentMemo
from repro.sqlpp.state_cache import StateCache
from repro.storage import IndexKind
from repro.udf import FunctionRegistry
from tests.properties.sqlpp_blocks import World, event


class Raised(NamedTuple):
    kind: str
    message: str


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # the differential compares whatever is raised
        return Raised(type(exc).__name__, str(exc))


def _meters(ctx):
    return [
        {name: getattr(meter, name) for name in WorkMeter._COUNTERS}
        for meter in (ctx.meter, ctx.shared_meter, ctx.replicated_meter)
    ]


def _split(records, write):
    """The bindings before ``write`` lands and those after it."""
    at = len(records) if write is None else write[0]
    return records[:at], records[at:]


def _land(catalog, write):
    if write is not None:
        _at, name, record = write
        catalog[name].upsert(record)


def differential(catalog, registry, fn, generations, caches=(None, None), between=None):
    """Run ``fn`` over each generation's bindings on the oracle, the
    planned path and the kernel, each over its own ``catalog()``, asserting
    the contract.  A generation's write lands on every catalog before the
    same binding: the kernel is called on the bindings before it and again
    on those after, as on a batch split there.  ``between(write)`` runs
    after each generation.  Returns the kernel's counters."""
    memo_bytes, state_bytes = caches

    def fast():
        return EvaluationContext(
            catalog(),
            functions=registry,
            memo=EnrichmentMemo(memo_bytes) if memo_bytes else None,
            state_cache=StateCache(state_bytes) if state_bytes else None,
        )

    oracle = EvaluationContext(catalog(), functions=registry, use_plans=False)
    planned, batched = fast(), fast()
    counters = RunCounters()
    invoke = make_invoker([AttachedFunction(fn)], registry, counters)
    kernel_raised = False
    for generation, (records, write) in enumerate(generations):
        if generation:
            for ctx in (oracle, planned, batched):
                ctx.refresh_batch()
        before, after = _split(records, write)
        if before and after:
            event("write: inside a generation")

        def per_record(ctx):
            def outcomes(part):
                return [_outcome(lambda: registry.invoke(fn, [r], ctx)) for r in part]

            head = outcomes(before)
            _land(ctx.catalog, write)
            return head + outcomes(after)

        def kernel():
            rows = invoke(before, batched) if before else []
            _land(batched.catalog, write)
            return rows + (invoke(after, batched) if after else [])

        expected = per_record(oracle)
        # repr: 1, 1.0 and True differ, and NaN equals itself
        assert repr(per_record(planned)) == repr(expected)
        if not kernel_raised:
            rows = _outcome(kernel)
            if any(isinstance(outcome, Raised) for outcome in expected):
                assert isinstance(rows, Raised)
                kernel_raised = True
            else:
                assert repr(rows) == repr([row for out in expected for row in out])
        if between is not None:
            between(write)
    if caches == (None, None):
        assert _meters(planned) == _meters(oracle)
        if not kernel_raised:
            assert _meters(batched) == _meters(oracle)
    elif memo_bytes and not kernel_raised and not counters.scalar_fallbacks:
        meter = batched.meter
        assert meter.hash_probes + meter.memo_hits == oracle.meter.hash_probes
    event(f"kernel: {'vectorized' if counters.vectorized_batches else 'declined'}")
    if counters.scalar_fallbacks:
        event("kernel: a per-record fallback")
    if planned.meter.memo_hits or batched.meter.memo_hits:
        event("memo: hit")
    for plan in registry.plan_cache._plans.values():
        if plan.hoisting is not None:
            applies = plan.hoisting.applies(registry)
            event(f"hoisting: {'applied' if applies else 'bailed'}")
    return counters


_filtered_access = Evaluator._filtered_access
_compile_spatial_step = columnar._compile_spatial_step


def _spied_filter(self, *args):
    survivors = _filtered_access(self, *args)
    event(f"filter step: {'declined' if survivors is None else 'ran'}")
    return survivors


def _spied_step(inner_plan, *args):
    column = _compile_spatial_step(inner_plan, *args)
    form = "join" if len(inner_plan.terms) == 2 else "access"

    def run(ev, cb):
        rows = column(ev, cb)
        event(f"kernel: spatial {form} step")
        return rows

    return run


def _facade(world):
    """The world's datasets on ``world.nodes`` nodes, loaded by insert jobs."""
    system = AsterixLite(num_nodes=world.nodes)
    system.create_type("T", {"id": "int64"})
    for name, records in (("Ref", world.refs), ("Places", world.places)):
        system.create_dataset(name, "T", "id")
        system.insert(name, records)
    if world.indexed:
        system.create_index("places_loc", "Places", "loc", "rtree")
    return system


def _query_rows(run, ordered):
    """Rows (a multiset unless ``ordered``), or the error raised instead."""
    rows = _outcome(run)
    if not ordered and not isinstance(rows, Raised):
        rows = sorted(map(repr, rows))
    return repr(rows)


def check(world: World) -> None:
    system = _facade(world) if world.closed else None
    registry = FunctionRegistry(lambda: {"Ref", "Places"})
    world.register(registry, *([system.registry] if system else []))

    def facade(write):
        event("facade")
        query, ordered = parse_expression(world.block), "ORDER BY" in world.block
        oracle = EvaluationContext(
            system.catalog, functions=system.registry, use_plans=False
        )
        expected = _query_rows(lambda: Evaluator(oracle).evaluate_query(query), ordered)
        for _execution in range(2):  # and again, on the same system
            got = _query_rows(lambda: system.query(world.block), ordered)
            assert got == expected
        if write is not None:
            _at, name, record = write
            system.upsert(name, [record])

    caches = (world.memo_bytes, world.state_bytes)
    between = facade if system is not None else None
    with mock.patch.object(
        Evaluator, "_filtered_access", _spied_filter
    ), mock.patch.object(columnar, "_compile_spatial_step", _spied_step):
        differential(world.catalog, registry, "f", world.generations, caches, between)


#: examples per generated entry point: 660 over the six under ``tier1``,
#: the profile's count each (2,400 over the six) under ``deep``
EXAMPLES = max(110, settings.default.max_examples)


# ------------------------------------------------------------ fixed examples

PAPER_UDFS = [
    "enrichTweetQ1",
    "enrichTweetQ2",
    "enrichTweetQ3",
    "annotateTweetQ4",
    "enrichTweetQ5",
    "enrichTweetQ5Naive",
    "enrichTweetQ6",
    "enrichTweetQ7",
    "enrichTweetQ8",
]
#: hits, misses and absent fields, over a batch of 3 and one of 2
VARIANTS = [
    {},
    {"country": "FR", "latitude": 8.4, "longitude": 8.9},
    {"country": "DE", "user": {"screen_name": "jon_smyth", "name": "name3"}},
    {"country": "Atlantis", "latitude": 55.0, "longitude": 55.0},
    {"latitude": 0.2, "longitude": 9.7, "user": {"screen_name": "x", "name": "y"}},
]


def paper_generations(sample_tweet):
    """Five variants of ``sample_tweet`` as a generation of 3 and one of 2."""
    tweets = [dict(sample_tweet, id=i, **over) for i, over in enumerate(VARIANTS)]
    return [(tweets[:3], None), (tweets[3:], None)]


FLIPPED = (
    "SELECT VALUE p.id FROM Places p WHERE spatial_intersect("
    "create_circle(p.loc, t.r), create_point(t.lat, t.lon))"
)


@pytest.mark.parametrize(
    "locs, tweet",
    [
        # the scalar loop evaluates a region only per candidate: over an
        # empty scan a region that cannot be built raises nothing
        ([], {"lat": 1.0, "lon": 1.0, "r": "wide"}),
        # ... and over this one the first center's type error comes first
        (
            [Rectangle(1.0, 1.0, 2.0, 2.0), Point(1.0, 1.0)],
            {"lat": 1.0, "lon": 1.0, "r": "wide"},
        ),
        # an unknown outer point still type-checks every center
        ([Point(1.0, 1.0), Circle(Point(1.0, 1.0), 1.0)], {"r": 1.5}),
        # the builtin's caller wraps what the geometry itself raises
        ([Point(1.0, 1.0), Point("one", "one")], {"lat": 1.0, "lon": 1.0, "r": 1.5}),
    ],
)
def test_corners_generation_rarely_reaches(locs, tweet):
    places = [{"id": i, "name": "abc", "loc": loc} for i, loc in enumerate(locs)]
    check(World(refs=[], places=places, block=FLIPPED, generations=[([tweet], None)]))


NEAR = "create_circle(create_point(t.lat, t.lon), 1.5)"
NEARBY = f"SELECT VALUE p.id FROM Places p WHERE spatial_intersect(p.loc, {NEAR})"
#: points, rectangles, circles and an absent field around (1.0, 1.0)
MIXED = [
    Point(1.0, 1.0), Rectangle(0.0, 0.0, 2.0, 2.0), Circle(Point(1.5, 1.5), 0.5),
    Point(2.0, 1.5), Rectangle(1.5, 0.5, 3.0, 1.0), None, Point(9.0, 9.0),
]
POINTS = [loc for loc in MIXED if loc is None or isinstance(loc, Point)]


def _places(locs):
    return [{"id": i, "name": "abc", "loc": loc} for i, loc in enumerate(locs)]


@pytest.mark.parametrize(
    "block, locs, tweets",
    [
        # a point region has no contains_point: the geometry decides
        (
            "SELECT VALUE p.id FROM Places p"
            " WHERE spatial_intersect(p.loc, create_point(t.lat, t.lon))",
            MIXED,
            [{"id": 0, "lat": 1.0, "lon": 1.0}, {"id": 1, "lat": 2.0, "lon": 1.5}],
        ),
        # a NULL or MISSING coordinate makes no region: nothing is probed
        (NEARBY, MIXED, [{"id": 0, "lat": None, "lon": 1.0}, {"id": 1, "lat": 1.0}]),
        # rectangles in the indexed field, tested against a circle
        (
            NEARBY,
            [Rectangle(0.0, 0.0, 0.5, 0.5), Rectangle(1.0, 2.0, 4.0, 3.0),
             Rectangle(5.0, 5.0, 6.0, 6.0)],
            [{"id": 0, "lat": 1.0, "lon": 1.0}, {"id": 1, "lat": 2.0, "lon": 3.5}],
        ),
        # flipped over a non-point: create_circle refuses the rectangle
        (FLIPPED, MIXED, [{"id": 0, "lat": 1.0, "lon": 1.0, "r": 1.5}]),
        # ... and over points only the circle is around each candidate
        (FLIPPED, POINTS, [{"id": 0, "lat": 1.0, "lon": 1.0, "r": 1.5}]),
    ],
    ids=["point-region", "null-or-missing-coordinate", "rectangle-field",
         "flipped-non-point", "flipped-points"],
)
def test_rtree_access_step_corners(block, locs, tweets):
    check(World([], _places(locs), block, [(tweets, None)], indexed=True))


def test_an_active_memtable_charges_the_access_step_penalty():
    """A write to Places lands inside the generation: the probes after it
    see an active memtable and pay ``penalized_reads`` on every path."""
    locs = [Point(1.0 + i / 10, 1.0) for i in range(8)]
    tweet = {"id": 0, "lat": 1.0, "lon": 1.0}
    write = {"id": 8, "name": "abc", "loc": Point(1.2, 1.2)}
    world = World(
        [], _places(locs), NEARBY, [([tweet, dict(tweet, id=1)], (1, "Places", write))],
        indexed=True,
    )
    check(world)
    catalog = world.catalog()
    catalog["Places"].upsert(write)
    ctx = EvaluationContext(catalog)
    Evaluator(ctx).evaluate_query(parse_expression(NEARBY), {"t": tweet})
    assert ctx.meter.penalized_reads > 0  # the example reaches the penalty


def test_an_rtree_dropped_after_the_kernel_compiled_falls_back():
    """The kernel compiled its spatial column against the R-tree; once it
    is dropped the column raises ``KernelFallback`` and the batch runs
    record by record over the scan, as the other paths do."""
    world = World(
        [], _places(MIXED), NEARBY,
        [([{"id": 0, "lat": 1.0, "lon": 1.0}], None)] * 2, indexed=True,
    )
    catalogs = []

    def catalog():
        catalogs.append(world.catalog())
        return catalogs[-1]

    def drop(_write):
        for each in catalogs:
            if each["Places"].index_on("loc", IndexKind.RTREE) is not None:
                each["Places"].drop_index("places_loc")

    registry = FunctionRegistry(lambda: {"Ref", "Places"})
    world.register(registry)
    counters = differential(catalog, registry, "f", world.generations, between=drop)
    # the first generation is one kernel batch with no per-record column,
    # the second a KernelFallback (test_columnar pins the raise itself)
    assert (counters.vectorized_batches, counters.scalar_fallbacks) == (1, 1)


def test_the_memo_never_serves_a_block_that_calls_an_impure_udf():
    """``testlib#loud`` is not pure: each call's value depends on the calls
    before it, so no record may be served another record's rows."""
    refs = [{"id": i, "k": k, "name": "abc"} for i, k in enumerate("ab")]
    tweets = [{"id": i, "k": k} for i, k in enumerate("aaba")]
    block = "SELECT VALUE testlib#loud(r.name) FROM Ref r WHERE r.k = c"
    check(World(refs, [], block, [(tweets, None)], memo_bytes=1 << 20))


def test_the_kernel_never_reorders_an_impure_udfs_calls():
    """Column by column, ``testlib#loud``'s calls would come in another
    order than record by record, and its values with them."""
    block = "SELECT VALUE r.id FROM Ref r"
    body = (
        f"LET c = t.k, x = ({block}), y = testlib#loud(t.word)"
        " SELECT t.*, x, y, testlib#loud(t.word) AS extra"
    )
    tweets = [{"id": i, "word": "abc"} for i in range(2)]
    check(World([], [], block, [(tweets, None)], body=body))


def test_a_write_to_what_a_called_function_reads_displaces_the_memo():
    """The block names only Places, but ``nameOf`` reads Ref: the write to
    Ref between the two generations must reach the second one's rows."""
    tweets = [{"id": 0, "k": "US"}]
    write = (1, "Ref", {"id": 0, "k": "US", "name": "abc"})
    block = "SELECT VALUE p.id FROM Places p"
    body = f"LET c = t.k, x = ({block}) SELECT VALUE nameOf(c)"
    generations = [(tweets, write), (tweets, None)]
    check(World([], [{"id": 0}], block, generations, body=body, memo_bytes=1 << 20))
