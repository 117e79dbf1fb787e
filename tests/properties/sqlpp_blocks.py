"""One generator for the SQL++ differential: worlds, SELECT blocks, bodies.

A :class:`World` is one example of the SQL++ path harness
(``test_sqlpp_paths``): the rows of an equality-keyed reference dataset
(``Ref``, probed on ``k``) and a spatial one (``Places``, with or without
an R-tree on ``loc``), which registered function shadows a builtin, a UDF
body ``f(t)`` whose ``x`` is a drawn SELECT block, one to three
generations of bindings with an optional reference write in each (before
one of its bindings, or after the last), the cross-batch caches the fast
paths attach and the facade's node count.  What the block draws decides
the physical choices: a hash probe or the probe kernel, an R-tree probe
or a scan, the filter access step or the WHERE, hoisting or its
bail-out, a batched column or a per-record fallback.  Field values mix
points, rectangles, circles, NULL, MISSING, NaN, arrays and objects.

A world is one draw: :class:`Picks` reads every choice from one byte
string, so generating it costs one draw rather than hundreds, and
shrinking the bytes toward zero shrinks every choice toward its first
option.  A *focus* (:data:`FOCUSES`) narrows the draw to the worlds that
reach one optimisation; each has an entry point of the harness.
"""

from typing import List, NamedTuple, Optional, Tuple

from hypothesis import strategies as st

from repro.adm import Circle, Point, Rectangle, open_type
from repro.sqlpp import parse_function
from repro.storage import Dataset, IndexKind
from repro.udf import FunctionRegistry
from repro.udf.java import JavaUdfDescriptor
from repro.udf.library import RemoveSpecialUdf


class Picks:
    """Uniform choices, a byte of ``data`` each (the first option once
    the bytes run out)."""

    def __init__(self, data: bytes):
        self._bytes = iter(data)

    def __call__(self, *options):
        return options[next(self._bytes, 0) % len(options)]


ABSENT = object()  # the field is left out of the record: MISSING
NAN = float("nan")
GRID = [1.0, 1.5, 2.0, 2.5, 3.0, 9.0]  # mostly within reach
ODD_KEYS = [None, ABSENT, NAN, ["US"], {"c": "US"}]  # no hash-table key equals these


def point(pick):
    return Point(pick(*GRID), pick(*GRID))


def shape(pick):
    kind = pick("point", "rectangle", "circle")
    if kind == "point":
        return point(pick)
    if kind == "rectangle":
        return Rectangle(pick(*GRID), pick(*GRID), pick(*GRID), pick(*GRID))
    return Circle(point(pick), pick(0.5, 1.0, 2.0))


def loc(pick, dataset, indexed):
    if dataset == "Ref":
        return pick(point, point, shape)(pick)
    # points dominate, as in the paper's catalogs; an R-tree refuses a
    # value without an MBR, so only an unindexed dataset holds the
    # non-spatial value the scan must trip over
    odd = pick(None, ABSENT, *(() if indexed else ("nowhere",)))
    return pick(point, point, point, point, shape, lambda _pick: odd)(pick)


def record(pick, key, dataset, indexed):
    out = {
        "id": key,
        "k": pick("US", "US", "FR", "DE", *ODD_KEYS),
        "n": pick(0, 1, 2, 3, 3, None, NAN),
        "name": pick("abc", "abd", "xbc", "a-b-c", "xyz"),
        "kind": pick("a", "b"),
        "loc": loc(pick, dataset, indexed),
    }
    return {field: v for field, v in out.items() if v is not ABSENT}


#: (field, value) damage done to an otherwise well-formed binding
UNKNOWNS = [
    ("lat", None), ("lon", ABSENT), ("r", None), ("r", ABSENT), ("r", "wide"),
    ("region", None), ("region", ABSENT), ("region", "nowhere"),
]


def tweet(pick, key):
    out = {
        "id": key,
        "k": pick("US", "US", "US", "FR", "DE", "XX", *ODD_KEYS),
        "lat": pick(*GRID),
        "lon": pick(*GRID),
        "r": pick(1.5, 2),
        "region": shape(pick),
        "word": pick("abc", "ABC", "a!b!d", "xbc", 7, None),
        "cut": pick(1, 3, 100),
    }
    if pick(True, False, False):
        field, value = pick(*UNKNOWNS)
        out[field] = value
    return {field: v for field, v in out.items() if v is not ABSENT}


# --------------------------------------------------------------- the blocks
#
# ``{x}`` and ``{y}`` are FROM-term variables, ``{ids}`` all their ids.  A
# template that reads ``t`` or ``c`` (the body's ``LET c = t.k``) is left
# out of a closed block, which the facade runs as a query of its own.

P = "create_point(t.lat, t.lon)"
#: spatial access conjuncts; a leading one over the only term is what the
#: filter step tests, unless its region charges
SPATIAL = [
    f"spatial_intersect({{x}}.loc, create_circle({P}, 1.5))",
    f"spatial_intersect({{x}}.loc, create_circle({P}, t.r))",
    f"spatial_intersect({{x}}.loc, {P})",
    f"spatial_intersect({{x}}.loc, create_rectangle({P}, create_point(2.0, 2.0)))",
    "spatial_intersect({x}.loc, t.region)",
    f'spatial_intersect({{x}}.loc, create_circle({P}, edit_distance(t.word, "abc")))',
    f"spatial_intersect(create_circle({P}, 1.5), {{x}}.loc)",
    # the flip: a circle around the candidate, an identity only for a point
    f"spatial_intersect({P}, create_circle({{x}}.loc, 1.5))",
    f"spatial_intersect(create_circle({{x}}.loc, t.r), {P})",
    "spatial_intersect(t.region, create_circle({x}.loc, 1.0))",
]
CLOSED_SPATIAL = [
    "spatial_intersect({x}.loc, create_circle(create_point(2.0, 2.0), 1.5))",
    "spatial_intersect(create_rectangle(create_point(1.0, 1.0),"
    " create_point(2.5, 3.0)), {x}.loc)",
    "spatial_intersect(create_point(2.0, 2.5), create_circle({x}.loc, 1.0))",
]
EQUALITY = ["{x}.k = t.k", "t.k = {x}.k", "{x}.k = c"]
CLOSED_EQUALITY = ["{x}.k = {y}.k", "{x}.n = {y}.n"]
#: residual conjuncts: outer-only ones run once per block evaluation, a
#: term's once per candidate; the last three raise for some bindings
EXTRAS = [
    "edit_distance(lower(t.word), {x}.name) < 2",
    "lower(t.word) = upper({x}.name)",
    "testlib#strip(t.word) = {x}.name",
    "testlib#loud(t.word) = upper({x}.name)",
    "spatial_intersect({x}.loc, create_circle({y}.loc, t.r))",
    "edit_distance({x}.name, {y}.name) < t.cut",
    "{x}.id < t.cut",
    'edit_distance(t.word, "abc") < 1',
    "{x}.n < length(t.word)",
    "upper(t.word) != {x}.name",
    '{x}.n < edit_distance("ab", "abc") + length(t.word)',
]
CLOSED_EXTRAS = [
    "{x}.n = {y}.n",
    '{x}.n < array_count([1, 2, 3]) + edit_distance("ab", "abc")',
    'contains({x}.name, substring("abc", 0, 1))',
    '{x}.kind = "a"',
    'edit_distance({x}.name, "abd") < 2',
    "length({x}.k) > 1",
]
#: (SELECT ..., GROUP BY / ORDER BY / LIMIT ...); the probe kernel shapes
#: a key's rows with the first ``CHARGE_FREE`` itself
SHAPINGS = [
    ("SELECT VALUE {x}.name", ""),
    ("SELECT {x}.name AS name, {x}.n AS n", ""),
    ("SELECT sum({x}.n) AS total, count(*) AS k", ""),
    ("SELECT VALUE max({x}.n)", ""),
    ("SELECT VALUE {x}.name", " ORDER BY {x}.n DESC"),
    ("SELECT VALUE {x}.id", " ORDER BY {x}.n, {x}.id LIMIT 2"),
    ("SELECT DISTINCT VALUE {x}.n", ""),
    ("SELECT {x}.name AS name, count(*) AS k", " GROUP BY {x}.name ORDER BY k DESC"),
    ("SELECT {x}.*", ""),
    ("SELECT VALUE count(*)", " GROUP BY {x}.kind"),
    ("SELECT k, count(*) AS n", " GROUP BY {x}.n AS k ORDER BY count(*) DESC, k"),
    ('SELECT VALUE {"key": {x}.kind, "n": count(*)}', " GROUP BY {x}.kind"),
    ("SELECT VALUE upper({x}.name)", ""),
    ("SELECT VALUE [{ids}]", ""),
    ("SELECT VALUE {x}.id", " ORDER BY {x}.id DESC LIMIT 2"),
    ("SELECT VALUE lower({x}.name)", ""),
    ("SELECT VALUE testlib#loud({x}.name)", ""),
    ('SELECT VALUE edit_distance({x}.name, "abd")', ""),
]
CHARGE_FREE = 13
#: shapings only a block inside the body may draw: they read its ``c``
OUTER_SHAPINGS = [("SELECT VALUE [{x}.name, c]", ""), ("SELECT {x}.n AS n, c AS c", "")]
TERMS = [("Ref", "r"), ("Places", "p"), ("Ref", "s")]


def fill(template: str, x: str, y: str = "", ids: str = "") -> str:
    return template.replace("{x}", x).replace("{y}", y).replace("{ids}", ids)


def select_block(pick, closed: bool, focus: Optional[str] = None) -> str:
    head, tail = pick(*SHAPINGS, *(() if closed else OUTER_SHAPINGS))
    mode = pick("filter", "any", "any", *(() if closed else ("probe",)))
    mode = {"hoisting": "any", "filter": "filter", "generations": "probe"}.get(
        focus, mode
    )
    if mode == "probe":  # the probe kernel's: one term, WHERE exactly its probe
        return fill(f"{head} FROM Ref r WHERE {pick(*EQUALITY)}{tail}", "r", ids="r.id")
    if mode == "filter":  # the filter step's: one spatial term, its access leads
        terms, lead = [("Places", "p")], "spatial"
    else:
        first = pick(0, 1, 2)
        terms = (TERMS[first:] + TERMS[:first])[: pick(1, 1, 2, 3)]
        lead = pick("none", "equality", "spatial", "spatial")
    names = [var for _name, var in terms]

    def conjunct(closed_templates, outer_templates):
        template = pick(*closed_templates, *(() if closed else outer_templates))
        return fill(template, pick(*names), pick(*names))

    conjuncts = {
        "none": [],
        "equality": [conjunct(CLOSED_EQUALITY, EQUALITY)],
        "spatial": [conjunct(CLOSED_SPATIAL, SPATIAL)],
    }[lead]
    extras = pick(1, 2) if focus == "hoisting" else pick(0, 0, 1, 2)
    # the filter focus keeps its access conjunct leading and draws no LET
    leading = focus == "filter"
    for _ in range(extras):  # on either side of the access conjunct
        at = len(conjuncts) if leading else pick(0, len(conjuncts))
        conjuncts.insert(at, conjunct(CLOSED_EXTRAS, EXTRAS))
    let = ""
    if not leading and pick(False, False, True):  # charged per candidate
        let = f' LET d = edit_distance({names[-1]}.name, "abd")'
        conjuncts.append("d < 3")
    hint = pick("", "/*+ no-index */ ")
    sources = ", ".join(f"{name} {hint}{var}" for name, var in terms)
    where = f" WHERE {' AND '.join(conjuncts)}" if conjuncts else ""
    ids = ", ".join(f"{var}.id" for var in names)
    block = fill(f"{head} FROM {sources}{let}{where}{tail}", pick(*names), ids=ids)
    if pick(*range(8)):
        return block
    # group keys shadow by expression: inside, every ``var.field`` spelled
    # like the key reads the outer group's key
    name, var = terms[0]
    return f"SELECT VALUE ({block}) FROM {name} {var} GROUP BY {var}.{pick('n', 'loc')}"


#: leaves of a body's other expressions: subqueries the kernel probes,
#: broadcasts and runs per record, and a registered function reading Ref
LEAVES = [
    "0", "1", "2.5", '"US"', '"abc"', "true", "null", "missing",
    "t", "t.k", "t.word", "t.nope", "x", "c",
    "(SELECT VALUE r.name FROM Ref r WHERE r.k = t.k)",
    "(SELECT VALUE p.id FROM Places p ORDER BY p.id)",
    '(SELECT VALUE r.n FROM Ref r WHERE r.k = t.k AND r.kind = "a")',
    "nameOf(t.k)",
]
#: every node kind ``plans.compile_expr`` handles, over one or two operands
COMPOSITES = [
    "lower({})", "upper({})", "count({})", "testlib#strip({})", "testlib#loud({})",
    'edit_distance({}, "bomb")', "({}).name", "({})[0]", "NOT ({})", "-({})",
    "EXISTS({})",
    "coalesce({}, {})", "({}) = ({})", "({}) AND ({})", "({}) OR ({})",
    "({}) < ({})", "({}) + ({})", "({}) IN ({})", '{{"k": {}, "j": {}}}',
    "[{}, {}]", "CASE WHEN {} THEN {} END",
]


def expr(pick, depth: int = 2) -> str:
    if not depth or pick(True, False):
        return pick(*LEAVES)
    template = pick(*COMPOSITES)
    return template.format(*(expr(pick, depth - 1) for _ in template.split("{}")[1:]))


def body(pick, block: str) -> str:
    """``f(t)``'s body: ``LET c = t.k, x = (block)[, y]``, then a projection
    or SELECT VALUE and an optional WHERE."""
    lets = ["c = t.k", f"x = ({block})"] + pick([], [f"y = {expr(pick)}"])
    if pick(False, False, False, True):
        select = f"SELECT VALUE {expr(pick)}"
    else:
        select = "SELECT t.*, x" + (", y" if len(lets) == 3 else "")
        select += pick("", f", {expr(pick)} AS extra")
    if pick(False, False, False, True):
        select += f" WHERE {expr(pick)}"
    return f"LET {', '.join(lets)} {select}"


# ---------------------------------------------------------------- the world


class _Loud(RemoveSpecialUdf):
    """Not declared pure, and rightly: its value alternates with the
    number of calls, so evaluating it less often, or in another order,
    than once per use changes rows."""

    pure = False

    def initialize(self, node_info):
        super().initialize(node_info)
        self.calls = 0

    def evaluate(self, name):
        self.calls += 1
        stripped = super().evaluate(name)
        return None if stripped is None else stripped.upper()[: self.calls % 2 + 2]


#: the registered function shadowing a builtin, by the builtin's name
SHADOWS = {
    # a hoistable builtin, behind the impure UDF
    "lower": parse_function("CREATE FUNCTION lower(s) { testlib#loud(s) }"),
    # the builtin the filter step inlines
    "spatial_intersect": parse_function(
        "CREATE FUNCTION spatial_intersect(a, b) { a = b }"
    ),
    # a builtin in the probe kernel's shaping
    "upper": parse_function('CREATE FUNCTION upper(s) { "SHADOWED" }'),
}
NAME_OF = parse_function(
    "CREATE FUNCTION nameOf(c) { SELECT VALUE r.name FROM Ref r WHERE r.k = c }"
)


class World(NamedTuple):
    refs: List[dict]
    places: List[dict]
    block: str
    #: one entry per generation: its bindings and its write, if any, as
    #: ``(at, dataset, record)``: an upsert landing before binding ``at``
    #: (``len(bindings)``: after the last)
    generations: List[Tuple[List[dict], Optional[Tuple[int, str, dict]]]]
    body: Optional[str] = None  # None: ``LET c = t.k, x = (block) SELECT t.*, x``
    indexed: bool = False  # an R-tree on Places.loc
    shadow: Optional[str] = None
    closed: bool = False  # the block reads no binding: the facade runs it
    nodes: int = 1
    memo_bytes: Optional[int] = None  # the fast paths' caches, if attached
    state_bytes: Optional[int] = None

    def catalog(self):
        out = {}
        for name, records in (("Ref", self.refs), ("Places", self.places)):
            dataset = out[name] = Dataset(
                name, open_type(f"{name}T"), "id", num_partitions=2, validate=False
            )
            for row in records:
                dataset.insert(row)
            dataset.flush_all()
        if self.indexed:
            out["Places"].create_index("places_loc", "loc", IndexKind.RTREE)
        return out

    def register(self, *registries: FunctionRegistry) -> None:
        """The Java UDFs, ``nameOf``, the shadow and ``f``, registered in
        each of ``registries``."""
        text = self.body or f"LET c = t.k, x = ({self.block}) SELECT t.*, x"
        f = parse_function(f"CREATE FUNCTION f(t) {{ {text} }}")
        shadows = [SHADOWS[self.shadow]] if self.shadow is not None else []
        for registry in registries:
            for name, cls in (("strip", RemoveSpecialUdf), ("loud", _Loud)):
                descriptor = JavaUdfDescriptor("testlib", name, cls, 1, False)
                registry.register_java(descriptor)
            for definition in (NAME_OF, *shadows, f):
                registry.register_sqlpp(definition)


SIZES = (0, 1, 3, 6)  # reference rows
#: what a focused draw keeps: residual conjuncts beside the access one
#: (hoisting), a leading spatial access over one term and a write to
#: Places in every generation (the filter step, where the live R-tree and
#: the pinned scan part), the probe kernel over two or three generations,
#: a closed block (the facade); ``None`` draws every world
FOCUSES = (None, "hoisting", "filter", "generations", "facade")


def world(pick, focus: Optional[str] = None) -> World:
    indexed, closed = pick(False, True), pick(True, False, False, False)
    closed = {"facade": True, "generations": False}.get(focus, closed)
    block = select_block(pick, closed, focus)
    generations = []
    count = pick(2, 3) if focus == "generations" else pick(1, 2, 3)
    for generation in range(count):
        tweets = [tweet(pick, key) for key in range(pick(1, 2, 3))]
        if generations and pick(True, False):  # the last batch's bindings again
            tweets = generations[-1][0]
        # inside the generation the live R-tree sees the write at once and
        # the pinned snapshots do not; after the last generation, nothing
        last = len(tweets) - (generation == count - 1)
        at = pick(*range(last + 1))
        dataset = "Places" if focus == "filter" else pick(None, None, "Ref", "Places")
        row = dataset and record(pick, pick(*range(8)), dataset, indexed)
        generations.append((tweets, dataset and (at, dataset, row)))
    return World(
        refs=[record(pick, key, "Ref", False) for key in range(pick(*SIZES))],
        places=[record(pick, key, "Places", indexed) for key in range(pick(*SIZES))],
        block=block,
        generations=generations,
        body=body(pick, block),
        indexed=indexed,
        shadow=pick(None, None, None, None, None, *SHADOWS),
        closed=closed,
        nodes=pick(1, 2, 3, 4),
        memo_bytes=pick(None, None, 1 << 20, 1500),
        state_bytes=pick(None, None, None, 1 << 20),
    )


def worlds(focus: Optional[str] = None, size: int = 400):
    """Worlds, each read from one drawn byte string."""
    assert focus in FOCUSES, focus
    return st.binary(min_size=size, max_size=size).map(
        lambda data: world(Picks(data), focus)
    )
