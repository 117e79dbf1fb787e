"""Differential test: ``AsterixLite.query`` vs. the tree-walking interpreter.

The facade has one query executor, the planned one.  For *any*
single-dataset block — WHERE, a post-FROM LET, GROUP BY with ``count`` /
``sum``, ORDER BY ascending and descending, a literal LIMIT, SELECT VALUE
or named projections — over rows with absent, NULL and mixed-type fields
it must return what ``use_plans=False`` (the oracle
``benchmarks/e2e/verify.py`` uses) returns: the same list under ORDER BY,
the same multiset otherwise, the same error where the block is ill-typed
for the rows, and the same again when the query is repeated on the same
system.  Rows are loaded through ``system.insert`` — the insert
job — over one to four nodes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AsterixLite
from repro.sqlpp import EvaluationContext, Evaluator, parse_expression

ABSENT = object()  # the field is left out of the record: MISSING
SMALL = st.integers(-2, 3)
FIELD = st.one_of(SMALL, SMALL, SMALL, st.none(), st.just(ABSENT))


@st.composite
def rows(draw):
    count = draw(st.sampled_from([0, 1, 5, 12, 25]))
    out = []
    for key in range(count):
        record = {"id": key, "s": draw(st.sampled_from(["a", "b", "c"]))}
        for name in ("g", "v"):
            value = draw(FIELD)
            if value is not ABSENT:
                record[name] = value
        out.append(record)
    return out


LETS = ["d.v * 2", "d.v + d.g", "d.s", "CASE WHEN d.v > 0 THEN 'pos' ELSE d.s END"]


@st.composite
def predicates(draw, has_let):
    atoms = [
        f"d.v > {draw(SMALL)}",
        f"d.g = {draw(SMALL)}",
        f"d.g != {draw(SMALL)}",
        f"d.s = '{draw(st.sampled_from('ab'))}'",
        f"d.id < {draw(st.integers(0, 25))}",
    ]
    if has_let:
        atoms.append(f"y >= {draw(SMALL)}")
    left, right = draw(st.sampled_from(atoms)), draw(st.sampled_from(atoms))
    return draw(
        st.sampled_from(
            [left, f"{left} AND {right}", f"{left} OR {right}", f"NOT ({left})"]
        )
    )


@st.composite
def queries(draw):
    let = draw(st.sampled_from([None, *LETS]))
    where = draw(st.one_of(st.none(), predicates(let is not None)))
    grouped = draw(st.booleans())
    if grouped:
        key = draw(st.sampled_from(["d.g", "d.s"] + (["y"] if let else [])))
        alias = draw(st.sampled_from(["", " AS k"]))
        name = "k" if alias else key
        select = draw(
            st.sampled_from(
                [
                    f"{name}, count(*) AS n",
                    f"{name}, sum(d.v) AS total, count(d.v) AS n",
                    "VALUE count(*)",
                    f'VALUE {{"key": {name}, "n": count(*), "total": sum(d.v)}}',
                ]
            )
        )
        group_by = f" GROUP BY {key}{alias}"
        order_keys = [name, "count(*)", "sum(d.v)"]
        if " AS n" in select:
            order_keys.append("n")
    else:
        select = draw(
            st.sampled_from(
                ["VALUE d.id", "VALUE d", "d.id, d.v", "d.id AS i, d.g AS grp"]
                + (["VALUE y", "d.id, y AS y2"] if let else [])
                + ['VALUE {"i": d.id, "w": d.v + 1}']
            )
        )
        group_by = ""
        order_keys = ["d.id", "d.v", "d.g", "d.s"] + (["y"] if let else [])
    order = draw(st.lists(st.sampled_from(order_keys), max_size=2, unique=True))
    order_by = ", ".join(
        f"{item}{draw(st.sampled_from(['', ' ASC', ' DESC']))}" for item in order
    )
    limit = draw(st.one_of(st.none(), st.integers(0, 6)))
    return (
        f"SELECT {select} FROM D d"
        + (f" LET y = {let}" if let else "")
        + (f" WHERE {where}" if where else "")
        + group_by
        + (f" ORDER BY {order_by}" if order_by else "")
        + (f" LIMIT {limit}" if limit is not None else "")
    )


def outcome(run, text, ordered):
    """Rows (a multiset unless ``ordered``), or the error raised instead."""
    try:
        result = run(text)
    except Exception as exc:
        return "raised", type(exc).__name__, str(exc)
    return "rows", result if ordered else sorted(repr(row) for row in result)


@settings(deadline=None)
@given(st.integers(1, 4), rows(), st.lists(queries(), min_size=1, max_size=3))
def test_facade_queries_match_the_interpreter(nodes, records, texts):
    system = AsterixLite(num_nodes=nodes)
    system.execute(
        "CREATE TYPE T AS OPEN { id: int64 }; CREATE DATASET D(T) PRIMARY KEY id;"
    )
    assert system.insert("D", records) == len(records)
    oracle = Evaluator(EvaluationContext(system.catalog, use_plans=False))

    def interpret(text):
        return oracle.evaluate_query(parse_expression(text))

    for text in texts:
        ordered = "ORDER BY" in text
        expected = outcome(interpret, text, ordered)
        for _execution in range(2):
            assert outcome(system.query, text, ordered) == expected, text
