"""Differential test: shaped probe rows reused across generations.

The probe kernel shapes each build key once per reference snapshot and
serves later records — in the same batch or a later generation over the
same snapshot — from that snapshot's store.  Over reference rows with few
keys, batches that repeat keys and probe absent, NULL, MISSING, NaN and
array values, and two or three generations with an optional reference
upsert between them, the kernel's rows and all three ``WorkMeter`` totals
must equal the tree-walking interpreter's, record by record.  With an
:class:`EnrichmentMemo` attached, the memo only books rows the kernel's
store holds and decides how each record is charged.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adm import open_type
from repro.adm.values import MISSING
from repro.hyracks.cost import WorkMeter
from repro.sqlpp import EvaluationContext, Evaluator, parse_function
from repro.sqlpp import columnar
from repro.sqlpp.columnar import compile_block_kernel
from repro.sqlpp.evaluator import Env
from repro.sqlpp.memo import EnrichmentMemo
from repro.sqlpp.state_cache import estimate_entry_bytes
from repro.storage import Dataset

SHAPES = [
    "SELECT VALUE r.name FROM Ref r WHERE r.country = t.country",
    "SELECT r.name AS name, r.n AS n FROM Ref r WHERE t.country = r.country",
    "SELECT sum(r.n) AS total, count(*) AS k FROM Ref r WHERE r.country = t.country",
    "SELECT VALUE max(r.n) FROM Ref r WHERE r.country = t.country",
    "SELECT VALUE r.name FROM Ref r WHERE r.country = t.country ORDER BY r.n DESC",
    "SELECT VALUE r.rid FROM Ref r WHERE r.country = t.country ORDER BY r.n LIMIT 2",
    "SELECT DISTINCT VALUE r.n FROM Ref r WHERE r.country = t.country",
    "SELECT r.name AS name, count(*) AS k FROM Ref r WHERE r.country = t.country"
    " GROUP BY r.name ORDER BY k DESC, name",
    "SELECT VALUE r.rid FROM Ref r WHERE r.country = t.country ORDER BY r.n DESC, r.name",
    "SELECT r.name AS name FROM Ref r WHERE r.country = t.country ORDER BY r.n, name",
    "SELECT r.* FROM Ref r WHERE r.country = t.country",
]
COUNTRIES = ["US", "FR", "DE", None, ["US"]]
ROW = st.tuples(
    st.sampled_from(COUNTRIES),
    st.sampled_from(["A", "B", "C"]),
    st.sampled_from([1, 2, 3, None]),
)
PROBE = st.sampled_from(["US", "FR", "DE", "XX", None, MISSING, float("nan"), ["US"]])
UPSERT = st.one_of(st.none(), st.tuples(st.integers(0, 8), ROW))


def _record(rid, row):
    country, name, n = row
    return {"rid": rid, "country": country, "name": name, "n": n}


def _counters(ctx):
    return [
        {name: getattr(meter, name) for name in WorkMeter._COUNTERS}
        for meter in (ctx.meter, ctx.shared_meter, ctx.replicated_meter)
    ]


@settings(deadline=None)
@given(
    st.sampled_from(SHAPES),
    st.lists(ROW, max_size=8),
    st.lists(st.tuples(st.lists(PROBE, min_size=1, max_size=8), UPSERT), min_size=2, max_size=3),
)
def test_kernel_matches_the_interpreter_across_generations(shape, rows, generations):
    ref = Dataset("Ref", open_type("RefT"), "rid", num_partitions=2, validate=False)
    for rid, row in enumerate(rows):
        ref.insert(_record(rid, row))
    ref.flush_all()
    catalog = {"Ref": ref}
    definition = parse_function(f"CREATE FUNCTION f(t) {{ LET x = ({shape}) SELECT t.*, x }}")
    oracle_ctx = EvaluationContext(catalog, use_plans=False)
    kernel_ctx = EvaluationContext(catalog)
    plan = kernel_ctx.plan_cache.plan_for(definition.body, frozenset("t"), catalog)
    kernel = compile_block_kernel(plan, ("t",), kernel_ctx)
    assert kernel.fallback_lets == 0  # every shape runs batched
    for generation, (probes, upsert) in enumerate(generations):
        if generation:
            oracle_ctx.refresh_batch()
            kernel_ctx.refresh_batch()
        records = [
            {"id": i} if probe is MISSING else {"id": i, "country": probe}
            for i, probe in enumerate(probes)
        ]
        oracle = Evaluator(oracle_ctx)
        expected = [
            row
            for record in records
            for row in oracle.evaluate_select(definition.body, Env({"t": record}))
        ]
        assert repr(kernel.run(Evaluator(kernel_ctx), records)) == repr(expected)
        if upsert is not None:
            ref.upsert(_record(*upsert))
    assert _counters(kernel_ctx) == _counters(oracle_ctx)


def _spied_kernel(catalog, definition, ctx, spied):
    """The compiled kernel, with ``spied`` collecting its ``(held, token)``
    on every probe pass."""
    shaped_rows = columnar._shaped_rows

    def spy(ev, dataset, field, shaping, held, token, keys):
        spied[:] = [(held, token)]
        return shaped_rows(ev, dataset, field, shaping, held, token, keys)

    plan = ctx.plan_cache.plan_for(definition.body, frozenset("t"), catalog)
    kernel = compile_block_kernel(plan, ("t",), ctx)

    def run(records):
        with mock.patch.object(columnar, "_shaped_rows", spy):
            return kernel.run(Evaluator(ctx), records)

    return run


@settings(deadline=None)
@given(
    st.sampled_from(SHAPES),
    st.lists(ROW, max_size=8),
    st.lists(st.tuples(st.lists(PROBE, min_size=1, max_size=8), UPSERT), min_size=2, max_size=4),
    st.sampled_from([1 << 20, 1500]),
)
def test_the_memo_books_the_rows_the_kernel_store_holds(shape, rows, generations, budget):
    """With a memo attached the rows are the memo-off rows, each record is
    charged either its probe or its booking, and every booking is a row
    count and a size over rows the kernel's store holds, never a value."""
    ref = Dataset("Ref", open_type("RefT"), "rid", num_partitions=2, validate=False)
    for rid, row in enumerate(rows):
        ref.insert(_record(rid, row))
    ref.flush_all()
    catalog = {"Ref": ref}
    definition = parse_function(f"CREATE FUNCTION f(t) {{ LET x = ({shape}) SELECT t.*, x }}")
    memo = EnrichmentMemo(budget)
    off_ctx, on_ctx = EvaluationContext(catalog), EvaluationContext(catalog, memo=memo)
    spied = []
    off = _spied_kernel(catalog, definition, off_ctx, [])
    on = _spied_kernel(catalog, definition, on_ctx, spied)
    for generation, (probes, upsert) in enumerate(generations):
        if generation:
            off_ctx.refresh_batch()
            on_ctx.refresh_batch()
        records = [
            {"id": i} if probe is MISSING else {"id": i, "country": probe}
            for i, probe in enumerate(probes)
        ]
        probes_off, probes_on = off_ctx.meter.hash_probes, on_ctx.meter.hash_probes
        hits = on_ctx.meter.memo_hits
        assert repr(on(records)) == repr(off(records))
        assert (on_ctx.meter.hash_probes - probes_on) + (
            on_ctx.meter.memo_hits - hits
        ) == off_ctx.meter.hash_probes - probes_off
        ((held, token),) = spied
        snapshot, store = held[0]
        assert snapshot is on_ctx.snapshots.pin(ref)
        version = on_ctx.snapshots.version(("Ref",))
        for key, entry in memo._entries.items():
            assert key[:2] == ("probe", token) and entry.value is None
            if entry.version_key == version:
                shaped = (store[key[2]] if key[2] in store else store[None])[0]
                assert entry.records == len(shaped)
                assert entry.nbytes == estimate_entry_bytes(shaped)
        if upsert is not None:
            ref.upsert(_record(*upsert))
