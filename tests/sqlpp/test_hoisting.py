"""Hoisting in the planned engine (``plans.Hoisting``).

A charge-safe subexpression of a FROM block's WHERE or of a term's probe
is evaluated at most once per binding of the names it reads: once per
plan for a constant, once per block evaluation for outer names, once per
candidate of the innermost term it reads.  Every use replays the charge
its evaluation recorded, so rows and all three WorkMeter totals match the
tree-walking interpreter, which evaluates every use.
"""

import pytest

from repro.adm import open_type
from repro.hyracks.cost import WorkMeter
from repro.sqlpp import EvaluationContext, Evaluator, parse_expression
from repro.sqlpp.plans import Hoisting, PlanCache
from repro.storage import Dataset
from repro.udf import FunctionRegistry, register_paper_udfs
from repro.udf.java import JavaUdfDescriptor
from repro.udf.library import RemoveSpecialUdf
from repro.workloads.reference import PaperWorkload, WorkloadScale


def _meters(ctx):
    return [
        {name: getattr(meter, name) for name in WorkMeter._COUNTERS}
        for meter in (ctx.meter, ctx.shared_meter, ctx.replicated_meter)
    ]


@pytest.fixture(scope="module")
def q4_world():
    """The benchmark's Q4 inputs: 50 ``SensitiveNamesDataset`` rows and 500
    generated tweets."""
    workload = PaperWorkload(
        scale=WorkloadScale(reference_scale=0.01, seed=7), num_partitions=2
    )
    catalog = workload.build_catalog(["SensitiveNamesDataset"])
    tweets = list(workload.tweet_generator.records(500))
    return catalog, tweets


def _names(names):
    ds = Dataset("Names", open_type("NamesT"), "id", num_partitions=2, validate=False)
    for i, name in enumerate(names):
        ds.insert({"id": i, "name": name})
    ds.flush_all()
    return ds


def _count_strip_calls(monkeypatch):
    """The list every ``RemoveSpecialUdf.evaluate`` call appends to."""
    calls = []
    evaluate = RemoveSpecialUdf.evaluate

    def counted(self, name):
        calls.append(name)
        return evaluate(self, name)

    monkeypatch.setattr(RemoveSpecialUdf, "evaluate", counted)
    return calls


def _run_q4(catalog, tweets, use_plans, monkeypatch):
    calls = _count_strip_calls(monkeypatch)
    registry = FunctionRegistry(lambda: set(catalog))
    register_paper_udfs(registry)
    ctx = EvaluationContext(catalog, functions=registry, use_plans=use_plans)
    evaluator = Evaluator(ctx)
    expr = parse_expression("annotateTweetQ4(t)")
    rows = [evaluator.evaluate_query(expr, {"t": tweet}) for tweet in tweets]
    monkeypatch.undo()
    return rows, _meters(ctx), len(calls)


def test_q4_strips_each_screen_name_once(q4_world, monkeypatch):
    catalog, tweets = q4_world
    assert len(catalog["SensitiveNamesDataset"]) == 50
    planned = _run_q4(catalog, tweets, True, monkeypatch)
    oracle = _run_q4(catalog, tweets, False, monkeypatch)
    assert planned[2] == 500
    assert oracle[2] == 25_000
    assert planned[:2] == oracle[:2]


class _ImpureStrip(RemoveSpecialUdf):
    """``removeSpecial``'s body in a class that does not declare ``pure``."""

    pure = False


def test_impure_java_runs_once_per_candidate(monkeypatch):
    catalog = {"Names": _names(["abc", "abd", "xyz"])}
    registry = FunctionRegistry(lambda: set(catalog))
    for name, cls in (("strip", _ImpureStrip), ("pure", RemoveSpecialUdf)):
        registry.register_java(JavaUdfDescriptor("testlib", name, cls, 1, False))
    calls = _count_strip_calls(monkeypatch)
    for library_fn, expected in (("testlib#strip", 3 * 4), ("testlib#pure", 4)):
        calls.clear()
        expr = parse_expression(
            f"SELECT VALUE n.name FROM Names n "
            f"WHERE edit_distance({library_fn}(t.name), n.name) < 2"
        )
        ctx = EvaluationContext(catalog, functions=registry)
        evaluator = Evaluator(ctx)
        for name in ("a-b-c", "x!y", "q", "ABD"):
            evaluator.evaluate_query(expr, {"t": {"name": name}})
        assert len(calls) == expected


def _plan(query, bound=("t",), catalog=("A", "B", "C")):
    block = parse_expression(query)
    return PlanCache().plan_for(block, set(bound), dict.fromkeys(catalog))


class TestPlannedDepths:
    def test_outer_call_is_per_evaluation_and_constant_per_plan(self):
        plan = _plan(
            "SELECT VALUE [a.id, b.id] FROM A a, B b WHERE a.n = b.n "
            "AND spatial_intersect(create_point(t.x, t.y), a.loc) "
            "AND b.t < b.at + duration(\"P2M\")"
        )
        hoisting = plan.hoisting
        assert isinstance(hoisting, Hoisting)
        # the spatial test reads a: one slot, emptied per candidate of a;
        # the constant is the plan's and needs none
        assert hoisting.slots == [2]
        assert hoisting.resets == ((0,), ())
        assert hoisting.calls == {"spatial_intersect", "create_point", "duration"}

    def test_nothing_to_hoist(self):
        assert _plan("SELECT VALUE a.id FROM A a WHERE a.n = t.n").hoisting is None
        # what reads the innermost term is evaluated per candidate anyway
        assert (
            _plan(
                "SELECT VALUE a.id FROM A a WHERE edit_distance(a.name, t.name) < 2"
            ).hoisting
            is None
        )

    def test_subqueries_and_aggregates_are_not_charge_safe(self):
        plan = _plan(
            "SELECT VALUE a.id FROM A a, B b WHERE a.n = b.n "
            "AND array_count((SELECT VALUE c.id FROM C c WHERE c.n = a.n)) > 0"
        )
        assert plan.hoisting is None

    def test_probe_expression_hoists_what_reads_no_earlier_term(self):
        plan = _plan(
            "SELECT VALUE [a.id, b.id] FROM A a, B b WHERE a.n = t.n "
            "AND spatial_intersect(b.loc, create_circle(create_point(t.x, t.y), a.r))"
        )
        hoisting = plan.hoisting
        assert plan.terms[1].access_kind == "spatial"
        # create_point(t.x, t.y) in b's probe: once per block evaluation;
        # the circle in the WHERE reads a: once per candidate of a
        assert hoisting.slots == [1, 2]
        assert hoisting.resets == ((1,), ())
        assert hoisting.probe_fns[1] is not plan.terms[1].probe_fn


def test_cached_values_stay_out_of_bound_names():
    """A nested block's plan key is its visible names: hoisting binds none."""
    catalog = {"Names": _names(["abc", "abd"])}
    seen = []
    cache = PlanCache()
    plan_for = cache.plan_for

    def spy(block, bound_names, catalog_):
        seen.append(frozenset(bound_names))
        return plan_for(block, bound_names, catalog_)

    cache.plan_for = spy
    ctx = EvaluationContext(catalog)
    ctx.plan_cache = cache
    expr = parse_expression(
        "SELECT VALUE n.name FROM Names n "
        "WHERE edit_distance(lower(t.name), n.name) < 2"
        " AND EXISTS(SELECT VALUE m.id FROM Names m WHERE m.name = n.name)"
    )
    rows = Evaluator(ctx).evaluate_query(expr, {"t": {"name": "ABC"}})
    assert sorted(rows) == ["abc", "abd"]
    assert set(seen) == {frozenset({"t"}), frozenset({"t", "n"})}


def test_a_shadowing_function_turns_hoisting_off():
    catalog = {"Names": _names(["abc", "abd", "xyz"])}
    registry = FunctionRegistry(lambda: set(catalog))
    registry.register_sqlpp("CREATE FUNCTION lower(s) { \"abc\" }")
    expr = parse_expression(
        "SELECT VALUE n.name FROM Names n "
        "WHERE edit_distance(lower(t.name), n.name) < 1"
    )
    got = {}
    for use_plans in (True, False):
        ctx = EvaluationContext(catalog, functions=registry, use_plans=use_plans)
        got[use_plans] = (
            Evaluator(ctx).evaluate_query(expr, {"t": {"name": "XYZ"}}),
            _meters(ctx),
        )
    assert got[True] == got[False]
    assert got[True][0] == ["abc"]


def test_a_raising_subexpression_keeps_what_it_charged():
    """``edit_distance`` charges its cells before ``length(7)`` raises: the
    hoisted evaluation's scratch charge is kept, as the interpreter's is."""
    catalog = {"Names": _names(["abc", "abd"])}
    expr = parse_expression(
        "SELECT VALUE n.id FROM Names n "
        'WHERE n.id < edit_distance("ab", "abc") + length(t.word)'
    )
    got = {}
    for use_plans in (True, False):
        ctx = EvaluationContext(catalog, use_plans=use_plans)
        with pytest.raises(Exception, match="length"):
            Evaluator(ctx).evaluate_query(expr, {"t": {"word": 7}})
        got[use_plans] = _meters(ctx)
    assert got[True] == got[False]
    assert got[True][0]["edit_distance_cells"] == 12
