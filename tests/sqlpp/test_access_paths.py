"""Access-path selection and the Model-2 visibility semantics (§4.3/§5.1).

These are the load-bearing semantics of the paper: batch-cached hash
accesses freeze reference data for one context generation; live index
probes see mid-batch updates; uncorrelated subqueries cache per batch.
"""

import pytest

from repro.adm import Circle, Point, Rectangle, open_type
from repro.errors import SqlppEvaluationError
from repro.sqlpp import EvaluationContext, Evaluator, parse_expression
from repro.storage import Dataset, IndexKind
from repro.udf import FunctionRegistry, register_paper_udfs


def build(catalog, registry=None):
    ctx = EvaluationContext(catalog, functions=registry)
    return ctx, Evaluator(ctx)


@pytest.fixture
def ratings():
    ds = Dataset(
        "SafetyRatings", open_type("T"), "country_code", num_partitions=2,
        validate=False,
    )
    ds.insert({"country_code": "US", "safety_rating": "3"})
    ds.insert({"country_code": "FR", "safety_rating": "5"})
    ds.flush_all()
    return ds


QUERY = (
    "SELECT VALUE s.safety_rating FROM SafetyRatings s "
    "WHERE t.country = s.country_code"
)


class TestHashAccess:
    def test_correlated_equality_uses_hash_cache(self, ratings):
        ctx, ev = build({"SafetyRatings": ratings})
        expr = parse_expression(QUERY)
        assert ev.evaluate_query(expr, {"t": {"country": "US"}}) == ["3"]
        assert ("hash", "SafetyRatings", "country_code") in ctx.snapshots.built
        assert ctx.shared_meter.hash_builds == 2
        assert ctx.meter.hash_probes == 1

    def test_build_happens_once_per_generation(self, ratings):
        ctx, ev = build({"SafetyRatings": ratings})
        expr = parse_expression(QUERY)
        for _ in range(5):
            ev.evaluate_query(expr, {"t": {"country": "US"}})
        assert ctx.shared_meter.hash_builds == 2  # one build
        assert ctx.meter.hash_probes == 5

    def test_updates_invisible_within_generation(self, ratings):
        ctx, ev = build({"SafetyRatings": ratings})
        expr = parse_expression(QUERY)
        assert ev.evaluate_query(expr, {"t": {"country": "US"}}) == ["3"]
        ratings.upsert({"country_code": "US", "safety_rating": "1"})
        assert ev.evaluate_query(expr, {"t": {"country": "US"}}) == ["3"]

    def test_refresh_makes_updates_visible(self, ratings):
        ctx, ev = build({"SafetyRatings": ratings})
        expr = parse_expression(QUERY)
        ev.evaluate_query(expr, {"t": {"country": "US"}})
        stale = ctx.snapshots.pinned["SafetyRatings"]
        ratings.upsert({"country_code": "US", "safety_rating": "1"})
        ctx.refresh_batch()
        assert ev.evaluate_query(expr, {"t": {"country": "US"}}) == ["1"]
        assert ctx.snapshots.pinned["SafetyRatings"] is not stale

    def test_equality_probe_on_missing_value_empty(self, ratings):
        ctx, ev = build({"SafetyRatings": ratings})
        expr = parse_expression(QUERY)
        assert ev.evaluate_query(expr, {"t": {}}) == []

    def test_update_activity_penalizes_build(self, ratings):
        # a burst of updates leaves the in-memory component active and
        # under pressure; the batch scan pays a penalty proportional to it
        for i in range(200):
            ratings.upsert({"country_code": f"Z{i:03d}", "safety_rating": "4"})
        ctx, ev = build({"SafetyRatings": ratings})
        ev.evaluate_query(parse_expression(QUERY), {"t": {"country": "US"}})
        assert ctx.shared_meter.penalized_reads > 0

    def test_quiescent_build_not_penalized(self, ratings):
        ctx, ev = build({"SafetyRatings": ratings})
        ev.evaluate_query(parse_expression(QUERY), {"t": {"country": "US"}})
        assert ctx.shared_meter.penalized_reads == 0

    def test_index_probe_penalty_exceeds_scan_penalty(self, ratings):
        from repro.sqlpp.evaluator import Evaluator as Ev

        for i in range(200):
            ratings.upsert({"country_code": f"Z{i:03d}", "safety_rating": "4"})
        scan_units = Ev._penalty_units(ratings, 100, index_probe=False)
        probe_units = Ev._penalty_units(ratings, 100, index_probe=True)
        assert probe_units > scan_units > 0

    def test_btree_index_preferred_when_present(self, ratings):
        ratings.create_index("by_code", "country_code", IndexKind.BTREE)
        ctx, ev = build({"SafetyRatings": ratings})
        assert ev.evaluate_query(
            parse_expression(QUERY), {"t": {"country": "FR"}}
        ) == ["5"]
        assert ctx.meter.btree_probes == 1
        assert ctx.shared_meter.hash_builds == 0

    def test_btree_probe_sees_midbatch_updates(self, ratings):
        ratings.create_index("by_code", "country_code", IndexKind.BTREE)
        ctx, ev = build({"SafetyRatings": ratings})
        expr = parse_expression(QUERY)
        ev.evaluate_query(expr, {"t": {"country": "US"}})
        ratings.upsert({"country_code": "US", "safety_rating": "9"})
        assert ev.evaluate_query(expr, {"t": {"country": "US"}}) == ["9"]


@pytest.fixture
def monuments():
    ds = Dataset(
        "monumentList", open_type("T"), "monument_id", num_partitions=2,
        validate=False,
    )
    for i in range(10):
        ds.insert({"monument_id": f"m{i}", "monument_location": Point(float(i), float(i))})
    ds.flush_all()
    ds.create_index("loc", "monument_location", IndexKind.RTREE)
    return ds


SPATIAL_QUERY = (
    "SELECT VALUE m.monument_id FROM monumentList m "
    "WHERE spatial_intersect(m.monument_location, "
    "create_circle(create_point(t.latitude, t.longitude), 1.5))"
)


class TestSpatialAccess:
    def test_rtree_probe_used(self, monuments):
        ctx, ev = build({"monumentList": monuments})
        got = ev.evaluate_query(
            parse_expression(SPATIAL_QUERY), {"t": {"latitude": 3.0, "longitude": 3.0}}
        )
        assert sorted(got) == ["m2", "m3", "m4"]
        assert ctx.meter.rtree_nodes_visited > 0
        assert ("scan", "monumentList") not in ctx.snapshots.built

    def test_rtree_sees_midbatch_inserts(self, monuments):
        ctx, ev = build({"monumentList": monuments})
        expr = parse_expression(SPATIAL_QUERY)
        bindings = {"t": {"latitude": 3.0, "longitude": 3.0}}
        ev.evaluate_query(expr, bindings)
        monuments.insert({"monument_id": "mNew", "monument_location": Point(3.1, 3.1)})
        assert "mNew" in ev.evaluate_query(expr, bindings)

    def test_no_index_hint_forces_scan(self, monuments):
        ctx, ev = build({"monumentList": monuments})
        naive = SPATIAL_QUERY.replace(
            "FROM monumentList m", "FROM monumentList /*+ no-index */ m"
        )
        got = ev.evaluate_query(
            parse_expression(naive), {"t": {"latitude": 3.0, "longitude": 3.0}}
        )
        assert sorted(got) == ["m2", "m3", "m4"]
        assert ctx.meter.rtree_nodes_visited == 0
        assert ("scan", "monumentList") in ctx.snapshots.built

    def test_flipped_circle_pattern_probes_index(self, monuments):
        # spatial_intersect(create_point(outer), create_circle(m.field, R))
        query = (
            "SELECT VALUE m.monument_id FROM monumentList m "
            "WHERE spatial_intersect(create_point(t.latitude, t.longitude), "
            "create_circle(m.monument_location, 1.5))"
        )
        ctx, ev = build({"monumentList": monuments})
        got = ev.evaluate_query(
            parse_expression(query), {"t": {"latitude": 3.0, "longitude": 3.0}}
        )
        assert sorted(got) == ["m2", "m3", "m4"]
        assert ctx.meter.rtree_nodes_visited > 0

    @pytest.mark.parametrize("use_plans", [True, False])
    @pytest.mark.parametrize(
        "region, expected",
        [
            ("create_point(3.0, 3.0)", ["m2", "m3", "m4"]),
            (
                "create_rectangle(create_point(2.0, 2.0), create_point(3.0, 3.0))",
                ["m1", "m2", "m3", "m4"],
            ),
            ("create_circle(create_point(3.0, 3.0), 1.0)", ["m2", "m3", "m4"]),
            ("t.where", ["m5", "m6", "m7"]),
        ],
    )
    def test_flipped_circle_index_on_equals_index_off(
        self, monuments, region, expected, use_plans
    ):
        # the flip is an identity only for a point: any other outer region
        # must be filtered exactly, never handed to create_circle as a center
        bindings = {"t": {"where": Rectangle(6.0, 6.0, 6.5, 6.5)}}
        got = {}
        for source in ("monumentList m", "monumentList /*+ no-index */ m"):
            query = parse_expression(
                f"SELECT VALUE m.monument_id FROM {source} "
                f"WHERE spatial_intersect({region}, "
                "create_circle(m.monument_location, 1.5))"
            )
            ctx = EvaluationContext({"monumentList": monuments}, use_plans=use_plans)
            got[source] = sorted(Evaluator(ctx).evaluate_query(query, bindings))
        assert list(got.values()) == [expected, expected]


def _marks(records, indexed):
    ds = Dataset("Marks", open_type("T"), "id", num_partitions=2, validate=False)
    for record in records:
        ds.insert(record)
    ds.flush_all()
    if indexed:
        ds.create_index("marks_loc", "loc", IndexKind.RTREE)
    return ds


def _outcome(expr, catalog, bindings, use_plans):
    ctx = EvaluationContext(catalog, use_plans=use_plans)
    try:
        return Evaluator(ctx).evaluate_query(expr, bindings)
    except Exception as exc:  # compared across index on / off
        return type(exc).__name__, str(exc)


class TestNonSpatialRegion:
    """An R-tree cannot bound a string or a number: the indexed path reads
    the charged scan instead, so the exact test raises what it raises
    without the index, and a scan of nothing returns nothing."""

    ONE_TERM = (
        "SELECT VALUE m.id FROM Marks m WHERE spatial_intersect(m.loc, t.region)"
    )
    TWO_TERM = (
        "SELECT VALUE [n.id, m.id] FROM Marks n, Marks m "
        "WHERE n.id = 0 AND spatial_intersect(m.loc, t.region)"
    )

    @pytest.mark.parametrize("use_plans", [True, False])
    @pytest.mark.parametrize("query", [ONE_TERM, TWO_TERM])
    @pytest.mark.parametrize("region", ["oops", 7])
    @pytest.mark.parametrize("empty", [True, False])
    def test_index_on_equals_index_off(self, use_plans, query, region, empty):
        records = [] if empty else [
            {"id": i, "loc": Point(float(i), float(i))} for i in range(4)
        ]
        expr = parse_expression(query)
        got = {
            indexed: _outcome(
                expr, {"Marks": _marks(records, indexed)},
                {"t": {"region": region}}, use_plans,
            )
            for indexed in (False, True)
        }
        assert got[True] == got[False]
        if empty:
            assert got[True] == []
        else:
            kind = type(region).__name__
            assert got[True] == (
                "AdmParseError",
                f"spatial_intersect: unsupported operand types ({kind}, Point)",
            )

    def test_scan_is_charged_instead_of_a_probe(self):
        ds = _marks([{"id": 1, "loc": Point(1.0, 1.0)}], indexed=True)
        ctx, ev = build({"Marks": ds})
        with pytest.raises(Exception):
            ev.evaluate_query(
                parse_expression(self.ONE_TERM), {"t": {"region": "oops"}}
            )
        assert ctx.meter.rtree_nodes_visited == 0
        assert ctx.shared_meter.records_scanned == 1


_NAN, _INF = float("nan"), float("inf")


class TestNanRegion:
    """Every comparison with NaN is false, yet a region with a NaN corner
    can pass the exact test: a rectangle's inverted overlap test skips the
    NaN, a circle's clamp drops it, and an infinite distance still fits
    an infinite radius.  The R-tree walks such a region like any other
    and the exact test decides, so index on equals index off."""

    MARKS = [
        {"id": 0, "loc": Rectangle(12.0, 5.0, 15.0, 8.0)},
        {"id": 1, "loc": Circle(Point(14.0, 20.0), 3.0)},
        {"id": 2, "loc": Point(16.0, 25.0)},
        {"id": 3, "loc": Point(5.0, _INF)},
    ] + [{"id": i, "loc": Point(float(i), float(i % 7))} for i in range(4, 40)]
    REGIONS = [
        Rectangle(10.0, _NAN, 20.0, 30.0),
        Rectangle(_NAN, 5.0, 13.0, 6.0),
        Circle(Point(_NAN, 6.0), 4.0),
        Circle(Point(14.0, 6.0), _NAN),
        Circle(Point(_INF, 0.0), _INF),  # its MBR's x1 is inf - inf
        Point(_NAN, 6.0),
        Point(12.0, 6.0),
    ]

    @pytest.mark.parametrize("use_plans", [True, False])
    @pytest.mark.parametrize("points_only", [True, False])
    @pytest.mark.parametrize("region", REGIONS, ids=repr)
    def test_index_on_equals_index_off(self, use_plans, points_only, region):
        records = [
            r for r in self.MARKS if not points_only or isinstance(r["loc"], Point)
        ]
        expr = parse_expression(
            "SELECT VALUE m.id FROM Marks m WHERE spatial_intersect(m.loc, t.region)"
        )
        got = {  # an index returns rows in R-tree order
            indexed: sorted(_outcome(
                expr, {"Marks": _marks(records, indexed)},
                {"t": {"region": region}}, use_plans,
            ))
            for indexed in (False, True)
        }
        assert got[True] == got[False]

    @pytest.mark.parametrize("use_plans", [True, False])
    def test_nan_rectangle_corner_still_matches(self, use_plans):
        expr = parse_expression(
            "SELECT VALUE m.id FROM Marks m WHERE spatial_intersect(m.loc, "
            "create_rectangle(create_point(10.0, t.y), create_point(20.0, 30.0)))"
        )
        got = {  # an index returns rows in R-tree order
            indexed: sorted(_outcome(
                expr, {"Marks": _marks(self.MARKS, indexed)},
                {"t": {"y": _NAN}}, use_plans,
            ))
            for indexed in (False, True)
        }
        assert got[True] == got[False]
        assert 0 in got[True] and 1 in got[True]


class TestNoIndexPointWindow:
    """Without an index, a column of points is filtered through the
    snapshot's points sorted by x; rows, their order, the three meters and
    errors are the interpreter's, including a residual that raises."""

    QUERIES = [
        # circle around the tweet; flipped circle around each point
        "SELECT VALUE m.id FROM Marks /*+ no-index */ m WHERE spatial_intersect("
        "m.loc, create_circle(create_point(t.x, t.y), 1.5)) AND {residual}",
        "SELECT VALUE m.id FROM Marks /*+ no-index */ m WHERE spatial_intersect("
        "create_point(t.x, t.y), create_circle(m.loc, 1.5)) AND {residual}",
        "SELECT VALUE m.id FROM Marks /*+ no-index */ m WHERE spatial_intersect("
        "m.loc, create_rectangle(create_point(t.x, t.y), "
        "create_point(t.x + 2.0, t.y + 1.0))) AND {residual}",
    ]
    RESIDUALS = ["m.id >= 0", "m.id < t.bad + 100"]

    @pytest.mark.parametrize("query", QUERIES)
    @pytest.mark.parametrize("residual", RESIDUALS)
    def test_window_matches_the_interpreter(self, query, residual):
        records = [
            {"id": i, "loc": Point(float((i * 7) % 11), float((i * 3) % 5))}
            for i in range(40)
        ]
        ds = _marks(records, indexed=False)
        expr = parse_expression(query.format(residual=residual))
        got = {}
        for use_plans in (True, False):
            ctx = EvaluationContext({"Marks": ds}, use_plans=use_plans)
            evaluator = Evaluator(ctx)
            outcomes = []
            for x, y, bad in ((4.0, 2.0, 0), (9.5, 1.0, 0), (4.0, 2.0, "b")):
                try:
                    outcomes.append(
                        evaluator.evaluate_query(
                            expr, {"t": {"x": x, "y": y, "bad": bad}}
                        )
                    )
                except Exception as exc:  # compared across the two paths
                    outcomes.append((type(exc).__name__, str(exc)))
            meters = [
                vars(meter).copy()
                for meter in (ctx.meter, ctx.shared_meter, ctx.replicated_meter)
            ]
            got[use_plans] = outcomes, meters
        assert got[True] == got[False]
        assert got[True][0][0]  # the first tweet finds points


class TestEagerSpatialCharges:
    """The access step charges ``spatial_tests`` before it yields a
    survivor, so a residual that raises at the k-th survivor leaves the
    interpreter's count on every path: the plain scan (a NULL in the
    column), the x-window scan and the R-tree probe."""

    QUERY = parse_expression(
        "SELECT VALUE m.id FROM Marks m WHERE spatial_intersect("
        "m.loc, create_circle(create_point(t.x, 0.0), 3.0)) AND length(m.tag) > 0"
    )

    @pytest.mark.parametrize(
        "path, indexed, with_null",
        [
            ("_survivors", False, True),
            ("_window_survivors", False, False),
            ("_survivors", True, False),
        ],
    )
    def test_a_raising_residual_leaves_the_interpreters_count(
        self, monkeypatch, path, indexed, with_null
    ):
        taken = []
        generator = getattr(Evaluator, path)

        def spy(self, *args):
            taken.append(path)
            return generator(self, *args)

        monkeypatch.setattr(Evaluator, path, spy)
        counts = set()
        for bad in range(2, 8):  # the survivors: x within 3.0 of 4.5
            records = [
                {"id": i, "loc": Point(float(i), 0.0), "tag": 7 if i == bad else "x"}
                for i in range(10)
            ] + ([{"id": 10, "loc": None, "tag": "x"}] if with_null else [])
            catalog = {"Marks": _marks(records, indexed)}
            got = {}
            for use_plans in (True, False):
                ctx = EvaluationContext(catalog, use_plans=use_plans)
                with pytest.raises(SqlppEvaluationError, match="length"):
                    Evaluator(ctx).evaluate_query(self.QUERY, {"t": {"x": 4.5}})
                got[use_plans] = [
                    vars(meter).copy()
                    for meter in (ctx.meter, ctx.shared_meter, ctx.replicated_meter)
                ]
            assert got[True] == got[False]
            counts.add(got[True][0]["spatial_tests"])
        assert len(taken) == 6
        assert len(counts) > 1  # where the residual raises moves the count


class TestUncorrelatedCaching:
    def test_closed_subquery_cached_per_generation(self, ratings):
        ctx, ev = build({"SafetyRatings": ratings})
        expr = parse_expression(
            'SELECT VALUE t.country IN '
            "(SELECT VALUE s.country_code FROM SafetyRatings s)"
        )
        assert ev.evaluate_query(expr, {"t": {"country": "US"}}) == [True]
        ratings.insert({"country_code": "JP", "safety_rating": "2"})
        # cached: JP invisible this generation
        assert ev.evaluate_query(expr, {"t": {"country": "JP"}}) == [False]
        ctx.refresh_batch()
        assert ev.evaluate_query(expr, {"t": {"country": "JP"}}) == [True]


class TestJoinOrdering:
    def test_correlated_term_evaluated_first(self):
        """Figure 39 pattern: districts must be probed before facilities."""
        districts = Dataset("D", open_type("T"), "id", validate=False)
        from repro.adm import Rectangle

        for i in range(4):
            districts.insert({"id": f"d{i}", "area": Rectangle(i * 10, 0, i * 10 + 10, 10)})
        districts.flush_all()
        districts.create_index("area_idx", "area", IndexKind.RTREE)
        facilities = Dataset("F", open_type("T"), "id", validate=False)
        for i in range(40):
            facilities.insert({"id": f"f{i}", "loc": Point(i % 40, 5.0)})
        facilities.flush_all()
        facilities.create_index("loc_idx", "loc", IndexKind.RTREE)
        ctx, ev = build({"D": districts, "F": facilities})
        query = (
            "SELECT VALUE f.id FROM F f, D d "
            "WHERE spatial_intersect(f.loc, d.area) "
            "AND spatial_intersect(create_point(t.x, t.y), d.area)"
        )
        got = ev.evaluate_query(parse_expression(query), {"t": {"x": 15.0, "y": 5.0}})
        assert sorted(got) == sorted(f"f{i}" for i in range(10, 21))
        # both accesses went through R-trees — no full scans cached
        assert ("scan", "F") not in ctx.snapshots.built
        assert ("scan", "D") not in ctx.snapshots.built


class TestPaperUdfRegression:
    """All eight UDFs against the shared small catalog (vs brute force)."""

    def test_q6_suspicious_names_counts(self, small_catalog, registry, sample_tweet):
        ctx = EvaluationContext(small_catalog, functions=registry)
        got = Evaluator(ctx).evaluate_query(
            parse_expression("enrichTweetQ6(t)"), {"t": sample_tweet}
        )[0]
        from math import hypot

        expected = {}
        for rec in small_catalog["Facilities"].scan():
            p = rec["facility_location"]
            if hypot(p.x - 3.0, p.y - 3.2) <= 3.0:
                expected[rec["facility_type"]] = expected.get(rec["facility_type"], 0) + 1
        assert {
            d["FacilityType"]: d["Cnt"] for d in got["nearby_facilities"]
        } == expected
        assert len(got["nearby_religious_buildings"]) <= 3

    def test_q7_tweet_context(self, small_catalog, registry, sample_tweet):
        ctx = EvaluationContext(small_catalog, functions=registry)
        got = Evaluator(ctx).evaluate_query(
            parse_expression("enrichTweetQ7(t)"), {"t": sample_tweet}
        )[0]
        point = Point(3.0, 3.2)
        districts = [
            d
            for d in small_catalog["DistrictAreas"].scan()
            if d["district_area"].contains_point(point)
        ]
        expected_eth = {}
        for d in districts:
            for p in small_catalog["Persons"].scan():
                if d["district_area"].contains_point(p["location"]):
                    expected_eth[p["ethnicity"]] = expected_eth.get(p["ethnicity"], 0) + 1
        assert {
            d["ethnicity"]: d["EthnicityPopulation"] for d in got["ethnicity_dist"]
        } == expected_eth

    def test_q8_worrisome_tweets(self, small_catalog, registry, sample_tweet):
        from math import hypot

        from repro.adm import Duration

        ctx = EvaluationContext(small_catalog, functions=registry)
        got = Evaluator(ctx).evaluate_query(
            parse_expression("enrichTweetQ8(t)"), {"t": sample_tweet}
        )[0]
        expected = {}
        created = sample_tweet["created_at"]
        for b in small_catalog["ReligiousBuildings"].scan():
            loc = b["building_location"]
            if hypot(loc.x - 3.0, loc.y - 3.2) <= 3.0:
                for a in small_catalog["AttackEvents"].scan():
                    if (
                        b["religion_name"] == a["related_religion"]
                        and created > a["attack_datetime"]
                        and created < a["attack_datetime"].add(Duration.parse("P2M"))
                    ):
                        expected[b["religion_name"]] = (
                            expected.get(b["religion_name"], 0) + 1
                        )
        assert {
            d["religion"]: d["attack_num"] for d in got["nearby_religious_attacks"]
        } == expected
