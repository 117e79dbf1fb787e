"""Access-path selection and the Model-2 visibility semantics (§4.3/§5.1).

These are the load-bearing semantics of the paper: batch-cached hash
accesses freeze reference data for one context generation; live index
probes see mid-batch updates; uncorrelated subqueries cache per batch.
"""

import pytest

from repro.adm import Point, Rectangle, open_type
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
        assert ("hash", "SafetyRatings", "country_code") in ctx.batch_cache
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
        ratings.upsert({"country_code": "US", "safety_rating": "1"})
        ctx.refresh_batch()
        assert ev.evaluate_query(expr, {"t": {"country": "US"}}) == ["1"]
        assert ctx.generation == 1

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
        assert ("scan", "monumentList") not in ctx.batch_cache

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
        assert ("scan", "monumentList") in ctx.batch_cache

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
        query = parse_expression(
            "SELECT VALUE m.monument_id FROM monumentList m "
            f"WHERE spatial_intersect({region}, "
            "create_circle(m.monument_location, 1.5))"
        )
        bindings = {"t": {"where": Rectangle(6.0, 6.0, 6.5, 6.5)}}
        got = {}
        for allow_index in (True, False):
            ctx = EvaluationContext(
                {"monumentList": monuments},
                allow_index=allow_index,
                use_plans=use_plans,
            )
            got[allow_index] = sorted(Evaluator(ctx).evaluate_query(query, bindings))
        assert got[True] == got[False] == expected


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
        assert ("scan", "F") not in ctx.batch_cache
        assert ("scan", "D") not in ctx.batch_cache


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
