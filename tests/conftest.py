"""Shared fixtures: a small catalog + registry mirroring the paper setup."""

from __future__ import annotations

import random

import pytest
from hypothesis import settings

from repro.adm import DateTime, Point, Rectangle, open_type
from repro.storage import Dataset, IndexKind
from repro.sqlpp import EvaluationContext, Evaluator
from repro.udf import FunctionRegistry, register_paper_udfs

# Example budgets for the heavy property tests that set no ``max_examples``:
# the four codec differentials, the record path's two fast-arm
# differentials (``DateTime.parse`` vs its regex arm, ``parse_json`` vs
# ``json.loads`` on arbitrary text), the UDF operator's frame path vs
# per-record calls, and the memo's bookings over the probe kernel's store
# (``tests/sqlpp/test_shaped_rows.py``).  The SQL++ path harness
# (``tests/properties/test_sqlpp_paths.py``) has six generated entry
# points, ``tests/properties/test_*_props.py`` for hoisting, the filter
# step, the join step, the batch kernel, shaped rows and the facade, that
# draw 110 examples each under ``tier1`` and the profile's count under
# ``deep``.
# ``tier1`` is what ``pytest -x -q`` runs; CI's ``properties-deep`` job
# runs ``tests/properties`` and the memo bookings with
# ``--hypothesis-profile=deep``.
settings.register_profile("tier1", max_examples=50)
settings.register_profile("deep", max_examples=400)
settings.load_profile("tier1")


def load(dataset: Dataset, records) -> Dataset:
    for record in records:
        dataset.insert(record)
    dataset.flush_all()
    return dataset


@pytest.fixture
def small_catalog():
    """Tiny versions of every reference dataset the paper UDFs touch."""
    rnd = random.Random(123)
    catalog = {}

    def mk(name, pk, records, parts=2):
        ds = Dataset(
            name, open_type(f"{name}T"), pk, num_partitions=parts, validate=False
        )
        catalog[name] = load(ds, records)
        return ds

    mk(
        "SensitiveWords",
        "wid",
        [
            {"wid": 1, "country": "US", "word": "bomb"},
            {"wid": 2, "country": "US", "word": "attack"},
            {"wid": 3, "country": "FR", "word": "bombe"},
        ],
    )
    mk(
        "SafetyRatings",
        "country_code",
        [
            {"country_code": "US", "safety_rating": "3"},
            {"country_code": "FR", "safety_rating": "5"},
            {"country_code": "DE", "safety_rating": "4"},
        ],
    )
    mk(
        "ReligiousPopulations",
        "rid",
        [
            {"rid": "r1", "country_name": "US", "religion_name": "A", "population": 10},
            {"rid": "r2", "country_name": "US", "religion_name": "B", "population": 30},
            {"rid": "r3", "country_name": "US", "religion_name": "C", "population": 20},
            {"rid": "r4", "country_name": "US", "religion_name": "D", "population": 5},
            {"rid": "r5", "country_name": "FR", "religion_name": "A", "population": 7},
        ],
    )
    mk(
        "SensitiveNamesDataset",
        "sid",
        [
            {"sid": 1, "sensitiveName": "johnsmith", "religionName": "A"},
            {"sid": 2, "sensitiveName": "johnsmyth", "religionName": "B"},
            {"sid": 3, "sensitiveName": "zzzzzzzzzz", "religionName": "C"},
        ],
    )
    monuments = mk(
        "monumentList",
        "monument_id",
        [
            {"monument_id": f"m{i}", "monument_location": Point(float(i), float(i))}
            for i in range(10)
        ],
    )
    monuments.create_index("mon_loc", "monument_location", IndexKind.RTREE)
    facilities = mk(
        "Facilities",
        "facility_id",
        [
            {
                "facility_id": f"f{i}",
                "facility_location": Point(rnd.uniform(0, 10), rnd.uniform(0, 10)),
                "facility_type": rnd.choice(["school", "hospital", "mall"]),
            }
            for i in range(60)
        ],
    )
    facilities.create_index("fac_loc", "facility_location", IndexKind.RTREE)
    buildings = mk(
        "ReligiousBuildings",
        "religious_building_id",
        [
            {
                "religious_building_id": f"rb{i}",
                "religion_name": f"rel{i % 4}",
                "building_location": Point(rnd.uniform(0, 10), rnd.uniform(0, 10)),
                "registered_believer": rnd.randint(10, 1000),
            }
            for i in range(30)
        ],
    )
    buildings.create_index("rb_loc", "building_location", IndexKind.RTREE)
    mk(
        "SuspiciousNames",
        "suspicious_name_id",
        [
            {
                "suspicious_name_id": f"s{i}",
                "suspicious_name": f"name{i}",
                "religion_name": f"rel{i % 4}",
                "threat_level": i % 5,
            }
            for i in range(20)
        ],
    )
    districts = []
    for i in range(5):
        for j in range(5):
            districts.append(
                {
                    "district_area_id": f"d{i}_{j}",
                    "district_area": Rectangle(i * 2, j * 2, i * 2 + 2, j * 2 + 2),
                }
            )
    da = mk("DistrictAreas", "district_area_id", districts)
    da.create_index("da_area", "district_area", IndexKind.RTREE)
    mk(
        "AverageIncomes",
        "district_area_id",
        [
            {"district_area_id": d["district_area_id"], "average_income": 1000.0 + i}
            for i, d in enumerate(districts)
        ],
    )
    persons = mk(
        "Persons",
        "person_id",
        [
            {
                "person_id": f"p{i}",
                "ethnicity": f"eth{i % 3}",
                "location": Point(rnd.uniform(0, 10), rnd.uniform(0, 10)),
            }
            for i in range(120)
        ],
    )
    persons.create_index("p_loc", "location", IndexKind.RTREE)
    base = DateTime.parse("2019-03-01T00:00:00Z")
    mk(
        "AttackEvents",
        "attack_record_id",
        [
            {
                "attack_record_id": f"a{i}",
                "attack_datetime": DateTime(base.epoch_millis - i * 86_400_000),
                "attack_location": Point(rnd.uniform(0, 10), rnd.uniform(0, 10)),
                "related_religion": f"rel{i % 4}",
            }
            for i in range(20)
        ],
    )
    return catalog


@pytest.fixture
def registry(small_catalog):
    reg = FunctionRegistry(lambda: set(small_catalog))
    register_paper_udfs(reg)
    return reg


@pytest.fixture
def evaluator(small_catalog, registry):
    return Evaluator(EvaluationContext(small_catalog, functions=registry))


@pytest.fixture
def sample_tweet():
    return {
        "id": 1,
        "text": "a bomb threat",
        "country": "US",
        "latitude": 3.0,
        "longitude": 3.2,
        "created_at": DateTime.parse("2019-03-15T12:00:00Z"),
        "user": {"screen_name": "John_Smith!!", "name": "name7"},
    }
