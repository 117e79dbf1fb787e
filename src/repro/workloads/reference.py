"""Generators for every reference dataset in the paper's evaluation.

Paper cardinalities (Section 7.2/7.4) and our defaults (scaled by
``reference_scale`` with floors so spatial densities stay meaningful):

===================  ==========  =================================
Dataset              Paper size  Fields
===================  ==========  =================================
SafetyRatings           500,000  country_code PK, safety_rating
ReligiousPopulations    500,000  rid PK, country_name, religion_name, population
SensitiveNamesDataset     5,000  sid PK, sensitiveName, religionName
monumentList            500,000  monument_id PK, monument_location point
ReligiousBuildings       10,000  religious_building_id PK, religion_name,
                                 building_location point, registered_believer
Facilities               50,000  facility_id PK, facility_location point,
                                 facility_type
SuspiciousNames       1,000,000  suspicious_name_id PK, suspicious_name,
                                 religion_name, threat_level
AverageIncomes           50,000  district_area_id PK, average_income
DistrictAreas               500  district_area_id PK, district_area rectangle
Persons           1,000,000,000  person_id PK, ethnicity, location point
AttackEvents              5,000  attack_record_id PK, attack_datetime,
                                 attack_location point, related_religion
SensitiveWords          (small)  wid PK, country, word
===================  ==========  =================================

The 1B-record Residents dataset is simulated at laptop scale (see
DESIGN.md's substitution table): same schema and per-district skew,
cardinality configurable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from ..adm.schema import open_type
from ..adm.values import DateTime, Point, Rectangle
from ..storage.dataset import Dataset
from ..storage.index import IndexKind
from .tweets import TweetGenerator, _SENSITIVE_WORDS

_RELIGIONS = [f"religion_{i:02d}" for i in range(24)]
_FACILITY_TYPES = [
    "school",
    "hospital",
    "mall",
    "stadium",
    "station",
    "airport",
    "library",
    "museum",
    "park",
    "theater",
]
_ETHNICITIES = [f"ethnicity_{i:02d}" for i in range(12)]
_RATINGS = ["1", "2", "3", "4", "5"]


@dataclass
class WorkloadScale:
    """Knobs controlling generated dataset sizes."""

    reference_scale: float = 0.01  # multiplier on paper cardinalities
    persons: int = 5_000  # sampled substitute for the paper's 1B residents
    districts: int = 500  # paper size (already small)
    num_countries: int = 200
    num_names: int = 2_000
    world_size: float = 100.0
    seed: int = 7

    def sized(self, paper_size: int, floor: int = 50) -> int:
        return max(floor, int(paper_size * self.reference_scale))


@dataclass
class PaperWorkload:
    """Builds the full catalog of reference datasets plus tweet streams."""

    scale: WorkloadScale = field(default_factory=WorkloadScale)
    num_partitions: int = 6
    with_indexes: bool = True

    def __post_init__(self):
        self.tweet_generator = TweetGenerator(
            seed=self.scale.seed,
            num_countries=self.scale.num_countries,
            num_names=self.scale.num_names,
            world_size=self.scale.world_size,
        )
        self._rnd = random.Random(self.scale.seed * 31 + 1)

    # ------------------------------------------------------------ generators

    def safety_ratings(self, size: Optional[int] = None) -> Iterator[dict]:
        size = size if size is not None else self.scale.sized(500_000)
        rnd = random.Random(self.scale.seed + 101)
        for i in range(size):
            yield {
                "country_code": _spread_country(i, self.scale.num_countries),
                "safety_rating": rnd.choice(_RATINGS),
            }

    def religious_populations(self, size: Optional[int] = None) -> Iterator[dict]:
        size = size if size is not None else self.scale.sized(500_000)
        rnd = random.Random(self.scale.seed + 102)
        for i in range(size):
            yield {
                "rid": f"r{i:08d}",
                "country_name": self.tweet_generator.country(
                    rnd.randrange(self.scale.num_countries)
                ),
                "religion_name": rnd.choice(_RELIGIONS),
                "population": rnd.randrange(1_000, 10_000_000),
            }

    def sensitive_names(self, size: Optional[int] = None) -> Iterator[dict]:
        """The 5,000-suspect list probed by Fuzzy Suspects (use case 4)."""
        size = size if size is not None else self.scale.sized(5_000)
        rnd = random.Random(self.scale.seed + 103)
        for i in range(size):
            base = self.tweet_generator.person_name(rnd.randrange(self.scale.num_names))
            yield {
                "sid": i,
                "sensitiveName": _mutate_name(rnd, base),
                "religionName": rnd.choice(_RELIGIONS),
            }

    def monuments(self, size: Optional[int] = None) -> Iterator[dict]:
        size = size if size is not None else self.scale.sized(500_000)
        rnd = random.Random(self.scale.seed + 104)
        world = self.scale.world_size
        for i in range(size):
            yield {
                "monument_id": f"m{i:08d}",
                "monument_location": Point(
                    rnd.uniform(0, world), rnd.uniform(0, world)
                ),
            }

    def religious_buildings(self, size: Optional[int] = None) -> Iterator[dict]:
        size = size if size is not None else self.scale.sized(10_000)
        rnd = random.Random(self.scale.seed + 105)
        world = self.scale.world_size
        for i in range(size):
            yield {
                "religious_building_id": f"rb{i:07d}",
                "religion_name": rnd.choice(_RELIGIONS),
                "building_location": Point(
                    rnd.uniform(0, world), rnd.uniform(0, world)
                ),
                "registered_believer": rnd.randrange(10, 100_000),
            }

    def facilities(self, size: Optional[int] = None) -> Iterator[dict]:
        size = size if size is not None else self.scale.sized(50_000)
        rnd = random.Random(self.scale.seed + 106)
        world = self.scale.world_size
        for i in range(size):
            yield {
                "facility_id": f"f{i:07d}",
                "facility_location": Point(
                    rnd.uniform(0, world), rnd.uniform(0, world)
                ),
                "facility_type": rnd.choice(_FACILITY_TYPES),
            }

    def suspicious_names(self, size: Optional[int] = None) -> Iterator[dict]:
        size = size if size is not None else self.scale.sized(1_000_000)
        rnd = random.Random(self.scale.seed + 107)
        for i in range(size):
            yield {
                "suspicious_name_id": f"s{i:08d}",
                "suspicious_name": self.tweet_generator.person_name(
                    rnd.randrange(self.scale.num_names)
                ),
                "religion_name": rnd.choice(_RELIGIONS),
                "threat_level": rnd.randrange(1, 6),
            }

    def district_areas(self) -> Iterator[dict]:
        """A grid of ``scale.districts`` rectangles tiling the world."""
        count = self.scale.districts
        world = self.scale.world_size
        columns = max(1, int(math.sqrt(count)))
        rows = max(1, math.ceil(count / columns))
        width = world / columns
        height = world / rows
        produced = 0
        for row in range(rows):
            for column in range(columns):
                if produced >= count:
                    return
                yield {
                    "district_area_id": f"d{produced:05d}",
                    "district_area": Rectangle(
                        column * width,
                        row * height,
                        (column + 1) * width,
                        (row + 1) * height,
                    ),
                }
                produced += 1

    def average_incomes(self) -> Iterator[dict]:
        rnd = random.Random(self.scale.seed + 108)
        for district in self.district_areas():
            yield {
                "district_area_id": district["district_area_id"],
                "average_income": round(rnd.uniform(20_000, 200_000), 2),
            }

    def persons(self, size: Optional[int] = None) -> Iterator[dict]:
        size = size if size is not None else self.scale.persons
        rnd = random.Random(self.scale.seed + 109)
        world = self.scale.world_size
        for i in range(size):
            yield {
                "person_id": f"p{i:09d}",
                "ethnicity": rnd.choice(_ETHNICITIES),
                "location": Point(rnd.uniform(0, world), rnd.uniform(0, world)),
            }

    def attack_events(self, size: Optional[int] = None) -> Iterator[dict]:
        size = size if size is not None else self.scale.sized(5_000)
        rnd = random.Random(self.scale.seed + 110)
        world = self.scale.world_size
        start = self.tweet_generator.start_millis
        for i in range(size):
            # attacks within the ~70 days preceding the tweet stream
            offset = rnd.randrange(0, 70 * 86_400_000)
            yield {
                "attack_record_id": f"a{i:07d}",
                "attack_datetime": DateTime(start - offset),
                "attack_location": Point(rnd.uniform(0, world), rnd.uniform(0, world)),
                "related_religion": rnd.choice(_RELIGIONS),
            }

    def sensitive_words(self, size: int = 600) -> Iterator[dict]:
        rnd = random.Random(self.scale.seed + 111)
        for i in range(size):
            yield {
                "wid": i,
                "country": self.tweet_generator.country(
                    rnd.randrange(self.scale.num_countries)
                ),
                "word": rnd.choice(_SENSITIVE_WORDS),
            }

    # --------------------------------------------------------------- catalog

    _GENERATORS = {
        "SafetyRatings": ("safety_ratings", "country_code"),
        "ReligiousPopulations": ("religious_populations", "rid"),
        "SensitiveNamesDataset": ("sensitive_names", "sid"),
        "monumentList": ("monuments", "monument_id"),
        "ReligiousBuildings": ("religious_buildings", "religious_building_id"),
        "Facilities": ("facilities", "facility_id"),
        "SuspiciousNames": ("suspicious_names", "suspicious_name_id"),
        "DistrictAreas": ("district_areas", "district_area_id"),
        "AverageIncomes": ("average_incomes", "district_area_id"),
        "Persons": ("persons", "person_id"),
        "AttackEvents": ("attack_events", "attack_record_id"),
        "SensitiveWords": ("sensitive_words", "wid"),
    }

    _SPATIAL_INDEXES = {
        "monumentList": "monument_location",
        "ReligiousBuildings": "building_location",
        "Facilities": "facility_location",
        "DistrictAreas": "district_area",
        "Persons": "location",
    }

    def build_catalog(
        self, datasets: Optional[List[str]] = None
    ) -> Dict[str, Dataset]:
        """Create and bulk-load the requested reference datasets."""
        names = datasets if datasets is not None else list(self._GENERATORS)
        catalog: Dict[str, Dataset] = {}
        for name in names:
            generator_name, pk = self._GENERATORS[name]
            datatype = open_type(f"{name}Type", **{})
            dataset = Dataset(
                name,
                datatype,
                pk,
                num_partitions=self.num_partitions,
                memtable_budget=4096,
                validate=False,
            )
            for record in getattr(self, generator_name)():
                dataset.insert(record)
            dataset.flush_all()
            if self.with_indexes and name in self._SPATIAL_INDEXES:
                dataset.create_index(
                    f"{name}_spatial", self._SPATIAL_INDEXES[name], IndexKind.RTREE
                )
            catalog[name] = dataset
        return catalog

    def enriched_tweets_dataset(self, name: str = "EnrichedTweets") -> Dataset:
        """The target dataset every feed writes into."""
        from .tweets import TWEET_TYPE

        return Dataset(
            name,
            TWEET_TYPE,
            "id",
            num_partitions=self.num_partitions,
            memtable_budget=8192,
            validate=False,
        )

    # ---------------------------------------------------------------- updates

    def update_stream(self, dataset_name: str) -> Iterator[dict]:
        """An endless stream of upsert records for one reference dataset.

        Updates overwrite existing keys with fresh values, matching the
        paper's §7.3 client that sends reference-data updates via a feed.
        """
        generator_name, _pk = self._GENERATORS[dataset_name]
        rnd = random.Random(self.scale.seed + 999)
        base = list(getattr(self, generator_name)())
        if not base:
            return
        while True:
            record = dict(rnd.choice(base))
            if "safety_rating" in record:
                record["safety_rating"] = rnd.choice(_RATINGS)
            if "population" in record:
                record["population"] = rnd.randrange(1_000, 10_000_000)
            if "threat_level" in record:
                record["threat_level"] = rnd.randrange(1, 6)
            if "registered_believer" in record:
                record["registered_believer"] = rnd.randrange(10, 100_000)
            yield record

    # ----------------------------------------------------- java UDF resources

    def java_resources(self, catalog: Dict[str, Dataset]) -> Dict[str, Dict]:
        """Resource-file providers for the Java UDF library.

        Each provider snapshots the *current* dataset contents when called,
        emulating node-local resource files regenerated from the source of
        truth: a static feed reads them once, a dynamic feed re-reads per
        batch.  The rendered lines are kept on the dataset's read snapshot,
        so they are rendered again only after the dataset has changed.
        """

        def lines_of(name: str, render) -> callable:
            def render_all(records):
                return tuple(render(record) for record in records)

            def provider():
                return catalog[name].snapshot().derived(
                    "java_resource_lines", render_all
                )

            return provider

        resources: Dict[str, Dict] = {}
        if "SafetyRatings" in catalog:
            resources["safety_rating"] = {
                "safety_ratings": lines_of(
                    "SafetyRatings",
                    lambda r: f"{r['country_code']}|{r['safety_rating']}",
                )
            }
        if "ReligiousPopulations" in catalog:
            provider = lines_of(
                "ReligiousPopulations",
                lambda r: f"{r['rid']}|{r['country_name']}|"
                f"{r['religion_name']}|{r['population']}",
            )
            resources["religious_population"] = {"religious_populations": provider}
            resources["largest_religions"] = {"religious_populations": provider}
        if "SensitiveNamesDataset" in catalog:
            resources["fuzzy_suspects"] = {
                "suspect_names": lines_of(
                    "SensitiveNamesDataset",
                    lambda r: f"{r['sensitiveName']}|{r['religionName']}",
                )
            }
        if "monumentList" in catalog:
            resources["nearby_monuments"] = {
                "monuments": lines_of(
                    "monumentList",
                    lambda r: f"{r['monument_id']}|{r['monument_location'].x}|"
                    f"{r['monument_location'].y}",
                )
            }
        if "SensitiveWords" in catalog:
            resources["keyword_safety_check"] = {
                "keyword_list": lines_of(
                    "SensitiveWords",
                    lambda r: f"{r['wid']}|{r['country']}|{r['word']}",
                )
            }
        return resources


def _spread_country(index: int, num_countries: int) -> str:
    """Unique country codes: real countries first, then synthetic fill.

    The paper's SafetyRatings has 500k rows keyed by country_code; beyond
    the tweet-country domain the remaining keys are synthetic (they model
    the dataset's bulk without changing join selectivity).
    """
    if index < num_countries:
        return f"C{index:04d}"
    return f"X{index:07d}"


def _mutate_name(rnd: random.Random, base: str) -> str:
    """Small perturbations so edit distances land around the threshold."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    name = list(base)
    for _ in range(rnd.randrange(0, 4)):
        op = rnd.randrange(3)
        pos = rnd.randrange(len(name))
        if op == 0:
            name[pos] = rnd.choice(letters)
        elif op == 1 and len(name) > 3:
            name.pop(pos)
        else:
            name.insert(pos, rnd.choice(letters))
    return "".join(name)
