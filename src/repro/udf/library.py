"""The paper's enrichment UDF library (Sections 3, 7 and the appendix).

Every use case ships in both forms the paper evaluates:

* **SQL++ UDFs** — the appendix queries (Figures 32-40), registered from
  source text through the real parser;
* **"Java" UDFs** — compiled implementations with the
  ``initialize``-loads-resources / ``evaluate``-per-record lifecycle
  (Figures 5, 7, 35), for use cases 1-5 plus the ``removeSpecial`` helper.
"""

from __future__ import annotations

import re
from typing import Dict, List

from ..adm.values import Point
from ..sqlpp.functions import edit_distance
from .java import JavaUdf, JavaUdfDescriptor
from .registry import FunctionRegistry

# --------------------------------------------------------------------- SQL++

SQLPP_UDFS: Dict[str, str] = {
    # §3.2, Figure 6 — stateless tweet safety check
    "us_tweet_safety_check": """
        CREATE FUNCTION USTweetSafetyCheck(tweet) {
            LET safety_check_flag =
                CASE tweet.country = "US" AND contains(tweet.text, "bomb")
                WHEN true THEN "Red" ELSE "Green"
                END
            SELECT tweet.*, safety_check_flag
        }
    """,
    # §3.3, Figure 8 — stateful tweet safety check via SensitiveWords
    "tweet_safety_check": """
        CREATE FUNCTION tweetSafetyCheck(tweet) {
            LET safety_check_flag = CASE
                EXISTS(SELECT s FROM SensitiveWords s
                       WHERE tweet.country = s.country AND
                             contains(tweet.text, s.word))
                WHEN true THEN "Red" ELSE "Green"
                END
            SELECT tweet.*, safety_check_flag
        }
    """,
    # §4.3.4, Figure 18 — nested uncorrelated subquery (top-10 countries)
    "high_risk_tweet_check": """
        CREATE FUNCTION highRiskTweetCheck(t) {
            LET high_risk_flag = CASE
                t.country IN (SELECT VALUE s.country
                              FROM SensitiveWords s
                              GROUP BY s.country
                              ORDER BY count(s) DESC
                              LIMIT 10)
                WHEN true THEN "Red" ELSE "Green"
                END
            SELECT t.*, high_risk_flag
        }
    """,
    # Appendix A, Figure 32 — use case 1 (hash join)
    "safety_rating": """
        CREATE FUNCTION enrichTweetQ1(t) {
            LET safety_rating = (SELECT VALUE s.safety_rating
                                 FROM SafetyRatings s
                                 WHERE t.country = s.country_code)
            SELECT t.*, safety_rating
        }
    """,
    # Appendix B, Figure 33 — use case 2 (group-by)
    "religious_population": """
        CREATE FUNCTION enrichTweetQ2(t) {
            LET religious_population =
                (SELECT sum(r.population) FROM ReligiousPopulations r
                 WHERE r.country_name = t.country)[0]
            SELECT t.*, religious_population
        }
    """,
    # Appendix C, Figure 34 — use case 3 (order-by)
    "largest_religions": """
        CREATE FUNCTION enrichTweetQ3(t) {
            LET largest_religions =
                (SELECT VALUE r.religion_name
                 FROM ReligiousPopulations r
                 WHERE r.country_name = t.country
                 ORDER BY r.population DESC LIMIT 3)
            SELECT t.*, largest_religions
        }
    """,
    # Appendix D, Figure 36 — use case 4 (similarity join + Java helper)
    "fuzzy_suspects": """
        CREATE FUNCTION annotateTweetQ4(x) {
            LET related_suspects = (
                SELECT s.sensitiveName, s.religionName
                FROM SensitiveNamesDataset s
                WHERE edit_distance(
                        testlib#removeSpecial(x.user.screen_name),
                        s.sensitiveName) < 5)
            SELECT x.*, related_suspects
        }
    """,
    # Appendix E, Figure 37 — use case 5 (index nested-loop spatial join)
    "nearby_monuments": """
        CREATE FUNCTION enrichTweetQ5(t) {
            LET nearby_monuments =
                (SELECT VALUE m.monument_id
                 FROM monumentList m
                 WHERE spatial_intersect(
                        m.monument_location,
                        create_circle(
                            create_point(t.latitude, t.longitude), 1.5)))
            SELECT t.*, nearby_monuments
        }
    """,
    # Appendix E variant — the Figure 31 "Naive Nearby Monuments" hint case
    "naive_nearby_monuments": """
        CREATE FUNCTION enrichTweetQ5Naive(t) {
            LET nearby_monuments =
                (SELECT VALUE m.monument_id
                 FROM monumentList /*+ no-index */ m
                 WHERE spatial_intersect(
                        m.monument_location,
                        create_circle(
                            create_point(t.latitude, t.longitude), 1.5)))
            SELECT t.*, nearby_monuments
        }
    """,
    # Appendix F, Figure 38 — use case 6
    "suspicious_names": """
        CREATE FUNCTION enrichTweetQ6(t) {
            LET nearby_facilities = (
                    SELECT f.facility_type FacilityType, count(*) AS Cnt
                    FROM Facilities f
                    WHERE spatial_intersect(
                            create_point(t.latitude, t.longitude),
                            create_circle(f.facility_location, 3.0))
                    GROUP BY f.facility_type),
                nearby_religious_buildings = (
                    SELECT r.religious_building_id religious_building_id,
                           r.religion_name religion_name
                    FROM ReligiousBuildings r
                    WHERE spatial_intersect(
                            create_point(t.latitude, t.longitude),
                            create_circle(r.building_location, 3.0))
                    ORDER BY spatial_distance(
                            create_point(t.latitude, t.longitude),
                            r.building_location) LIMIT 3),
                suspicious_users_info = (
                    SELECT s.suspicious_name_id suspect_id,
                           s.religion_name AS religion,
                           s.threat_level AS threat_level
                    FROM SuspiciousNames s
                    WHERE s.suspicious_name = t.user.name)
            SELECT t.*, nearby_facilities, nearby_religious_buildings,
                   suspicious_users_info
        }
    """,
    # Appendix G, Figure 39 — use case 7
    "tweet_context": """
        CREATE FUNCTION enrichTweetQ7(t) {
            LET area_avg_income = (
                    SELECT VALUE a.average_income
                    FROM AverageIncomes a, DistrictAreas d1
                    WHERE a.district_area_id = d1.district_area_id
                      AND spatial_intersect(
                            create_point(t.latitude, t.longitude),
                            d1.district_area)),
                area_facilities = (
                    SELECT f.facility_type FacilityType, count(*) AS Cnt
                    FROM Facilities f, DistrictAreas d2
                    WHERE spatial_intersect(f.facility_location,
                                            d2.district_area)
                      AND spatial_intersect(
                            create_point(t.latitude, t.longitude),
                            d2.district_area)
                    GROUP BY f.facility_type),
                ethnicity_dist = (
                    SELECT ethnicity, count(*) AS EthnicityPopulation
                    FROM Persons p, DistrictAreas d3
                    WHERE spatial_intersect(
                            create_point(t.latitude, t.longitude),
                            d3.district_area)
                      AND spatial_intersect(p.location, d3.district_area)
                    GROUP BY p.ethnicity AS ethnicity)
            SELECT t.*, area_avg_income, area_facilities, ethnicity_dist
        }
    """,
    # Appendix H, Figure 40 — use case 8
    "worrisome_tweets": """
        CREATE FUNCTION enrichTweetQ8(t) {
            LET nearby_religious_attacks = (
                SELECT r.religion_name AS religion,
                       count(a.attack_record_id) AS attack_num
                FROM ReligiousBuildings r, AttackEvents a
                WHERE spatial_intersect(
                        create_point(t.latitude, t.longitude),
                        create_circle(r.building_location, 3.0))
                  AND t.created_at < a.attack_datetime + duration("P2M")
                  AND t.created_at > a.attack_datetime
                  AND r.religion_name = a.related_religion
                GROUP BY r.religion_name)
            SELECT t.*, nearby_religious_attacks
        }
    """,
}

#: function-name aliases: use-case key -> registered SQL++ function name
SQLPP_FUNCTION_NAMES: Dict[str, str] = {
    "us_tweet_safety_check": "USTweetSafetyCheck",
    "tweet_safety_check": "tweetSafetyCheck",
    "high_risk_tweet_check": "highRiskTweetCheck",
    "safety_rating": "enrichTweetQ1",
    "religious_population": "enrichTweetQ2",
    "largest_religions": "enrichTweetQ3",
    "fuzzy_suspects": "annotateTweetQ4",
    "nearby_monuments": "enrichTweetQ5",
    "naive_nearby_monuments": "enrichTweetQ5Naive",
    "suspicious_names": "enrichTweetQ6",
    "tweet_context": "enrichTweetQ7",
    "worrisome_tweets": "enrichTweetQ8",
}


# ---------------------------------------------------------------------- Java


class RemoveSpecialUdf(JavaUdf):
    """Figure 35: strip non-alphabetic characters, lowercase the rest."""

    _pattern = re.compile(r"[^a-zA-Z]+")
    pure = True

    def evaluate(self, name):
        if not isinstance(name, str):
            return None
        return self._pattern.sub("", name).lower()


class TweetSafetyCheckJavaUdf(JavaUdf):
    """Figure 5 (Java UDF 1): stateless US/bomb safety flag."""

    def evaluate(self, tweet):
        flag = (
            "Red"
            if tweet.get("country") == "US" and "bomb" in tweet.get("text", "")
            else "Green"
        )
        out = dict(tweet)
        out["safety_check_flag"] = flag
        return out


class KeywordSafetyCheckJavaUdf(JavaUdf):
    """Figure 7 (Java UDF 2): keyword list loaded from a resource file.

    Resource line format: ``<id>|<country>|<keyword>``.
    """

    required_resources = ("keyword_list",)

    def initialize(self, node_info: str) -> None:
        self.keywords: Dict[str, List[str]] = {}
        for line in self.read_resource("keyword_list"):
            items = line.split("|")
            self.keywords.setdefault(items[1], []).append(items[2])
        super().initialize(node_info)

    def evaluate(self, tweet):
        text = tweet.get("text", "")
        flag = "Green"
        for keyword in self.keywords.get(tweet.get("country"), ()):
            if keyword in text:
                flag = "Red"
                break
        out = dict(tweet)
        out["safety_check_flag"] = flag
        return out


class SafetyRatingJavaUdf(JavaUdf):
    """Use case 1 in Java: country -> safety rating lookup table.

    Resource line format: ``<country_code>|<safety_rating>``.
    """

    required_resources = ("safety_ratings",)

    def initialize(self, node_info: str) -> None:
        self.ratings: Dict[str, str] = {}
        for line in self.read_resource("safety_ratings"):
            code, rating = line.split("|", 1)
            self.ratings[code] = rating
        super().initialize(node_info)

    def evaluate(self, tweet):
        out = dict(tweet)
        rating = self.ratings.get(tweet.get("country"))
        out["safety_rating"] = [rating] if rating is not None else []
        return out


class ReligiousPopulationJavaUdf(JavaUdf):
    """Use case 2 in Java: country -> total religious population.

    Resource line format: ``<rid>|<country>|<religion>|<population>``.
    """

    required_resources = ("religious_populations",)

    def initialize(self, node_info: str) -> None:
        self.totals: Dict[str, int] = {}
        for line in self.read_resource("religious_populations"):
            _rid, country, _religion, population = line.split("|")
            self.totals[country] = self.totals.get(country, 0) + int(population)
        super().initialize(node_info)

    def evaluate(self, tweet):
        out = dict(tweet)
        total = self.totals.get(tweet.get("country"))
        out["religious_population"] = {"sum": total} if total is not None else {}
        return out


class LargestReligionsJavaUdf(JavaUdf):
    """Use case 3 in Java: country -> three largest religions.

    Resource line format: ``<rid>|<country>|<religion>|<population>``.
    """

    required_resources = ("religious_populations",)

    def initialize(self, node_info: str) -> None:
        per_country: Dict[str, List] = {}
        for line in self.read_resource("religious_populations"):
            _rid, country, religion, population = line.split("|")
            per_country.setdefault(country, []).append((int(population), religion))
        self.top3: Dict[str, List[str]] = {}
        for country, entries in per_country.items():
            entries.sort(key=lambda pair: (-pair[0], pair[1]))
            self.top3[country] = [religion for _pop, religion in entries[:3]]
        super().initialize(node_info)

    def evaluate(self, tweet):
        out = dict(tweet)
        out["largest_religions"] = list(self.top3.get(tweet.get("country"), []))
        return out


class FuzzySuspectsJavaUdf(JavaUdf):
    """Use case 4 in Java: edit-distance scan over the suspects list.

    Resource line format: ``<sensitiveName>|<religionName>``.
    """

    required_resources = ("suspect_names",)
    _pattern = re.compile(r"[^a-zA-Z]+")

    def initialize(self, node_info: str) -> None:
        self.suspects: List[tuple] = []
        for line in self.read_resource("suspect_names"):
            name, religion = line.split("|", 1)
            self.suspects.append((name, religion))
        super().initialize(node_info)

    def evaluate(self, tweet):
        screen_name = tweet.get("user", {}).get("screen_name", "")
        cleaned = self._pattern.sub("", screen_name).lower()
        meter = getattr(self, "meter", None)
        related = []
        for name, religion in self.suspects:
            if meter is not None:
                meter.java_ops += (len(cleaned) + 1) * (len(name) + 1)
            if edit_distance(cleaned, name) < 5:
                related.append({"sensitiveName": name, "religionName": religion})
        out = dict(tweet)
        out["related_suspects"] = related
        return out


class NearbyMonumentsJavaUdf(JavaUdf):
    """Use case 5 in Java: linear distance scan (no index available).

    Resource line format: ``<monument_id>|<x>|<y>``.  The SQL++ version
    outperforms this one by probing the partitioned R-tree (§7.2).
    """

    required_resources = ("monuments",)

    def initialize(self, node_info: str) -> None:
        self.monuments: List[tuple] = []
        for line in self.read_resource("monuments"):
            monument_id, x, y = line.split("|")
            self.monuments.append((monument_id, float(x), float(y)))
        super().initialize(node_info)

    def evaluate(self, tweet):
        latitude = tweet.get("latitude")
        longitude = tweet.get("longitude")
        meter = getattr(self, "meter", None)
        nearby = []
        if latitude is not None and longitude is not None:
            center = Point(latitude, longitude)
            if meter is not None:
                meter.java_ops += len(self.monuments)
            for monument_id, x, y in self.monuments:
                if center.distance_to(Point(x, y)) <= 1.5:
                    nearby.append(monument_id)
        out = dict(tweet)
        out["nearby_monuments"] = nearby
        return out


JAVA_UDF_CLASSES: Dict[str, type] = {
    "remove_special": RemoveSpecialUdf,
    "tweet_safety_check": TweetSafetyCheckJavaUdf,
    "keyword_safety_check": KeywordSafetyCheckJavaUdf,
    "safety_rating": SafetyRatingJavaUdf,
    "religious_population": ReligiousPopulationJavaUdf,
    "largest_religions": LargestReligionsJavaUdf,
    "fuzzy_suspects": FuzzySuspectsJavaUdf,
    "nearby_monuments": NearbyMonumentsJavaUdf,
}


def register_paper_udfs(
    registry: FunctionRegistry,
    java_resources: Dict[str, Dict[str, object]] = None,
) -> None:
    """Register every paper UDF.

    ``java_resources`` maps java-udf keys (e.g. ``"safety_rating"``) to
    their resource-provider dicts; java UDFs whose resources are missing
    are skipped (they cannot initialize without their files).
    """
    java_resources = java_resources or {}
    # removeSpecial is required by the fuzzy_suspects SQL++ text.
    registry.register_java(
        JavaUdfDescriptor("testlib", "removeSpecial", RemoveSpecialUdf, 1, False)
    )
    for source in SQLPP_UDFS.values():
        registry.register_sqlpp(source)
    for key, cls in JAVA_UDF_CLASSES.items():
        if key == "remove_special":
            continue
        resources = java_resources.get(key)
        if cls.required_resources and resources is None:
            continue
        stateful = bool(cls.required_resources)

        def factory(cls=cls, resources=resources):
            return cls(resources)

        registry.register_java(
            JavaUdfDescriptor("udflib", key, factory, 1, stateful)
        )
