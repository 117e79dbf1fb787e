"""The paper UDF library: SQL++ and Java twins agree with brute force."""

import pytest

from repro.adm import Point
from repro.errors import UdfError
from repro.sqlpp import EvaluationContext, Evaluator, parse_expression
from repro.udf import (
    JAVA_UDF_CLASSES,
    SQLPP_FUNCTION_NAMES,
    SQLPP_UDFS,
    FunctionRegistry,
    register_paper_udfs,
)
from repro.udf.library import (
    FuzzySuspectsJavaUdf,
    KeywordSafetyCheckJavaUdf,
    LargestReligionsJavaUdf,
    NearbyMonumentsJavaUdf,
    ReligiousPopulationJavaUdf,
    RemoveSpecialUdf,
    SafetyRatingJavaUdf,
    TweetSafetyCheckJavaUdf,
)


class TestRemoveSpecial:
    def test_strips_non_alpha_and_lowercases(self):
        udf = RemoveSpecialUdf()
        udf.initialize("nc0")
        assert udf("John_Smith!!123") == "johnsmith"

    def test_non_string_returns_none(self):
        udf = RemoveSpecialUdf()
        udf.initialize("nc0")
        assert udf(42) is None


class TestStatelessJavaSafetyCheck:
    def test_red_flag(self):
        udf = TweetSafetyCheckJavaUdf()
        udf.initialize("nc0")
        out = udf({"country": "US", "text": "a bomb"})
        assert out["safety_check_flag"] == "Red"

    def test_green_for_other_country(self):
        udf = TweetSafetyCheckJavaUdf()
        udf.initialize("nc0")
        assert udf({"country": "FR", "text": "a bomb"})["safety_check_flag"] == "Green"

    def test_input_not_mutated(self):
        udf = TweetSafetyCheckJavaUdf()
        udf.initialize("nc0")
        tweet = {"country": "US", "text": "x"}
        udf(tweet)
        assert "safety_check_flag" not in tweet


class TestKeywordSafetyCheck:
    def test_resource_driven_flags(self):
        udf = KeywordSafetyCheckJavaUdf(
            {"keyword_list": lambda: ["1|US|bomb", "2|FR|bombe"]}
        )
        udf.initialize("nc0")
        assert udf({"country": "FR", "text": "une bombe"})["safety_check_flag"] == "Red"
        assert udf({"country": "US", "text": "all quiet"})["safety_check_flag"] == "Green"
        assert udf({"country": "DE", "text": "bomb bombe"})["safety_check_flag"] == "Green"


class TestJavaSqlppTwins:
    """The Java and SQL++ versions of use cases 1-5 agree on results."""

    @pytest.fixture
    def env(self, small_catalog):
        registry = FunctionRegistry(lambda: set(small_catalog))
        resources = {
            "safety_rating": {
                "safety_ratings": lambda: [
                    f"{r['country_code']}|{r['safety_rating']}"
                    for r in small_catalog["SafetyRatings"].scan()
                ]
            },
            "religious_population": {
                "religious_populations": lambda: [
                    f"{r['rid']}|{r['country_name']}|{r['religion_name']}|{r['population']}"
                    for r in small_catalog["ReligiousPopulations"].scan()
                ]
            },
            "largest_religions": {
                "religious_populations": lambda: [
                    f"{r['rid']}|{r['country_name']}|{r['religion_name']}|{r['population']}"
                    for r in small_catalog["ReligiousPopulations"].scan()
                ]
            },
            "fuzzy_suspects": {
                "suspect_names": lambda: [
                    f"{r['sensitiveName']}|{r['religionName']}"
                    for r in small_catalog["SensitiveNamesDataset"].scan()
                ]
            },
            "nearby_monuments": {
                "monuments": lambda: [
                    f"{r['monument_id']}|{r['monument_location'].x}|{r['monument_location'].y}"
                    for r in small_catalog["monumentList"].scan()
                ]
            },
        }
        register_paper_udfs(registry, resources)
        ctx = EvaluationContext(small_catalog, functions=registry)
        return ctx, Evaluator(ctx), registry

    def invoke_both(self, env, sqlpp_fn, java_key, tweet):
        ctx, evaluator, registry = env
        sqlpp_out = evaluator.evaluate_query(
            parse_expression(f"{sqlpp_fn}(t)"), {"t": tweet}
        )[0]
        java_out = registry.invoke_java("udflib", java_key, [tweet], ctx)
        return sqlpp_out, java_out

    def test_safety_rating_twins(self, env, sample_tweet):
        s, j = self.invoke_both(env, "enrichTweetQ1", "safety_rating", sample_tweet)
        assert s["safety_rating"] == j["safety_rating"] == ["3"]

    def test_religious_population_twins(self, env, sample_tweet):
        s, j = self.invoke_both(
            env, "enrichTweetQ2", "religious_population", sample_tweet
        )
        assert s["religious_population"]["sum"] == j["religious_population"]["sum"] == 65

    def test_largest_religions_twins(self, env, sample_tweet):
        s, j = self.invoke_both(
            env, "enrichTweetQ3", "largest_religions", sample_tweet
        )
        assert s["largest_religions"] == j["largest_religions"] == ["B", "C", "A"]

    def test_fuzzy_suspects_twins(self, env, sample_tweet):
        s, j = self.invoke_both(env, "annotateTweetQ4", "fuzzy_suspects", sample_tweet)
        names_s = sorted(x["sensitiveName"] for x in s["related_suspects"])
        names_j = sorted(x["sensitiveName"] for x in j["related_suspects"])
        assert names_s == names_j == ["johnsmith", "johnsmyth"]

    def test_nearby_monuments_twins(self, env, sample_tweet):
        s, j = self.invoke_both(
            env, "enrichTweetQ5", "nearby_monuments", sample_tweet
        )
        assert sorted(s["nearby_monuments"]) == sorted(j["nearby_monuments"])


class TestRegistration:
    def test_register_all_without_resources_skips_resource_udfs(self, small_catalog):
        registry = FunctionRegistry(lambda: set(small_catalog))
        register_paper_udfs(registry)
        for key in SQLPP_FUNCTION_NAMES.values():
            assert registry.has(key)
        assert registry.get_java("testlib", "removeSpecial")
        with pytest.raises(UdfError):
            registry.get_java("udflib", "safety_rating")

    def test_all_sqlpp_udfs_stateful_except_udf1(self, small_catalog):
        registry = FunctionRegistry(lambda: set(small_catalog))
        register_paper_udfs(registry)
        assert not registry.get("USTweetSafetyCheck").stateful
        for key, name in SQLPP_FUNCTION_NAMES.items():
            if key == "us_tweet_safety_check":
                continue
            assert registry.get(name).stateful, name
