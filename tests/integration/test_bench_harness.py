"""The benchmark harness itself (small configurations)."""

from dataclasses import asdict

import pytest

from repro.bench import (
    BATCH_SIZES,
    SIMPLE_CASES,
    USE_CASES,
    ExperimentHarness,
    format_table,
    scaled_batch_sizes,
)
from repro.ingestion.feed import ComputingModel, Framework


@pytest.fixture(scope="module")
def harness():
    return ExperimentHarness(reference_scale=0.002, num_partitions=4)


class TestHarness:
    def test_no_udf_run(self, harness):
        report = harness.run_enrichment(None, tweets=200, num_nodes=4)
        assert report.records_stored == 200
        assert report.throughput > 0

    @pytest.mark.parametrize("case", SIMPLE_CASES)
    def test_every_simple_case_runs_sqlpp(self, harness, case):
        report = harness.run_enrichment(case, tweets=60, num_nodes=4,
                                        batch_size=30)
        assert report.records_stored == 60
        assert report.num_computing_jobs == 2

    @pytest.mark.parametrize(
        "case", ["suspicious_names", "tweet_context", "worrisome_tweets",
                 "naive_nearby_monuments"]
    )
    def test_every_complex_case_runs(self, harness, case):
        report = harness.run_enrichment(case, tweets=30, num_nodes=4)
        assert report.records_stored == 30

    def test_java_language_runs(self, harness):
        report = harness.run_enrichment(
            "safety_rating", tweets=50, num_nodes=4, language="java"
        )
        assert report.records_stored == 50

    def test_java_without_twin_rejected(self, harness):
        with pytest.raises(ValueError, match="no Java implementation"):
            harness.run_enrichment(
                "tweet_context", tweets=10, num_nodes=2, language="java"
            )

    def test_static_framework(self, harness):
        report = harness.run_enrichment(
            "safety_rating", tweets=50, num_nodes=4, language="java",
            framework=Framework.STATIC,
        )
        assert report.framework == "static"

    def test_update_rate_applies_updates(self, harness):
        report = harness.run_enrichment(
            "safety_rating", tweets=400, num_nodes=4, batch_size=40,
            update_rate=50.0,
        )
        assert report.extra["updates_applied"] > 0

    def test_a_run_is_a_function_of_its_arguments(self, harness):
        """The same call gives the same report whatever ran before it on
        this harness — here a run whose update client upserts into the
        reference dataset both calls read."""
        def run(**overrides):
            return harness.run_enrichment(
                "nearby_monuments", tweets=120, num_nodes=4, batch_size=30,
                **overrides,
            )

        first = run()
        assert run(update_rate=400.0).extra["updates_applied"] > 0
        third = run()
        assert third.throughput == first.throughput
        assert third.records_stored == first.records_stored == 120
        assert asdict(third.counters) == asdict(first.counters)

    def test_reference_work_scale_propagates(self, harness):
        report_small = harness.run_enrichment(
            "safety_rating", tweets=100, num_nodes=4, batch_size=50
        )
        big = ExperimentHarness(reference_scale=0.004, num_partitions=4)
        report_big = big.run_enrichment(
            "safety_rating", tweets=100, num_nodes=4, batch_size=50
        )
        # both charge work as if at paper scale: refresh periods comparable
        ratio = report_big.refresh_period / report_small.refresh_period
        assert 0.5 < ratio < 2.0


class TestHelpers:
    def test_batch_size_constants(self):
        assert BATCH_SIZES == {"1X": 420, "4X": 1680, "16X": 6720}

    def test_scaled_batch_sizes_ratios(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_BATCH_SCALE", "0.1")
        sizes = scaled_batch_sizes()
        assert sizes == {"1X": 42, "4X": 168, "16X": 672}

    def test_use_case_registry_complete(self):
        assert len(USE_CASES) == 9
        for case in USE_CASES.values():
            assert case.sqlpp_function
            assert case.datasets

    def test_format_table_alignment(self):
        table = format_table("T", ["a", "bb"], [[1, 2.5], [10, 333.0]])
        lines = table.splitlines()
        assert lines[0] == "T"
        assert len({len(line) for line in lines[1:]}) == 1  # aligned
