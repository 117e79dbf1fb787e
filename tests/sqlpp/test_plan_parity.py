"""Planned vs. interpreted parity over the nine paper UDFs.

The plan layer is a pure wall-clock optimization: for every UDF, every
enriched record AND every WorkMeter counter (on all three meters) must be
identical between ``use_plans=True`` and ``use_plans=False``, record by
record and through the batch kernel, across a batch boundary
(``test_sqlpp_paths.differential``).
"""

import pytest

from tests.properties.test_sqlpp_paths import (
    PAPER_UDFS,
    differential,
    paper_generations,
)


@pytest.mark.parametrize("fn_name", PAPER_UDFS)
def test_planned_matches_interpreted(small_catalog, registry, sample_tweet, fn_name):
    generations = paper_generations(sample_tweet)
    differential(lambda: small_catalog, registry, fn_name, generations)
