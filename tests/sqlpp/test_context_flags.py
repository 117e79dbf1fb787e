"""Access-path choice (the ``no-index`` hint), generations, cluster_nodes."""

import pytest

from repro.adm import Point, open_type
from repro.sqlpp import EvaluationContext, Evaluator, parse_expression
from repro.storage import Dataset, IndexKind


@pytest.fixture
def monuments():
    ds = Dataset("monumentList", open_type("T"), "monument_id",
                 num_partitions=2, validate=False)
    for i in range(12):
        ds.insert({"monument_id": f"m{i}", "monument_location": Point(float(i), 0.0)})
    ds.flush_all()
    ds.create_index("loc", "monument_location", IndexKind.RTREE)
    return ds


QUERY = (
    "SELECT VALUE m.monument_id FROM monumentList m "
    "WHERE spatial_intersect(m.monument_location, "
    "create_circle(create_point(t.x, t.y), 1.5))"
)
SCAN_QUERY = QUERY.replace("FROM monumentList m", "FROM monumentList /*+ no-index */ m")


class TestNoIndexHint:
    """The hint chooses a charged scan per query; ``test_access_paths``
    pins its charges, this pins that both paths return the same rows."""

    def test_both_plans_agree_on_results(self, monuments):
        for x in (0.0, 3.3, 11.0, 50.0):
            results = []
            for query in (QUERY, SCAN_QUERY):
                ctx = EvaluationContext({"monumentList": monuments})
                results.append(
                    sorted(
                        Evaluator(ctx).evaluate_query(
                            parse_expression(query), {"t": {"x": x, "y": 0.0}}
                        )
                    )
                )
            assert results[0] == results[1], x


class TestGenerations:
    def test_refresh_starts_a_new_snapshot_set(self, monuments):
        ctx = EvaluationContext({"monumentList": monuments})
        first = ctx.snapshots
        ctx.refresh_batch()
        assert ctx.snapshots is not first
        assert ctx.snapshots.catalog is ctx.catalog

    def test_refresh_clears_all_cache_kinds(self, monuments):
        ctx = EvaluationContext({"monumentList": monuments})
        Evaluator(ctx).evaluate_query(
            parse_expression(SCAN_QUERY), {"t": {"x": 1.0, "y": 0.0}}
        )
        assert ctx.snapshots.pinned and ctx.snapshots.built
        ctx.refresh_batch()
        assert not ctx.snapshots.pinned and not ctx.snapshots.built

    def test_broadcast_uses_cluster_nodes(self, monuments):
        small = EvaluationContext({"monumentList": monuments})
        small.cluster_nodes = 2
        big = EvaluationContext({"monumentList": monuments})
        big.cluster_nodes = 24
        for ctx in (small, big):
            Evaluator(ctx).evaluate_query(
                parse_expression(QUERY), {"t": {"x": 5.0, "y": 0.0}}
            )
        assert big.meter.broadcast_records > small.meter.broadcast_records
