"""Failure paths: a failing UDF or adapter must not leak feed state."""

import json

import pytest

from repro import AsterixLite
from repro.adm import open_type
from repro.cluster import Cluster
from repro.errors import FeedFailedError
from repro.ingestion import (
    AttachedFunction,
    DynamicIngestionPipeline,
    FeedDefinition,
    FeedLaunch,
    GeneratorAdapter,
)
from repro.runtime.faults import AdapterFailAt, FaultPlan
from repro.storage import Dataset
from repro.udf import FunctionRegistry


def make_env():
    target = Dataset("T", open_type("TT", id="int64"), "id",
                     num_partitions=2, validate=False)
    catalog = {"T": target}
    registry = FunctionRegistry(lambda: set(catalog))
    registry.register_sqlpp(
        """
        CREATE FUNCTION explodeOnSeven(t) {
            LET x = 1 / (t.id - 7)
            SELECT t.*, x
        }
        """
    )
    return catalog, registry


class ClosingAdapter(GeneratorAdapter):
    """Records whether feed teardown released it."""

    def __init__(self, ids):
        super().__init__([json.dumps({"id": i}) for i in ids])
        self.closed = False

    def close(self):
        self.closed = True


def make_system():
    """Feed F enriches with ``explodeOnSeven``; feed G is plain."""
    system = AsterixLite(num_nodes=2)
    system.execute(
        """
        CREATE TYPE TT AS OPEN { id: int64 };
        CREATE DATASET T(TT) PRIMARY KEY id;
        CREATE DATASET U(TT) PRIMARY KEY id;
        CREATE FUNCTION explodeOnSeven(t) {
            LET x = 1 / (t.id - 7)
            SELECT t.*, x
        };
        CREATE FEED F WITH { "type-name": "TT" };
        CREATE FEED G WITH { "type-name": "TT" };
        CONNECT FEED F TO DATASET T APPLY FUNCTION explodeOnSeven;
        CONNECT FEED G TO DATASET U;
        """
    )
    return system


def assert_released(system, adapters):
    """Nothing of a failed run outlives it: no deployed job, no open adapter."""
    assert system.cluster.controller.deployed_job_ids() == []
    assert all(adapter.closed for adapter in adapters)


def assert_restartable(system, feed):
    """The feed starts again, alone and in a fleet, and stores everything."""
    report = system.start_feed(feed, adapter=ClosingAdapter(range(10, 13)))
    assert report.records_stored == 3
    fleet = system.start_feeds(
        [FeedLaunch(feed=feed, adapter=ClosingAdapter(range(20, 23)))]
    )
    assert fleet[feed].records_stored == 3
    assert system.cluster.controller.deployed_job_ids() == []


class TestFailureCleanup:
    def test_udf_error_propagates(self):
        catalog, registry = make_env()
        cluster = Cluster(2)
        pipeline = DynamicIngestionPipeline(cluster, catalog, registry)
        feed = FeedDefinition(
            "F", "T", batch_size=4,
            functions=[AttachedFunction("explodeOnSeven")],
        )
        raws = [json.dumps({"id": i}) for i in range(10)]
        with pytest.raises(ZeroDivisionError):
            pipeline.run(feed, GeneratorAdapter(raws))

    def test_feed_state_released_after_failure(self):
        """A UDF failure releases the predeployed job and the adapter."""
        system = make_system()
        adapter = ClosingAdapter(range(10))
        with pytest.raises(ZeroDivisionError):
            system.start_feed("F", adapter=adapter, batch_size=4)
        assert_released(system, [adapter])

    def test_feed_restartable_after_failure(self):
        system = make_system()
        with pytest.raises(ZeroDivisionError):
            system.start_feed("F", adapter=ClosingAdapter([7]))
        assert_restartable(system, "F")

    def test_feed_released_after_adapter_death_beyond_restart_budget(self):
        system = make_system()
        adapter = ClosingAdapter(range(20))
        plan = FaultPlan(adapter_failures=(AdapterFailAt(after_records=5),))
        # the default Basic policy has no restart budget
        with pytest.raises(FeedFailedError, match="restart budget"):
            system.start_feed("G", adapter=adapter, batch_size=4, fault_plan=plan)
        assert_released(system, [adapter])
        assert_restartable(system, "G")

    def test_fleet_released_after_abort(self):
        """One tenant's failure aborts the fleet; every tenant is released."""
        system = make_system()
        adapters = [ClosingAdapter(range(10)), ClosingAdapter(range(10))]
        with pytest.raises(ZeroDivisionError):
            system.start_feeds(
                [
                    FeedLaunch(feed="F", adapter=adapters[0], batch_size=4),
                    FeedLaunch(feed="G", adapter=adapters[1], batch_size=4),
                ]
            )
        assert_released(system, adapters)
        assert_restartable(system, "F")
        assert_restartable(system, "G")

    def test_records_before_failure_are_durable(self):
        """Batches committed before the failing batch stay stored."""
        catalog, registry = make_env()
        cluster = Cluster(2)
        pipeline = DynamicIngestionPipeline(cluster, catalog, registry)
        feed = FeedDefinition(
            "F", "T", batch_size=2,
            functions=[AttachedFunction("explodeOnSeven")],
        )
        raws = [json.dumps({"id": i}) for i in range(10)]  # fails in batch 4
        with pytest.raises(ZeroDivisionError):
            pipeline.run(feed, GeneratorAdapter(raws))
        stored = sorted(r["id"] for r in catalog["T"].scan())
        assert stored == [0, 1, 2, 3, 4, 5]  # three committed batches

    def test_malformed_json_fails_batch(self):
        catalog, _registry = make_env()
        cluster = Cluster(2)
        pipeline = DynamicIngestionPipeline(cluster, catalog)
        feed = FeedDefinition("F", "T", batch_size=4)
        from repro.errors import AdmParseError

        raws = [json.dumps({"id": 1}), "{not json"]
        with pytest.raises(AdmParseError):
            pipeline.run(feed, GeneratorAdapter(raws))
