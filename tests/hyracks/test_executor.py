"""Executor behaviour: results, routing, cost accounting, placement."""

import pytest

from repro.adm import open_type
from repro.errors import JobSpecificationError
from repro.hyracks import (
    HashPartition,
    JobSpecification,
    LocalJobRunner,
    OneToOne,
    OperatorDescriptor,
    RoundRobin,
)
from repro.hyracks.operators import CallbackSink, DatasetWriteSink, ListSource
from repro.storage import Dataset
from repro.storage.dataset import hash_partition
from tests.hyracks import collect_into

RECORDS = [{"id": i, "country": "US" if i % 3 else "CA"} for i in range(120)]


def build_simple(runner_nodes=3, source_partitions=3):
    spec = JobSpecification("t")
    out = []
    src = spec.add_operator(
        OperatorDescriptor(
            "src", lambda ctx: ListSource(ctx, RECORDS), source_partitions
        )
    )
    sink = spec.add_operator(
        OperatorDescriptor("sink", collect_into(out), 1)
    )
    spec.connect(src, sink, OneToOne())
    return spec, out


def discard(ctx):
    """A sink that keeps nothing (it still charges the hand-off)."""
    return CallbackSink(ctx, lambda _partition, _frame: None)


class TestExecution:
    def test_all_records_delivered(self):
        spec, out = build_simple()
        LocalJobRunner(3).execute(spec)
        assert sorted(r["id"] for r in out) == list(range(120))

    def test_non_source_root_rejected(self):
        spec = JobSpecification("bad")
        spec.add_operator(OperatorDescriptor("x", discard, 1))
        with pytest.raises(JobSpecificationError, match="not a source"):
            LocalJobRunner(1).execute(spec)

    def test_round_robin_balances(self):
        spec = JobSpecification("rr")
        seen = [0, 0, 0, 0]

        def count(partition, frame):
            seen[partition] += len(frame)

        src = spec.add_operator(
            OperatorDescriptor("src", lambda ctx: ListSource(ctx, RECORDS), 1)
        )
        sink = spec.add_operator(
            OperatorDescriptor("sink", lambda ctx: CallbackSink(ctx, count), 4)
        )
        spec.connect(src, sink, RoundRobin())
        LocalJobRunner(4).execute(spec)
        assert seen == [30, 30, 30, 30]


class TestCostAccounting:
    def test_makespan_includes_startup(self):
        spec, _out = build_simple()
        runner = LocalJobRunner(3)
        result = runner.execute(spec)
        assert result.startup_seconds == runner.cost_model.job_startup(3, False)
        assert result.makespan_seconds > result.startup_seconds

    def test_predeployed_startup_cheaper(self):
        spec1, _ = build_simple()
        spec2, _ = build_simple()
        runner = LocalJobRunner(3)
        full = runner.execute(spec1, predeployed=False)
        pre = runner.execute(spec2, predeployed=True)
        assert pre.startup_seconds < full.startup_seconds

    def test_cross_node_transfer_charged(self):
        # single-partition source on node 0 feeding 3 nodes round-robin:
        # node 0 pays transfer for 2/3 of records, and the hand-off of the
        # third its own sink partition receives
        spec = JobSpecification("x")
        src = spec.add_operator(
            OperatorDescriptor("src", lambda ctx: ListSource(ctx, RECORDS), 1)
        )
        sink = spec.add_operator(
            OperatorDescriptor("sink", discard, 3)
        )
        spec.connect(src, sink, RoundRobin())
        runner = LocalJobRunner(3)
        result = runner.execute(spec)
        cost = runner.cost_model
        expected = 80 * cost.transfer_per_record + 40 * cost.move_per_record
        assert result.node_busy_seconds[0] == pytest.approx(expected, rel=0.01)

    def test_per_operator_busy_reported(self):
        spec, _ = build_simple()
        result = LocalJobRunner(3).execute(spec)
        assert "src" in result.per_operator_busy
        assert "sink" in result.per_operator_busy

    def test_explicit_placement_respected(self):
        spec = JobSpecification("p")
        src = spec.add_operator(
            OperatorDescriptor(
                "src",
                lambda ctx: ListSource(ctx, RECORDS, per_record_cost=1e-3),
                partitions=1,
                nodes=[2],
            )
        )
        sink = spec.add_operator(
            OperatorDescriptor("sink", discard, 1, nodes=[2])
        )
        spec.connect(src, sink, OneToOne())
        result = LocalJobRunner(3).execute(spec)
        assert result.node_busy_seconds[2] > 0
        assert result.node_busy_seconds[0] == 0

    def test_num_nodes_validation(self):
        with pytest.raises(ValueError):
            LocalJobRunner(0)


class TestDatasetWrite:
    def test_write_sink_routes_by_primary_key(self):
        ds = Dataset("D", open_type("T", id="int64"), "id", num_partitions=3)
        spec = JobSpecification("w")
        src = spec.add_operator(
            OperatorDescriptor("src", lambda ctx: ListSource(ctx, RECORDS), 3)
        )
        sink = spec.add_operator(
            OperatorDescriptor(
                "store", lambda ctx: DatasetWriteSink(ctx, ds, "insert"), 3
            )
        )
        spec.connect(src, sink, HashPartition(lambda r: r["id"]))
        result = LocalJobRunner(3).execute(spec)
        assert result.records_out == 120
        assert len(ds) == 120
        for pid in range(3):
            for key, _r in ds.partitions[pid].scan():
                assert hash_partition(key, 3) == pid

    def test_write_mode_validated(self):
        ds = Dataset("D", open_type("T", id="int64"), "id")
        from repro.hyracks.job import OperatorContext

        ctx = OperatorContext(0, 1, 0, LocalJobRunner(1))
        with pytest.raises(ValueError):
            DatasetWriteSink(ctx, ds, "replace")
