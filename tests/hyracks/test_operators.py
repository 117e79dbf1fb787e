"""Individual operator behaviour (outside full job runs)."""

import pytest

from repro.adm import open_type
from repro.hyracks import Frame, JobSpecification, LocalJobRunner, OneToOne, OperatorDescriptor
from repro.hyracks.frame import frames_of
from repro.hyracks.job import OperatorContext
from repro.hyracks.operators import (
    AssignOperator,
    CallbackSource,
    CollectSink,
    DatasetScanSource,
    FilterOperator,
    LimitOperator,
    ListSource,
    ParseOperator,
)
from repro.storage import Dataset


def run_pipeline(records, middle_factory, nodes=2, source_partitions=2):
    spec = JobSpecification("p")
    out = []
    src = spec.add_operator(
        OperatorDescriptor("src", lambda ctx: ListSource(ctx, records), source_partitions)
    )
    mid = spec.add_operator(OperatorDescriptor("mid", middle_factory, source_partitions))
    sink = spec.add_operator(
        OperatorDescriptor("sink", lambda ctx: CollectSink(ctx, out), 1)
    )
    spec.connect(src, mid, OneToOne())
    spec.connect(mid, sink, OneToOne())
    LocalJobRunner(nodes).execute(spec)
    return out


class TestFrames:
    def test_frames_of_packs(self):
        frames = list(frames_of(({"i": i} for i in range(10)), capacity=4))
        assert [len(f) for f in frames] == [4, 4, 2]

    def test_frames_of_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            list(frames_of([], capacity=0))

    def test_frame_iterates_records(self):
        frame = Frame([{"a": 1}])
        assert list(frame) == [{"a": 1}]
        assert len(frame) == 1


class TestBasicOperators:
    def test_assign_maps(self):
        out = run_pipeline(
            [{"v": i} for i in range(10)],
            lambda ctx: AssignOperator(ctx, lambda r: {"v": r["v"] * 2}),
        )
        assert sorted(r["v"] for r in out) == [i * 2 for i in range(10)]

    def test_assign_can_drop_and_unnest(self):
        def fn(record):
            if record["v"] == 0:
                return None
            return [{"v": record["v"]}, {"v": -record["v"]}]

        out = run_pipeline([{"v": i} for i in range(3)], lambda ctx: AssignOperator(ctx, fn))
        assert sorted(r["v"] for r in out) == [-2, -1, 1, 2]

    def test_filter(self):
        out = run_pipeline(
            [{"v": i} for i in range(10)],
            lambda ctx: FilterOperator(ctx, lambda r: r["v"] % 2 == 0),
        )
        assert sorted(r["v"] for r in out) == [0, 2, 4, 6, 8]

    def test_limit_is_global_across_partitions(self):
        out = run_pipeline(
            [{"v": i} for i in range(100)],
            lambda ctx: LimitOperator(ctx, 7),
            nodes=4,
            source_partitions=4,
        )
        assert len(out) == 7

    def test_parse_operator_envelopes(self):
        out = run_pipeline(
            [{"raw": '{"id": 1, "x": 2}'}, {"raw": '{"id": 2}'}],
            lambda ctx: ParseOperator(ctx),
            source_partitions=1,
        )
        assert sorted(r["id"] for r in out) == [1, 2]

    def test_parse_operator_passthrough_for_parsed(self):
        out = run_pipeline(
            [{"id": 5, "already": "parsed"}],
            lambda ctx: ParseOperator(ctx),
            source_partitions=1,
        )
        assert out == [{"id": 5, "already": "parsed"}]

    def test_parse_operator_coerces_with_datatype(self):
        from repro.adm import DateTime, make_type

        t = make_type("T", {"ts": "datetime"})
        out = run_pipeline(
            [{"raw": '{"ts": "2019-01-01T00:00:00Z"}'}],
            lambda ctx: ParseOperator(ctx, t),
            source_partitions=1,
        )
        assert out[0]["ts"] == DateTime.parse("2019-01-01T00:00:00Z")


class TestSources:
    def test_list_source_partitions_records(self):
        records = [{"i": i} for i in range(10)]
        out = run_pipeline(records, lambda ctx: AssignOperator(ctx, lambda r: r))
        assert sorted(r["i"] for r in out) == list(range(10))

    def test_list_source_explicit_partition_lists(self):
        spec = JobSpecification("x")
        out = []
        lists = [[{"p": 0}], [{"p": 1}, {"p": 11}]]
        src = spec.add_operator(
            OperatorDescriptor(
                "src", lambda ctx: ListSource(ctx, partition_lists=lists), 2
            )
        )
        sink = spec.add_operator(
            OperatorDescriptor("sink", lambda ctx: CollectSink(ctx, out), 1)
        )
        spec.connect(src, sink, OneToOne())
        LocalJobRunner(2).execute(spec)
        assert sorted(r["p"] for r in out) == [0, 1, 11]

    def test_callback_source(self):
        spec = JobSpecification("cb")
        out = []
        src = spec.add_operator(
            OperatorDescriptor(
                "src",
                lambda ctx: CallbackSource(ctx, lambda p: [{"partition": p}]),
                3,
            )
        )
        sink = spec.add_operator(
            OperatorDescriptor("sink", lambda ctx: CollectSink(ctx, out), 1)
        )
        spec.connect(src, sink, OneToOne())
        LocalJobRunner(3).execute(spec)
        assert sorted(r["partition"] for r in out) == [0, 1, 2]

    def test_dataset_scan_source(self):
        ds = Dataset("D", open_type("T", id="int64"), "id", num_partitions=2)
        for i in range(20):
            ds.insert({"id": i})
        spec = JobSpecification("scan")
        out = []
        src = spec.add_operator(
            OperatorDescriptor("scan", lambda ctx: DatasetScanSource(ctx, ds), 2)
        )
        sink = spec.add_operator(
            OperatorDescriptor("sink", lambda ctx: CollectSink(ctx, out), 1)
        )
        spec.connect(src, sink, OneToOne())
        LocalJobRunner(2).execute(spec)
        assert sorted(r["id"] for r in out) == list(range(20))

    def test_dataset_scan_more_partitions_than_storage(self):
        ds = Dataset("D", open_type("T", id="int64"), "id", num_partitions=2)
        for i in range(10):
            ds.insert({"id": i})
        spec = JobSpecification("scan")
        out = []
        src = spec.add_operator(
            OperatorDescriptor("scan", lambda ctx: DatasetScanSource(ctx, ds), 4)
        )
        sink = spec.add_operator(
            OperatorDescriptor("sink", lambda ctx: CollectSink(ctx, out), 1)
        )
        spec.connect(src, sink, OneToOne())
        LocalJobRunner(4).execute(spec)
        assert sorted(r["id"] for r in out) == list(range(10))
