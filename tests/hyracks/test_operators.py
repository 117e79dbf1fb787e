"""Individual operator behaviour (outside full job runs)."""

import pytest

from repro.hyracks import Frame, JobSpecification, LocalJobRunner, OneToOne, OperatorDescriptor
from repro.hyracks.frame import frames_of
from repro.hyracks.job import OperatorContext
from repro.hyracks.operators import CallbackSink, ListSource, ParseOperator
from tests.hyracks import collect_into


def run_pipeline(records, middle_factory, nodes=2, source_partitions=2):
    spec = JobSpecification("p")
    out = []
    src = spec.add_operator(
        OperatorDescriptor("src", lambda ctx: ListSource(ctx, records), source_partitions)
    )
    mid = spec.add_operator(OperatorDescriptor("mid", middle_factory, source_partitions))
    sink = spec.add_operator(
        OperatorDescriptor("sink", collect_into(out), 1)
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
        out = run_pipeline(records, lambda ctx: ParseOperator(ctx))
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
            OperatorDescriptor("sink", collect_into(out), 1)
        )
        spec.connect(src, sink, OneToOne())
        LocalJobRunner(2).execute(spec)
        assert sorted(r["p"] for r in out) == [0, 1, 11]


class TestSinks:
    def test_callback_sink_reports_partition(self):
        received = []

        def callback(partition, frame):
            received.append((partition, len(frame)))

        spec = JobSpecification("cb")
        src = spec.add_operator(
            OperatorDescriptor(
                "src", lambda c: ListSource(c, [{"i": i} for i in range(10)]), 2
            )
        )
        sink = spec.add_operator(
            OperatorDescriptor("sink", lambda c: CallbackSink(c, callback), 2)
        )
        spec.connect(src, sink, OneToOne())
        LocalJobRunner(2).execute(spec)
        assert sum(count for _p, count in received) == 10
        assert {p for p, _c in received} == {0, 1}
