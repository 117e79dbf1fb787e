"""Unit tests for sort/group-by helpers and the remaining small operators."""

import pytest

from repro.hyracks import Frame, JobSpecification, LocalJobRunner, OneToOne, OperatorDescriptor
from repro.hyracks.operators import (
    CallbackSink,
    CollectSink,
    ListSource,
    UnionAllOperator,
)
from repro.hyracks.operators.sort_group import Aggregator


class TestAggregators:
    def test_custom_final(self):
        agg = Aggregator("avg", lambda: (0, 0),
                         lambda acc, r: (acc[0] + r["v"], acc[1] + 1),
                         lambda acc: acc[0] / acc[1] if acc[1] else None)
        acc = agg.init()
        for record in [{"v": 2}, {"v": 4}]:
            acc = agg.step(acc, record)
        assert agg.final(acc) == 3


class TestUnionAll:
    def test_merges_two_sources(self):
        spec = JobSpecification("u")
        out = []
        a = spec.add_operator(
            OperatorDescriptor("a", lambda c: ListSource(c, [{"s": "a"}] * 3), 1)
        )
        b = spec.add_operator(
            OperatorDescriptor("b", lambda c: ListSource(c, [{"s": "b"}] * 2), 1)
        )
        union = spec.add_operator(
            OperatorDescriptor("union", lambda c: UnionAllOperator(c), 1)
        )
        sink = spec.add_operator(
            OperatorDescriptor("sink", lambda c: CollectSink(c, out), 1)
        )
        spec.connect(a, union, OneToOne())
        spec.connect(b, union, OneToOne())
        spec.connect(union, sink, OneToOne())
        LocalJobRunner(1).execute(spec)
        assert sorted(r["s"] for r in out) == ["a", "a", "a", "b", "b"]


class TestCallbackSink:
    def test_reports_partition(self):
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
