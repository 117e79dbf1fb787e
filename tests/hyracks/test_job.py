"""Job specification validation and topology."""

import pytest

from repro.errors import JobSpecificationError
from repro.hyracks import (
    JobSpecification,
    OneToOne,
    Operator,
    OperatorDescriptor,
    SourceOperator,
)


def op(name, partitions=1, nodes=None):
    return OperatorDescriptor(name, Operator, partitions, nodes)


class TestSpecification:
    def test_operator_ids_assigned(self):
        spec = JobSpecification()
        a = spec.add_operator(op("a"))
        b = spec.add_operator(op("b"))
        assert (a.op_id, b.op_id) == (0, 1)

    def test_connect_requires_added_operators(self):
        spec = JobSpecification()
        a = spec.add_operator(op("a"))
        stray = op("stray")
        with pytest.raises(JobSpecificationError):
            spec.connect(a, stray, OneToOne())

    def test_empty_job_invalid(self):
        with pytest.raises(JobSpecificationError, match="no operators"):
            JobSpecification().validate()

    def test_cycle_detected(self):
        spec = JobSpecification()
        a = spec.add_operator(op("a"))
        b = spec.add_operator(op("b"))
        spec.connect(a, b, OneToOne())
        spec.connect(b, a, OneToOne())
        with pytest.raises(JobSpecificationError):
            spec.validate()

    def test_self_loop_detected(self):
        spec = JobSpecification()
        a = spec.add_operator(op("a"))
        b = spec.add_operator(op("b"))
        spec.connect(a, b, OneToOne())
        spec.connect(b, b, OneToOne())
        with pytest.raises(JobSpecificationError):
            spec.validate()

    def test_topological_order(self):
        spec = JobSpecification()
        a = spec.add_operator(op("a"))
        b = spec.add_operator(op("b"))
        c = spec.add_operator(op("c"))
        spec.connect(a, b, OneToOne())
        spec.connect(b, c, OneToOne())
        assert [x.name for x in spec.topological_order()] == ["a", "b", "c"]

    def test_sources_identified(self):
        spec = JobSpecification()
        a = spec.add_operator(op("a"))
        b = spec.add_operator(op("b"))
        spec.connect(a, b, OneToOne())
        assert [s.name for s in spec.sources()] == ["a"]

    def test_partition_count_validated(self):
        with pytest.raises(JobSpecificationError):
            OperatorDescriptor("x", lambda ctx: None, partitions=0)

    def test_placement_length_validated(self):
        with pytest.raises(JobSpecificationError):
            OperatorDescriptor("x", lambda ctx: None, partitions=2, nodes=[0])

    def test_inbound_outbound(self):
        spec = JobSpecification()
        a = spec.add_operator(op("a"))
        b = spec.add_operator(op("b"))
        spec.connect(a, b, OneToOne())
        assert len(spec.outbound(a)) == 1
        assert len(spec.inbound(b)) == 1
        assert spec.inbound(a) == []

    def test_two_inbound_edges_rejected(self):
        spec = JobSpecification()
        a = spec.add_operator(op("a"))
        b = spec.add_operator(op("b"))
        merged = spec.add_operator(op("merged"))
        spec.connect(a, merged, OneToOne())
        spec.connect(b, merged, OneToOne())
        with pytest.raises(JobSpecificationError, match="linear"):
            spec.validate()

    def test_two_outbound_edges_rejected(self):
        spec = JobSpecification()
        a = spec.add_operator(op("a"))
        left = spec.add_operator(op("left"))
        right = spec.add_operator(op("right"))
        spec.connect(a, left, OneToOne())
        spec.connect(a, right, OneToOne())
        with pytest.raises(JobSpecificationError, match="linear"):
            spec.validate()

    def test_ring_beside_a_pipeline_detected(self):
        spec = JobSpecification()
        a = spec.add_operator(op("a"))
        b = spec.add_operator(op("b"))
        x = spec.add_operator(op("x"))
        y = spec.add_operator(op("y"))
        spec.connect(a, b, OneToOne())
        spec.connect(x, y, OneToOne())
        spec.connect(y, x, OneToOne())
        with pytest.raises(JobSpecificationError, match="cycle"):
            spec.validate()
