"""Job specifications: the chain and its operator descriptors."""

import pytest

from repro.errors import JobSpecificationError
from repro.hyracks import (
    JobSpecification,
    OneToOne,
    Operator,
    OperatorDescriptor,
    RoundRobin,
)


def op(name, partitions=1, nodes=None):
    return OperatorDescriptor(name, Operator, partitions, nodes)


class TestSpecification:
    def test_stages_chain_in_order(self):
        a, b, c = op("a"), op("b"), op("c")
        one_to_one, round_robin = OneToOne(), RoundRobin()
        spec = JobSpecification("j", a, (one_to_one, b), (round_robin, c))
        assert spec.operators == [a, b, c]
        assert spec.connectors == [one_to_one, round_robin]

    def test_partition_count_validated(self):
        with pytest.raises(JobSpecificationError):
            OperatorDescriptor("x", lambda ctx: None, partitions=0)

    def test_placement_length_validated(self):
        with pytest.raises(JobSpecificationError):
            OperatorDescriptor("x", lambda ctx: None, partitions=2, nodes=[0])
