"""Job specifications: pipelines of operator and connector descriptors.

A *job* is the unit of work executed on the Hyracks platform; its *job
specification* describes data flow as operators (computation) joined by
connectors (routing) — Section 2.2 of the paper.  Hyracks allows any DAG;
the jobs this system runs (the static feed, the per-batch computing job,
the insert job — Fig. 23, §5.1) are linear, so a specification here is a
set of pipelines: an operator has at most one inbound and one outbound
connector.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..errors import JobSpecificationError
from .frame import Frame, FrameWriter


class OperatorContext:
    """Per-partition runtime context handed to each operator instance."""

    def __init__(self, partition: int, num_partitions: int, node: int, runtime):
        self.partition = partition
        self.num_partitions = num_partitions
        self.node = node
        self.runtime = runtime  # LocalJobRunner running this job
        self.busy_seconds = 0.0

    def charge(self, seconds: float) -> None:
        """Add simulated busy time to this partition's node."""
        self.busy_seconds += seconds

    @property
    def cost(self):
        return self.runtime.cost_model


class Operator(FrameWriter):
    """Base class for per-partition operator instances (push model).

    Subclasses receive frames via :meth:`next_frame` and push produced
    frames to ``self.output``.  Source operators ignore ``next_frame`` and
    generate data in :meth:`run`.
    """

    def __init__(self, ctx: OperatorContext):
        self.ctx = ctx
        self.output: Optional[FrameWriter] = None

    def set_output(self, writer: FrameWriter) -> None:
        self.output = writer

    def emit(self, frame: Frame) -> None:
        if self.output is not None and len(frame):
            self.output.next_frame(frame)

    # Default pass-through lifecycle; subclasses override what they need.
    def open(self) -> None:
        if self.output is not None:
            self.output.open()

    def next_frame(self, frame: Frame) -> None:
        self.emit(frame)

    def close(self) -> None:
        if self.output is not None:
            self.output.close()


class SourceOperator(Operator):
    """An operator with no inputs; the executor calls :meth:`run`."""

    def run(self) -> None:
        raise NotImplementedError


class OperatorDescriptor:
    """Describes one logical operator: a factory plus a partition count."""

    def __init__(
        self,
        name: str,
        factory: Callable[[OperatorContext], Operator],
        partitions: int,
        nodes: Optional[List[int]] = None,
    ):
        if partitions < 1:
            raise JobSpecificationError(f"operator {name}: partitions must be >= 1")
        if nodes is not None and len(nodes) != partitions:
            raise JobSpecificationError(
                f"operator {name}: placement list length must equal partitions"
            )
        self.name = name
        self.factory = factory
        self.partitions = partitions
        self.nodes = nodes  # explicit node placement per partition, or None
        self.op_id: Optional[int] = None  # assigned by JobSpecification


class ConnectorDescriptor:
    """Describes routing between a producer and a consumer operator."""

    def __init__(self, producer: OperatorDescriptor, consumer: OperatorDescriptor, strategy):
        self.producer = producer
        self.consumer = consumer
        self.strategy = strategy  # a connectors.RoutingStrategy


class JobSpecification:
    """Pipelines of operator descriptors wired by connector descriptors."""

    def __init__(self, name: str = "job"):
        self.name = name
        self.operators: List[OperatorDescriptor] = []
        self.connectors: List[ConnectorDescriptor] = []

    def add_operator(self, op: OperatorDescriptor) -> OperatorDescriptor:
        op.op_id = len(self.operators)
        self.operators.append(op)
        return op

    def connect(self, producer: OperatorDescriptor, consumer: OperatorDescriptor, strategy) -> None:
        if producer not in self.operators or consumer not in self.operators:
            raise JobSpecificationError(
                "connect() called with an operator not added to this job"
            )
        self.connectors.append(ConnectorDescriptor(producer, consumer, strategy))

    # ------------------------------------------------------------- validation

    def inbound(self, op: OperatorDescriptor) -> List[ConnectorDescriptor]:
        return [c for c in self.connectors if c.consumer is op]

    def outbound(self, op: OperatorDescriptor) -> List[ConnectorDescriptor]:
        return [c for c in self.connectors if c.producer is op]

    def sources(self) -> List[OperatorDescriptor]:
        return [op for op in self.operators if not self.inbound(op)]

    def validate(self) -> None:
        """Check the shape: linear (one edge in, one edge out), no cycles."""
        if not self.operators:
            raise JobSpecificationError("job has no operators")
        for op in self.operators:
            if len(self.inbound(op)) > 1 or len(self.outbound(op)) > 1:
                raise JobSpecificationError(
                    f"operator {op.name} has more than one inbound or "
                    "outbound connector: jobs are linear pipelines"
                )
        if not self.sources():
            raise JobSpecificationError("job has no source operators (cycle?)")
        # Kahn's algorithm: a ring beside a well-formed pipeline has
        # sources elsewhere and one edge per side, and is caught here.
        self.topological_order()

    def topological_order(self) -> List[OperatorDescriptor]:
        indegree: Dict[int, int] = {op.op_id: 0 for op in self.operators}
        for conn in self.connectors:
            indegree[conn.consumer.op_id] += 1
        ready = [op for op in self.operators if indegree[op.op_id] == 0]
        order: List[OperatorDescriptor] = []
        while ready:
            op = ready.pop(0)
            order.append(op)
            for conn in self.outbound(op):
                indegree[conn.consumer.op_id] -= 1
                if indegree[conn.consumer.op_id] == 0:
                    ready.append(conn.consumer)
        if len(order) != len(self.operators):
            raise JobSpecificationError(f"job {self.name!r} contains a cycle")
        return order
