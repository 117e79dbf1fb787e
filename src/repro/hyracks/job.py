"""Job specifications: a chain of operator descriptors joined by connectors.

A *job* is the unit of work executed on the Hyracks platform; its *job
specification* describes data flow as operators (computation) joined by
connectors (routing) — Section 2.2 of the paper.  Hyracks allows any DAG;
the jobs this system runs (the static feed, the per-batch computing job,
the insert job — Fig. 23, §5.1) are linear, so a specification here is
the chain itself: one source operator, then each stage's connector and
operator, every operator feeding the next.
"""

from __future__ import annotations

from typing import Callable, List, Optional

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


class JobSpecification:
    """A chain: a source descriptor, then ``(connector, descriptor)``
    stages, each routed from the operator before it."""

    def __init__(self, name: str, source: OperatorDescriptor, *stages):
        self.name = name
        self.operators: List[OperatorDescriptor] = [source, *(op for _, op in stages)]
        #: ``connectors[i]`` (a RoutingStrategy) routes operator i into i + 1
        self.connectors = [strategy for strategy, _ in stages]
