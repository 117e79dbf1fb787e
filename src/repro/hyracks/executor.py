"""The job executor: runs a chain of operators on a simulated cluster.

Each operator's partitions are instantiated, each connector is wired from
one operator's partitions to the next's, and the source's partitions are
opened, run and closed; frames flow down the chain synchronously.
Operator logic executes for real, in-process; simulated time is charged to
the node each partition is placed on.  A job's makespan is::

    startup(num_nodes, predeployed) + max over nodes of busy-seconds

which captures the two effects the paper's evaluation revolves around:
per-invocation overhead growing with cluster size, and work shrinking with
parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..errors import JobSpecificationError
from .connectors import ConnectorRuntime
from .cost import DEFAULT_COST_MODEL, CostModel
from .job import JobSpecification, OperatorContext, OperatorDescriptor, SourceOperator


@dataclass
class JobResult:
    """Outcome of one job execution."""

    job_name: str
    makespan_seconds: float
    node_busy_seconds: Dict[int, float]
    startup_seconds: float
    records_out: int = 0
    per_operator_busy: Dict[str, float] = field(default_factory=dict)

    @property
    def critical_node_seconds(self) -> float:
        return max(self.node_busy_seconds.values()) if self.node_busy_seconds else 0.0


class LocalJobRunner:
    """Executes job specifications against a cluster of ``num_nodes``."""

    def __init__(self, num_nodes: int, cost_model: Optional[CostModel] = None):
        if num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        self.num_nodes = num_nodes
        self.cost_model = cost_model or DEFAULT_COST_MODEL

    # ------------------------------------------------------------------ place

    def node_of(self, op: OperatorDescriptor, partition: int) -> int:
        if op.nodes is not None:
            return op.nodes[partition]
        return partition % self.num_nodes

    # ---------------------------------------------------------------- execute

    def execute(self, spec: JobSpecification, predeployed: bool = False) -> JobResult:
        """Run a job to completion and return its result."""
        # Instantiate every operator partition with its context.
        instances = [
            [
                op.factory(OperatorContext(p, op.partitions, self.node_of(op, p), self))
                for p in range(op.partitions)
            ]
            for op in spec.operators
        ]

        sources = instances[0]
        if not all(isinstance(instance, SourceOperator) for instance in sources):
            raise JobSpecificationError(
                f"operator {spec.operators[0].name} heads the job but is not a source"
            )

        node_busy: Dict[int, float] = {n: 0.0 for n in range(self.num_nodes)}

        def charge_node(node: int, seconds: float) -> None:
            node_busy[node] += seconds

        # Wire stage i's connector from operator i's partitions to i + 1's.
        for i, strategy in enumerate(spec.connectors):
            producer, consumer = spec.operators[i], spec.operators[i + 1]
            runtime = ConnectorRuntime(
                strategy=strategy,
                consumers=instances[i + 1],
                producer_nodes=[
                    self.node_of(producer, p) for p in range(producer.partitions)
                ],
                consumer_nodes=[
                    self.node_of(consumer, p) for p in range(consumer.partitions)
                ],
                charge=charge_node,
                transfer_cost=self.cost_model.transfer_per_record,
            )
            for p, instance in enumerate(instances[i]):
                instance.set_output(runtime.writer_for_producer(p))

        # Drive the source; frames propagate synchronously through the
        # wired writers.  Open every source partition before running any,
        # and close every one only after all have run: a connector opens
        # its consumers at the first producer open and closes them at the
        # last close, so each consumer sees one open/close pair.
        for instance in sources:
            instance.open()
        for instance in sources:
            instance.run()
        for instance in sources:
            instance.close()

        # Aggregate busy time per node and per operator.
        per_operator_busy: Dict[str, float] = {}
        records_out = 0
        for op, op_instances in zip(spec.operators, instances):
            op_busy = 0.0
            for instance in op_instances:
                node_busy[instance.ctx.node] += instance.ctx.busy_seconds
                op_busy += instance.ctx.busy_seconds
                records_out += getattr(instance, "written", 0)
            per_operator_busy[op.name] = op_busy

        startup = self.cost_model.job_startup(self.num_nodes, predeployed)
        makespan = (
            startup
            + max(node_busy.values())
            + self.cost_model.job_teardown(self.num_nodes)
        )
        return JobResult(
            job_name=spec.name,
            makespan_seconds=makespan,
            node_busy_seconds=node_busy,
            startup_seconds=startup,
            records_out=records_out,
            per_operator_busy=per_operator_busy,
        )
