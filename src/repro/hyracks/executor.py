"""The job executor: runs a job specification on a simulated cluster.

Operator logic executes for real, in-process; simulated time is charged to
the node each partition is placed on.  A job's makespan is::

    startup(num_nodes, predeployed) + max over nodes of busy-seconds

which captures the two effects the paper's evaluation revolves around:
per-invocation overhead growing with cluster size, and work shrinking with
parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

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
        spec.validate()

        # Instantiate every operator partition with its context.
        instances: Dict[int, List] = {}
        contexts: Dict[int, List[OperatorContext]] = {}
        for op in spec.operators:
            instances[op.op_id] = []
            contexts[op.op_id] = []
            for p in range(op.partitions):
                ctx = OperatorContext(p, op.partitions, self.node_of(op, p), self)
                contexts[op.op_id].append(ctx)
                instances[op.op_id].append(op.factory(ctx))

        node_busy: Dict[int, float] = {n: 0.0 for n in range(self.num_nodes)}

        def charge_node(node: int, seconds: float) -> None:
            node_busy[node] += seconds

        # Wire each connector between its producer's and consumer's
        # partitions (validate() guarantees one edge per side).
        for conn in spec.connectors:
            runtime = ConnectorRuntime(
                strategy=conn.strategy,
                consumers=instances[conn.consumer.op_id],
                producer_nodes=[
                    self.node_of(conn.producer, p)
                    for p in range(conn.producer.partitions)
                ],
                consumer_nodes=[
                    self.node_of(conn.consumer, p)
                    for p in range(conn.consumer.partitions)
                ],
                charge=charge_node,
                transfer_cost=self.cost_model.transfer_per_record,
            )
            for p, instance in enumerate(instances[conn.producer.op_id]):
                instance.set_output(runtime.writer_for_producer(p))

        # Drive the sources; frames propagate synchronously through the
        # wired writers.
        sources = spec.sources()
        for op in sources:
            for instance in instances[op.op_id]:
                if not isinstance(instance, SourceOperator):
                    raise JobSpecificationError(
                        f"operator {op.name} has no inputs but is not a source"
                    )
        # Open every source before running any, and close every source only
        # after all have run: a connector opens its consumers at the first
        # producer open and closes them at the last close, so each consumer
        # sees one open/close pair.
        for op in sources:
            for instance in instances[op.op_id]:
                instance.open()
        for op in sources:
            for instance in instances[op.op_id]:
                instance.run()
        for op in sources:
            for instance in instances[op.op_id]:
                instance.close()

        # Aggregate busy time per node and per operator.
        per_operator_busy: Dict[str, float] = {}
        records_out = 0
        for op in spec.operators:
            op_busy = 0.0
            for ctx in contexts[op.op_id]:
                node_busy[ctx.node] += ctx.busy_seconds
                op_busy += ctx.busy_seconds
            per_operator_busy[op.name] = op_busy
            for instance in instances[op.op_id]:
                records_out += getattr(instance, "written", 0)

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
