"""The Cluster Controller and parameterized predeployed jobs (paper §5.1).

One node in an AsterixDB cluster runs the Cluster Controller (CC): it takes
user queries, compiles them to Hyracks jobs, starts jobs, and tracks their
progress.  The new ingestion framework adds *parameterized predeployed
jobs*: a job specification is compiled once, distributed to every node, and
later invoked with just a parameter (the collected record batch) — the
analog of prepared queries.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..errors import HyracksError
from ..hyracks.cost import CostModel, DEFAULT_COST_MODEL
from ..hyracks.executor import JobResult, LocalJobRunner
from ..hyracks.job import JobSpecification
from ..hyracks.partition_holder import PartitionHolderManager
from ..runtime import Clock, Runtime
from .node import NodeController


class DeployedJob:
    """A compiled, distributed, parameterized job specification.

    ``spec_builder(params)`` instantiates the cached specification with an
    invocation parameter (e.g. the record batch).  Building the spec object
    is cheap; the expensive compile/distribute cost was paid at deploy time
    and invocations only pay the invoke overhead.
    """

    def __init__(self, job_id: str, spec_builder: Callable[[object], JobSpecification]):
        self.job_id = job_id
        self.spec_builder = spec_builder
        self.invocations = 0


class ClusterController:
    """The CC: job deployment, invocation, and bookkeeping."""

    def __init__(self, nodes: List[NodeController], runner: LocalJobRunner):
        self.nodes = nodes
        self.runner = runner
        self._deployed: Dict[str, DeployedJob] = {}
        self._next_job_id = 0
        self.simulated_deploy_seconds = 0.0
        self.active_runs: List[str] = []
        self.runs_completed = 0
        self.peak_concurrent_runs = 0

    # --------------------------------------------------------- run lifecycle

    def begin_run(self, run_name: str) -> None:
        """Track a feed/pipeline run driven by the cluster's runtime."""
        if run_name in self.active_runs:
            raise HyracksError(f"run {run_name!r} is already active")
        self.active_runs.append(run_name)
        self.peak_concurrent_runs = max(
            self.peak_concurrent_runs, len(self.active_runs)
        )

    def finish_run(self, run_name: str) -> None:
        if run_name in self.active_runs:
            self.active_runs.remove(run_name)
            self.runs_completed += 1

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    # ------------------------------------------------------------ job running

    def run_job(self, spec: JobSpecification) -> JobResult:
        """Compile-and-run: pays full startup (compile + distribute)."""
        return self.runner.execute(spec, predeployed=False)

    # ------------------------------------------------------------- predeploy

    def deploy(
        self, name: str, spec_builder: Callable[[object], JobSpecification]
    ) -> str:
        """Compile a parameterized job and cache it on every node."""
        job_id = f"{name}#{self._next_job_id}"
        self._next_job_id += 1
        self._deployed[job_id] = DeployedJob(job_id, spec_builder)
        for node in self.nodes:
            node.cache_job(job_id)
        cost = self.runner.cost_model
        self.simulated_deploy_seconds += (
            cost.job_compile + cost.job_distribute_per_node * self.num_nodes
        )
        return job_id

    def invoke(self, job_id: str, params: object) -> JobResult:
        """Invoke a predeployed job with a parameter (Fig. 20)."""
        deployed = self._deployed.get(job_id)
        if deployed is None:
            raise HyracksError(f"no predeployed job with id {job_id!r}")
        for node in self.nodes:
            if not node.has_job(job_id):
                raise HyracksError(
                    f"node {node.node_id} has no cached spec for {job_id!r}"
                )
            node.note_invocation(job_id)
        deployed.invocations += 1
        spec = deployed.spec_builder(params)
        return self.runner.execute(spec, predeployed=True)

    def undeploy(self, job_id: str) -> None:
        self._deployed.pop(job_id, None)
        for node in self.nodes:
            node.evict_job(job_id)

    def deployed_job_ids(self) -> List[str]:
        return sorted(self._deployed)


class Cluster:
    """A simulated AsterixDB cluster: one CC co-located with node 0's NC."""

    def __init__(self, num_nodes: int, cost_model: Optional[CostModel] = None):
        if num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        self.num_nodes = num_nodes
        self.cost_model = cost_model or DEFAULT_COST_MODEL
        self.clock = Clock()
        self.nodes = [NodeController(i, is_cc=(i == 0)) for i in range(num_nodes)]
        self.runner = LocalJobRunner(num_nodes, self.cost_model, clock=self.clock)
        self.controller = ClusterController(self.nodes, self.runner)
        self.holder_manager = PartitionHolderManager()

    def new_runtime(self, name: str) -> Runtime:
        """A discrete-event runtime sharing the cluster's clock."""
        return Runtime(clock=self.clock, name=name)

    def __repr__(self):
        return f"<Cluster {self.num_nodes} nodes>"
