"""The Cluster Controller and parameterized predeployed jobs (paper §5.1).

One node in an AsterixDB cluster runs the Cluster Controller (CC): it takes
user queries, compiles them to Hyracks jobs, starts jobs, and tracks their
progress.  The new ingestion framework adds *parameterized predeployed
jobs*: a job specification is compiled once, distributed to every node, and
later invoked with just a parameter (the collected record batch) — the
analog of prepared queries.

Predeployment is modelled by its cost — an invocation pays
``job_startup(n, predeployed=True)`` where a fresh job pays the compile
and the per-node distribution — and by one table, the controller's
``_deployed``, from job id to spec builder.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..errors import HyracksError
from ..hyracks.cost import CostModel, DEFAULT_COST_MODEL
from ..hyracks.executor import JobResult, LocalJobRunner
from ..hyracks.job import JobSpecification
from ..runtime import Clock, Runtime


class ClusterController:
    """The CC: compile-and-run jobs, and the predeployed-job table."""

    def __init__(self, runner: LocalJobRunner):
        self.runner = runner
        #: job id -> ``spec_builder(params)``, which instantiates the
        #: deployed specification with an invocation parameter (the batch)
        self._deployed: Dict[str, Callable[[object], JobSpecification]] = {}
        self._next_job_id = 0

    def run_job(self, spec: JobSpecification) -> JobResult:
        """Compile-and-run: pays full startup (compile + distribute)."""
        return self.runner.execute(spec, predeployed=False)

    def deploy(
        self, name: str, spec_builder: Callable[[object], JobSpecification]
    ) -> str:
        """Compile a parameterized job once; returns its job id."""
        job_id = f"{name}#{self._next_job_id}"
        self._next_job_id += 1
        self._deployed[job_id] = spec_builder
        return job_id

    def invoke(self, job_id: str, params: object) -> JobResult:
        """Invoke a predeployed job with a parameter (Fig. 20)."""
        spec_builder = self._deployed.get(job_id)
        if spec_builder is None:
            raise HyracksError(f"no predeployed job with id {job_id!r}")
        return self.runner.execute(spec_builder(params), predeployed=True)

    def undeploy(self, job_id: str) -> None:
        self._deployed.pop(job_id, None)

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
        self.runner = LocalJobRunner(num_nodes, self.cost_model)
        self.controller = ClusterController(self.runner)

    def new_runtime(self, name: str) -> Runtime:
        """A discrete-event runtime sharing the cluster's clock."""
        return Runtime(clock=self.clock, name=name)

    def __repr__(self):
        return f"<Cluster {self.num_nodes} nodes>"
