"""Cluster controller: deploy, invoke, undeploy, errors."""

import pytest

from repro.cluster import Cluster
from repro.errors import HyracksError
from repro.hyracks import JobSpecification, OneToOne, OperatorDescriptor
from repro.hyracks.operators import ListSource
from tests.hyracks import collect_into


def make_builder(out):
    def builder(params):
        spec = JobSpecification("param-job")
        src = spec.add_operator(
            OperatorDescriptor("src", lambda ctx: ListSource(ctx, params), 2)
        )
        sink = spec.add_operator(
            OperatorDescriptor("sink", collect_into(out), 1)
        )
        spec.connect(src, sink, OneToOne())
        return spec

    return builder


class TestPredeploy:
    def test_invoke_runs_with_parameter(self):
        cluster = Cluster(2)
        out = []
        job_id = cluster.controller.deploy("j", make_builder(out))
        cluster.controller.invoke(job_id, [{"v": 1}, {"v": 2}])
        assert sorted(r["v"] for r in out) == [1, 2]

    def test_invoke_uses_predeployed_startup(self):
        cluster = Cluster(3)
        out = []
        job_id = cluster.controller.deploy("j", make_builder(out))
        result = cluster.controller.invoke(job_id, [{"v": 1}])
        assert result.startup_seconds == cluster.cost_model.job_startup(3, True)

    def test_invoke_unknown_job_raises(self):
        cluster = Cluster(1)
        with pytest.raises(HyracksError, match="no predeployed job"):
            cluster.controller.invoke("nope#0", [])

    def test_undeploy_evicts(self):
        cluster = Cluster(2)
        job_id = cluster.controller.deploy("j", make_builder([]))
        cluster.controller.undeploy(job_id)
        assert cluster.controller.deployed_job_ids() == []
        with pytest.raises(HyracksError):
            cluster.controller.invoke(job_id, [])

    def test_job_ids_unique(self):
        cluster = Cluster(1)
        a = cluster.controller.deploy("j", make_builder([]))
        b = cluster.controller.deploy("j", make_builder([]))
        assert a != b
        assert cluster.controller.deployed_job_ids() == sorted([a, b])


class TestCluster:
    def test_size_validation(self):
        with pytest.raises(ValueError):
            Cluster(0)

    def test_run_job_full_startup(self):
        cluster = Cluster(2)
        out = []
        result = cluster.controller.run_job(make_builder(out)([{"v": 9}]))
        assert out == [{"v": 9}]
        assert result.startup_seconds == cluster.cost_model.job_startup(2, False)
