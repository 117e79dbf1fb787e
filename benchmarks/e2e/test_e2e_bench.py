"""Checks on the benchmark itself; not part of tier-1.

Run explicitly:  PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from steady import SteadyClock  # noqa: E402
from tracer import ROOT, Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def contract():
    return bench_run.load_contract()


def _run(*args):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=REPO, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    return done.returncode, done.stdout.strip().splitlines()


def test_contract_file_shape(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in contract["workloads"]] == list(workloads.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in contract["workloads"])
    e2e = {m["name"]: m for m in contract["end_to_end"]}
    assert set(e2e) == {"records_per_s", "sim_records_per_s", "peak_rss_mb", "setup_s"}
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in e2e.values())
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    layers = [m["name"] for m in contract["per_layer"]]
    assert len(layers) == len(set(layers)) <= 128
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    # every timed call of every workload has its wall-seconds row
    calls = [c.name for calls in workloads.WORKLOADS.values() for c in calls]
    assert {f"ingestion.feed_s.{c}" for c in calls} == {
        n for n in layers if n.startswith("ingestion.feed_s.")
    }


def test_smoke_traced_emits_every_metric(contract, tmp_path):
    out = tmp_path / "smoke.json"
    code, _ = _run("--smoke", "--trace", "1", "--out", str(out))
    assert code == 0
    result = json.loads(out.read_text())
    assert list(result["workloads"]) == list(workloads.WORKLOADS)
    layer_names = {m["name"] for m in contract["per_layer"]}
    for name, row in result["workloads"].items():
        assert row["correct"] and row["failed"] == 0 and row["attempted"] > 0
        for metric in contract["end_to_end"]:
            value = row["end_to_end"][metric["name"]]
            assert value["unit"] == metric["unit"] and value["median"] > 0
        emitted = set(row["report"]) | set(row["layers"])
        other_feeds = {
            f"ingestion.feed_s.{c.name}"
            for other, calls in workloads.WORKLOADS.items() if other != name
            for c in calls
        }
        assert layer_names - other_feeds <= emitted
        assert abs(row["layers"]["trace.self_coverage"] - 1.0) <= 0.01
        assert row["layers"]["trace.overhead_ratio"] > 0
        # the trace export sits beside the benchmark, ignored by git
        for suffix in (".spans.jsonl", ".chrome.json"):
            assert os.path.getsize(os.path.join(HERE, "out", name + suffix)) > 0


def test_single_workload_prints_the_contract_line(contract):
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        code, lines = _run("--workload", "ingest_plain", "--smoke", "--trace", trace)
        assert code == 0
        last = json.loads(lines[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["attempted"] >= 1 and last["failed"] == 0
        assert set(last["metrics"]) == {m["name"] for m in contract[section]}
        assert all(set(v) == {"value", "unit"} for v in last["metrics"].values())


def test_compare_same_file_passes(contract, tmp_path, capsys):
    out = tmp_path / "a.json"
    code, _ = _run("--workload", "ingest_plain", "--smoke", "--out", str(out))
    assert code == 0
    assert bench_run.compare(contract, str(out), str(out)) == 0
    text = capsys.readouterr().out
    assert "FAIL" not in text and text.count("PASS") == len(contract["end_to_end"]) + 1


# -------------------------------------------------------------------- clock


def test_steady_clock_leaves_its_ticks_out_and_restores_the_timer():
    handler = signal.getsignal(signal.SIGALRM)
    clock = SteadyClock(interval=0.01).start()
    try:
        first = clock.now()
        wall_before = clock.wall
        started = time.perf_counter()
        while time.perf_counter() - started < 0.3:
            pass
        second = clock.now()
        elapsed = time.perf_counter() - started
    finally:
        clock.stop()
    assert clock.ticks >= 10
    # the ticks' own seconds are in neither reading
    assert 0 < clock.wall - wall_before < elapsed
    # steady seconds are wall seconds over a slowdown of the order of 1
    assert 0.2 < (second - first) / (clock.wall - wall_before) < 5
    assert signal.getsignal(signal.SIGALRM) == handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_steady_clock_divides_the_slowdown_out(monkeypatch):
    clock = SteadyClock(interval=0.01)
    monkeypatch.setattr(clock, "_sample", lambda: 2.0)
    clock.start()
    try:
        first, wall_before = clock.now(), clock.wall
        started = time.perf_counter()
        while time.perf_counter() - started < 0.1:
            pass
        second = clock.now()
    finally:
        clock.stop()
    assert second - first == pytest.approx((clock.wall - wall_before) / 2.0)


# ------------------------------------------------------------------- tracer


def _patched_bindings():
    """(owner, attribute) pairs the tracer rebinds at class/module level."""
    from repro.adm import parser as adm_parser
    from repro.cluster.controller import ClusterController
    from repro.hyracks.executor import LocalJobRunner
    from repro.hyracks.operators import basic
    from repro.ingestion.adapter import FileAdapter
    from repro.ingestion.fabric import FeedFabric
    from repro.ingestion.udf_operator import UdfEvaluatorOperator
    from repro.runtime.channel import Sequencer
    from repro.runtime.kernel import Runtime
    from repro.storage.lsm import LSMTree
    from repro.udf.registry import FunctionRegistry

    return [
        (adm_parser, "parse_json"), (basic, "parse_json"),
        (Runtime, "run"), (ClusterController, "invoke"),
        (LocalJobRunner, "execute"), (UdfEvaluatorOperator, "next_frame"),
        (Sequencer, "put"), (LSMTree, "flush"), (LSMTree, "merge_all"),
        (FunctionRegistry, "invoke_java"), (FileAdapter, "envelopes"),
        (FeedFabric, "tick"), (FeedFabric, "acquire"),
    ]


@pytest.fixture(scope="module")
def smoke_input(tmp_path_factory):
    directory = tmp_path_factory.mktemp("e2e-input")
    path, _, _ = bench_run.generate_input(
        "scaleout_fleet", 7, workloads.SMOKE_SCALE, str(directory)
    )
    return path


def _bench(smoke_input):
    return workloads.Bench("scaleout_fleet", smoke_input, workloads.SMOKE_SCALE, 7)


def test_untraced_run_leaves_repro_untouched(smoke_input):
    bench = _bench(smoke_input)
    before = [vars(owner)[attr] for owner, attr in _patched_bindings()]
    instance_attrs = [set(vars(d)) for d in bench.datasets()]
    for call in bench.calls:
        bench.run_call(call)
    assert [vars(o)[a] for o, a in _patched_bindings()] == before
    assert [set(vars(d)) for d in bench.datasets()] == instance_attrs


def test_traced_run_nests_sums_and_restores(smoke_input):
    from repro.adm.parser import parse_json

    bench = _bench(smoke_input)
    before = [vars(owner)[attr] for owner, attr in _patched_bindings()]
    instance_attrs = [set(vars(d)) for d in bench.datasets()]
    catalog = bench.system.catalog
    tracer = Tracer()
    tracer.install(
        [catalog[f.dataset] for f in workloads.feeds_of(bench.workload)],
        [catalog[n] for n in bench.reference_names],
    )
    assert vars(_patched_bindings()[1][0])["parse_json"] is not parse_json
    try:
        results = [
            bench.run_call(call, wrap_apply=tracer.wrap_apply, around=tracer.root)
            for call in bench.calls
        ]
    finally:
        tracer.uninstall()

    # every binding is the original object again, nothing left on instances
    after = [vars(owner)[attr] for owner, attr in _patched_bindings()]
    assert all(a is b for a, b in zip(after, before))
    assert after[0] is parse_json and after[1] is parse_json
    assert [set(vars(d)) for d in bench.datasets()] == instance_attrs

    spans = {span["id"]: span for span in tracer.spans}
    roots = [s for s in spans.values() if s["parent"] is None]
    assert [s["name"] for s in roots] == [ROOT] * len(bench.calls)
    assert sorted(s["feed"] for s in roots) == sorted(r.name for r in results)
    for span in spans.values():
        assert span["self_s"] >= -1e-9
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
            assert parent["feed"] == span["feed"]
    totals = tracer.totals()
    assert sum(row["self_s"] for row in totals.values()) == pytest.approx(
        tracer.root_seconds(), rel=0.01
    )
    # the fleet call went through the fabric; the pool call split batches
    for name in ("runtime.run", "cluster.invoke", "hyracks.execute",
                 "sqlpp.udf_eval", "runtime.sequencer", "ingestion.fabric",
                 "adm.parse", "storage.upsert", "storage.ref_read",
                 "ingestion.adapter_read"):
        assert totals[name]["count"] > 0, name
    offered = sum(bench.records_of(f) for f in workloads.feeds_of(bench.workload))
    assert totals["adm.parse"]["count"] == offered
    assert totals["storage.upsert"]["count"] == offered
