"""No function-level ``import`` on the per-record paths.

An ``import`` statement inside a function re-enters the import machinery on
every call (a ``sys.modules`` lookup plus, for ``from .. import``, the
package-resolution helpers): on a per-record function that was the largest
single row of the plain-feed profile.  The hot packages import at module
level; a deliberate exception goes in ``ALLOWED`` with its reason.

Also the package boundary: ``benchmarks/`` imports ``repro``, never the
reverse, ``repro/bench`` holds only what ``src/`` callers import, and every
name a package exports exists; and the cyclic collector's state has one
owner, the feed run.
"""

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

CHECKED = sorted(
    path
    for package in ("adm", "storage", "hyracks", "runtime", "ingestion")
    for path in (SRC / package).rglob("*.py")
) + [
    SRC / "sqlpp" / f"{name}.py"
    for name in ("plans", "columnar", "evaluator", "functions")
]

#: ``"<path relative to src/repro>::<function>"`` -> why the import stays local
ALLOWED: dict = {}


def function_level_imports(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for function in ast.walk(tree):
        if not isinstance(
            function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        name = getattr(function, "name", "<lambda>")
        for node in ast.walk(function):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield f"{path.relative_to(SRC).as_posix()}::{name}", node.lineno


def test_checked_files_exist():
    assert len(CHECKED) > 30
    assert all(path.is_file() for path in CHECKED)


def test_no_function_level_imports_on_hot_paths():
    offenders = sorted(
        f"{where} (line {line})"
        for path in CHECKED
        for where, line in function_level_imports(path)
        if where not in ALLOWED
    )
    assert not offenders, "function-level imports:\n  " + "\n  ".join(offenders)


def test_allow_list_has_no_stale_entries():
    found = {where for path in CHECKED for where, _ in function_level_imports(path)}
    assert set(ALLOWED) <= found


#: what moves objects between the collector's generations or changes when
#: it runs; a feed run owns that state (``drive_runs``), nothing else does
COLLECTOR_STATE = {"freeze", "unfreeze", "disable", "enable", "set_threshold"}


def test_one_owner_for_the_collectors_state():
    users = []
    for path in sorted(SRC.rglob("*.py")):
        where = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "gc":
                names = {alias.name for alias in node.names}
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "gc"
            ):
                names = {node.attr}
            else:
                continue
            if names & COLLECTOR_STATE or "*" in names:
                users.append(where)
    assert set(users) == {"ingestion/pipelines.py"}, users


def test_src_never_imports_from_benchmarks():
    """The dependency arrow points one way: ``benchmarks -> repro``."""
    benchmark_modules = {"benchmarks", "suites", "bench_all"}
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] in benchmark_modules for name in names):
                offenders.append(f"{path.relative_to(SRC).as_posix()}:{node.lineno}")
    assert not offenders


def test_repro_bench_holds_only_what_src_callers_import():
    """A suite is a scenario under ``benchmarks/suites``, not a module here."""
    modules = sorted(path.stem for path in (SRC / "bench").glob("*.py"))
    assert modules == ["__init__", "harness", "reporting", "wallclock"]


def test_sqlpp_takes_only_the_work_meter_from_hyracks():
    """A query has one executor, in ``repro.sqlpp``; Hyracks is the feed's
    job substrate and the query engine builds no jobs on it."""
    assert not (SRC / "sqlpp" / "compiler.py").exists()
    imported = set()
    for path in sorted((SRC / "sqlpp").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported |= {a.name for a in node.names if "hyracks" in a.name}
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                imported |= {
                    f"{module}.{a.name}".lstrip(".")
                    for a in node.names
                    if "hyracks" in f"{module}.{a.name}"
                }
    assert imported == {"hyracks.cost.WorkMeter"}


def test_every_exported_name_resolves():
    """Each name in a package's ``__all__`` is an attribute of that package."""
    stale = []
    for init in sorted(SRC.rglob("__init__.py")):
        parts = ("repro", *init.parent.relative_to(SRC).parts)
        package = importlib.import_module(".".join(parts))
        stale += [
            f"{package.__name__}.{name}"
            for name in getattr(package, "__all__", ())
            if not hasattr(package, name)
        ]
    assert not stale


def test_state_lives_on_the_thing_whose_lifetime_it_has():
    """A feed owns its caches (``FunctionRegistry.caches_for``), a run its
    columnar counters (``RunCounters``), a figure run its catalog: the
    shared slots they used to sit in do not come back."""
    from repro.bench import ExperimentHarness
    from repro.sqlpp.plans import PlanCache
    from repro.udf.registry import FunctionRegistry

    registry = FunctionRegistry()
    for name in ("state_cache", "enrichment_memo", "adopt_cache", "release_cache"):
        assert not hasattr(registry, name), name
    plan_cache = PlanCache()
    for name in ("vectorized_batches", "vectorized_records", "scalar_fallbacks"):
        assert not hasattr(plan_cache, name), name
        assert name not in plan_cache.stats()
    harness = ExperimentHarness(reference_scale=0.002, num_partitions=2)
    assert not hasattr(harness, "_catalog_cache")


def test_a_feed_run_is_recorded_once():
    """A run's facts each have one owner — the facade's running flag, the
    controller's deployment table, the run's ``RunCounters`` — so the
    registries that copied them do not come back."""
    import repro.cluster
    import repro.hyracks
    import repro.ingestion
    from repro.cluster import Cluster, ClusterController

    gone = {
        repro.hyracks: ("ActivePartitionHolder", "PartitionHolderManager"),
        repro.ingestion: ("ActiveFeedManager",),
        repro.cluster: ("NodeController", "DeployedJob"),
        Cluster(2): ("holder_manager", "nodes"),
        ClusterController: ("begin_run",),
    }
    for owner, names in gone.items():
        for name in names:
            assert not hasattr(owner, name), name
    assert not (SRC / "cluster" / "node.py").exists()


def test_a_frame_has_one_udf_path():
    """A feed's function chain is one batch invoker and a failing record
    re-runs as a batch of one: the second invoker, the two frame paths
    and the counts nothing read do not come back."""
    import inspect

    import repro.ingestion.udf_operator as udf_operator
    from repro.hyracks.job import OperatorContext

    assert not hasattr(udf_operator, "make_batch_invoker")
    operator_class = udf_operator.UdfEvaluatorOperator
    operator = operator_class(OperatorContext(0, 1, 0, None), None, None, None, None)
    for name in ("_batch_frame", "_scalar_frame", "batch_invoker", "records_in", "records_out"):
        assert not hasattr(operator, name), name
    soft_errors = inspect.signature(operator_class).parameters["soft_errors"]
    assert soft_errors.default is inspect.Parameter.empty


def test_a_feed_setting_is_one_a_workload_varies():
    """The client-side rate limiter only unset policy knobs reached, and
    the knobs and definition fields no workload sets, do not come back."""
    import pytest

    import repro.ingestion
    import repro.ingestion.external as external
    from repro.ingestion import FeedDefinition, FeedPolicy
    from repro.runtime import ExternalMetrics

    assert not hasattr(repro.ingestion, "TokenBucket")
    assert not hasattr(external, "TokenBucket")
    assert "rate_limit_wait_seconds" not in ExternalMetrics().as_dict()
    for knob in (
        "adapter_idle_timeout_seconds", "adapter_idle_poll_seconds",
        "backoff_initial_seconds", "external_concurrency",
        "external_chunk_size", "external_rate_limit_per_second",
        "external_rate_limit_burst",
    ):
        with pytest.raises(TypeError):
            FeedPolicy(**{knob: 1})
    for field in ("write_mode", "storage_queue_capacity"):
        with pytest.raises(TypeError):
            FeedDefinition("F", "T", **{field: 1})


def test_reference_state_has_one_owner():
    """What a batch reads of its reference data, and what it built from
    that, has one owner: the generation's ``SnapshotSet``.  The batch
    cache, its other spellings of the LSN proof, the interpreter's copies
    of the plan analysis and the write and run counters nothing read do
    not come back."""
    import inspect
    import re

    from repro.adm import open_type
    from repro.hyracks.executor import LocalJobRunner
    from repro.runtime.kernel import Signal
    from repro.sqlpp import EvaluationContext, Evaluator
    from repro.storage import Dataset
    from repro.udf.registry import FunctionRegistry

    gone = re.compile(
        r"\b(batch_cache|dataset_version_key|_pin|_pinned_version_key"
        r"|_reuse_cached_state|_install_built_state|_install_snapshot_state"
        r"|sim_started_at|sim_finished_at)\b"
    )
    offenders = [
        f"{path.relative_to(SRC).as_posix()}: {match.group(0)}"
        for path in sorted(SRC.rglob("*.py"))
        for match in gone.finditer(path.read_text())
    ]
    assert not offenders, offenders
    ctx = EvaluationContext({})
    assert not hasattr(ctx, "generation")
    for name in ("_order_terms", "_has_top_level_aggregate", "_find_access_path"):
        assert not hasattr(Evaluator, name), name
    assert not hasattr(FunctionRegistry, "java_instance")
    assert not hasattr(Dataset("D", open_type("T"), "id"), "version")
    assert not hasattr(Signal(None, "s"), "notifications")
    assert "clock" not in inspect.signature(LocalJobRunner).parameters

    # a snapshot's LSNs are read in one place above storage: the proof
    readers = []
    for path in sorted(SRC.rglob("*.py")):
        if path.parent.name == "storage":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for function in ast.walk(tree):
            if isinstance(function, ast.FunctionDef):
                readers += [
                    f"{path.relative_to(SRC).as_posix()}::{function.name}"
                    for node in ast.walk(function)
                    if isinstance(node, ast.Attribute) and node.attr == "lsns"
                ]
    assert readers == ["sqlpp/evaluator.py::version"], readers


def test_shaped_probe_rows_have_one_holder():
    """A key's shaped rows live in the probe kernel's store alone and
    come out of one probe pass; the memo books them.  The memoized second
    pass and the context's index switch (the ``no-index`` hint chooses
    per query) do not come back."""
    import inspect

    from repro.sqlpp import EvaluationContext

    columnar = (SRC / "sqlpp" / "columnar.py").read_text()
    assert "run_memoized" not in columnar
    assert "allow_index" not in inspect.signature(EvaluationContext).parameters
    offenders = [
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        if "allow_index" in path.read_text()
    ]
    assert not offenders, offenders


def test_probe_shaping_has_one_compiler():
    """A probe key's rows come from the planned SELECT's own output stage:
    the kernel's second, partial compiler of projections, groups and sorts
    and the row-variable mode of ``compile_expr`` that fed it do not come
    back."""
    import re

    gone = re.compile(
        r"\b(row_var|compile_match_expr|_compile_row_shape|_compile_group_shape)\b"
    )
    offenders = [
        f"{path.relative_to(SRC).as_posix()}: {match.group(0)}"
        for path in sorted(SRC.rglob("*.py"))
        for match in gone.finditer(path.read_text())
    ]
    assert not offenders, offenders


def test_one_rtree_search():
    """R-tree entries are flat ``(x1, y1, x2, y2, ref)`` tuples the writes
    keep current, and one walk reads them for a query: no second search
    over a rebuilt copy, and no cumulative node counter: a search reports
    its own count through ``visits``.  The
    other function that tests entries for overlap is delete's lookup of
    the posting it removes."""

    def overlap_test(node):  # ``a > b or c < d or e > f or g < h``
        return (
            isinstance(node, ast.BoolOp)
            and isinstance(node.op, ast.Or)
            and [
                type(value.ops[0]) if isinstance(value, ast.Compare) else None
                for value in node.values
            ]
            == [ast.Gt, ast.Lt, ast.Gt, ast.Lt]
        )

    walks = []
    counter_readers = []
    for path in sorted(SRC.rglob("*.py")):
        where = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            nodes = list(ast.walk(function))
            if any(map(overlap_test, nodes)) and any(
                isinstance(n, ast.Attribute) and n.attr == "entries" for n in nodes
            ):
                walks.append(f"{where}::{function.name}")
        counter_readers += [
            f"{where}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr == "nodes_visited"
        ]
    assert walks == ["storage/rtree.py::_find_leaf_entry", "storage/rtree.py::search"]
    assert not counter_readers
    index = importlib.import_module("repro.storage.index")
    assert not hasattr(index.SecondaryIndex, "nodes_visited")
    rtree = importlib.import_module("repro.storage.rtree").RTree()
    assert not hasattr(rtree, "nodes_visited") and not hasattr(rtree, "probes")


def test_one_planned_tuple_loop():
    """The planned engine binds FROM-term candidates in one loop,
    ``Evaluator._planned_tuples``: a single-term spatial block's leading
    conjunct is tested in the term's access step, under ``Hoisting``'s
    bail-out rule, so no second tuple generator, no per-term kernel slot
    and no second charge-safety walker come back."""
    evaluator = importlib.import_module("repro.sqlpp.evaluator")
    plans = importlib.import_module("repro.sqlpp.plans")
    for gone in ("_spatial_filter_join", "_window_filter"):
        assert not hasattr(evaluator.Evaluator, gone), gone
    assert "filter_join" not in plans.TermPlan.__slots__
    for gone in ("_charge_free_calls", "SpatialFilterJoin"):
        assert not hasattr(plans, gone), gone


def test_a_run_records_its_facts_once():
    """A run's and a fleet's facts each land once, as events in their
    stream; the time series and counters that were kept by hand beside
    them are views of it now, and do not come back."""
    import re
    from dataclasses import fields

    import repro.runtime
    from repro.ingestion import (
        CircuitBreaker,
        EnrichmentCoordinator,
        ExternalEnricher,
        FeedFabric,
        FeedPolicy,
        MemoryGovernor,
    )
    from repro.ingestion.fabric import _WorkerTenant
    from repro.runtime import ExternalMetrics, RunCounters, Runtime, Supervisor

    pipelines = (SRC / "ingestion" / "pipelines.py").read_text()
    kept = re.compile(
        r"self\.(batch_latencies|pool_timeline|computing_total|worker_busy"
        r"|first_busy|last_busy)\b|num_computing_jobs \+=|batch_stats\.append"
        r"|scale_(ups|downs) \+=|peak_computing_workers = max\(\s*counters"
    )
    assert not kept.findall(pipelines)
    counters = {counter.name for counter in fields(RunCounters)}
    assert not counters & {"lease_timeline", "governor_grants"}
    assert not set(_WorkerTenant.__slots__) & {
        "timeline", "peak_held", "leases_acquired", "leases_returned",
        "recalls_received",
    }
    fabric = FeedFabric(total_workers=1, memory_bytes=4096)
    for name in ("leases_granted", "recalls_issued", "peak_total_held",
                 "governor_grants_for"):
        assert not hasattr(fabric, name), name
    for name in ("grants", "grants_for"):
        assert not hasattr(MemoryGovernor(1), name), name
    assert not hasattr(CircuitBreaker(1), "transitions")
    coordinator = EnrichmentCoordinator([], FeedPolicy.spill())
    assert not hasattr(coordinator, "breaker_transitions")
    # a tick refreshes the feed's bid; only a grow request recalls
    fabric_source = (SRC / "ingestion" / "fabric.py").read_text()
    tick = next(
        node
        for node in ast.walk(ast.parse(fabric_source))
        if isinstance(node, ast.FunctionDef) and node.name == "tick"
    )
    assert "_issue_recall" not in ast.unparse(tick)
    # a crash, a restart and an external call are one event each: the
    # supervisor's, the enricher's and the coordinator's own tallies are
    # gone, and the counters that became views are never added to in place
    assert not hasattr(repro.runtime, "SupervisedStats")
    supervisor = Supervisor(Runtime())
    for name in ("stats", "total_crashes", "total_restarts",
                 "total_backoff_seconds"):
        assert not hasattr(supervisor, name), name
    assert not hasattr(ExternalEnricher("geo"), "call_log")
    assert not hasattr(coordinator, "metrics")
    # a split and a rebalance are events too; the kernel keeps no fault
    # tally beside its processes' own
    assert not hasattr(MemoryGovernor(1), "rebalances")
    for name in ("injected_crashes", "injected_stall_seconds"):
        assert not hasattr(Runtime(), name), name
    views = {
        "restarts", "backoff_seconds", "adapter_crashes", "adapter_reopens",
        "idle_timeouts", "records_replayed", "circuit_breaker_trips",
        "checkpoint_commits", "subbatches",
        # every external counter but the per-record outcomes
        *(name for name in ExternalMetrics().as_dict()
          if not name.startswith("records_")),
    }
    added = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.AugAssign)
        and isinstance(node.op, ast.Add)
        and isinstance(node.target, ast.Attribute)
        and node.target.attr in views
        # an object counting itself (the enricher's call index) is state
        and not (
            isinstance(node.target.value, ast.Name)
            and node.target.value.id == "self"
        )
    ]
    assert not added, added


TESTS = SRC.parents[1] / "tests"
#: the per-optimisation parity suites: entry points of the one generated
#: differential in ``tests/properties/test_sqlpp_paths``
ENTRY_POINTS = [
    "properties/test_hoisting_props.py",
    "properties/test_filter_join_props.py",
    "properties/test_columnar_props.py",
    "properties/test_shaped_rows_props.py",
    "properties/test_facade_query_props.py",
    "sqlpp/test_plan_parity.py",
    "sqlpp/test_columnar_parity.py",
]
#: unit tests that build the interpreter oracle themselves, beside the
#: harness: with ``use_plans=False`` or with a ``use_plans`` they vary
ORACLE_BUILDERS = {
    "properties/test_sqlpp_paths.py",
    "properties/test_sqlpp_props.py",
    "sqlpp/test_access_paths.py",
    "sqlpp/test_columnar.py",
    "sqlpp/test_evaluator_edge_cases.py",
    "sqlpp/test_facade_queries.py",
    "sqlpp/test_hoisting.py",
    "sqlpp/test_shaped_rows.py",
    "sqlpp/test_state_cache.py",
}


def test_one_harness_checks_every_sqlpp_path():
    """Every SELECT path is checked against the interpreter in one place:
    the per-optimisation suites run the harness's differential, and a new
    unit test that builds ``EvaluationContext(..., use_plans=...)`` with
    anything but a literal True joins the allow-list."""
    harness = "from tests.properties.test_sqlpp_paths import"
    strays = [name for name in ENTRY_POINTS if harness not in (TESTS / name).read_text()]
    assert strays == []
    builders = set()
    for path in TESTS.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None))
                == "EvaluationContext"
                and any(
                    # a literal False, or a name or expression that may be
                    keyword.arg == "use_plans"
                    and not (
                        isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is True
                    )
                    for keyword in node.keywords
                )
            ):
                builders.add(path.relative_to(TESTS).as_posix())
    assert builders == ORACLE_BUILDERS
