"""No function-level ``import`` on the per-record paths.

An ``import`` statement inside a function re-enters the import machinery on
every call (a ``sys.modules`` lookup plus, for ``from .. import``, the
package-resolution helpers): on a per-record function that was the largest
single row of the plain-feed profile.  The hot packages import at module
level; a deliberate exception goes in ``ALLOWED`` with its reason.

Also the package boundary: ``benchmarks/`` imports ``repro``, never the
reverse, ``repro/bench`` holds only what ``src/`` callers import, and every
name a package exports exists.
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
