"""The ``FeedPolicy`` knob surface cannot silently regrow.

Every field must be *used*: passed as a keyword, with a value other than
its default, to ``FeedPolicy(...)`` or a preset somewhere under
``tests/``, ``benchmarks/`` or ``src/repro/bench/``.  A knob nothing sets
is a module constant beside its reader (see ``ELASTIC_*`` in
``ingestion/pipelines.py``, the call/backoff constants in
``ingestion/external.py``, ``FAIR_SHARE`` in ``ingestion/fabric.py``),
not a field.  A deliberate exception goes in ``ALLOWED`` with its reason.
"""

import ast
import dataclasses
from pathlib import Path

from repro.ingestion import FeedPolicy

ROOT = Path(__file__).resolve().parents[2]
SEARCHED = [ROOT / "tests", ROOT / "benchmarks", ROOT / "src" / "repro" / "bench"]
PRESETS = {"basic", "spill", "discard", "throttle", "elastic"}

#: field -> why it may stay although no caller sets it
ALLOWED = {
    "name": "the preset's label; set by the preset constructors themselves",
    "on_congestion": (
        "what distinguishes the discard/throttle presets; callers pick the "
        "preset (FeedPolicy.discard(), FeedPolicy.throttle()) not the field"
    ),
}


def is_policy_constructor(func: ast.expr) -> bool:
    if isinstance(func, ast.Name):
        return func.id == "FeedPolicy"
    return (
        isinstance(func, ast.Attribute)
        and func.attr in PRESETS
        and isinstance(func.value, ast.Name)
        and func.value.id == "FeedPolicy"
    )


def fields_set_by_callers() -> set:
    defaults = {f.name: f.default for f in dataclasses.fields(FeedPolicy)}
    used = set()
    for directory in SEARCHED:
        for path in directory.rglob("*.py"):
            tree = ast.parse(path.read_text(), filename=str(path))
            for call in ast.walk(tree):
                if not (
                    isinstance(call, ast.Call) and is_policy_constructor(call.func)
                ):
                    continue
                for keyword in call.keywords:
                    if keyword.arg not in defaults:
                        continue  # **overrides, or a removed knob (TypeError)
                    value = keyword.value
                    if (
                        isinstance(value, ast.Constant)
                        and value.value == defaults[keyword.arg]
                    ):
                        continue
                    used.add(keyword.arg)
    return used


def test_every_field_is_set_by_some_caller():
    used = fields_set_by_callers()
    unused = sorted(
        f.name
        for f in dataclasses.fields(FeedPolicy)
        if f.name not in used and f.name not in ALLOWED
    )
    assert not unused, (
        "FeedPolicy fields no test or benchmark sets to a non-default value "
        f"(make each a module constant beside its reader): {unused}"
    )


def test_allow_list_has_no_stale_entries():
    names = {f.name for f in dataclasses.fields(FeedPolicy)}
    assert set(ALLOWED) <= names - fields_set_by_callers()


def test_surface_size():
    assert len(dataclasses.fields(FeedPolicy)) <= 25
