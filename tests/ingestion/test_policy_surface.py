"""The ``FeedPolicy`` and ``FeedDefinition`` surfaces cannot silently regrow.

A field must be *set by a workload*: passed as a keyword (or, for a
definition, positionally or by assigning the attribute of a freshly built
one), with a value other than its default, somewhere under
``benchmarks/`` or ``src/repro/bench/`` — and, for a definition, in
``src/repro/core/`` too, where the facade builds one from ``start_feed``'s
arguments.  Tests and examples are not callers: a setting only a test
varies is a module constant beside its reader (see ``ELASTIC_*`` and
``ADAPTER_IDLE_*`` in ``ingestion/computing_job.py`` and
``ingestion/intake_job.py``, ``CHUNK_SIZE`` and the
call/backoff constants in ``ingestion/external.py``, ``FAIR_SHARE`` in
``ingestion/fabric.py``), not a field.  A deliberate exception goes in
``ALLOWED`` with its reason.
"""

import ast
import dataclasses
from pathlib import Path

from repro.ingestion import FeedDefinition, FeedPolicy

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = [ROOT / "benchmarks", ROOT / "src" / "repro" / "bench"]
PRESETS = {"basic", "spill", "discard", "throttle", "elastic"}

#: field -> why it may stay although no workload sets it
ALLOWED = {
    "name": "the preset's label; set by the preset constructors themselves",
    "on_soft_error": (
        "what sets the presets apart; workloads pick a preset, not the field"
    ),
    "on_congestion": (
        "what sets the Discard and Throttle presets apart (Grover & Carey's "
        "named policies); workloads pick a preset, not the field"
    ),
    "max_consecutive_soft_errors": (
        "what sets the Elastic preset apart; workloads pick a preset, not "
        "the field"
    ),
    "dead_letter_dataset": "a deployment setting: the name of a dataset",
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


def is_definition_constructor(func: ast.expr) -> bool:
    return isinstance(func, ast.Name) and func.id == "FeedDefinition"


def fields_set_by_callers(cls, is_constructor, directories) -> set:
    """Fields some call of ``is_constructor`` sets to a non-default value:
    by keyword, positionally, or by assigning ``<name>.<field>`` where
    ``<name>`` was bound to such a call in the same module."""
    fields = dataclasses.fields(cls)
    defaults = {f.name: f.default for f in fields}
    used = {  # a required field is always set
        f.name
        for f in fields
        if f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    }

    def note(name, value):
        if name not in defaults:
            return  # **overrides, or a removed knob (TypeError)
        if isinstance(value, ast.Constant) and value.value == defaults[name]:
            return
        used.add(name)

    for directory in directories:
        for path in directory.rglob("*.py"):
            tree = ast.parse(path.read_text(), filename=str(path))
            built = set()  # names bound to a constructor call
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call)
                    and is_constructor(node.value.func)
                ):
                    built |= {t.id for t in node.targets if isinstance(t, ast.Name)}
                if not (isinstance(node, ast.Call) and is_constructor(node.func)):
                    continue
                for field, value in zip(fields, node.args):
                    note(field.name, value)
                for keyword in node.keywords:
                    note(keyword.arg, keyword.value)
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id in built
                        ):
                            note(target.attr, node.value)
    return used


def unset_fields(cls, is_constructor, directories, allowed) -> list:
    used = fields_set_by_callers(cls, is_constructor, directories)
    return sorted(
        f.name
        for f in dataclasses.fields(cls)
        if f.name not in used and f.name not in allowed
    )


def test_every_field_is_set_by_some_caller():
    unused = unset_fields(FeedPolicy, is_policy_constructor, WORKLOADS, ALLOWED)
    assert not unused, (
        "FeedPolicy fields no workload sets to a non-default value "
        f"(make each a module constant beside its reader): {unused}"
    )


def test_allow_list_has_no_stale_entries():
    names = {f.name for f in dataclasses.fields(FeedPolicy)}
    used = fields_set_by_callers(FeedPolicy, is_policy_constructor, WORKLOADS)
    assert set(ALLOWED) <= names - used


def test_surface_size():
    assert len(dataclasses.fields(FeedPolicy)) == 17


def test_every_definition_field_is_set_by_some_caller():
    unused = unset_fields(
        FeedDefinition,
        is_definition_constructor,
        WORKLOADS + [ROOT / "src" / "repro" / "core"],
        allowed={},
    )
    assert not unused, (
        "FeedDefinition fields no workload or facade call sets to a "
        f"non-default value (make each a module constant beside its "
        f"reader): {unused}"
    )


def test_definition_surface_size():
    assert len(dataclasses.fields(FeedDefinition)) == 14
