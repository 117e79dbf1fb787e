"""Schema helpers: a small DDL-ish builder API plus field-path access.

``field_path`` is the workhorse used across the query engine and index
maintenance: it navigates dotted paths (``user.screen_name``) through nested
objects, yielding MISSING when a step is absent — matching SQL++ semantics.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Tuple, Union

from ..errors import AdmTypeError
from .types import Datatype, FieldType, TypeTag
from .values import MISSING

_TAG_BY_NAME = {t.value: t for t in TypeTag}
_TAG_ALIASES = {
    "int": TypeTag.INT64,
    "int64": TypeTag.INT64,
    "bigint": TypeTag.INT64,
    "float": TypeTag.DOUBLE,
    "double": TypeTag.DOUBLE,
    "bool": TypeTag.BOOLEAN,
    "text": TypeTag.STRING,
}


def resolve_tag(name: str) -> TypeTag:
    key = name.strip().lower()
    if key in _TAG_ALIASES:
        return _TAG_ALIASES[key]
    if key in _TAG_BY_NAME:
        return _TAG_BY_NAME[key]
    raise KeyError(f"unknown ADM type name: {name!r}")


def make_type(
    name: str,
    fields: Dict[str, Union[str, FieldType]],
    open: bool = True,  # noqa: A002 - mirrors AsterixDB "OPEN" keyword
) -> Datatype:
    """Build a :class:`Datatype` from a name->type-name mapping.

    Type names accept a trailing ``?`` for optional fields and ``[...]`` for
    arrays, e.g. ``{"id": "int64", "tags": "[string]", "geo": "point?"}``.
    """
    resolved: Dict[str, FieldType] = {}
    for fname, spec in fields.items():
        if isinstance(spec, FieldType):
            resolved[fname] = spec
        else:
            resolved[fname] = parse_field_spec(spec)
    return Datatype(name=name, fields=resolved, is_open=open)


def parse_field_spec(spec: str) -> FieldType:
    spec = spec.strip()
    optional = spec.endswith("?")
    if optional:
        spec = spec[:-1].strip()
    if spec.startswith("[") and spec.endswith("]"):
        inner = parse_field_spec(spec[1:-1])
        return FieldType(TypeTag.ARRAY, optional=optional, item=inner)
    return FieldType(resolve_tag(spec), optional=optional)


PathLike = Union[str, Sequence[str]]


def split_path(path: PathLike) -> Tuple[str, ...]:
    if isinstance(path, str):
        return tuple(path.split("."))
    return tuple(path)


def field_path(record, path: PathLike):
    """Navigate a dotted path through a record; absent steps yield MISSING."""
    current = record
    for step in split_path(path):
        if isinstance(current, dict):
            if step in current:
                current = current[step]
            else:
                return MISSING
        else:
            return MISSING
    return current


def field_getter(path: PathLike) -> Callable[[object], object]:
    """:func:`field_path` for one fixed path, which is split once, here."""
    steps = split_path(path)
    if len(steps) == 1:
        (step,) = steps

        def get_field(record):
            return record.get(step, MISSING) if isinstance(record, dict) else MISSING

        return get_field
    return lambda record: field_path(record, steps)


def primary_key_of(record: dict, key_path: PathLike):
    """Extract the primary key; raises if the key is missing."""
    value = field_path(record, key_path)
    if value is MISSING or value is None:
        dotted = ".".join(split_path(key_path))  # a pre-split path reads the same
        raise AdmTypeError(f"record has no primary key at path {dotted!r}")
    return value


def open_type(type_name: str, **fields: str) -> Datatype:
    """Shorthand: ``open_type("TweetType", id="int64", text="string")``.

    The first parameter is named ``type_name`` so records may declare a
    field called ``name``.
    """
    return make_type(type_name, fields, open=True)
