"""The AsterixDB Data Model (ADM) type system.

ADM is a superset of JSON: in addition to the JSON scalar types it has
64-bit integers, datetimes, durations, and spatial primitives (point,
rectangle, circle).  A :class:`Datatype` describes the known aspects of the
records stored in a dataset; an *open* datatype only constrains the declared
fields and admits arbitrary additional ones, a *closed* datatype rejects
undeclared fields.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..errors import AdmTypeError
from .values import MISSING, Circle, DateTime, Duration, Point, Rectangle


class TypeTag(enum.Enum):
    """Tags for every primitive and structured ADM type."""

    NULL = "null"
    MISSING = "missing"
    BOOLEAN = "boolean"
    INT64 = "int64"
    DOUBLE = "double"
    STRING = "string"
    DATETIME = "datetime"
    DURATION = "duration"
    POINT = "point"
    RECTANGLE = "rectangle"
    CIRCLE = "circle"
    ARRAY = "array"
    OBJECT = "object"
    ANY = "any"


@dataclass(frozen=True)
class FieldType:
    """The type of a single declared field.

    ``optional`` fields may be absent (or null) in a conforming record.
    ``item`` is the element type for arrays; ``object_type`` names a nested
    datatype for OBJECT fields.
    """

    tag: TypeTag
    optional: bool = False
    item: Optional["FieldType"] = None
    object_type: Optional["Datatype"] = None

    def describe(self) -> str:
        base = self.tag.value
        if self.tag is TypeTag.ARRAY and self.item is not None:
            base = f"[{self.item.describe()}]"
        if self.optional:
            base += "?"
        return base


@dataclass
class Datatype:
    """A named record type, open or closed.

    Mirrors ``CREATE TYPE name AS OPEN { ... }`` in AsterixDB.  ``fields``
    maps declared field names to their :class:`FieldType`.
    """

    name: str
    fields: Dict[str, FieldType] = field(default_factory=dict)
    is_open: bool = True

    # The record codec: ``(fields it was compiled from, per-field plan)``.
    # A plain class attribute, not a dataclass field, so equality and repr
    # ignore it; recompiled when ``fields`` is re-assigned (the dict itself
    # is not watched: replace it to change the type).  ``is_open`` is read
    # live on every call.
    _codec = None

    def _field_plan(self):
        codec = self._codec
        if codec is None or codec[0] is not self.fields:
            plan = tuple(
                (fname, ftype, *_FAST_TESTS.get(ftype.tag, _GENERIC_ONLY))
                for fname, ftype in self.fields.items()
            )
            codec = self._codec = (self.fields, plan)
        return codec[1]

    def validate(self, record: dict) -> None:
        """Raise :class:`AdmTypeError` if ``record`` does not conform."""
        self._run_codec(record, False)

    def decode(self, record: dict) -> None:
        """Coerce ``record``'s wire-encoded declared fields **in place**, then
        validate it: :func:`coerce_record` + :meth:`validate` in one pass."""
        self._run_codec(record, True)

    def _run_codec(self, record: dict, coerce: bool) -> None:
        if not isinstance(record, dict):
            raise AdmTypeError(
                f"type {self.name}: expected an object, got {type(record).__name__}"
            )
        # Exact-type tests accept only values the generic walkers would
        # leave unchanged and pass; everything else takes the slow arm, which
        # *is* the generic walkers.  A type error is held back until every
        # field has been coerced, because the unfused order is "coerce all
        # fields (a parse error wins), then validate in field order".
        error = None
        codec = self._codec  # _field_plan(), without the call while it holds
        plan = (
            codec[1]
            if codec is not None and codec[0] is self.fields
            else self._field_plan()
        )
        for fname, ftype, exact, wire, convert in plan:
            value = record.get(fname)
            if value is None:
                if not ftype.optional and error is None:
                    error = AdmTypeError(
                        f"type {self.name}: missing required field {fname!r}"
                    )
                continue
            kind = type(value)
            if kind is exact:
                if kind is not int or _INT64_MIN <= value <= _INT64_MAX:
                    continue
            elif exact is None:
                continue
            elif coerce and kind is wire:
                record[fname] = convert(value)
                continue
            if coerce:
                record[fname] = value = _coerce_value(value, ftype)
            if error is None:
                try:
                    _validate_value(value, ftype, self.name, fname)
                except AdmTypeError as exc:
                    error = exc
        if error is not None:
            raise error
        if not self.is_open and not record.keys() <= self.fields.keys():
            extra = set(record) - set(self.fields)
            raise AdmTypeError(
                f"closed type {self.name}: undeclared fields {sorted(extra)}"
            )

    def conforms(self, record: dict) -> bool:
        """Return True if ``record`` validates, False otherwise."""
        try:
            self.validate(record)
        except AdmTypeError:
            return False
        return True


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

#: Per tag, the codec's fast tests ``(exact, wire, convert)``: a value whose
#: type *is* ``exact`` conforms as it stands (``None``: any value does;
#: ``int`` is also range-checked); one whose type *is* ``wire`` is the JSON
#: encoding and ``convert`` decodes it.
_FAST_TESTS = {
    TypeTag.ANY: (None, None, None),
    TypeTag.STRING: (str, None, None),
    TypeTag.BOOLEAN: (bool, None, None),
    TypeTag.INT64: (int, None, None),
    TypeTag.DOUBLE: (float, int, float),
    TypeTag.DATETIME: (DateTime, str, DateTime.parse),
}
#: every other tag: ``exact`` is not a type, so no value's type is it and
#: the field always takes the generic walkers
_GENERIC_ONLY = (object(), None, None)


def coerce_record(record: dict, datatype: Datatype) -> dict:
    """Coerce string/array-encoded extended values using declared types."""
    out = dict(record)
    for fname, ftype in datatype.fields.items():
        if fname in out and out[fname] is not None:
            out[fname] = _coerce_value(out[fname], ftype)
    return out


def _coerce_value(value, ftype: FieldType):
    tag = ftype.tag
    if tag is TypeTag.DATETIME and isinstance(value, str):
        return DateTime.parse(value)
    if tag is TypeTag.DURATION and isinstance(value, str):
        return Duration.parse(value)
    if tag is TypeTag.POINT and isinstance(value, (list, tuple)) and len(value) == 2:
        return Point(float(value[0]), float(value[1]))
    if (
        tag is TypeTag.RECTANGLE
        and isinstance(value, (list, tuple))
        and len(value) == 4
    ):
        return Rectangle(*(float(v) for v in value))
    if tag is TypeTag.CIRCLE and isinstance(value, (list, tuple)) and len(value) == 3:
        return Circle(Point(float(value[0]), float(value[1])), float(value[2]))
    if tag is TypeTag.DOUBLE and isinstance(value, int):
        return float(value)
    if tag is TypeTag.ARRAY and isinstance(value, list) and ftype.item is not None:
        return [_coerce_value(v, ftype.item) for v in value]
    if (
        tag is TypeTag.OBJECT
        and isinstance(value, dict)
        and ftype.object_type is not None
    ):
        return coerce_record(value, ftype.object_type)
    return value


def _validate_value(value, ftype: FieldType, type_name: str, fname: str) -> None:
    tag = ftype.tag
    ok = True
    if tag is TypeTag.ANY:
        ok = True
    elif tag is TypeTag.INT64:
        ok = isinstance(value, int) and not isinstance(value, bool)
        if ok and not (-(2**63) <= value < 2**63):
            raise AdmTypeError(
                f"type {type_name}.{fname}: int64 out of range: {value}"
            )
    elif tag is TypeTag.DOUBLE:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    elif tag is TypeTag.STRING:
        ok = isinstance(value, str)
    elif tag is TypeTag.BOOLEAN:
        ok = isinstance(value, bool)
    elif tag is TypeTag.DATETIME:
        ok = isinstance(value, DateTime)
    elif tag is TypeTag.DURATION:
        ok = isinstance(value, Duration)
    elif tag is TypeTag.POINT:
        ok = isinstance(value, Point)
    elif tag is TypeTag.RECTANGLE:
        ok = isinstance(value, Rectangle)
    elif tag is TypeTag.CIRCLE:
        ok = isinstance(value, Circle)
    elif tag is TypeTag.NULL:
        ok = value is None
    elif tag is TypeTag.ARRAY:
        ok = isinstance(value, list)
        if ok and ftype.item is not None:
            for i, element in enumerate(value):
                _validate_value(element, ftype.item, type_name, f"{fname}[{i}]")
    elif tag is TypeTag.OBJECT:
        ok = isinstance(value, dict)
        if ok and ftype.object_type is not None:
            ftype.object_type.validate(value)
    if not ok:
        raise AdmTypeError(
            f"type {type_name}.{fname}: expected {ftype.describe()}, "
            f"got {type(value).__name__} ({value!r})"
        )
