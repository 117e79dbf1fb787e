"""ADM — the AsterixDB Data Model substrate.

A superset of JSON with int64, datetime, duration, and spatial primitives,
plus open/closed record datatypes (Section 2.1 of the paper).
"""

from .parser import (
    coerce_record,
    parse_json,
    record_size_bytes,
    serialize,
)
from .schema import (
    field_path,
    make_type,
    open_type,
    primary_key_of,
    split_path,
)
from .types import Datatype, FieldType, TypeTag
from .values import (
    MISSING,
    Circle,
    DateTime,
    Duration,
    Point,
    Rectangle,
    spatial_intersect,
)

__all__ = [
    "MISSING",
    "Circle",
    "DateTime",
    "Datatype",
    "Duration",
    "FieldType",
    "Point",
    "Rectangle",
    "TypeTag",
    "coerce_record",
    "field_path",
    "make_type",
    "open_type",
    "parse_json",
    "primary_key_of",
    "record_size_bytes",
    "serialize",
    "spatial_intersect",
    "split_path",
]
