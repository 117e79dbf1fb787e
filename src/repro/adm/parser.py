"""Parsing raw ingested bytes/text into ADM records, and serializing back.

This is the feed *parser* role from the paper: the adapter hands over raw
bytes, the parser produces typed ADM records.  JSON is the wire format; the
parser optionally coerces string-encoded extended values (datetimes, points)
into their ADM wrapper classes based on the target datatype.
"""

from __future__ import annotations

import json
from typing import Optional

from ..errors import AdmParseError
from .types import Datatype, coerce_record  # noqa: F401 - coerce_record re-exported
from .values import Circle, DateTime, Duration, Point, Rectangle


#: the C scanner behind :func:`json.loads`, without its Python wrappers
_scan_once = json.JSONDecoder().scan_once


def parse_json(text: str, datatype: Optional[Datatype] = None) -> dict:
    """Parse one JSON object into an ADM record.

    If ``datatype`` is given, string-encoded extended fields declared in the
    type (datetime, duration, point...) are coerced, and the record is
    validated against the type — one pass of the type's compiled codec
    (:meth:`Datatype.decode`) over the freshly decoded dict, in place.

    One C scan from offset 0 decodes a record that is exactly one JSON
    value.  Anything else — padding, trailing data, ``bytes``, malformed
    text — is handed to :func:`json.loads`, which accepts what it always
    accepted and words every error; bytes that are not valid UTF-8 are
    malformed JSON like any other.
    """
    try:
        raw, end = _scan_once(text, 0)
        whole = end == len(text)
    except (StopIteration, TypeError, ValueError):
        whole = False
    if not whole:
        try:
            raw = json.loads(text)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise AdmParseError(f"malformed JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise AdmParseError(
            f"expected a JSON object record, got {type(raw).__name__}"
        )
    if datatype is not None:
        datatype.decode(raw)
    return raw


class _AdmEncoder(json.JSONEncoder):
    def default(self, o):
        if isinstance(o, DateTime):
            return o.isoformat()
        if isinstance(o, Duration):
            return o.isoformat()
        if isinstance(o, Point):
            return [o.x, o.y]
        if isinstance(o, Rectangle):
            return [o.x1, o.y1, o.x2, o.y2]
        if isinstance(o, Circle):
            return [o.center.x, o.center.y, o.radius]
        return super().default(o)


def serialize(record) -> str:
    """Serialize an ADM record back to JSON text."""
    return json.dumps(record, cls=_AdmEncoder, separators=(",", ":"))


def record_size_bytes(record) -> int:
    """Approximate wire size of a record (used by workload calibration)."""
    return len(serialize(record).encode("utf-8"))
