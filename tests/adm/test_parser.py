"""JSON -> ADM parsing, coercion, and serialization."""

import pytest

from repro.adm import (
    Circle,
    DateTime,
    Duration,
    Point,
    Rectangle,
    make_type,
    parse_json,
    record_size_bytes,
    serialize,
)
from repro.errors import AdmParseError


class TestParseJson:
    def test_plain_object(self):
        assert parse_json('{"id": 1, "text": "hi"}') == {"id": 1, "text": "hi"}

    def test_malformed_rejected(self):
        with pytest.raises(AdmParseError, match="malformed JSON"):
            parse_json("{nope}")

    def test_non_object_rejected(self):
        with pytest.raises(AdmParseError, match="expected a JSON object"):
            parse_json("[1, 2]")

    def test_datetime_coercion(self):
        t = make_type("T", {"ts": "datetime"})
        record = parse_json('{"ts": "2019-03-15T12:00:00Z"}', t)
        assert record["ts"] == DateTime.parse("2019-03-15T12:00:00Z")

    def test_point_coercion_from_pair(self):
        t = make_type("T", {"loc": "point"})
        assert parse_json('{"loc": [1.5, 2.5]}', t)["loc"] == Point(1.5, 2.5)

    def test_rectangle_and_circle_coercion(self):
        t = make_type("T", {"r": "rectangle", "c": "circle"})
        record = parse_json('{"r": [0,0,2,2], "c": [1,1,0.5]}', t)
        assert record["r"] == Rectangle(0, 0, 2, 2)
        assert record["c"] == Circle(Point(1, 1), 0.5)

    def test_duration_coercion(self):
        t = make_type("T", {"d": "duration"})
        assert parse_json('{"d": "P2M"}', t)["d"] == Duration(2, 0)

    def test_validation_applied_after_coercion(self):
        t = make_type("T", {"id": "int64"})
        with pytest.raises(Exception):
            parse_json('{"id": "oops"}', t)

    def test_nested_array_coercion(self):
        t = make_type("T", {"ds": "[datetime]"})
        record = parse_json('{"ds": ["2019-01-01T00:00:00Z"]}', t)
        assert record["ds"][0] == DateTime.parse("2019-01-01T00:00:00Z")

    def test_int_to_double_coercion(self):
        t = make_type("T", {"x": "double"})
        assert parse_json('{"x": 3}', t)["x"] == 3.0
        assert isinstance(parse_json('{"x": 3}', t)["x"], float)


class TestSerialize:
    def test_roundtrip_extended_values(self):
        record = {
            "ts": DateTime.parse("2019-03-15T12:00:00Z"),
            "loc": Point(1.0, 2.0),
            "area": Rectangle(0, 0, 1, 1),
            "zone": Circle(Point(0, 0), 2.0),
        }
        text = serialize(record)
        t = make_type(
            "T", {"ts": "datetime", "loc": "point", "area": "rectangle", "zone": "circle"}
        )
        back = parse_json(text, t)
        assert back == record

    def test_record_size_is_positive_and_stable(self):
        record = {"id": 1, "text": "x" * 100}
        assert record_size_bytes(record) == record_size_bytes(dict(record))
        assert record_size_bytes(record) > 100
