"""Datatype validation: open/closed records, scalars, nesting, arrays."""

import pytest

from repro.adm import (
    Circle,
    DateTime,
    Datatype,
    Duration,
    FieldType,
    Point,
    Rectangle,
    TypeTag,
    make_type,
    open_type,
)
from repro.errors import AdmTypeError


class TestOpenTypes:
    def test_declared_fields_enforced(self):
        t = open_type("T", id="int64", text="string")
        t.validate({"id": 1, "text": "hi"})

    def test_missing_required_field_rejected(self):
        t = open_type("T", id="int64", text="string")
        with pytest.raises(AdmTypeError, match="missing required field 'text'"):
            t.validate({"id": 1})

    def test_extra_fields_allowed(self):
        t = open_type("T", id="int64")
        t.validate({"id": 1, "anything": {"nested": [1, 2]}})

    def test_wrong_type_rejected(self):
        t = open_type("T", id="int64")
        with pytest.raises(AdmTypeError, match="expected int64"):
            t.validate({"id": "not an int"})

    def test_bool_is_not_int64(self):
        t = open_type("T", id="int64")
        with pytest.raises(AdmTypeError):
            t.validate({"id": True})

    def test_int64_range_enforced(self):
        t = open_type("T", id="int64")
        t.validate({"id": 2**63 - 1})
        with pytest.raises(AdmTypeError, match="out of range"):
            t.validate({"id": 2**63})

    def test_non_object_record_rejected(self):
        t = open_type("T", id="int64")
        with pytest.raises(AdmTypeError, match="expected an object"):
            t.validate([1, 2, 3])


class TestClosedTypes:
    def test_extra_fields_rejected(self):
        t = make_type("T", {"id": "int64"}, open=False)
        with pytest.raises(AdmTypeError, match="undeclared fields"):
            t.validate({"id": 1, "extra": 2})

    def test_exact_fields_ok(self):
        t = make_type("T", {"id": "int64", "name": "string"}, open=False)
        t.validate({"id": 1, "name": "x"})


class TestOptionalAndStructured:
    def test_optional_field_may_be_absent(self):
        t = make_type("T", {"id": "int64", "geo": "point?"})
        t.validate({"id": 1})
        t.validate({"id": 1, "geo": Point(1.0, 2.0)})

    def test_optional_field_may_be_null(self):
        t = make_type("T", {"id": "int64", "geo": "point?"})
        t.validate({"id": 1, "geo": None})

    def test_array_field(self):
        t = make_type("T", {"tags": "[string]"})
        t.validate({"tags": ["a", "b"]})
        with pytest.raises(AdmTypeError):
            t.validate({"tags": ["a", 1]})

    def test_nested_object_type(self):
        user = open_type("User", screen_name="string")
        t = Datatype(
            "T", {"user": FieldType(TypeTag.OBJECT, object_type=user)}
        )
        t.validate({"user": {"screen_name": "x"}})
        with pytest.raises(AdmTypeError):
            t.validate({"user": {"other": 1}})

    def test_double_accepts_int(self):
        t = make_type("T", {"x": "double"})
        t.validate({"x": 3})
        t.validate({"x": 3.5})

    def test_spatial_and_temporal_tags(self):
        t = make_type(
            "T",
            {
                "p": "point",
                "r": "rectangle",
                "c": "circle",
                "d": "datetime",
                "u": "duration",
            },
        )
        t.validate(
            {
                "p": Point(0, 0),
                "r": Rectangle(0, 0, 1, 1),
                "c": Circle(Point(0, 0), 1),
                "d": DateTime(0),
                "u": Duration(1, 0),
            }
        )

    def test_conforms_returns_bool(self):
        t = open_type("T", id="int64")
        assert t.conforms({"id": 1})
        assert not t.conforms({"id": "x"})
