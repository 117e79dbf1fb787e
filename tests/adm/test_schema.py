"""Field paths and type-spec parsing."""

import pytest

from repro.adm import field_path, open_type, primary_key_of, split_path
from repro.adm.schema import parse_field_spec, resolve_tag
from repro.adm.types import TypeTag
from repro.adm.values import MISSING
from repro.errors import AdmTypeError


class TestFieldPath:
    def test_top_level(self):
        assert field_path({"a": 1}, "a") == 1

    def test_nested(self):
        assert field_path({"u": {"name": "x"}}, "u.name") == "x"

    def test_missing_step_yields_missing(self):
        assert field_path({"u": {}}, "u.name") is MISSING
        assert field_path({}, "u.name") is MISSING

    def test_through_non_object_yields_missing(self):
        assert field_path({"u": 5}, "u.name") is MISSING

    def test_sequence_path(self):
        assert field_path({"a": {"b": 2}}, ("a", "b")) == 2

    def test_split_path(self):
        assert split_path("a.b.c") == ("a", "b", "c")
        assert split_path(["a", "b"]) == ("a", "b")


class TestPrimaryKey:
    def test_extracts(self):
        assert primary_key_of({"id": 9}, "id") == 9

    def test_missing_key_raises(self):
        with pytest.raises(AdmTypeError, match="no primary key"):
            primary_key_of({}, "id")

    def test_null_key_raises(self):
        with pytest.raises(AdmTypeError):
            primary_key_of({"id": None}, "id")


class TestTypeSpecs:
    def test_aliases(self):
        assert resolve_tag("int") is TypeTag.INT64
        assert resolve_tag("bigint") is TypeTag.INT64
        assert resolve_tag("float") is TypeTag.DOUBLE
        assert resolve_tag("text") is TypeTag.STRING

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            resolve_tag("frobnicator")

    def test_optional_spec(self):
        ft = parse_field_spec("string?")
        assert ft.optional and ft.tag is TypeTag.STRING

    def test_array_spec(self):
        ft = parse_field_spec("[int64]")
        assert ft.tag is TypeTag.ARRAY and ft.item.tag is TypeTag.INT64

    def test_nested_optional_array(self):
        ft = parse_field_spec("[string]?")
        assert ft.optional and ft.tag is TypeTag.ARRAY

    def test_open_type_shorthand(self):
        t = open_type("T", id="int64")
        assert t.is_open and "id" in t.fields
