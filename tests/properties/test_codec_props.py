"""Differential tests: the compiled record codec vs. the generic walkers.

``Datatype.decode`` / ``Datatype.validate`` run a per-type compiled plan
with exact-type fast tests; anything the fast tests do not recognise falls
through to the generic ``_coerce_value`` / ``_validate_value``.  The oracle
here is the unfused pipeline the codec replaced: the public (copying)
``coerce_record`` followed by the field-by-field validation walker exactly
as it stood before the codec, kept in this file.  Both sides must return
equal records (type-strictly: ``1``, ``1.0`` and ``True`` differ) or raise
the same exception class with the same message.
"""

import copy
import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adm import (
    Circle,
    Datatype,
    DateTime,
    Duration,
    FieldType,
    Point,
    Rectangle,
    TypeTag,
    coerce_record,
    make_type,
    parse_json,
)
from repro.errors import AdmParseError, AdmTypeError

# ------------------------------------------------------------------- oracle


def reference_validate(datatype: Datatype, record) -> None:
    """``Datatype.validate`` as it was before the codec."""
    if not isinstance(record, dict):
        raise AdmTypeError(
            f"type {datatype.name}: expected an object, got {type(record).__name__}"
        )
    for fname, ftype in datatype.fields.items():
        if fname not in record or record[fname] is None:
            if ftype.optional:
                continue
            raise AdmTypeError(
                f"type {datatype.name}: missing required field {fname!r}"
            )
        _reference_value(record[fname], ftype, datatype.name, fname)
    if not datatype.is_open:
        extra = set(record) - set(datatype.fields)
        if extra:
            raise AdmTypeError(
                f"closed type {datatype.name}: undeclared fields {sorted(extra)}"
            )


def _reference_value(value, ftype, type_name, fname) -> None:
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
                _reference_value(element, ftype.item, type_name, f"{fname}[{i}]")
    elif tag is TypeTag.OBJECT:
        ok = isinstance(value, dict)
        if ok and ftype.object_type is not None:
            reference_validate(ftype.object_type, value)
    if not ok:
        raise AdmTypeError(
            f"type {type_name}.{fname}: expected {ftype.describe()}, "
            f"got {type(value).__name__} ({value!r})"
        )


def reference_decode(datatype: Datatype, record):
    out = coerce_record(record, datatype)
    reference_validate(datatype, out)
    return out


def compiled_decode(datatype: Datatype, record):
    assert datatype.decode(record) is None  # in place
    return record


def outcome(fn, *args):
    """What a call did, comparably: its typed result or its failure."""
    try:
        return "ok", shape(fn(*args))
    except Exception as exc:  # the differential compares *whatever* is raised
        return "raised", type(exc), str(exc)


def shape(value):
    """A type-strict image of a record (``==`` alone equates 1, 1.0, True)."""
    if isinstance(value, dict):
        return [(key, shape(item)) for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return type(value).__name__, [shape(item) for item in value]
    return type(value).__name__, repr(value)


# --------------------------------------------------------------- strategies


class Label(str):
    """A ``str`` subclass: conforms to ``string``, misses the exact-type test."""


class Count(int):
    """An ``int`` subclass: conforms to ``int64``/``double`` the slow way."""


INT64_EDGES = [2**63 - 1, -(2**63), 2**63, -(2**63) - 1]
FIELD_NAMES = ["a", "b", "c", "d", "e"]
EXTRA_NAMES = ["x", "y"]

numbers = st.one_of(
    st.integers(-5, 5),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.sampled_from(INT64_EDGES + [10**400]),  # 10**400: float() overflows
)
datetime_texts = st.sampled_from(
    [
        "2019-03-08T00:26:40Z",
        "2019-03-08T00:26:40.5Z",
        " 2020-02-29T23:59:59.999 ",
        "2019-02-29T00:00:00Z",  # not a leap year
        "2019-13-01T00:00:00Z",
        "2019-03-08T24:00:00Z",
        "2019-03-08",
        "",
    ]
)
duration_texts = st.sampled_from(["P2M", "PT30S", "P1Y2M3DT4H5M6.5S", "P", "2M"])
adm_values = st.one_of(
    st.builds(DateTime, st.integers(0, 4_102_444_800_000)),
    st.builds(Duration, st.integers(0, 50), st.integers(0, 10**7)),
    st.builds(Point, st.floats(-90, 90), st.floats(-90, 90)),
    st.builds(Rectangle, *[st.floats(-90, 90)] * 4),
    st.builds(Circle, st.builds(Point, st.just(1.0), st.just(2.0)), st.floats(0, 9)),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    numbers,
    st.builds(Count, st.integers(-3, 3)),
    st.text(max_size=5),
    st.builds(Label, st.text(max_size=3)),
    datetime_texts,
    duration_texts,
    adm_values,
)
coordinate_lists = st.lists(
    st.one_of(numbers, st.sampled_from(["1.5", "east", None])), min_size=2, max_size=4
)
values = st.recursive(
    st.one_of(scalars, coordinate_lists, coordinate_lists.map(tuple)),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(
            st.sampled_from(FIELD_NAMES + EXTRA_NAMES), children, max_size=4
        ),
    ),
    max_leaves=8,
)


#: every tag, weighted towards the ones with a fast test or a parse step
TAGS = list(TypeTag) + [TypeTag.DATETIME] * 4 + [TypeTag.INT64, TypeTag.DOUBLE] * 2


def datatypes(depth=2):
    scalar_fields = st.builds(FieldType, st.sampled_from(TAGS), optional=st.booleans())
    if depth == 0:
        field_types = scalar_fields
    else:
        nested = datatypes(depth - 1)
        field_types = st.one_of(
            scalar_fields,
            st.builds(
                FieldType,
                st.just(TypeTag.ARRAY),
                optional=st.booleans(),
                item=st.one_of(st.none(), scalar_fields),
            ),
            st.builds(
                FieldType,
                st.just(TypeTag.OBJECT),
                optional=st.booleans(),
                object_type=st.one_of(st.none(), nested),
            ),
        )
    return st.builds(
        Datatype,
        name=st.sampled_from(["T", "Inner"]),
        fields=st.dictionaries(st.sampled_from(FIELD_NAMES), field_types, max_size=5),
        is_open=st.booleans(),
    )


def conforming(ftype: FieldType):
    """Values that are (mostly) right for ``ftype``: wire and decoded forms."""
    tag = ftype.tag
    by_tag = {
        TypeTag.BOOLEAN: st.booleans(),
        TypeTag.INT64: st.one_of(
            st.integers(-(2**63), 2**63 - 1),
            st.sampled_from(INT64_EDGES),
            st.builds(Count),
        ),
        TypeTag.DOUBLE: st.one_of(st.floats(allow_nan=False), st.integers(-9, 9)),
        TypeTag.STRING: st.one_of(st.text(max_size=5), st.builds(Label)),
        TypeTag.DATETIME: st.one_of(
            datetime_texts, st.builds(DateTime, st.integers(0, 10**12))
        ),
        TypeTag.DURATION: st.one_of(duration_texts, st.builds(Duration, st.just(3))),
        TypeTag.POINT: st.lists(st.floats(-9, 9), min_size=2, max_size=2),
        TypeTag.RECTANGLE: st.lists(st.integers(-9, 9), min_size=4, max_size=4),
        TypeTag.CIRCLE: st.lists(st.floats(0, 9), min_size=3, max_size=3),
    }
    if tag is TypeTag.ARRAY and ftype.item is not None:
        return st.lists(conforming(ftype.item), max_size=3)
    if tag is TypeTag.OBJECT and ftype.object_type is not None:
        return records_of(ftype.object_type)
    return by_tag.get(tag, values)


def records_of(datatype: Datatype):
    """Records biased towards conforming, with every kind of defect mixed in:
    missing / null / wrongly-typed declared fields and undeclared extras."""
    declared = {
        fname: st.one_of(conforming(ftype), conforming(ftype), values)
        for fname, ftype in datatype.fields.items()
    }
    return st.fixed_dictionaries(
        {}, optional={**declared, **{name: values for name in EXTRA_NAMES}}
    )


typed_records = datatypes().flatmap(
    lambda datatype: st.tuples(st.just(datatype), records_of(datatype))
)


# -------------------------------------------------------------- differential


class TestCodecMatchesGenericWalkers:
    @given(typed_records)
    # 1.5x the active profile (tests/conftest.py): 600 under ``deep``, this
    # test's literal before the profiles existed; 75 under ``tier1``.
    @settings(max_examples=settings().max_examples * 3 // 2, deadline=None)
    def test_decode_equals_coerce_then_validate(self, case):
        datatype, record = case
        pristine = copy.deepcopy(record)
        assert outcome(compiled_decode, datatype, copy.deepcopy(record)) == outcome(
            reference_decode, datatype, record
        )
        assert shape(record) == shape(pristine)  # the oracle side copies

    @given(typed_records)
    @settings(deadline=None)
    def test_validate_equals_reference_walker(self, case):
        datatype, record = case
        pristine = copy.deepcopy(record)
        assert outcome(datatype.validate, record) == outcome(
            reference_validate, datatype, record
        )
        assert shape(record) == shape(pristine)  # validate never writes
        assert datatype.conforms(record) == (
            outcome(reference_validate, datatype, record)[0] == "ok"
        )

    @given(typed_records)
    @settings(deadline=None)
    def test_decoded_records_validate_and_decode_is_idempotent(self, case):
        datatype, record = case
        try:
            datatype.decode(record)
        except Exception:
            return
        datatype.validate(record)
        again = copy.deepcopy(record)
        datatype.decode(again)
        assert shape(again) == shape(record)

    @given(typed_records)
    @settings(deadline=None)
    def test_parse_json_equals_reference_on_json_text(self, case):
        datatype, record = case
        try:
            text = json.dumps(record)
        except TypeError:  # ADM wrapper values have no plain-JSON form
            return

        def reference(raw):
            return reference_decode(datatype, json.loads(raw))

        assert outcome(parse_json, text, datatype) == outcome(reference, text)

    @pytest.mark.parametrize("edge", INT64_EDGES + [True, Count(2**63)])
    @pytest.mark.parametrize("tag", ["int64", "double"])
    def test_integer_edges(self, edge, tag):
        datatype = make_type("T", {"n": tag})
        assert outcome(datatype.validate, {"n": edge}) == outcome(
            reference_validate, datatype, {"n": edge}
        )
        assert outcome(compiled_decode, datatype, {"n": edge}) == outcome(
            reference_decode, datatype, {"n": edge}
        )

    @pytest.mark.parametrize("not_a_record", [None, 3, "x", [1], Point(0.0, 0.0)])
    def test_non_object_records(self, not_a_record):
        datatype = make_type("T", {"id": "int64"})
        for method in (datatype.validate, datatype.decode):
            assert outcome(method, not_a_record) == outcome(
                reference_validate, datatype, not_a_record
            )


# ------------------------------------------------------- text, not json.dumps


def reference_parse(text, datatype):
    """``parse_json`` before the one-scan arm: ``json.loads``, then the
    unfused decode.  Text that is not JSON — or not UTF-8 — is an
    ``AdmParseError`` carrying the library's own message."""
    try:
        raw = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise AdmParseError(f"malformed JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise AdmParseError(
            f"expected a JSON object record, got {type(raw).__name__}"
        )
    return raw if datatype is None else reference_decode(datatype, raw)


def _dumps(record):
    try:
        return json.dumps(record)  # NaN / Infinity are written as literals
    except TypeError:  # ADM wrapper values have no plain-JSON form
        return json.dumps({"a": 1, "b": [True, None, 2.5], "c": {"d": "e"}})


WHITESPACE = st.text(" \t\n\r", max_size=3)
#: ``\x0b`` and ``\u00a0`` are whitespace to ``str.strip`` and not to JSON
PADDING = st.one_of(WHITESPACE, st.sampled_from(["\x0b", "\u00a0", "\ufeff"]))
TRAILING = st.sampled_from(["x", "{}", ",", "]", "}", "null", '"', "\x00", " 1"])
ENCODINGS = ["utf-8", "utf-8-sig", "utf-16", "utf-16-le", "utf-32-be", "latin-1"]
FIXED_TEXTS = [
    "",
    " ",
    "{",
    "{}",
    " {} ",
    "[]",
    "[{}]",
    "null",
    "true",
    "3",
    "-",
    "1.5e",
    '"a"',
    '"\\ud800"',
    "NaN",
    "-Infinity",
    '{"a": NaN, "b": [Infinity, -Infinity]}',
    '{"a": 1, "a": 2}',
    '{"a": {"b": 1, "b": 2}, "a": "last one wins"}',
    '{"a": 1,}',
    "{'a': 1}",
    '{"a": 01}',
    '{"a": 1}{"a": 2}',
    '{"a": 1}\n{"a": 2}',
    '\ufeff{"a": 1}',
    '{"a": "\x00"}',
    '{"a": "\\x"}',
    '{"a":' * 200 + "1" + "}" * 200,
    '{"a":' + "[" * 200 + "]" * 200 + "}",
    "[" * 200 + "]" * 200,
    '{"a": ' + "9" * 400 + "}",
    b'{"id": 99, "text": "\xff\xfe"}',
    b"\xff",
    b"\xef\xbb\xbf{}",
    b"",
]


@st.composite
def record_texts(draw):
    """The text (or bytes) of a record as an adapter might hand it over:
    ``json.dumps`` output left alone, padded, cut short, followed by more
    data, encoded — or not a record's text at all."""
    datatype, record = draw(typed_records)
    if draw(st.booleans()):
        record = dict(record, **draw(st.dictionaries(
            st.sampled_from(FIELD_NAMES),
            st.sampled_from([float("nan"), float("inf"), float("-inf")]),
            max_size=2,
        )))
    text = _dumps(record)
    shape_of = draw(st.sampled_from(
        ["as_is", "padded", "cut", "trailing", "encoded", "broken_bytes",
         "value", "fixed", "noise"]
    ))
    if shape_of == "padded":
        text = draw(PADDING) + text + draw(PADDING)
    elif shape_of == "cut":
        text = text[: draw(st.integers(0, len(text)))]
    elif shape_of == "trailing":
        text = text + draw(WHITESPACE) + draw(TRAILING)
    elif shape_of == "encoded":
        text = text.encode(draw(st.sampled_from(ENCODINGS)), "replace")
    elif shape_of == "broken_bytes":
        raw = bytearray(text.encode("utf-8"))
        raw[draw(st.integers(0, len(raw) - 1))] = draw(st.sampled_from([0xFF, 0xC3, 0x80]))
        text = bytes(raw)
    elif shape_of == "value":  # a top-level array or scalar
        text = _dumps(draw(st.one_of(st.lists(st.integers(), max_size=3), numbers,
                                     st.text(max_size=5), st.none())))
    elif shape_of == "fixed":
        text = draw(st.sampled_from(FIXED_TEXTS))
    elif shape_of == "noise":
        text = draw(st.text(max_size=12))
    return datatype, text


class TestParseJsonOnArbitraryText:
    """One C scan decodes a text that is exactly one JSON value;
    ``json.loads`` takes the rest.  Whichever arm ran, the record and the
    error are what ``json.loads`` followed by the unfused decode give."""

    @given(record_texts())
    @settings(deadline=None)  # example count from the profile (tests/conftest.py)
    def test_parse_json_equals_json_loads_then_reference_decode(self, case):
        datatype, text = case
        assert outcome(parse_json, text, datatype) == outcome(
            reference_parse, text, datatype
        )

    @pytest.mark.parametrize("text", FIXED_TEXTS, ids=lambda text: repr(text)[:24])
    @pytest.mark.parametrize(
        "datatype", [None, make_type("T", {"a": "double?"})], ids=["untyped", "typed"]
    )
    def test_named_texts(self, text, datatype):
        assert outcome(parse_json, text, datatype) == outcome(
            reference_parse, text, datatype
        )


class TestCodecErrorOrder:
    """The unfused order — coerce every field, then validate in field order —
    decides which error a record with several defects reports."""

    TYPE = make_type(
        "T", {"n": "int64", "when": "datetime", "tags": "[string]"}, open=False
    )

    def test_parse_error_wins_over_an_earlier_type_error(self):
        with pytest.raises(AdmParseError, match="invalid datetime literal"):
            self.TYPE.decode({"n": "one", "when": "yesterday", "tags": []})

    def test_first_type_error_in_field_order_wins(self):
        with pytest.raises(AdmTypeError, match=r"T\.n: expected int64"):
            self.TYPE.decode({"n": True, "when": 5, "tags": [1]})

    def test_missing_field_outranks_later_type_error_and_extras(self):
        with pytest.raises(AdmTypeError, match="missing required field 'when'"):
            self.TYPE.decode({"n": 1, "tags": "no", "zzz": 1})

    def test_closed_type_check_comes_last(self):
        with pytest.raises(AdmTypeError, match=r"undeclared fields \['y', 'z'\]"):
            self.TYPE.decode({"n": 1, "when": DateTime(0), "tags": [], "z": 1, "y": 2})


# ------------------------------------------------------------------- caching


class TestCodecCache:
    def test_reassigning_fields_is_honoured(self):
        datatype = make_type("T", {"id": "int64"})
        datatype.validate({"id": 1})
        datatype.fields = {"id": FieldType(TypeTag.STRING)}
        with pytest.raises(AdmTypeError, match="expected string"):
            datatype.validate({"id": 1})
        datatype.validate({"id": "1"})
        datatype.fields = {**datatype.fields, "when": FieldType(TypeTag.DATETIME)}
        record = {"id": "1", "when": "2019-03-08T00:26:40Z"}
        datatype.decode(record)
        assert record["when"] == DateTime.parse("2019-03-08T00:26:40Z")

    def test_reassigning_is_open_is_honoured(self):
        datatype = make_type("T", {"id": "int64"})
        datatype.validate({"id": 1, "extra": 2})
        datatype.is_open = False
        with pytest.raises(AdmTypeError, match="undeclared fields"):
            datatype.validate({"id": 1, "extra": 2})
        datatype.is_open = True
        datatype.validate({"id": 1, "extra": 2})

    def test_one_plan_per_datatype_reused_across_calls(self):
        datatype = make_type("T", {"id": "int64", "text": "string"})
        datatype.validate({"id": 1, "text": "a"})
        plan = datatype._field_plan()
        datatype.decode({"id": 2, "text": "b"})
        assert datatype._field_plan() is plan

    def test_equality_and_repr_ignore_the_cache(self):
        fields = {"id": FieldType(TypeTag.INT64)}
        warm, cold = Datatype("T", dict(fields)), Datatype("T", dict(fields))
        before = repr(warm)
        warm.validate({"id": 1})
        assert warm == cold
        assert repr(warm) == before == repr(cold)
        assert [f.name for f in dataclasses.fields(Datatype)] == [
            "name", "fields", "is_open",
        ]
        clone = dataclasses.replace(warm, name="U")
        assert clone.fields is warm.fields and clone.conforms({"id": 7})
        assert copy.deepcopy(warm) == warm and copy.deepcopy(warm).conforms({"id": 7})


class TestParseJsonContract:
    TEXT = '{"id": 1, "lat": 3, "when": "2019-03-08T00:26:40Z", "extra": [1, 2]}'

    def test_without_a_datatype_nothing_is_coerced_or_checked(self):
        assert outcome(parse_json, self.TEXT) == outcome(json.loads, self.TEXT)
        assert parse_json('{"id": "not checked"}') == {"id": "not checked"}

    def test_with_a_datatype_fields_are_decoded(self):
        datatype = make_type(
            "T", {"id": "int64", "lat": "double", "when": "datetime"}
        )
        record = parse_json(self.TEXT, datatype)
        assert shape(record) == shape(
            {
                "id": 1,
                "lat": 3.0,
                "when": DateTime.parse("2019-03-08T00:26:40Z"),
                "extra": [1, 2],
            }
        )

    def test_coerce_record_still_copies(self):
        datatype = make_type("T", {"lat": "double"})
        record = {"lat": 3}
        out = coerce_record(record, datatype)
        assert out is not record
        assert shape(record) == shape({"lat": 3})
        assert shape(out) == shape({"lat": 3.0})
