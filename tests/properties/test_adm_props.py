"""Property-based tests for the ADM value layer."""

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
    make_type,
    parse_json,
    serialize,
    spatial_intersect,
)
from repro.errors import AdmParseError

from .test_codec_props import outcome  # a call's typed result, or its failure

epoch_millis = st.integers(min_value=0, max_value=4_102_444_800_000)  # ..2100


class TestDateTimeProperties:
    @given(epoch_millis)
    @settings(max_examples=200)
    def test_components_roundtrip(self, millis):
        dt = DateTime(millis)
        year, month, day, hour, minute, second, ms = dt.components()
        rebuilt = DateTime.of(year, month, day, hour, minute, second, ms)
        assert rebuilt.epoch_millis == millis

    @given(epoch_millis)
    @settings(max_examples=200)
    def test_isoformat_parse_roundtrip(self, millis):
        dt = DateTime(millis)
        assert DateTime.parse(dt.isoformat()) == dt

    @given(epoch_millis, st.integers(0, 48))
    @settings(max_examples=200)
    def test_add_months_ordering(self, millis, months):
        dt = DateTime(millis)
        later = dt.add(Duration(months, 0))
        if months:
            assert later > dt
        else:
            assert later == dt

    @given(epoch_millis, st.integers(-10**9, 10**9))
    @settings(max_examples=200)
    def test_millis_addition_exact(self, base, delta):
        dt = DateTime(base)
        assert dt.add(Duration(0, delta)).epoch_millis == base + delta


#: what can stand where a digit or a separator should: the separators
#: themselves, signs, a space, a week marker, letters, an Arabic-Indic digit
STRAY = "-:TZ.,+ WzE\u0662"
fields = st.tuples(
    st.sampled_from([0, 1, 4, 100, 1900, 1969, 1970, 2000, 2019, 2020, 2100, 9999]),
    st.sampled_from([0, 1, 2, 2, 12, 13]) | st.integers(1, 12),  # month
    st.sampled_from([0, 1, 28, 29, 30, 31, 32]) | st.integers(1, 28),  # day
    st.sampled_from([0, 23, 24]) | st.integers(0, 23),
    st.sampled_from([0, 59, 60]) | st.integers(0, 59),
    st.sampled_from([0, 59, 60]) | st.integers(0, 59),
    st.sampled_from(["", ".5", ".25", ".125", ".000", ".999"])
    | st.integers(0, 999).map(".{:03d}".format),
)
wire_texts = fields.map(
    lambda f: "{:04d}-{:02d}-{:02d}T{:02d}:{:02d}:{:02d}{}Z".format(*f)
)


@st.composite
def near_wire_texts(draw):
    """A wire-shaped text, as it is or damaged in one of the listed ways."""
    text = draw(wire_texts)
    damage = draw(st.sampled_from(["none", "none", "chars", "no_z", "space", "pad"]))
    if damage == "chars":
        chars = list(text)
        for _ in range(draw(st.integers(1, 3))):
            at = draw(st.integers(0, len(chars) - 1))
            chars[at] = draw(st.sampled_from(STRAY + "0123456789"))
        text = "".join(chars)
    elif damage == "no_z":
        text = text[:-1]
    elif damage == "space":
        text = text.replace("T", " ")
    elif damage == "pad":
        pads = st.sampled_from(["", " ", "\n", "\t ", "\u00a0"])
        text = draw(pads) + text + draw(pads)
    return text


datetime_texts = st.one_of(
    near_wire_texts(),
    near_wire_texts(),
    st.text(STRAY + "0123456789", min_size=20, max_size=20),
    st.text(STRAY + "0123456789", min_size=24, max_size=24),
    st.text(max_size=30),
)


class TestDateTimeFastArm:
    """``DateTime.parse`` decodes the two wire shapes in C; the regex arm
    (``_parse_general``) is what it must agree with on every text."""

    @given(datetime_texts)
    @settings(deadline=None)  # example count from the profile (tests/conftest.py)
    def test_parse_equals_the_regex_arm(self, text):
        assert outcome(DateTime.parse, text) == outcome(
            DateTime._parse_general, text
        )

    @pytest.mark.parametrize(
        "text",
        [
            "2019-03-08T00:26:40Z",
            "2019-03-08T00:26:40.5Z",
            "2019-03-08T00:26:40.25Z",
            "2019-03-08T00:26:40.125Z",
            "2019-03-08T00:26:40.125",
            "2019-03-08T00:26:40",
            "2019-03-08 00:26:40Z",
            " 2019-03-08T00:26:40Z",
            "2019-03-08T00:26:40.125Z\n",
            "2019-00-08T00:26:40Z",
            "2019-13-08T00:26:40.000Z",
            "2019-02-30T00:00:00Z",
            "2019-02-29T00:00:00.000Z",  # not a leap year
            "2020-02-29T00:00:00Z",
            "1900-02-29T00:00:00Z",  # a century that is not
            "2000-02-29T00:00:00.001Z",
            "2019-03-08T24:00:00Z",
            "2019-03-08T23:60:00Z",
            "2019-03-08T23:59:60.000Z",
            "0000-01-01T00:00:00Z",
            "0000-12-31T23:59:59.999Z",
            "0001-01-01T00:00:00Z",
            "9999-12-31T23:59:59.999Z",
            "1969-12-31T23:59:59.999Z",
            "2019/03-08T00:26:40Z",
            "2019-03/08T00:26:40Z",
            "2019-03-08t00:26:40Z",
            "2019-03-08T00.26:40Z",
            "2019-03-08T00:26.40Z",
            "2019-03-08T00:26:40z",
            "2019-03-08T00:26:40,125Z",
            "2019-03-08T00:26:40.125z",
            "2019-W10-5T00:26:40Z",
            "2019-03-08T00:26:40.+12Z",
            "2019-03-08T00:26:40.1-1Z",
            "2019-03-08T00:26:4ZZ",
            "+019-03-08T00:26:40Z",
            "2019-03-08T00:26:4 Z",
            "\u0662\u0660\u0661\u0669-\u0660\u0663-\u0660\u0667"
            "T\u0662\u0663:\u0660\u0666:\u0664\u0660Z",
            "2019-03-08T00:26:4\u0660Z",
            "2019-03-08T00:26:40.12\u0665Z",
        ],
    )
    def test_named_edges(self, text):
        assert outcome(DateTime.parse, text) == outcome(
            DateTime._parse_general, text
        )

    @pytest.mark.parametrize(
        "text",
        [
            "\u0662\u0660\u0661\u0669-\u0660\u0663-\u0660\u0667"
            "T\u0662\u0663:\u0660\u0666:\u0664\u0660Z",
            "2019-03-07T23:06:4\u0660Z",
            "201\uff19-03-07T23:06:40Z",  # a fullwidth nine
        ],
    )
    def test_non_ascii_digits_are_not_digits(self, text):
        with pytest.raises(AdmParseError, match="invalid datetime literal"):
            DateTime.parse(text)

    @pytest.mark.parametrize("text", ["P\u0661D", "PT\u0663\u0660S", "P1Y\uff12M"])
    def test_duration_rejects_non_ascii_digits(self, text):
        with pytest.raises(AdmParseError, match="invalid duration literal"):
            Duration.parse(text)


coords = st.floats(-1000, 1000, allow_nan=False, allow_infinity=False)


class TestGeometryProperties:
    @given(coords, coords, coords, coords)
    @settings(max_examples=200)
    def test_rectangle_always_normalized(self, x1, y1, x2, y2):
        r = Rectangle(x1, y1, x2, y2)
        assert r.x1 <= r.x2 and r.y1 <= r.y2

    @given(coords, coords, coords, coords)
    @settings(max_examples=200)
    def test_rectangle_contains_its_corners(self, x1, y1, x2, y2):
        r = Rectangle(x1, y1, x2, y2)
        assert r.contains_point(Point(r.x1, r.y1))
        assert r.contains_point(Point(r.x2, r.y2))

    @given(coords, coords, st.floats(0.001, 100, allow_nan=False), coords, coords)
    @settings(max_examples=200)
    def test_circle_mbr_covers_circle_hits(self, cx, cy, radius, px, py):
        # Tolerance: hypot() can round a distance down to exactly r for a
        # point a few ulps outside the box, so test against an inflated MBR.
        circle = Circle(Point(cx, cy), radius)
        p = Point(px, py)
        if circle.contains_point(p):
            mbr = circle.mbr
            eps = 1e-9 * (1.0 + abs(cx) + abs(cy) + radius)
            inflated = Rectangle(
                mbr.x1 - eps, mbr.y1 - eps, mbr.x2 + eps, mbr.y2 + eps
            )
            assert inflated.contains_point(p)

    @given(coords, coords, coords, coords, coords, coords, st.floats(0.001, 50))
    @settings(max_examples=200)
    def test_spatial_intersect_symmetric(self, x1, y1, x2, y2, cx, cy, radius):
        shapes = [
            Point(x1, y1),
            Rectangle(x1, y1, x2, y2),
            Circle(Point(cx, cy), radius),
        ]
        for a in shapes:
            for b in shapes:
                assert spatial_intersect(a, b) == spatial_intersect(b, a)


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)


class TestSerializationProperties:
    @given(st.dictionaries(st.text(min_size=1, max_size=10), json_values, max_size=6))
    @settings(max_examples=150)
    def test_serialize_parse_roundtrip(self, record):
        assert parse_json(serialize(record)) == record


finite = st.floats(-1e9, 1e9, allow_nan=False)
durations = st.builds(Duration, st.integers(0, 1200), st.integers(0, 10**12))
EXTENDED_VALUES = {
    TypeTag.DATETIME: st.builds(DateTime, epoch_millis),
    TypeTag.DURATION: durations,
    TypeTag.POINT: st.builds(Point, finite, finite),
    TypeTag.RECTANGLE: st.builds(Rectangle, finite, finite, finite, finite),
    TypeTag.CIRCLE: st.builds(
        Circle, st.builds(Point, finite, finite), st.floats(0, 1e6)
    ),
}
#: extended scalars, arrays of them, nested objects of them, to any depth
extended_types = st.recursive(
    st.sampled_from(sorted(EXTENDED_VALUES, key=lambda tag: tag.value)).map(FieldType),
    lambda inner: st.one_of(
        inner.map(lambda item: FieldType(TypeTag.ARRAY, item=item)),
        st.dictionaries(st.sampled_from("pqrs"), inner, min_size=1, max_size=3).map(
            lambda fields: FieldType(
                TypeTag.OBJECT, object_type=Datatype("Nested", fields)
            )
        ),
    ),
    max_leaves=6,
)


def values_of(ftype: FieldType):
    if ftype.tag is TypeTag.ARRAY:
        return st.lists(values_of(ftype.item), max_size=3)
    if ftype.tag is TypeTag.OBJECT:
        return st.fixed_dictionaries(
            {name: values_of(ft) for name, ft in ftype.object_type.fields.items()}
        )
    return EXTENDED_VALUES[ftype.tag]


class TestExtendedValueRoundTrip:
    @given(durations)
    @settings(max_examples=300)
    def test_duration_isoformat_parse_roundtrip(self, duration):
        assert Duration.parse(duration.isoformat()) == duration

    def test_duration_wire_form(self):
        assert serialize({"d": Duration(2, 1500)}) == '{"d":"P2MT1.5S"}'
        assert serialize({"d": Duration(2, 0)}) == '{"d":"P2M"}'  # as always stored
        assert serialize({"d": Duration(0, 0)}) == '{"d":"P0M"}'
        assert serialize({"d": Duration(0, 90_000)}) == '{"d":"P0MT90S"}'
        assert serialize({"d": Duration(0, 7)}) == '{"d":"P0MT0.007S"}'

    @given(
        extended_types.flatmap(
            lambda ftype: st.tuples(st.just(ftype), values_of(ftype))
        )
    )
    @settings(max_examples=300)
    def test_serialize_then_typed_parse_roundtrip(self, typed):
        ftype, value = typed
        datatype = Datatype("T", {"id": FieldType(TypeTag.INT64), "v": ftype})
        record = {"id": 1, "v": value}
        assert parse_json(serialize(record), datatype) == record
