"""Runtime value classes for the non-JSON ADM primitives.

Plain JSON values (int, float, str, bool, None, list, dict) are represented
by their Python equivalents; the extended ADM primitives — datetimes,
durations, and the spatial types — get small immutable wrapper classes so
they can be distinguished, compared, and serialized.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from datetime import datetime
from functools import total_ordering

from ..errors import AdmParseError


class _Missing:
    """Singleton marking an absent field (distinct from null).

    SQL++ distinguishes ``MISSING`` (the field is not there) from ``NULL``
    (the field is there with no value).  Comparisons and arithmetic on
    MISSING propagate MISSING; in a WHERE clause MISSING is falsy.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "MISSING"

    def __bool__(self):
        return False


MISSING = _Missing()


_DATETIME_RE = re.compile(
    r"^(\d{4})-(\d{2})-(\d{2})T(\d{2}):(\d{2}):(\d{2})(?:\.(\d{1,3}))?Z?$",
    re.ASCII,
)
_fromisoformat = datetime.fromisoformat
_EPOCH_ORDINAL = 719163  # date(1970, 1, 1).toordinal()
_DAYS_PER_MONTH = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


def _is_leap(year: int) -> bool:
    return year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)


def _days_in_month(year: int, month: int) -> int:
    if month == 2 and _is_leap(year):
        return 29
    return _DAYS_PER_MONTH[month - 1]


def _days_from_civil(year: int, month: int, day: int) -> int:
    """Days since 1970-01-01 (Howard Hinnant's algorithm)."""
    year -= month <= 2
    era = (year if year >= 0 else year - 399) // 400
    yoe = year - era * 400
    doy = (153 * (month + (-3 if month > 2 else 9)) + 2) // 5 + day - 1
    doe = yoe * 365 + yoe // 4 - yoe // 100 + doy
    return era * 146097 + doe - 719468


def _civil_from_days(days: int):
    era = (days + 719468 if days >= -719468 else days + 719468 - 146096) // 146097
    doe = days + 719468 - era * 146097
    yoe = (doe - doe // 1460 + doe // 36524 - doe // 146096) // 365
    year = yoe + era * 400
    doy = doe - (365 * yoe + yoe // 4 - yoe // 100)
    mp = (5 * doy + 2) // 153
    day = doy - (153 * mp + 2) // 5 + 1
    month = mp + (3 if mp < 10 else -9)
    return year + (month <= 2), month, day


@total_ordering
@dataclass(frozen=True)
class DateTime:
    """An ADM datetime, stored as milliseconds since the Unix epoch."""

    epoch_millis: int

    @classmethod
    def parse(cls, text: str) -> "DateTime":
        """Decode a datetime literal.

        The two shapes the wire carries — ``YYYY-MM-DDTHH:MM:SSZ`` and
        ``…SS.mmmZ`` — are decoded by C ``datetime.fromisoformat``; the
        shape test (length, every separator in place, ASCII) admits only
        texts on which a C success is also a :meth:`_parse_general`
        success with the same value.  Every other text, and every text the
        C call refuses (year 0000, a bad month, a stray letter), takes
        :meth:`_parse_general`, which decides what is a datetime and words
        every error.
        """
        marks = text[4:20:3]
        if (
            (marks == "--T::Z" and len(text) == 20)
            or (marks == "--T::." and len(text) == 24 and text[23] == "Z")
        ) and text.isascii():
            try:
                stamp = _fromisoformat(text)
            except ValueError:
                pass
            else:
                days = stamp.toordinal() - _EPOCH_ORDINAL
                total = (
                    (days * 24 + stamp.hour) * 60 + stamp.minute
                ) * 60 + stamp.second
                return cls(total * 1000 + stamp.microsecond // 1000)
        return cls._parse_general(text)

    @classmethod
    def _parse_general(cls, text: str) -> "DateTime":
        match = _DATETIME_RE.match(text.strip())
        if not match:
            raise AdmParseError(f"invalid datetime literal: {text!r}")
        year, month, day, hour, minute, second, frac = match.groups()
        year, month, day = int(year), int(month), int(day)
        hour, minute, second = int(hour), int(minute), int(second)
        millis = int(frac.ljust(3, "0")) if frac else 0
        if not (1 <= month <= 12):
            raise AdmParseError(f"invalid month in datetime: {text!r}")
        if not (1 <= day <= _days_in_month(year, month)):
            raise AdmParseError(f"invalid day in datetime: {text!r}")
        if hour > 23 or minute > 59 or second > 59:
            raise AdmParseError(f"invalid time in datetime: {text!r}")
        days = _days_from_civil(year, month, day)
        total = ((days * 24 + hour) * 60 + minute) * 60 + second
        return cls(total * 1000 + millis)

    @classmethod
    def of(cls, year, month, day, hour=0, minute=0, second=0, millis=0):
        days = _days_from_civil(year, month, day)
        total = ((days * 24 + hour) * 60 + minute) * 60 + second
        return cls(total * 1000 + millis)

    def components(self):
        """Return (year, month, day, hour, minute, second, millis)."""
        millis = self.epoch_millis % 1000
        seconds = self.epoch_millis // 1000
        days, rem = divmod(seconds, 86400)
        hour, rem = divmod(rem, 3600)
        minute, second = divmod(rem, 60)
        year, month, day = _civil_from_days(days)
        return year, month, day, hour, minute, second, millis

    def add(self, duration: "Duration") -> "DateTime":
        """Add a duration; month arithmetic clamps to end-of-month."""
        year, month, day, hour, minute, second, millis = self.components()
        total_months = (year * 12 + (month - 1)) + duration.months
        year, month = divmod(total_months, 12)
        month += 1
        day = min(day, _days_in_month(year, month))
        base = DateTime.of(year, month, day, hour, minute, second, millis)
        return DateTime(base.epoch_millis + duration.millis)

    def __lt__(self, other):
        if not isinstance(other, DateTime):
            return NotImplemented
        return self.epoch_millis < other.epoch_millis

    def isoformat(self) -> str:
        year, month, day, hour, minute, second, millis = self.components()
        base = f"{year:04d}-{month:02d}-{day:02d}T{hour:02d}:{minute:02d}:{second:02d}"
        if millis:
            base += f".{millis:03d}"
        return base + "Z"

    def __repr__(self):
        return f"datetime('{self.isoformat()}')"


_DURATION_RE = re.compile(
    r"^P(?:(\d+)Y)?(?:(\d+)M)?(?:(\d+)D)?"
    r"(?:T(?:(\d+)H)?(?:(\d+)M)?(?:(\d+(?:\.\d+)?)S)?)?$",
    re.ASCII,
)


@dataclass(frozen=True)
class Duration:
    """An ADM duration: a month component plus a millisecond component.

    ISO-8601 style, e.g. ``P2M`` (two months) or ``PT30S`` (thirty seconds).
    Month-based and millisecond-based parts are kept separate because months
    have variable length.
    """

    months: int = 0
    millis: int = 0

    @classmethod
    def parse(cls, text: str) -> "Duration":
        text = text.strip()
        match = _DURATION_RE.match(text)
        if not match or text == "P":
            raise AdmParseError(f"invalid duration literal: {text!r}")
        years, months, days, hours, minutes, seconds = match.groups()
        if not any((years, months, days, hours, minutes, seconds)):
            raise AdmParseError(f"invalid duration literal: {text!r}")
        total_months = int(years or 0) * 12 + int(months or 0)
        total_millis = (
            int(days or 0) * 86400000
            + int(hours or 0) * 3600000
            + int(minutes or 0) * 60000
            + int(round(float(seconds or 0) * 1000))
        )
        return cls(total_months, total_millis)

    def isoformat(self) -> str:
        """ISO-8601 text :meth:`parse` reads back: ``P2M``, ``P2MT1.5S``."""
        text = f"P{self.months}M"
        if self.millis:
            whole, frac = divmod(abs(self.millis), 1000)
            seconds = f"{whole}.{frac:03d}".rstrip("0").rstrip(".")
            text += f"T{'-' if self.millis < 0 else ''}{seconds}S"
        return text

    def __repr__(self):
        return f"duration(months={self.months}, millis={self.millis})"


@dataclass(frozen=True)
class Point:
    """A 2-D point (longitude/latitude or generic x/y)."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def __repr__(self):
        return f"point({self.x}, {self.y})"


@dataclass(frozen=True)
class Rectangle:
    """An axis-aligned rectangle defined by two corner points."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if self.x1 > self.x2 or self.y1 > self.y2:
            x_low, x_high = min(self.x1, self.x2), max(self.x1, self.x2)
            y_low, y_high = min(self.y1, self.y2), max(self.y1, self.y2)
            object.__setattr__(self, "x1", x_low)
            object.__setattr__(self, "x2", x_high)
            object.__setattr__(self, "y1", y_low)
            object.__setattr__(self, "y2", y_high)

    def contains_point(self, p: Point) -> bool:
        return self.x1 <= p.x <= self.x2 and self.y1 <= p.y <= self.y2

    def intersects(self, other: "Rectangle") -> bool:
        return not (
            other.x1 > self.x2
            or other.x2 < self.x1
            or other.y1 > self.y2
            or other.y2 < self.y1
        )

    def __repr__(self):
        return f"rectangle({self.x1},{self.y1} {self.x2},{self.y2})"


@dataclass(frozen=True)
class Circle:
    """A circle with a center point and radius."""

    center: Point
    radius: float

    def contains_point(self, p: Point) -> bool:
        return self.center.distance_to(p) <= self.radius

    def intersects_circle(self, other: "Circle") -> bool:
        return self.center.distance_to(other.center) <= self.radius + other.radius

    def intersects_rectangle(self, rect: Rectangle) -> bool:
        nearest_x = min(max(self.center.x, rect.x1), rect.x2)
        nearest_y = min(max(self.center.y, rect.y1), rect.y2)
        return self.center.distance_to(Point(nearest_x, nearest_y)) <= self.radius

    @property
    def mbr(self) -> Rectangle:
        return Rectangle(
            self.center.x - self.radius,
            self.center.y - self.radius,
            self.center.x + self.radius,
            self.center.y + self.radius,
        )

    def __repr__(self):
        return f"circle({self.center!r}, r={self.radius})"


def spatial_intersect(a, b) -> bool:
    """Geometric intersection across point/rectangle/circle combinations.

    The ADM ``spatial_intersect`` builtin accepts any pair of spatial values.
    """
    if isinstance(a, Point) and isinstance(b, Point):
        return a == b
    if isinstance(a, Point):
        return spatial_intersect(b, a)
    if isinstance(a, Rectangle):
        if isinstance(b, Point):
            return a.contains_point(b)
        if isinstance(b, Rectangle):
            return a.intersects(b)
        if isinstance(b, Circle):
            return b.intersects_rectangle(a)
    if isinstance(a, Circle):
        if isinstance(b, Point):
            return a.contains_point(b)
        if isinstance(b, Rectangle):
            return a.intersects_rectangle(b)
        if isinstance(b, Circle):
            return a.intersects_circle(b)
    raise AdmParseError(
        f"spatial_intersect: unsupported operand types "
        f"({type(a).__name__}, {type(b).__name__})"
    )
