"""Built-in SQL++ functions: string, numeric, spatial, temporal, aggregate.

Builtins receive the evaluation context first so the expensive ones
(edit_distance, spatial predicates) can count work units on the shared
:class:`~repro.hyracks.cost.WorkMeter`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict

from ..adm.values import (
    MISSING,
    Circle,
    DateTime,
    Duration,
    Point,
    Rectangle,
)
from ..adm.values import spatial_intersect as _geo_intersect
from ..errors import SqlppEvaluationError

AGGREGATE_NAMES = frozenset({"count", "sum", "avg", "min", "max", "array_agg"})

#: Builtins safe for whole-column (vectorized) evaluation: pure functions
#: of their arguments that never touch a WorkMeter.  ``edit_distance``
#: (DP-cell metering) and ``spatial_intersect`` (spatial-test metering)
#: are deliberately absent — eager column evaluation of a metered builtin
#: in a conditionally-evaluated position would change simulated costs.
VECTORIZABLE_BUILTINS = frozenset(
    {
        # string
        "contains",
        "lower",
        "upper",
        "trim",
        "length",
        "string_length",
        "starts_with",
        "ends_with",
        "substring",
        "replace",
        "split",
        "string_concat",
        "to_string",
        # numeric
        "abs",
        "round",
        "floor",
        "ceil",
        "sqrt",
        "to_number",
        "to_bigint",
        # null/missing handling
        "is_missing",
        "is_null",
        "is_unknown",
        "coalesce",
        "if_missing",
        "if_missing_or_null",
        # arrays
        "array_count",
        "array_sum",
        "array_min",
        "array_max",
        "array_avg",
        "array_contains",
        "array_distinct",
        "array_flatten",
        "len",
        # spatial constructors / charge-free predicates
        "create_point",
        "create_circle",
        "create_rectangle",
        "spatial_distance",
        "get_x",
        "get_y",
        # temporal
        "datetime",
        "duration",
        "get_year",
    }
)


@lru_cache(maxsize=4096)
def _match_masks(pattern) -> Dict[object, int]:
    """Per character, the bitmask of the positions it occupies in ``pattern``."""
    masks: Dict[object, int] = {}
    for position, char in enumerate(pattern):
        masks[char] = masks.get(char, 0) | (1 << position)
    return masks


def edit_distance(a: str, b: str, meter=None) -> int:
    """Levenshtein distance, bit-parallel; meters the DP matrix's cells.

    Myers' algorithm in Hyyrö's formulation: one column of the DP matrix
    is two bit-vectors (which vertical deltas are +1, which are -1), and a
    text character advances the column with a fixed number of word
    operations.  Python ints are the words, so a pattern of any length is
    one word; the charge stays the full matrix the textbook DP fills.
    """
    if len(a) < len(b):
        a, b = b, a
    if meter is not None:
        meter.edit_distance_cells += (len(a) + 1) * (len(b) + 1)
    if not b:
        return len(a)
    # the longer side is the pattern: fewer steps (an array is hashed as a tuple)
    masks = _match_masks(a if isinstance(a, str) else tuple(a))
    distance = len(a)
    full = (1 << distance) - 1
    last = 1 << (distance - 1)
    # vertical +1 / -1 deltas of the current column; d0 marks the zero
    # diagonal deltas, hp / hn the horizontal +1 / -1 deltas into the next
    vp, vn = full, 0
    for char in b:
        eq = masks.get(char, 0)
        d0 = ((((eq & vp) + vp) ^ vp) | eq | vn) & full
        hp = vn | (full & ~(d0 | vp))
        hn = d0 & vp
        if hp & last:
            distance += 1
        elif hn & last:
            distance -= 1
        hp = ((hp << 1) | 1) & full
        vp = ((hn << 1) & full) | (full & ~(d0 | hp))
        vn = hp & d0
    return distance


def _propagate_missing(*args) -> bool:
    for a in args:
        if a is MISSING:
            return True
    return False


class Builtins:
    """Registry of built-in functions; looked up by lowercase name."""

    def __init__(self):
        self._fns: Dict[str, Callable] = {}
        self._register_all()

    def lookup(self, name: str):
        return self._fns.get(name.lower())

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._fns

    def register(self, name: str, fn: Callable) -> None:
        self._fns[name.lower()] = fn

    # ------------------------------------------------------------------ setup

    def _register_all(self) -> None:
        reg = self.register

        # ------- string
        def _str_fn(fn):
            def wrapper(ctx, *args):
                if _propagate_missing(*args):
                    return MISSING
                if any(a is None for a in args):
                    return None
                return fn(*args)

            return wrapper

        reg("contains", _str_fn(lambda s, sub: sub in s))
        reg("lower", _str_fn(lambda s: s.lower()))
        reg("upper", _str_fn(lambda s: s.upper()))
        reg("trim", _str_fn(lambda s: s.strip()))
        reg("length", _str_fn(len))
        reg("string_length", _str_fn(len))
        reg("starts_with", _str_fn(lambda s, p: s.startswith(p)))
        reg("ends_with", _str_fn(lambda s, p: s.endswith(p)))
        reg(
            "substring",
            _str_fn(lambda s, start, n=None: s[start:] if n is None else s[start : start + n]),
        )
        reg("replace", _str_fn(lambda s, old, new: s.replace(old, new)))
        reg("split", _str_fn(lambda s, sep: s.split(sep)))
        reg("string_concat", _str_fn(lambda parts: "".join(parts)))
        reg("to_string", _str_fn(str))

        def _edit_distance(ctx, a, b):
            if _propagate_missing(a, b):
                return MISSING
            if a is None or b is None:
                return None
            meter = getattr(ctx, "meter", None)
            return edit_distance(a, b, meter)

        reg("edit_distance", _edit_distance)

        # ------- numeric
        reg("abs", _str_fn(abs))
        reg("round", _str_fn(round))
        reg("floor", _str_fn(lambda x: int(x // 1)))
        reg("ceil", _str_fn(lambda x: -int((-x) // 1)))
        reg("sqrt", _str_fn(lambda x: x**0.5))
        reg("to_number", _str_fn(float))
        reg("to_bigint", _str_fn(int))

        # ------- null/missing handling
        reg("is_missing", lambda ctx, v: v is MISSING)
        reg("is_null", lambda ctx, v: v is None)
        reg("is_unknown", lambda ctx, v: v is None or v is MISSING)

        def _coalesce(ctx, *args):
            for arg in args:
                if arg is not MISSING and arg is not None:
                    return arg
            return None

        reg("coalesce", _coalesce)
        reg("if_missing", _coalesce)
        reg("if_missing_or_null", _coalesce)

        # ------- arrays
        def _array_fn(fn):
            def wrapper(ctx, arr, *rest):
                if arr is MISSING:
                    return MISSING
                if arr is None:
                    return None
                if not isinstance(arr, list):
                    raise SqlppEvaluationError(
                        f"expected an array, got {type(arr).__name__}"
                    )
                return fn(arr, *rest)

            return wrapper

        reg("array_count", _array_fn(len))
        reg("array_sum", _array_fn(lambda a: sum(x for x in a if x is not None)))
        reg("array_min", _array_fn(lambda a: min(a) if a else None))
        reg("array_max", _array_fn(lambda a: max(a) if a else None))
        reg(
            "array_avg",
            _array_fn(lambda a: (sum(a) / len(a)) if a else None),
        )
        reg("array_contains", _array_fn(lambda a, v: v in a))
        reg("array_distinct", _array_fn(distinct_values))
        reg("array_flatten", _array_fn(_flatten))
        reg("len", _array_fn(len))

        # ------- spatial
        def _create_point(ctx, x, y):
            if _propagate_missing(x, y):
                return MISSING
            if x is None or y is None:
                return None
            return Point(float(x), float(y))

        def _create_circle(ctx, center, radius):
            if _propagate_missing(center, radius):
                return MISSING
            if center is None or radius is None:
                return None
            if not isinstance(center, Point):
                raise SqlppEvaluationError("create_circle: center must be a point")
            return Circle(center, float(radius))

        def _create_rectangle(ctx, p1, p2):
            if _propagate_missing(p1, p2):
                return MISSING
            if p1 is None or p2 is None:
                return None
            if not (isinstance(p1, Point) and isinstance(p2, Point)):
                raise SqlppEvaluationError(
                    "create_rectangle: corners must be points"
                )
            return Rectangle(p1.x, p1.y, p2.x, p2.y)

        def _spatial_intersect(ctx, a, b):
            if _propagate_missing(a, b):
                return MISSING
            if a is None or b is None:
                return None
            meter = getattr(ctx, "meter", None)
            if meter is not None:
                meter.spatial_tests += 1
            return _geo_intersect(a, b)

        def _spatial_distance(ctx, a, b):
            if _propagate_missing(a, b):
                return MISSING
            if a is None or b is None:
                return None
            pa = a.center if isinstance(a, Circle) else a
            pb = b.center if isinstance(b, Circle) else b
            if not isinstance(pa, Point) or not isinstance(pb, Point):
                raise SqlppEvaluationError("spatial_distance expects points")
            return pa.distance_to(pb)

        reg("create_point", _create_point)
        reg("create_circle", _create_circle)
        reg("create_rectangle", _create_rectangle)
        reg("spatial_intersect", _spatial_intersect)
        reg("spatial_distance", _spatial_distance)
        reg("get_x", _str_fn(lambda p: p.x))
        reg("get_y", _str_fn(lambda p: p.y))

        # ------- temporal
        reg("datetime", _str_fn(DateTime.parse))
        reg("duration", _str_fn(Duration.parse))

        def _get_year(ctx, dt):
            if dt is MISSING:
                return MISSING
            return dt.components()[0] if dt is not None else None

        reg("get_year", _get_year)


def sort_key(value):
    """Total order across mixed/unknown values: MISSING < NULL < typed.
    NaN equals itself and follows every other number, as Java's
    ``Double.compare`` orders it: compared raw, it is neither below nor
    above anything, and a sort's result would depend on its input order."""
    if value is MISSING:
        return (0, 0)
    if value is None:
        return (1, 0)
    if isinstance(value, bool):
        return (2, value)
    if isinstance(value, (int, float)):
        return (3, value) if value == value else (3.5, 0)
    if isinstance(value, str):
        return (4, value)
    return (5, repr(value))


def value_key(value):
    """The one value identity of DISTINCT, ``array_distinct`` and GROUP BY.

    Scalars compare by :func:`sort_key` (``1`` = ``1.0``, ``true`` != ``1``),
    objects by their fields in name order, arrays element by element.
    """
    if isinstance(value, dict):
        return (6, tuple((name, value_key(value[name])) for name in sorted(value)))
    if isinstance(value, list):
        return (7, tuple(map(value_key, value)))
    return sort_key(value)


def distinct_values(values: list) -> list:
    """``values`` without repeats under :func:`value_key`, first kept."""
    seen = set()
    out = []
    for value in values:
        key = value_key(value)
        if key not in seen:
            seen.add(key)
            out.append(value)
    return out


def _flatten(arr: list) -> list:
    out = []
    for item in arr:
        if isinstance(item, list):
            out.extend(item)
        else:
            out.append(item)
    return out


BUILTINS = Builtins()
