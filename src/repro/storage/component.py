"""Immutable on-"disk" LSM components.

A component is a sorted run of (key, record-or-tombstone) pairs produced by
flushing a memtable or merging older components.  Lookups binary-search the
key array; range scans slice it.
"""

from __future__ import annotations

import bisect
import operator
from itertools import islice
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .memtable import TOMBSTONE, entry_key


class SortedRunComponent:
    """An immutable sorted run with binary-search point lookups."""

    _next_component_id = 0

    def __init__(self, entries: Sequence[Tuple[object, object]], level: int = 0):
        keys = [k for k, _ in entries]
        self._keys: List[object] = keys
        self._values: List[object] = [v for _, v in entries]
        # pairwise in order, so mixed key types raise at the first such pair
        if not all(map(operator.lt, keys, islice(keys, 1, None))):
            before, after = next(
                (a, b) for a, b in zip(keys, islice(keys, 1, None)) if not a < b
            )
            raise ValueError(
                f"component entries must be strictly sorted by key; "
                f"saw {before!r} before {after!r}"
            )
        self.level = level
        self.component_id = SortedRunComponent._next_component_id
        SortedRunComponent._next_component_id += 1

    def __len__(self) -> int:
        return len(self._keys)

    def get(self, key):
        """Return the record, TOMBSTONE, or None if absent."""
        idx = bisect.bisect_left(self._keys, key)
        if idx < len(self._keys) and self._keys[idx] == key:
            return self._values[idx]
        return None

    def scan(self) -> Iterator[Tuple[object, object]]:
        return zip(self._keys, self._values)

    def range_scan(
        self, low=None, high=None, include_low=True, include_high=True
    ) -> Iterator[Tuple[object, object]]:
        start = 0
        if low is not None:
            start = (
                bisect.bisect_left(self._keys, low)
                if include_low
                else bisect.bisect_right(self._keys, low)
            )
        stop = len(self._keys)
        if high is not None:
            stop = (
                bisect.bisect_right(self._keys, high)
                if include_high
                else bisect.bisect_left(self._keys, high)
            )
        return zip(self._keys[start:stop], self._values[start:stop])


def overlay_runs(
    runs: Sequence[Iterable[Tuple[object, object]]],
) -> List[Tuple[object, object]]:
    """Several runs of (key, value) pairs, newest first, as one sorted run.

    For a key in more than one run the newest run's entry wins, tombstone
    or not.  A key lives at most once in each run, so older entries are
    overlaid by newer ones in a dict and the surviving keys sorted once.
    """
    merged: dict = {}
    for run in reversed(runs):  # oldest first; newer overwrite
        merged.update(run)
    try:
        return sorted(merged.items(), key=entry_key)
    except TypeError:
        # Keys within one LSM tree are homogeneous; tag by type name so
        # mixed trees (used in some property tests) still order
        # deterministically.
        return sorted(
            merged.items(), key=lambda entry: (type(entry[0]).__name__, entry[0])
        )


def merge_components(
    components: Sequence[SortedRunComponent],
    drop_tombstones: bool,
    level: Optional[int] = None,
) -> SortedRunComponent:
    """Merge sorted runs, newest first, into a single component.

    ``components[0]`` must be the newest run: for duplicate keys the entry
    from the earliest-listed component wins.  Tombstones are dropped only
    when merging down to the bottommost level (``drop_tombstones``).
    """
    entries = overlay_runs([comp.scan() for comp in components])
    if drop_tombstones:
        entries = [(k, v) for k, v in entries if v is not TOMBSTONE]
    new_level = level if level is not None else max(c.level for c in components) + 1
    return SortedRunComponent(entries, level=new_level)
