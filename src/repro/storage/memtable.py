"""In-memory LSM component (the memtable).

Writes land here first; when the memtable reaches its budget it is frozen
and flushed into an immutable disk component.  Deletes are recorded as
tombstones so they shadow older components during reads and merges.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Optional, Tuple

#: sort key of a (key, record-or-tombstone) entry
entry_key = itemgetter(0)


class Tombstone:
    """Singleton marker for a deleted key inside LSM components."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "<tombstone>"


TOMBSTONE = Tombstone()


class MemTable:
    """Mutable in-memory component: a hash map with sorted-scan support.

    ``entry_budget`` bounds the number of live entries before the owner
    should flush.  The memtable never rejects writes itself — flush policy
    lives in :class:`~repro.storage.lsm.LSMTree`.
    """

    def __init__(self, entry_budget: int = 4096):
        self.entry_budget = entry_budget
        self._entries: Dict[object, object] = {}
        self.min_lsn: Optional[int] = None
        self.max_lsn: Optional[int] = None

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.entry_budget

    @property
    def is_empty(self) -> bool:
        return not self._entries

    def put(self, key, record, lsn: int) -> None:
        self._entries[key] = record
        self._note_lsn(lsn)

    def delete(self, key, lsn: int) -> None:
        self._entries[key] = TOMBSTONE
        self._note_lsn(lsn)

    def _note_lsn(self, lsn: int) -> None:
        if self.min_lsn is None:
            self.min_lsn = lsn
        self.max_lsn = lsn

    def get(self, key):
        """Return the record, TOMBSTONE, or None if the key is absent."""
        return self._entries.get(key)

    def contains(self, key) -> bool:
        return key in self._entries

    def sorted_entries(self) -> List[Tuple[object, object]]:
        """The (key, record-or-tombstone) pairs in key order, as of now."""
        return sorted(self._entries.items(), key=entry_key)
