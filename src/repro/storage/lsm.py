"""A log-structured merge tree, the storage engine of one dataset partition.

Mirrors AsterixDB's LSM storage (Alsubaiee et al., PVLDB 2014) at the level
of detail the paper's experiments exercise:

* writes go to an in-memory component and, once it fills, are flushed into
  immutable sorted-run components;
* a prefix merge policy bounds the number of disk components;
* reads consult the memtable first, then disk components newest-to-oldest,
  honoring tombstones;
* *update activity* is observable: Section 7.3 of the paper shows that even
  one update per second activates the in-memory component and makes every
  reference-data access pay extra locking/merge-read cost.  We expose
  ``read_amplification`` and ``in_memory_component_active`` so the cost
  model can charge for that effect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

from ..errors import DuplicateKeyError, KeyNotFoundError
from .component import SortedRunComponent, merge_components, overlay_runs
from .memtable import TOMBSTONE, MemTable


@dataclass
class LSMStats:
    """Counters for observing storage behaviour in tests and benches."""

    inserts: int = 0
    upserts: int = 0
    deletes: int = 0
    lookups: int = 0
    flushes: int = 0
    merges: int = 0
    wal_appends: int = 0
    component_reads: int = 0

    def snapshot(self) -> dict:
        return dict(self.__dict__)


@dataclass(slots=True)
class _WalRecord:
    lsn: int
    op: str
    key: object
    record: object = None


class LSMTree:
    """One partition's primary (or secondary) LSM index.

    ``memtable_budget`` is the flush threshold in entries;
    ``merge_fanin`` is the prefix merge policy trigger: when the number of
    disk components reaches it, they are merged into one.
    """

    def __init__(self, memtable_budget: int = 4096, merge_fanin: int = 4):
        if memtable_budget < 1:
            raise ValueError("memtable_budget must be >= 1")
        if merge_fanin < 2:
            raise ValueError("merge_fanin must be >= 2")
        self.memtable_budget = memtable_budget
        self.merge_fanin = merge_fanin
        self._memtable = MemTable(memtable_budget)
        self._components: List[SortedRunComponent] = []  # newest first
        self._wal: List[_WalRecord] = []
        self._next_lsn = 0
        self.stats = LSMStats()

    # ------------------------------------------------------------------ write

    def _append_wal(self, op: str, key, record=None) -> int:
        lsn = self._next_lsn
        self._next_lsn += 1
        self._wal.append(_WalRecord(lsn, op, key, record))
        self.stats.wal_appends += 1
        return lsn

    def insert(self, key, record) -> None:
        """Insert; raises :class:`DuplicateKeyError` if the key exists."""
        if self.get(key) is not None:
            raise DuplicateKeyError(key)
        lsn = self._append_wal("insert", key, record)
        self._memtable.put(key, record, lsn)
        self.stats.inserts += 1
        self._maybe_flush()

    def upsert(self, key, record) -> None:
        """Insert or replace, the paper's UPSERT semantics."""
        # the feed's write, once per stored record: _append_wal and
        # _maybe_flush are written out here
        lsn = self._next_lsn
        self._next_lsn = lsn + 1
        self._wal.append(_WalRecord(lsn, "upsert", key, record))
        stats = self.stats
        stats.wal_appends += 1
        memtable = self._memtable
        memtable.put(key, record, lsn)
        stats.upserts += 1
        if len(memtable._entries) >= memtable.entry_budget:  # is_full
            self.flush()

    def delete(self, key) -> None:
        """Delete; raises :class:`KeyNotFoundError` if the key is absent."""
        if self.get(key) is None:
            raise KeyNotFoundError(key)
        lsn = self._append_wal("delete", key)
        self._memtable.delete(key, lsn)
        self.stats.deletes += 1
        self._maybe_flush()

    def _maybe_flush(self) -> None:
        if self._memtable.is_full:
            self.flush()

    def flush(self) -> None:
        """Freeze the memtable into a new newest disk component."""
        if self._memtable.is_empty:
            return
        self._components.insert(
            0, SortedRunComponent(self._memtable.sorted_entries(), level=0)
        )
        self._memtable = MemTable(self.memtable_budget)
        self.stats.flushes += 1
        if len(self._components) >= self.merge_fanin:
            self.merge_all()

    def merge_all(self) -> None:
        """Prefix merge policy: collapse all disk components into one."""
        if len(self._components) <= 1:
            return
        merged = merge_components(self._components, drop_tombstones=True)
        self._components = [merged]
        self.stats.merges += 1

    # ------------------------------------------------------------------- read

    def get(self, key):
        """Point lookup across memtable and components; None if absent."""
        self.stats.lookups += 1
        found = self._memtable.get(key)
        if found is not None:
            return None if found is TOMBSTONE else found
        for comp in self._components:
            self.stats.component_reads += 1
            found = comp.get(key)
            if found is not None:
                return None if found is TOMBSTONE else found
        return None

    def contains(self, key) -> bool:
        return self.get(key) is not None

    def scan(self) -> Iterator[Tuple[object, object]]:
        """Full scan in key order, newest version of each key, no tombstones."""
        return self.range_scan()

    def range_scan(
        self, low=None, high=None, include_low=True, include_high=True
    ) -> Iterator[Tuple[object, object]]:
        """Scan a key range in key order: newest version of each key, no
        tombstones.

        Every structure is already sorted, so one live structure (the
        flushed steady state of a reference dataset) is passed straight
        through; several go through :func:`overlay_runs`.
        """
        bounds = (low, high, include_low, include_high)
        sources = [
            comp.range_scan(*bounds) for comp in self._components if len(comp)
        ]
        if not self._memtable.is_empty:
            entries = self._memtable.sorted_entries()
            if low is not None or high is not None:
                entries = [kv for kv in entries if _in_range(kv[0], *bounds)]
            sources.insert(0, entries)  # newest first
        merged = sources[0] if len(sources) == 1 else overlay_runs(sources)
        return (entry for entry in merged if entry[1] is not TOMBSTONE)

    # ------------------------------------------------------------- observables

    def __len__(self) -> int:
        return sum(1 for _ in self.scan())

    @property
    def in_memory_component_active(self) -> bool:
        """True when un-flushed writes exist — reads must check the memtable.

        Section 7.3: any nonzero reference-update rate activates the
        in-memory component and slows every enrichment-time access.
        """
        return not self._memtable.is_empty

    @property
    def component_count(self) -> int:
        return len(self._components)

    @property
    def read_amplification(self) -> int:
        """Number of structures a cold point lookup may touch."""
        return (1 if self.in_memory_component_active else 0) + len(self._components)

    @property
    def lsn(self) -> int:
        """The LSN the next write will take.

        Every write appends a WAL record; flush and merge do not.  Two
        reads at the same ``lsn`` therefore scan the same record objects in
        the same order, however the components were reorganised between.
        """
        return self._next_lsn

    def recover_from_wal(self) -> "LSMTree":
        """Rebuild an equivalent tree by replaying the write-ahead log.

        Disk components are not persisted to real disk in this simulation,
        so recovery replays the full log; the test suite uses this to assert
        that the WAL alone reconstructs the logical state.
        """
        fresh = LSMTree(self.memtable_budget, self.merge_fanin)
        for entry in self._wal:
            if entry.op in ("insert", "upsert"):
                fresh.upsert(entry.key, entry.record)
            elif entry.op == "delete":
                if fresh.contains(entry.key):
                    fresh.delete(entry.key)
        return fresh


def _in_range(key, low, high, include_low, include_high) -> bool:
    if low is not None:
        if key < low or (not include_low and key == low):
            return False
    if high is not None:
        if key > high or (not include_high and key == high):
            return False
    return True
