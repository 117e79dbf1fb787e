"""Datasets: hash-partitioned collections of ADM records.

A :class:`Dataset` is the AsterixDB unit of storage — a collection of
records of one datatype with a primary key, hash-partitioned across the
cluster's storage partitions.  Each partition is an LSM tree; secondary
indexes are partitioned the same way (local indexes, as in AsterixDB).

Which reference-data state a computing job observed (Section 5.1's
record-level consistency discussion) is a :class:`ReferenceSnapshot`, keyed
by the partitions' WAL LSNs; an update-activity flag feeds the Section 7.3
cost effects.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..adm.schema import primary_key_of, split_path
from ..adm.types import Datatype
from ..errors import IndexError_, KeyNotFoundError
from .index import IndexKind, SecondaryIndex
from .lsm import LSMTree
from .memtable import TOMBSTONE
from .rtree import corners


def key_hash(key) -> int:
    """Deterministic 64-bit hash of a primary key.

    Python's builtin ``hash`` is salted per process for strings, which would
    make partition assignment non-reproducible across runs; use a stable FNV-1a
    over the repr instead.
    """
    acc = 0xCBF29CE484222325
    for byte in repr(key).encode("utf-8"):
        acc = ((acc ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return acc


def hash_partition(key, num_partitions: int) -> int:
    """Deterministic hash partitioning for primary keys."""
    return key_hash(key) % num_partitions


class ReferenceSnapshot:
    """An immutable read snapshot of a dataset: what one full scan returned.

    ``records`` is the scan's record sequence (partition order, key order
    within) and ``lsns`` the partitions' WAL LSNs it was taken at — the
    version proof for anything cached from it.  :meth:`derived` memoizes
    what readers compute from it — a per-field hash table, rendered
    resource lines, a size estimate — for as long as the snapshot itself
    is current.  When a write moves the dataset on, its next snapshot is
    this one plus the write's WAL delta (:meth:`Dataset.snapshot`), and a
    derived value registered with a ``forward`` moves with it; this
    snapshot and what it derived are left as they are.
    """

    __slots__ = ("records", "lsns", "_keys", "_derived", "_forwards")

    def __init__(
        self,
        records: Tuple[dict, ...],
        lsns: Tuple[int, ...],
        keys: Optional[Tuple[List, ...]] = None,
    ):
        self.records = records
        self.lsns = lsns
        # per partition, its primary keys in scan order: what a forward
        # places written keys against
        self._keys = keys
        self._derived: Dict[object, object] = {}
        self._forwards: Dict[object, Callable] = {}

    def derived(
        self,
        key,
        build: Callable[[Tuple[dict, ...]], object],
        forward: Optional[Callable[[object, "SnapshotDelta"], object]] = None,
    ):
        """``build(records)``, computed once per snapshot and ``key``.

        The result is shared by every reader of this snapshot, so readers
        must treat it as read-only.  With ``forward``, the successor
        snapshot starts with ``forward(value, delta)`` under ``key``
        instead of building it afresh; ``forward`` returns ``None`` when it
        cannot, and the successor builds the value when first asked.
        """
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = build(self.records)
            if forward is not None:
                self._forwards[key] = forward
            return value

    def positions(self) -> Iterator[Tuple[int, object]]:
        """``(partition, primary key)`` of each record, in scan order."""
        for pid, keys in enumerate(self._keys):
            for key in keys:
                yield pid, key

    def _successor(self, records, lsns, keys, removed, added) -> "ReferenceSnapshot":
        moved = ReferenceSnapshot(records, lsns, keys)
        delta = SnapshotDelta(self, moved, removed, added)
        # in registration order: a value may read what an earlier one
        # forwarded to (a table's byte estimate reads the table)
        for key, forward in list(self._forwards.items()):
            value = forward(self._derived[key], delta)
            if value is not None:
                moved._derived[key] = value
                moved._forwards[key] = forward
        return moved


class SnapshotDelta:
    """What one write sequence changed between two snapshots of a dataset.

    ``removed`` and ``added`` hold ``((partition, primary key), record)``
    pairs in scan order: a deleted record is only in ``removed``, a new key
    only in ``added``, and a replaced record is in both at one position.
    """

    __slots__ = ("old", "new", "removed", "added")

    def __init__(self, old, new, removed, added):
        self.old = old
        self.new = new
        self.removed = removed
        self.added = added


class Dataset:
    """A partitioned, indexed record store."""

    def __init__(
        self,
        name: str,
        datatype: Datatype,
        primary_key: str,
        num_partitions: int = 1,
        memtable_budget: int = 4096,
        validate: bool = True,
    ):
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        self.name = name
        self.datatype = datatype
        self.primary_key = primary_key
        self._key_path = split_path(primary_key)
        # a top-level key is read straight off the record; a nested one
        # is walked by primary_key_of
        self._key_field = self._key_path[0] if len(self._key_path) == 1 else None
        self.num_partitions = num_partitions
        self.validate = validate
        self.partitions: List[LSMTree] = [
            LSMTree(memtable_budget=memtable_budget) for _ in range(num_partitions)
        ]
        # index name -> per-partition SecondaryIndex list
        self.indexes: Dict[str, List[SecondaryIndex]] = {}
        self._index_fields: Dict[str, Tuple[str, IndexKind]] = {}
        self._update_listeners: List[Callable[[str, object], None]] = []
        # the latest snapshot() call's result
        self._snapshot: Optional[ReferenceSnapshot] = None

    # ------------------------------------------------------------------ admin

    def create_index(self, name: str, field: str, kind: IndexKind) -> None:
        """Create a secondary index and bulk-load it from existing records."""
        if name in self.indexes:
            raise IndexError_(f"index {name!r} already exists on {self.name}")
        per_partition = [SecondaryIndex(name, field, kind) for _ in self.partitions]
        for pid, tree in enumerate(self.partitions):
            for key, record in tree.scan():
                per_partition[pid].on_insert(record, key)
        self.indexes[name] = per_partition
        self._index_fields[name] = (field, kind)

    def drop_index(self, name: str) -> None:
        """Drop a secondary index; scans over its field fall back to hash."""
        if name not in self.indexes:
            raise IndexError_(f"no index {name!r} on {self.name}")
        del self.indexes[name]
        del self._index_fields[name]

    def index_on(self, field: str, kind: Optional[IndexKind] = None):
        """Find an index over ``field`` (optionally of a specific kind)."""
        for name, (ifield, ikind) in self._index_fields.items():
            if ifield == field and (kind is None or kind is ikind):
                return name
        return None

    def add_update_listener(self, callback: Callable[[str, object], None]) -> None:
        """Register a hook fired as (operation, key) on every write."""
        self._update_listeners.append(callback)

    # ------------------------------------------------------------------ write

    def _partition_of(self, key) -> int:
        return hash_partition(key, self.num_partitions)

    def locate(self, record: dict):
        """``(primary key, its 64-bit hash)``: what a caller that also routes
        by the key hands back to :meth:`upsert` / :meth:`insert` as
        ``located``, so both are worked out once per record."""
        field = self._key_field
        key = (
            record.get(field)
            if field is not None and isinstance(record, dict)
            else None
        )
        if key is None:  # nested path, or no key: the walker words the error
            key = primary_key_of(record, self._key_path)
        return key, key_hash(key)

    def _prepare(self, record: dict, located=None):
        if self.validate:
            self.datatype.validate(record)
        key, hashed = located or self.locate(record)
        return key, hashed % self.num_partitions

    def _commit(self, op: str, key) -> None:
        for listener in self._update_listeners:
            listener(op, key)

    def insert(self, record: dict, located=None) -> None:
        key, pid = self._prepare(record, located)
        tree = self.partitions[pid]
        tree.insert(key, record)  # raises DuplicateKeyError on conflict
        for per_partition in self.indexes.values():
            per_partition[pid].on_insert(record, key)
        self._commit("insert", key)

    def upsert(self, record: dict, located=None) -> None:
        # the feed's write, once per stored record: _prepare and _commit
        # are written out here
        if self.validate:
            self.datatype.validate(record)
        key, hashed = located or self.locate(record)
        pid = hashed % self.num_partitions
        tree = self.partitions[pid]
        old = tree.get(key)
        tree.upsert(key, record)
        if self.indexes:
            for per_partition in self.indexes.values():
                per_partition[pid].on_upsert(old, record, key)
        if self._update_listeners:
            for listener in self._update_listeners:
                listener("upsert", key)

    def delete(self, key) -> None:
        pid = self._partition_of(key)
        tree = self.partitions[pid]
        old = tree.get(key)
        if old is None:
            raise KeyNotFoundError(key)
        tree.delete(key)
        for per_partition in self.indexes.values():
            per_partition[pid].on_delete(old, key)
        self._commit("delete", key)

    def upsert_many(self, records) -> int:
        count = 0
        for record in records:
            self.upsert(record)
            count += 1
        return count

    def flush_all(self) -> None:
        """Flush every partition's memtable (post-bulk-load quiescence).

        After a bulk load the in-memory components would otherwise stay
        active and every read would pay the §7.3 update-activity penalty;
        real systems reach a flushed steady state.
        """
        for tree in self.partitions:
            tree.flush()

    # ------------------------------------------------------------------- read

    def get(self, key) -> Optional[dict]:
        return self.partitions[self._partition_of(key)].get(key)

    def __len__(self) -> int:
        return sum(len(tree) for tree in self.partitions)

    def scan(self) -> Iterator[dict]:
        """Scan every partition (partition order, key order within)."""
        for tree in self.partitions:
            for _key, record in tree.scan():
                yield record

    def snapshot(self) -> ReferenceSnapshot:
        """The dataset's contents as one shared, immutable read snapshot.

        Keyed on the partitions' WAL LSNs: while no partition has taken a
        write, a rescan would return the same record objects in the same
        order, so the held snapshot — and everything derived from it — *is*
        that rescan.  Any write, through the dataset or straight to a
        partition, moves an LSN.  The next call then moves the held
        snapshot forward by each partition's logged writes between the two
        LSNs (flushes and merges log none), so its ``records`` are what a
        rescan would return; it scans afresh only when nothing is held or a
        written key cannot be ordered against the held ones.  One snapshot
        is held per dataset; a newer one replaces it.
        """
        lsns = tuple(tree.lsn for tree in self.partitions)
        held = self._snapshot
        if held is None or held.lsns != lsns:
            moved = None if held is None else self._forward(held, lsns)
            held = self._snapshot = moved or self._rescan(lsns)
        return held

    def _rescan(self, lsns) -> ReferenceSnapshot:
        records = tuple(self.scan())
        keys = tuple([key for key, _ in tree.scan()] for tree in self.partitions)
        return ReferenceSnapshot(records, lsns, keys)

    def _forward(self, held, lsns) -> Optional[ReferenceSnapshot]:
        """``held`` moved to ``lsns`` by each partition's logged writes, or
        ``None`` when written keys do not order against the held ones (keys
        of several types raise ``TypeError``)."""
        old = held.records
        parts: List[Sequence] = []
        keys: List[List] = []
        removed: List[Tuple] = []
        added: List[Tuple] = []
        base = 0
        for pid, (tree, start, stop, held_keys) in enumerate(
            zip(self.partitions, held.lsns, lsns, held._keys)
        ):
            end = base + len(held_keys)
            if start == stop:
                parts.append(old[base:end])
                keys.append(held_keys)
                base = end
                continue
            writes = dict(tree.logged_writes(start, stop))  # the last one wins
            moved_keys: List = []
            done = 0  # held_keys[:done] are placed
            try:
                for key in sorted(writes):
                    at = bisect_left(held_keys, key)
                    moved_keys += held_keys[done:at]
                    parts.append(old[base + done : base + at])
                    done = at
                    if at < len(held_keys) and held_keys[at] == key:
                        removed.append(((pid, held_keys[at]), old[base + at]))
                        done = at + 1
                    record = writes[key]
                    if record is not TOMBSTONE:
                        moved_keys.append(key)
                        parts.append((record,))
                        added.append(((pid, key), record))
            except TypeError:
                return None
            moved_keys += held_keys[done:]
            parts.append(old[base + done : end])
            keys.append(moved_keys)
            base = end
        records = tuple(chain.from_iterable(parts))
        return held._successor(records, lsns, tuple(keys), removed, added)

    # -------------------------------------------------------------- index API

    def index_probe_equal(self, index_name: str, value) -> Iterator[dict]:
        """Equality probe through a B-tree index, fetching the records."""
        for pid, index in enumerate(self.indexes[index_name]):
            for pk in index.probe_equal(value):
                record = self.partitions[pid].get(pk)
                if record is not None:
                    yield record

    def index_probe_spatial(
        self, index_name: str, query, visits: list
    ) -> Iterator[dict]:
        """Spatial MBR probe through an R-tree index, fetching the records.

        The query's MBR corners are worked out once for every partition's
        search, which appends the nodes it read to ``visits``.
        """
        query_corners = corners(query)
        for index, tree in zip(self.indexes[index_name], self.partitions):
            get = tree.get
            for _value, pk in index.probe_spatial(query_corners, visits):
                record = get(pk)
                if record is not None:
                    yield record

    # ------------------------------------------------------------ observables

    @property
    def update_activity(self) -> bool:
        """True when any partition has an active in-memory component."""
        for tree in self.partitions:
            if tree.in_memory_component_active:
                return True
        return False

    @property
    def update_pressure(self) -> float:
        """How full the in-memory components are (0..1).

        Higher sustained update rates keep more entries in the memtables
        between flushes, making every reference read pay more fetching,
        locking, and comparison work (§7.3) — the cost model scales its
        activity penalty by this.
        """
        return min(
            1.0,
            sum(
                len(tree._memtable) / min(tree.memtable_budget, 256)
                for tree in self.partitions
            )
            / len(self.partitions),
        )

    @property
    def read_amplification(self) -> float:
        """Mean per-partition read amplification (Section 7.3 cost input)."""
        return sum(t.read_amplification for t in self.partitions) / len(
            self.partitions
        )

    def storage_stats(self) -> dict:
        out: Dict[str, int] = {}
        for tree in self.partitions:
            for stat_name, value in tree.stats.snapshot().items():
                out[stat_name] = out.get(stat_name, 0) + value
        return out
