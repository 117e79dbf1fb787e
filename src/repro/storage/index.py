"""Secondary index management for datasets.

A :class:`SecondaryIndex` keeps a B+-tree (value indexes) or R-tree
(spatial indexes) synchronized with the primary storage of one dataset
partition.  Index maintenance happens inside the dataset's write path so
primary data and indexes can never diverge.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Set, Tuple

from ..adm.schema import field_path
from ..adm.values import MISSING
from ..errors import IndexError_
from .btree import BPlusTree
from .rtree import RTree


class IndexKind(enum.Enum):
    BTREE = "btree"
    RTREE = "rtree"


class SecondaryIndex:
    """One partition's secondary index over a record field."""

    def __init__(self, name: str, field: str, kind: IndexKind):
        self.name = name
        self.field = field
        self.kind = kind
        if kind is IndexKind.BTREE:
            self._btree: Optional[BPlusTree] = BPlusTree()
            self._rtree: Optional[RTree] = None
        elif kind is IndexKind.RTREE:
            self._btree = None
            self._rtree = RTree()
        else:  # pragma: no cover - exhaustive enum
            raise IndexError_(f"unknown index kind: {kind}")

    def __len__(self) -> int:
        tree = self._btree if self._btree is not None else self._rtree
        return len(tree)

    def _key_of(self, record):
        value = field_path(record, self.field)
        if value is MISSING or value is None:
            return None  # records without the field are simply not indexed
        return value

    def on_insert(self, record, primary_key) -> None:
        key = self._key_of(record)
        if key is None:
            return
        if self._btree is not None:
            self._btree.insert(key, primary_key)
        else:
            self._rtree.insert(key, primary_key)

    def on_delete(self, record, primary_key) -> None:
        key = self._key_of(record)
        if key is None:
            return
        if self._btree is not None:
            self._btree.delete(key, primary_key)
        else:
            self._rtree.delete(key, primary_key)

    def on_upsert(self, old_record, new_record, primary_key) -> None:
        if old_record is not None:
            self.on_delete(old_record, primary_key)
        self.on_insert(new_record, primary_key)

    # ----------------------------------------------------------------- probes

    def probe_equal(self, value) -> Set[object]:
        if self._btree is None:
            raise IndexError_(f"index {self.name} is not a B-tree")
        return self._btree.search(value)

    def probe_spatial(self, query, visits: list) -> List[Tuple[object, object]]:
        """(spatial_value, primary_key) with MBRs intersecting query; the
        search's node count goes on ``visits`` (see :meth:`RTree.search`)."""
        if self._rtree is None:
            raise IndexError_(f"index {self.name} is not an R-tree")
        return self._rtree.search(query, visits)
