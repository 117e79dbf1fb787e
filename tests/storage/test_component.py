"""Immutable sorted-run components and merging."""

import pytest

from repro.storage import SortedRunComponent, merge_components
from repro.storage.memtable import TOMBSTONE, MemTable


class TestSortedRun:
    def test_binary_search_get(self):
        comp = SortedRunComponent([(i, f"v{i}") for i in range(0, 100, 2)])
        assert comp.get(42) == "v42"
        assert comp.get(43) is None

    def test_unsorted_entries_rejected(self):
        with pytest.raises(ValueError):
            SortedRunComponent([(2, "a"), (1, "b")])

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError):
            SortedRunComponent([(1, "a"), (1, "b")])

    def test_range_scan(self):
        comp = SortedRunComponent([(i, i) for i in range(10)])
        assert [k for k, _ in comp.range_scan(3, 6)] == [3, 4, 5, 6]
        assert [k for k, _ in comp.range_scan(3, 6, include_low=False)] == [4, 5, 6]

    def test_component_ids_unique(self):
        a = SortedRunComponent([])
        b = SortedRunComponent([])
        assert a.component_id != b.component_id


class TestMerge:
    def test_newest_wins(self):
        newest = SortedRunComponent([(1, "new")])
        oldest = SortedRunComponent([(1, "old"), (2, "keep")])
        merged = merge_components([newest, oldest], drop_tombstones=False)
        assert merged.get(1) == "new"
        assert merged.get(2) == "keep"

    def test_tombstones_dropped_at_bottom(self):
        newest = SortedRunComponent([(1, TOMBSTONE)])
        oldest = SortedRunComponent([(1, "old")])
        merged = merge_components([newest, oldest], drop_tombstones=True)
        assert merged.get(1) is None
        assert len(merged) == 0

    def test_tombstones_kept_mid_level(self):
        newest = SortedRunComponent([(1, TOMBSTONE)])
        oldest = SortedRunComponent([(2, "b")])
        merged = merge_components([newest, oldest], drop_tombstones=False)
        assert merged.get(1) is TOMBSTONE

    def test_merge_level_increments(self):
        a = SortedRunComponent([(1, "a")], level=0)
        b = SortedRunComponent([(2, "b")], level=1)
        merged = merge_components([a, b], drop_tombstones=True)
        assert merged.level == 2


class TestMemTable:
    def test_budget_flag(self):
        mem = MemTable(entry_budget=2)
        assert not mem.is_full
        mem.put(1, "a", 0)
        mem.put(2, "b", 1)
        assert mem.is_full

    def test_sorted_entries(self):
        mem = MemTable()
        for k in [3, 1, 2]:
            mem.put(k, f"v{k}", k)
        assert [k for k, _ in mem.sorted_entries()] == [1, 2, 3]

    def test_delete_records_tombstone(self):
        mem = MemTable()
        mem.delete(1, 0)
        assert mem.get(1) is TOMBSTONE

    def test_lsn_tracking(self):
        mem = MemTable()
        mem.put(1, "a", 5)
        mem.put(2, "b", 9)
        assert mem.min_lsn == 5 and mem.max_lsn == 9
