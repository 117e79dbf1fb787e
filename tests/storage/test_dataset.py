"""Partitioned datasets: routing, indexes, listeners, observability."""

import pytest

from repro.adm import Point, open_type
from repro.errors import DuplicateKeyError, IndexError_, KeyNotFoundError
from repro.storage import Dataset, IndexKind
from repro.storage.dataset import hash_partition


@pytest.fixture
def dataset():
    t = open_type("T", id="int64")
    ds = Dataset("D", t, "id", num_partitions=4, memtable_budget=8)
    for i in range(100):
        ds.insert({"id": i, "value": i * 2, "loc": Point(float(i % 10), 0.0)})
    return ds


class TestPartitioning:
    def test_records_land_on_hash_partition(self, dataset):
        for pid in range(4):
            for key, _record in dataset.partitions[pid].scan():
                assert hash_partition(key, 4) == pid

    def test_hash_partition_deterministic(self):
        assert hash_partition("abc", 7) == hash_partition("abc", 7)

    def test_hash_partition_spreads(self):
        counts = [0] * 4
        for i in range(1000):
            counts[hash_partition(i, 4)] += 1
        assert min(counts) > 150

    def test_scan_covers_all(self, dataset):
        assert len(list(dataset.scan())) == 100

    def test_partition_count_validation(self):
        with pytest.raises(ValueError):
            Dataset("X", open_type("T", id="int64"), "id", num_partitions=0)


class TestWrites:
    def test_duplicate_insert_rejected(self, dataset):
        with pytest.raises(DuplicateKeyError):
            dataset.insert({"id": 5})

    def test_upsert_replaces(self, dataset):
        dataset.upsert({"id": 5, "value": -1})
        assert dataset.get(5)["value"] == -1

    def test_delete(self, dataset):
        dataset.delete(5)
        assert dataset.get(5) is None
        with pytest.raises(KeyNotFoundError):
            dataset.delete(5)

    def test_validation_enforced(self):
        t = open_type("T", id="int64")
        ds = Dataset("V", t, "id", validate=True)
        from repro.errors import AdmTypeError

        with pytest.raises(AdmTypeError):
            ds.insert({"id": "nope"})

    def test_version_bumps_on_writes(self, dataset):
        v = dataset.version
        dataset.upsert({"id": 1, "value": 0})
        dataset.delete(2)
        assert dataset.version == v + 2

    def test_update_listener_fires(self, dataset):
        events = []
        dataset.add_update_listener(lambda op, key: events.append((op, key)))
        dataset.upsert({"id": 1})
        dataset.delete(3)
        assert events == [("upsert", 1), ("delete", 3)]


class TestSecondaryIndexes:
    def test_btree_index_bulk_loaded(self, dataset):
        dataset.create_index("by_value", "value", IndexKind.BTREE)
        got = sorted(r["id"] for r in dataset.index_probe_equal("by_value", 10))
        assert got == [5]

    def test_btree_index_maintained_on_writes(self, dataset):
        dataset.create_index("by_value", "value", IndexKind.BTREE)
        dataset.upsert({"id": 5, "value": 777})
        assert [r["id"] for r in dataset.index_probe_equal("by_value", 777)] == [5]
        assert list(dataset.index_probe_equal("by_value", 10)) == []
        dataset.delete(5)
        assert list(dataset.index_probe_equal("by_value", 777)) == []

    def test_rtree_index_probe(self, dataset):
        dataset.create_index("by_loc", "loc", IndexKind.RTREE)
        got = {r["id"] for r in dataset.index_probe_spatial("by_loc", Point(3.0, 0.0))}
        assert got == {i for i in range(100) if i % 10 == 3}

    def test_duplicate_index_name_rejected(self, dataset):
        dataset.create_index("i1", "value", IndexKind.BTREE)
        with pytest.raises(IndexError_):
            dataset.create_index("i1", "value", IndexKind.BTREE)

    def test_index_on_lookup(self, dataset):
        dataset.create_index("i1", "value", IndexKind.BTREE)
        dataset.create_index("i2", "loc", IndexKind.RTREE)
        assert dataset.index_on("value") == "i1"
        assert dataset.index_on("loc", IndexKind.RTREE) == "i2"
        assert dataset.index_on("loc", IndexKind.BTREE) is None
        assert dataset.index_on("other") is None

    def test_records_without_indexed_field_skipped(self):
        ds = Dataset("S", open_type("T", id="int64"), "id", validate=False)
        ds.create_index("by_x", "x", IndexKind.BTREE)
        ds.insert({"id": 1})  # no 'x'
        ds.insert({"id": 2, "x": 9})
        assert [r["id"] for r in ds.index_probe_equal("by_x", 9)] == [2]


class TestObservability:
    def test_update_activity_and_flush_all(self, dataset):
        assert dataset.update_activity  # fresh writes in memtables
        dataset.flush_all()
        assert not dataset.update_activity
        dataset.upsert({"id": 1})
        assert dataset.update_activity

    def test_storage_stats_aggregated(self, dataset):
        stats = dataset.storage_stats()
        assert stats["inserts"] == 100

    def test_read_amplification_positive(self, dataset):
        assert dataset.read_amplification >= 0
