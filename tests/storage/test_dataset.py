"""Partitioned datasets: routing, indexes, listeners, observability."""

import pytest

from repro.adm import Circle, Point, Rectangle, open_type
from repro.errors import AdmTypeError, DuplicateKeyError, IndexError_, KeyNotFoundError
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
        with pytest.raises(AdmTypeError):
            ds.insert({"id": "nope"})

    def test_every_write_appends_to_the_wal(self, dataset):
        before = sum(tree.lsn for tree in dataset.partitions)
        dataset.upsert({"id": 1, "value": 0})
        dataset.delete(2)
        assert sum(tree.lsn for tree in dataset.partitions) == before + 2

    def test_update_listener_fires(self, dataset):
        events = []
        dataset.add_update_listener(lambda op, key: events.append((op, key)))
        dataset.upsert({"id": 1})
        dataset.delete(3)
        assert events == [("upsert", 1), ("delete", 3)]


def everything(dataset):
    """What a write can touch: every partition's counters (its WAL
    included) and records, and every index's postings."""
    world = Rectangle(float("-inf"), float("-inf"), float("inf"), float("inf"))
    return (
        [tree.stats.snapshot() for tree in dataset.partitions],
        [tree.lsn for tree in dataset.partitions],
        [list(tree.scan()) for tree in dataset.partitions],
        {
            name: [
                index.probe_spatial(world, [])
                if index.kind is IndexKind.RTREE
                else [(v, index.probe_equal(v)) for v in range(0, 200, 2)]
                for index in per_partition
            ]
            for name, per_partition in dataset.indexes.items()
        },
    )


class TestUnboundableSpatialWrites:
    """A value an R-tree index cannot bound is refused before any of the
    write lands: the LSM, its WAL and every index stay as they were."""

    @pytest.fixture
    def indexed(self, dataset):
        dataset.create_index("by_loc", "loc", IndexKind.RTREE)
        dataset.create_index("by_value", "value", IndexKind.BTREE)
        return dataset

    def test_insert_is_refused_whole(self, indexed):
        before = everything(indexed)
        with pytest.raises(AdmTypeError, match=r"D\.loc .*'oops'"):
            indexed.insert({"id": 200, "value": 4, "loc": "oops"})
        assert everything(indexed) == before
        assert indexed.get(200) is None

    def test_upsert_is_refused_whole(self, indexed):
        before = everything(indexed)
        with pytest.raises(AdmTypeError, match=r"D\.loc .*12"):
            indexed.upsert({"id": 5, "value": 4, "loc": 12})
        assert everything(indexed) == before
        assert indexed.get(5)["loc"] == Point(5.0, 0.0)

    def test_create_index_is_refused_and_creates_none(self):
        ds = Dataset("S", open_type("T", id="int64"), "id", num_partitions=2)
        ds.insert({"id": 1, "loc": Point(1.0, 2.0)})
        ds.insert({"id": 2, "loc": "oops"})
        with pytest.raises(AdmTypeError, match=r"S\.loc .*'oops'"):
            ds.create_index("by_loc", "loc", IndexKind.RTREE)
        assert ds.indexes == {} and ds.index_on("loc") is None
        ds.upsert({"id": 3, "loc": "still fine without the index"})

    def test_missing_and_null_stay_unindexed(self, indexed):
        indexed.insert({"id": 200})
        indexed.upsert({"id": 201, "loc": None})
        assert indexed.get(200) == {"id": 200}
        assert sum(len(index) for index in indexed.indexes["by_loc"]) == 100

    def test_dropping_the_index_lifts_the_check(self, indexed):
        indexed.drop_index("by_loc")
        indexed.upsert({"id": 5, "loc": "oops"})
        assert indexed.get(5)["loc"] == "oops"


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
        found = dataset.index_probe_spatial("by_loc", Point(3.0, 0.0), [])
        got = {r["id"] for r in found}
        assert got == {i for i in range(100) if i % 10 == 3}

    def test_rtree_probe_reads_every_partition_with_one_query(self, dataset):
        """A probe's corners, worked out once, give every partition's search
        what the spatial value gives it: the same records, in partition
        order, and one node count per partition."""
        dataset.create_index("by_loc", "loc", IndexKind.RTREE)
        query = Circle(Point(3.0, 0.0), 1.0)
        visits = []
        got = list(dataset.index_probe_spatial("by_loc", query, visits))
        expected, expected_visits = [], []
        for index, tree in zip(dataset.indexes["by_loc"], dataset.partitions):
            for _value, pk in index.probe_spatial(query, expected_visits):
                expected.append(tree.get(pk))
        assert got == expected
        assert visits == expected_visits and len(visits) == 4
        assert {r["id"] for r in got} == {
            i for i in range(100) if i % 10 in (2, 3, 4)
        }

    def test_spatial_probe_of_a_btree_index_raises(self, dataset):
        dataset.create_index("by_value", "value", IndexKind.BTREE)
        with pytest.raises(IndexError_):
            list(dataset.index_probe_spatial("by_value", Point(1.0, 0.0), []))

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
