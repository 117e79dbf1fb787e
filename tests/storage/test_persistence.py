"""Dataset snapshots: save/load round-trips."""

import pytest

from repro.adm import DateTime, Duration, Point, Rectangle, make_type
from repro.errors import StorageError
from repro.storage import Dataset, IndexKind
from repro.storage.persistence import load_dataset, save_dataset


@pytest.fixture
def dataset():
    t = make_type(
        "EventType",
        {"id": "int64", "when": "datetime", "where": "point", "tags": "[string]?"},
    )
    ds = Dataset("Events", t, "id", num_partitions=3)
    for i in range(50):
        ds.insert(
            {
                "id": i,
                "when": DateTime(1_500_000_000_000 + i * 1000),
                "where": Point(float(i % 10), float(i % 7)),
                "tags": [f"t{i % 3}"],
                "extra": {"nested": i},
            }
        )
    ds.create_index("by_where", "where", IndexKind.RTREE)
    return ds


class TestRoundTrip:
    def test_record_count_preserved(self, dataset, tmp_path):
        path = str(tmp_path / "events.adm")
        assert save_dataset(dataset, path) == 50
        loaded = load_dataset(path)
        assert len(loaded) == 50

    def test_extended_values_roundtrip(self, dataset, tmp_path):
        path = str(tmp_path / "events.adm")
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        original = dataset.get(7)
        restored = loaded.get(7)
        assert restored == original
        assert isinstance(restored["when"], DateTime)
        assert isinstance(restored["where"], Point)

    def test_duration_with_millis_roundtrips(self, tmp_path):
        # was serialized as its Python repr, which load_dataset rejected
        lease_type = make_type("L", {"id": "int64", "ttl": "duration"})
        leases = Dataset("Leases", lease_type, "id")
        leases.insert({"id": 1, "ttl": Duration(2, 1500)})
        leases.insert({"id": 2, "ttl": Duration(2, 0)})
        path = str(tmp_path / "leases.adm")
        save_dataset(leases, path)
        loaded = load_dataset(path)
        assert loaded.get(1) == {"id": 1, "ttl": Duration(2, 1500)}
        assert loaded.get(2) == {"id": 2, "ttl": Duration(2, 0)}

    def test_metadata_preserved(self, dataset, tmp_path):
        path = str(tmp_path / "events.adm")
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        assert loaded.name == "Events"
        assert loaded.primary_key == "id"
        assert loaded.num_partitions == 3
        assert loaded.datatype.is_open

    def test_indexes_rebuilt(self, dataset, tmp_path):
        path = str(tmp_path / "events.adm")
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        assert loaded.index_on("where", IndexKind.RTREE) == "by_where"
        got = sorted(
            r["id"] for r in loaded.index_probe_spatial("by_where", Point(3.0, 3.0))
        )
        expected = sorted(
            r["id"] for r in dataset.index_probe_spatial("by_where", Point(3.0, 3.0))
        )
        assert got == expected

    def test_repartition_on_load(self, dataset, tmp_path):
        path = str(tmp_path / "events.adm")
        save_dataset(dataset, path)
        loaded = load_dataset(path, num_partitions=5)
        assert loaded.num_partitions == 5
        assert len(loaded) == 50
        assert loaded.get(42) == dataset.get(42)

    def test_loaded_dataset_quiescent(self, dataset, tmp_path):
        path = str(tmp_path / "events.adm")
        save_dataset(dataset, path)
        assert not load_dataset(path).update_activity

    def test_snapshot_includes_memtable_contents(self, dataset, tmp_path):
        dataset.upsert({"id": 999, "when": DateTime(0), "where": Point(0, 0)})
        path = str(tmp_path / "events.adm")
        save_dataset(dataset, path)
        assert load_dataset(path).get(999) is not None


class TestErrors:
    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.adm"
        path.write_text("")
        with pytest.raises(StorageError, match="empty snapshot"):
            load_dataset(str(path))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.adm"
        path.write_text("not json\n")
        with pytest.raises(StorageError, match="malformed snapshot header"):
            load_dataset(str(path))

    def test_unknown_version_rejected(self, tmp_path):
        import json

        path = tmp_path / "future.adm"
        path.write_text(json.dumps({"format_version": 99}) + "\n")
        with pytest.raises(StorageError, match="unsupported snapshot format"):
            load_dataset(str(path))

    def test_no_tmp_file_left_behind(self, dataset, tmp_path):
        path = str(tmp_path / "events.adm")
        save_dataset(dataset, path)
        assert not (tmp_path / "events.adm.tmp").exists()


class TestFacadeIntegration:
    def test_save_and_load_through_system(self, tmp_path):
        from repro import AsterixLite

        a = AsterixLite(num_nodes=2)
        a.execute(
            "CREATE TYPE T AS OPEN { id: int64 };"
            "CREATE DATASET D(T) PRIMARY KEY id;"
        )
        a.insert("D", [{"id": i, "v": i * 2} for i in range(20)])
        path = str(tmp_path / "d.adm")
        assert a.save_dataset("D", path) == 20

        b = AsterixLite(num_nodes=3)
        b.load_dataset(path)
        assert b.query("SELECT VALUE count(d) FROM D d")[0] == 20
        assert b.query("SELECT VALUE d.v FROM D d WHERE d.id = 3") == [6]

    def test_load_conflicting_name_rejected(self, tmp_path):
        from repro import AsterixLite
        from repro.errors import SqlppAnalysisError

        a = AsterixLite(num_nodes=1)
        a.execute(
            "CREATE TYPE T AS OPEN { id: int64 };"
            "CREATE DATASET D(T) PRIMARY KEY id;"
        )
        path = str(tmp_path / "d.adm")
        a.save_dataset("D", path)
        import pytest as _pytest

        with _pytest.raises(SqlppAnalysisError, match="already exists"):
            a.load_dataset(path)
