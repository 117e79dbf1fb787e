"""The write path touches each record once: one key extraction and one FNV
hash per stored record, with commits, listeners and LSM counters unchanged."""

import pytest

from repro import AsterixLite
from repro.adm import parse_json
from repro.cluster import Cluster
from repro.errors import AdmTypeError
from repro.ingestion import GeneratorAdapter
from repro.ingestion.pipelines import _StorageLayer
from repro.storage import Dataset
from repro.storage import dataset as dataset_module
from repro.workloads import TWEET_TYPE_FULL, TweetGenerator

NODES = 2


def make_target():
    return Dataset("Tweets", TWEET_TYPE_FULL, "id", num_partitions=3)


def typed_tweets(count):
    raws = TweetGenerator(seed=11).raw_json(count)
    return [parse_json(raw, TWEET_TYPE_FULL) for raw in raws]


@pytest.fixture
def calls(monkeypatch):
    """Count trips through the FNV hash and the key extractor.

    ``Dataset.locate`` is where every write path reads a record's key (a
    top-level key straight off the record, a nested one through
    ``primary_key_of``), so one trip is one extraction."""
    counts = {"key_hash": 0, "locate": 0}
    original_hash, original_locate = dataset_module.key_hash, Dataset.locate

    def key_hash(key):
        counts["key_hash"] += 1
        return original_hash(key)

    def locate(self, record):
        counts["locate"] += 1
        return original_locate(self, record)

    monkeypatch.setattr(dataset_module, "key_hash", key_hash)
    monkeypatch.setattr(Dataset, "locate", locate)
    return counts


class TestStoreBatchOncePerRecord:
    def test_one_hash_and_one_key_extraction_per_record(self, calls):
        target = make_target()
        events = []
        target.add_update_listener(lambda op, key: events.append((op, key)))
        records = typed_tweets(240)
        outputs = [records[0::2], records[1::2]]  # as produced on two nodes
        storage = _StorageLayer(Cluster(NODES), target)
        storage.store_batch(outputs)

        n = len(records)
        assert calls == {"key_hash": n, "locate": n}
        assert storage.records_stored == n
        assert target.version == n
        in_order = [r["id"] for part in outputs for r in part]
        assert events == [("upsert", key) for key in in_order]
        # node and partition are the same hash under two moduli
        for pid, tree in enumerate(target.partitions):
            for key, _record in tree.scan():
                assert dataset_module.hash_partition(key, 3) == pid

    def test_busy_accounting_matches_separate_hashing(self):
        records = typed_tweets(300)
        outputs = [records[:100], records[100:]]
        cluster = Cluster(NODES)
        cost = cluster.cost_model
        storage = _StorageLayer(cluster, make_target())
        busiest = storage.store_batch(outputs)

        expected = {}
        for node, part in enumerate(outputs):
            for record in part:
                home = dataset_module.hash_partition(record["id"], NODES)
                if home != node:
                    expected[node] = expected.get(node, 0.0) + cost.transfer_per_record
                expected[home] = expected.get(home, 0.0) + cost.store_per_record
        for node in {dataset_module.hash_partition(r["id"], NODES) for r in records}:
            expected[node] += cost.log_flush_per_batch
        assert storage.node_busy == pytest.approx(expected)
        assert busiest == pytest.approx(max(expected.values()))

    def test_direct_upsert_still_extracts_and_hashes_once(self, calls):
        target = make_target()
        assert target.upsert_many(typed_tweets(50)) == 50
        assert calls == {"key_hash": 50, "locate": 50}
        assert target.version == 50

    def test_target_type_is_still_enforced_at_store(self):
        storage = _StorageLayer(Cluster(NODES), make_target())
        bad = dict(typed_tweets(1)[0], latitude="north")
        with pytest.raises(AdmTypeError, match="TweetTypeFull.latitude"):
            storage.store_batch([[bad], []])

    def test_missing_key_names_the_declared_path(self):
        nested = Dataset("N", TWEET_TYPE_FULL, "user.uid", validate=False)
        with pytest.raises(AdmTypeError, match=r"at path 'user\.uid'$"):
            nested.upsert({"id": 1, "user": {}})


def test_plain_feed_storage_counters_match_the_parent_commit():
    """50k tweets through a typed plain feed: every LSM counter and the
    dataset version as measured at the commit before the codec."""
    system = AsterixLite(num_nodes=2, default_partitions=2)
    system.create_type("TweetType", dict(TWEET_TYPE_FULL.fields))
    system.create_dataset("Tweets", "TweetType", "id")
    system.create_feed("TweetFeed", {"type-name": "TweetType"})
    system.connect_feed("TweetFeed", "Tweets")
    raws = list(TweetGenerator(seed=7).raw_json(50_000))
    report = system.start_feed(
        "TweetFeed", adapter=GeneratorAdapter(raws), batch_size=420
    )
    target = system.catalog["Tweets"]
    assert report.records_stored == 50_000
    assert target.version == 50_000
    assert target.storage_stats() == {
        "inserts": 0,
        "upserts": 50_000,
        "deletes": 0,
        "lookups": 50_000,
        "flushes": 12,
        "merges": 2,
        "wal_appends": 50_000,
        "component_reads": 76_272,
    }
