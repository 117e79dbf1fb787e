"""The two seams the benchmark's tracer times the record path through.

``benchmarks/e2e/tracer.py`` rebinds ``parse_json`` where the parser
operator looks it up — the module global
``repro.hyracks.operators.basic.parse_json`` — and ``upsert`` /
``upsert_many`` on the target dataset *instance*.  A feed that stopped
crossing either one would read ``adm.parse_calls = 0`` or
``storage.upsert_s = 0`` and look infinitely fast, so both crossings are
pinned here: once per envelope, once per stored record.
"""

from repro import AsterixLite
from repro.hyracks.operators import basic
from repro.ingestion import GeneratorAdapter
from repro.workloads import TWEET_TYPE_FULL, TweetGenerator

RECORDS = 1_000


def tweet_feed():
    system = AsterixLite(num_nodes=2, default_partitions=2)
    system.create_type("TweetType", dict(TWEET_TYPE_FULL.fields))
    system.create_dataset("Tweets", "TweetType", "id")
    system.create_feed("TweetFeed", {"type-name": "TweetType"})
    system.connect_feed("TweetFeed", "Tweets")
    return system, list(TweetGenerator(seed=3).raw_json(RECORDS))


def test_every_envelope_is_parsed_through_the_operator_modules_global(monkeypatch):
    system, raws = tweet_feed()
    parsed = []
    original = basic.parse_json

    def counting(text, datatype=None):
        parsed.append(text)
        return original(text, datatype)

    monkeypatch.setattr(basic, "parse_json", counting)
    report = system.start_feed("TweetFeed", GeneratorAdapter(raws), batch_size=420)
    assert report.records_stored == RECORDS
    assert sorted(parsed) == sorted(raws)  # one call per envelope


def test_every_record_is_stored_through_the_instances_upsert():
    system, raws = tweet_feed()
    target = system.catalog["Tweets"]
    stored = []
    upsert, upsert_many = target.upsert, target.upsert_many

    def counting_upsert(record, located=None):
        stored.append(record["id"])
        return upsert(record, located)

    def counting_upsert_many(records):
        records = list(records)
        stored.extend(record["id"] for record in records)
        return upsert_many(records)

    # on the instance, before the feed starts: what the tracer does
    target.upsert, target.upsert_many = counting_upsert, counting_upsert_many
    report = system.start_feed("TweetFeed", GeneratorAdapter(raws), batch_size=420)
    assert report.records_stored == RECORDS
    assert sorted(stored) == list(range(RECORDS))
    assert len(target) == RECORDS
