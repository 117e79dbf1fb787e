"""Property-based tests: read snapshots and the sort-free LSM scan.

``_merge_scan`` below is the scan ``LSMTree`` used before it learned to
pass a single live structure straight through and to overlay several in a
dict.  It stays here as the oracle the new scan must agree with.
"""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.adm import open_type
from repro.sqlpp.evaluator import EvaluationContext, Evaluator, _BuildSide
from repro.sqlpp.memo import canonical_probe_key
from repro.sqlpp.state_cache import StateCache, estimate_entry_bytes
from repro.storage import TOMBSTONE, Dataset, LSMTree, hash_partition

# Hypothesis's own default, spelled out: these properties never set a count
# and must not follow the smaller ``tier1`` profile (tests/conftest.py).
default_budget = settings(max_examples=100)

# ------------------------------------------------------------------- oracle


def _sort_key(key):
    return (type(key).__name__, key)


def _merge_scan(sources):
    """K-way merge, newest source first; tombstones suppress older entries.

    Copies every entry of every source into one list and sorts it again on
    a type-tagged Python key — O(n log n) over runs that were each already
    sorted, whatever the number of sources.
    """
    entries = []
    for priority, source in enumerate(sources):
        for key, value in source:
            entries.append((key, priority, value))
    entries.sort(key=lambda t: (_sort_key(t[0]), t[1]))
    last_key = object()
    for key, _priority, value in entries:
        if key == last_key:
            continue
        last_key = key
        if value is not TOMBSTONE:
            yield key, value


def oracle_scan(tree, low=None, high=None, include_low=True, include_high=True):
    """The memtable and every component, newest first, through the oracle."""

    def in_range(key):
        if low is not None and (key < low or (key == low and not include_low)):
            return False
        if high is not None and (key > high or (key == high and not include_high)):
            return False
        return True

    sources = [[kv for kv in tree._memtable.sorted_entries() if in_range(kv[0])]]
    for component in tree._components:
        sources.append([kv for kv in component.scan() if in_range(kv[0])])
    return list(_merge_scan(sources))


# ------------------------------------------------- LSM scan against the oracle

int_keys = st.integers(min_value=0, max_value=20)
tree_ops = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["insert", "upsert", "delete"]), int_keys),
        st.tuples(st.sampled_from(["flush", "merge_all"]), st.none()),
    ),
    max_size=40,
)


def apply_tree_op(tree, op, key, value):
    if op == "insert":
        if not tree.contains(key):
            tree.insert(key, value)
    elif op == "upsert":
        tree.upsert(key, value)
    elif op == "delete":
        if tree.contains(key):
            tree.delete(key)
    else:
        getattr(tree, op)()


@default_budget
@given(tree_ops, st.integers(min_value=1, max_value=5), int_keys, int_keys)
def test_scan_and_range_scan_agree_with_merge_scan(ops, budget, low, high):
    # merge_fanin=6: tombstones survive in flushed components until a
    # generated merge_all drops them
    tree = LSMTree(memtable_budget=budget, merge_fanin=6)
    for step, (op, key) in enumerate(ops):
        apply_tree_op(tree, op, key, {"step": step})
        expected = oracle_scan(tree)
        assert list(tree.scan()) == expected
        assert len(tree) == len(expected)
    low, high = min(low, high), max(low, high)
    for include_low, include_high in product((True, False), repeat=2):
        bounds = (low, high, include_low, include_high)
        assert list(tree.range_scan(*bounds)) == oracle_scan(tree, *bounds)
    assert list(tree.range_scan(low=low)) == oracle_scan(tree, low=low)
    assert list(tree.range_scan(high=high)) == oracle_scan(tree, high=high)


#: one flushed generation of writes: keys of one type (a memtable sorts its
#: keys, so one generation cannot mix them), ``None`` = delete
generations = st.lists(
    st.one_of(
        st.lists(st.tuples(int_keys, st.one_of(st.none(), st.integers()))),
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c", "d"]),
                st.one_of(st.none(), st.integers()),
            )
        ),
    ),
    max_size=5,
)


@default_budget
@given(generations)
def test_mixed_key_types_order_like_the_oracle(gens):
    """Components of int keys under components of str keys: the C-level
    sort raises ``TypeError`` and the type-tagged order takes over."""
    tree = LSMTree(memtable_budget=1000, merge_fanin=1000)
    for writes in gens:
        for key, value in writes:
            if value is not None:
                tree.upsert(key, value)
            elif tree._memtable.get(key) not in (None, TOMBSTONE):
                # a point lookup would bisect components of the other key
                # type; a key live in the memtable is found before them
                tree.delete(key)
        tree.flush()
        assert list(tree.scan()) == oracle_scan(tree)


# ------------------------------------------------------- dataset snapshots

RECORD_TYPE = open_type("RefType", id="int64")
pids = st.integers(min_value=0, max_value=1)
groups = st.integers(min_value=0, max_value=3)
SHARED_NAN = float("nan")
#: join values: scalars, arrays and objects (filed by canonical key), NULL,
#: and NaN — one object shared by every record that draws it, or a fresh
#: one per record, which a dict files under a key of its own
join_values = st.one_of(
    groups,
    groups.map(lambda g: [g]),
    groups.map(lambda g: {"v": g}),
    st.none(),
    st.just(SHARED_NAN),
    st.builds(float, st.just("nan")),
)
SCAN_KEY = ("scan", "Ref")
HASH_KEY = ("hash", "Ref", "g")


def canonical_regroup(records, field):
    """Group ``records`` by ``field`` the way a build table files them."""
    table = {}
    for record in records:
        value = record.get(field)
        if value is not None:
            try:
                table.setdefault(value, []).append(record)
            except TypeError:
                table.setdefault(canonical_probe_key(value), []).append(record)
    return table


def same_buckets(table, fresh):
    """Equal keys, and each key's records the same objects in one order."""
    assert len(table) == len(fresh)
    for key, records in fresh.items():
        assert len(table[key]) == len(records)
        assert all(a is b for a, b in zip(table[key], records))


def fingerprint(snapshot):
    """What a forward must leave alone: the records, every table key's
    list, and the lists' contents, all by identity; the byte estimates."""
    tables = {
        key: [(k, bucket, list(bucket)) for k, bucket in value.items()]
        for key, value in snapshot._derived.items()
        if key[0] == "hash"
    }
    nbytes = {k: v for k, v in snapshot._derived.items() if k[0] == "nbytes"}
    return snapshot.records, list(snapshot.records), tables, nbytes


def assert_unchanged(snapshot, kept):
    records, items, tables, nbytes = kept
    assert snapshot.records is records
    assert all(a is b for a, b in zip(snapshot.records, items))
    for key, buckets in tables.items():
        table = snapshot._derived[key]
        assert len(table) == len(buckets)
        for k, bucket, contents in buckets:
            assert table[k] is bucket
            assert len(bucket) == len(contents)
            assert all(a is b for a, b in zip(bucket, contents))
    for key, value in nbytes.items():
        assert snapshot._derived[key] == value


def count_scans(dataset):
    """Wrap ``dataset.scan``; the list grows by one per call."""
    scans, scan = [], dataset.scan
    dataset.scan = lambda: scans.append(None) or scan()
    return scans


class SnapshotComparison(RuleBasedStateMachine):
    """Interleave writes — through the dataset, and straight to a partition,
    which never moves ``Dataset.version`` — with flushes and merges, and
    after every step read the snapshot twice.

    Keys are ints, except in one partition the run may pick for str keys
    (a partition keeps one key type: its trees order keys by comparing
    them).  Every snapshot after the first is the held one moved forward
    by the WAL, never a rescan, and everything it carries forward must be
    what a rebuild from ``tuple(scan())`` gives."""

    def __init__(self):
        super().__init__()
        self.dataset = Dataset(
            "Ref", RECORD_TYPE, "id", num_partitions=2, memtable_budget=3
        )
        self.scans = count_scans(self.dataset)
        self.previous = self.dataset.snapshot()
        self.kept = fingerprint(self.previous)
        del self.scans[:]
        self.wrote = False
        self.str_pid = None

    @initialize(str_pid=st.sampled_from([None, 0, 1]))
    def choose_key_types(self, str_pid):
        self.str_pid = str_pid

    def key(self, pid, i):
        """Partition ``pid``'s key for draw ``i``."""
        return f"k{i:02d}" if pid == self.str_pid else i

    def dataset_key(self, i):
        """A key for draw ``i`` whose hash partition takes its type, or
        ``None``."""
        for key in (i, f"k{i:02d}"):
            if self.key(hash_partition(key, 2), i) == key:
                return key
        return None

    def record(self, key, value):
        return {"id": key, "g": value}

    # writes through the dataset
    @rule(i=int_keys, value=join_values)
    def insert(self, i, value):
        key = self.dataset_key(i)
        if key is not None and self.dataset.get(key) is None:
            self.dataset.insert(self.record(key, value))
            self.wrote = True

    @rule(i=int_keys, value=join_values)
    def upsert(self, i, value):
        key = self.dataset_key(i)
        if key is not None:
            self.dataset.upsert(self.record(key, value))
            self.wrote = True

    @rule(i=int_keys)
    def delete(self, i):
        key = self.dataset_key(i)
        if key is not None and self.dataset.get(key) is not None:
            self.dataset.delete(key)
            self.wrote = True

    # writes straight to a partition: a record's scan position is the
    # partition written and its key, whatever partition the key hashes to
    @rule(pid=pids, i=int_keys, value=join_values)
    def tree_upsert(self, pid, i, value):
        key = self.key(pid, i)
        self.dataset.partitions[pid].upsert(key, self.record(key, value))
        self.wrote = True

    @rule(pid=pids, i=int_keys)
    def tree_delete(self, pid, i):
        tree = self.dataset.partitions[pid]
        key = self.key(pid, i)
        if tree.contains(key):
            tree.delete(key)
            self.wrote = True

    # reorganisations: no write, so the snapshot must survive them
    @rule(pid=pids)
    def flush(self, pid):
        self.dataset.partitions[pid].flush()

    @rule(pid=pids)
    def merge_all(self, pid):
        self.dataset.partitions[pid].merge_all()

    @invariant()
    def snapshot_is_the_rescan_and_lives_until_a_write(self):
        snapshot = self.dataset.snapshot()
        assert self.dataset.snapshot() is snapshot
        if self.wrote:
            assert snapshot is not self.previous
            # carried forward, not rebuilt: what the predecessor derived
            # is already there, and the predecessor is as it was
            assert set(self.previous._derived) <= set(snapshot._derived)
            assert_unchanged(self.previous, self.kept)
        else:
            assert snapshot is self.previous
        assert not self.scans

        expected = [
            record
            for tree in self.dataset.partitions
            for _key, record in oracle_scan(tree)
        ]
        rescan = tuple(self.dataset.scan())
        assert isinstance(snapshot.records, tuple)
        assert list(snapshot.records) == expected
        assert all(a is b for a, b in zip(snapshot.records, expected))
        assert len(snapshot.records) == len(rescan)
        assert all(a is b for a, b in zip(snapshot.records, rescan))
        assert len(self.dataset) == len(expected)

        # a fresh context per read: each one is a new batch, and a fresh
        # state cache books (and so sizes) each build
        contexts = [
            EvaluationContext({"Ref": self.dataset}, state_cache=StateCache(1 << 30))
            for _ in range(2)
        ]
        tables = [Evaluator(ctx)._hash_table(self.dataset, "g") for ctx in contexts]
        assert tables[0] is tables[1]  # built once per snapshot
        fresh = _BuildSide("Ref", "g").build(rescan)
        same_buckets(tables[0], fresh)
        same_buckets(tables[0], canonical_regroup(expected, "g"))
        assert snapshot.derived(("nbytes", SCAN_KEY), None) == estimate_entry_bytes(
            rescan
        )
        assert snapshot.derived(("nbytes", HASH_KEY), None) == estimate_entry_bytes(
            fresh
        )
        self.previous, self.kept, self.wrote = snapshot, fingerprint(snapshot), False
        del self.scans[:]

    @invariant()
    def derived_builds_once_per_snapshot_and_key(self):
        snapshot = self.dataset.snapshot()
        calls = []

        def build(records):
            calls.append(records)
            return len(records)

        assert snapshot.derived("count", build) == len(snapshot.records)
        assert snapshot.derived("count", build) == len(snapshot.records)
        assert len(calls) <= 1 and all(c is snapshot.records for c in calls)


TestSnapshotComparison = SnapshotComparison.TestCase
TestSnapshotComparison.settings = settings(
    max_examples=40, stateful_step_count=30
)


def test_keys_that_do_not_order_rescan():
    """Str keys written over a partition of int keys: the scan orders them
    by type name, and the snapshot rescans rather than forward."""
    dataset = Dataset("Ref", RECORD_TYPE, "id", num_partitions=1)
    tree = dataset.partitions[0]
    tree.merge_fanin = 100
    for key in (1, 3):
        tree.upsert(key, {"id": key, "g": key % 2})
    tree.flush()
    before = dataset.snapshot()
    ctx = EvaluationContext({"Ref": dataset})
    old_table = Evaluator(ctx)._hash_table(dataset, "g")
    tree.upsert("a", {"id": "a", "g": 1})
    scans = count_scans(dataset)
    snapshot = dataset.snapshot()
    assert snapshot is not before and len(scans) == 1
    assert snapshot.records == tuple(dataset.scan())
    assert [r["id"] for r in snapshot.records] == [1, 3, "a"]
    assert HASH_KEY not in snapshot._derived  # rebuilt when asked
    ctx.refresh_batch()
    table = Evaluator(ctx)._hash_table(dataset, "g")
    same_buckets(table, _BuildSide("Ref", "g").build(snapshot.records))
    assert [r["id"] for r in old_table[1]] == [1, 3]


def test_a_table_whose_positions_do_not_order_is_rebuilt():
    """The snapshot moves forward (``"d"`` orders among the str keys), but
    the key's table list holds only an int key: that table is left to a
    rebuild."""
    dataset = Dataset("Ref", RECORD_TYPE, "id", num_partitions=1)
    tree = dataset.partitions[0]
    tree.merge_fanin = 100
    tree.upsert(1, {"id": 1, "g": 5})
    tree.flush()
    for key in ("a", "b", "c"):
        tree.upsert(key, {"id": key, "g": 0})
    tree.flush()
    before = dataset.snapshot()
    ctx = EvaluationContext({"Ref": dataset})
    Evaluator(ctx)._hash_table(dataset, "g")
    tree.upsert("d", {"id": "d", "g": 5})
    scans = count_scans(dataset)
    snapshot = dataset.snapshot()
    assert not scans  # moved forward
    assert snapshot.records[:4] == before.records
    assert snapshot.records == tuple(dataset.scan())
    assert HASH_KEY not in snapshot._derived
    ctx.refresh_batch()
    table = Evaluator(ctx)._hash_table(dataset, "g")
    same_buckets(table, _BuildSide("Ref", "g").build(snapshot.records))
