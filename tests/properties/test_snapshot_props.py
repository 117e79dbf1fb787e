"""Property-based tests: read snapshots and the sort-free LSM scan.

``_merge_scan`` below is the scan ``LSMTree`` used before it learned to
pass a single live structure straight through and to overlay several in a
dict.  It stays here as the oracle the new scan must agree with.
"""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.adm import open_type
from repro.sqlpp.evaluator import EvaluationContext, Evaluator
from repro.storage import TOMBSTONE, Dataset, LSMTree

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


def regroup(records, field):
    table = {}
    for record in records:
        if record.get(field) is not None:
            table.setdefault(record[field], []).append(record)
    return table


class SnapshotComparison(RuleBasedStateMachine):
    """Interleave writes — through the dataset, and straight to a partition,
    which never moves ``Dataset.version`` — with flushes and merges, and
    after every step read the snapshot twice."""

    def __init__(self):
        super().__init__()
        self.dataset = Dataset(
            "Ref", RECORD_TYPE, "id", num_partitions=2, memtable_budget=3
        )
        self.previous = self.dataset.snapshot()
        self.wrote = False

    # writes through the dataset
    @rule(key=int_keys, group=groups)
    def insert(self, key, group):
        if self.dataset.get(key) is None:
            self.dataset.insert({"id": key, "g": group})
            self.wrote = True

    @rule(key=int_keys, group=groups)
    def upsert(self, key, group):
        self.dataset.upsert({"id": key, "g": group})
        self.wrote = True

    @rule(key=int_keys)
    def delete(self, key):
        if self.dataset.get(key) is not None:
            self.dataset.delete(key)
            self.wrote = True

    # writes straight to a partition
    @rule(pid=pids, key=int_keys, group=groups)
    def tree_upsert(self, pid, key, group):
        self.dataset.partitions[pid].upsert(key, {"id": key, "g": group})
        self.wrote = True

    @rule(pid=pids, key=int_keys)
    def tree_delete(self, pid, key):
        tree = self.dataset.partitions[pid]
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
        else:
            assert snapshot is self.previous
        self.previous, self.wrote = snapshot, False

        expected = [
            record
            for tree in self.dataset.partitions
            for _key, record in oracle_scan(tree)
        ]
        assert isinstance(snapshot.records, tuple)
        assert list(snapshot.records) == expected
        assert all(a is b for a, b in zip(snapshot.records, expected))
        assert len(self.dataset) == len(expected)

        # a fresh context per read: each one is a new batch
        tables = [
            Evaluator(EvaluationContext({"Ref": self.dataset}))._hash_table(
                self.dataset, "g"
            )
            for _ in range(2)
        ]
        assert tables[0] == regroup(expected, "g")
        assert tables[0] is tables[1]  # built once per snapshot

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
