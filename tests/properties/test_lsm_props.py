"""Property-based tests: the LSM tree behaves like a dict."""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.storage import LSMTree

keys = st.integers(min_value=0, max_value=50)
values = st.integers()

# Hypothesis's own default, spelled out: these properties never set a count
# and must not follow the smaller ``tier1`` profile (tests/conftest.py).
default_budget = settings(max_examples=100)


class LSMComparison(RuleBasedStateMachine):
    """Drive an LSM tree and a model dict with the same operations."""

    def __init__(self):
        super().__init__()
        self.tree = LSMTree(memtable_budget=4, merge_fanin=3)
        self.model = {}

    @rule(key=keys, value=values)
    def upsert(self, key, value):
        self.tree.upsert(key, value)
        self.model[key] = value

    @rule(key=keys)
    def delete(self, key):
        if key in self.model:
            self.tree.delete(key)
            del self.model[key]
        else:
            assert self.tree.get(key) is None

    @rule(key=keys)
    def lookup(self, key):
        assert self.tree.get(key) == self.model.get(key)

    @rule()
    def flush(self):
        self.tree.flush()

    @rule()
    def merge(self):
        self.tree.merge_all()

    @invariant()
    def scan_matches_model(self):
        assert dict(self.tree.scan()) == self.model

    @invariant()
    def length_matches(self):
        assert len(self.tree) == len(self.model)


TestLSMComparison = LSMComparison.TestCase
TestLSMComparison.settings = settings(max_examples=40, stateful_step_count=30)


@default_budget
@given(st.lists(st.tuples(keys, values)))
def test_scan_is_sorted_and_unique(operations):
    tree = LSMTree(memtable_budget=3, merge_fanin=3)
    for key, value in operations:
        tree.upsert(key, value)
    scanned_keys = [k for k, _ in tree.scan()]
    assert scanned_keys == sorted(set(scanned_keys))


@default_budget
@given(
    st.lists(st.tuples(keys, values), min_size=1),
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=0, max_value=50),
)
def test_range_scan_agrees_with_full_scan(operations, low, high):
    if low > high:
        low, high = high, low
    tree = LSMTree(memtable_budget=4)
    for key, value in operations:
        tree.upsert(key, value)
    full = {k: v for k, v in tree.scan() if low <= k <= high}
    ranged = dict(tree.range_scan(low, high))
    assert ranged == full


@default_budget
@given(st.lists(st.tuples(keys, st.sampled_from(["upsert", "delete"]), values)))
def test_wal_replay_equivalence(operations):
    tree = LSMTree(memtable_budget=4)
    for key, op, value in operations:
        if op == "upsert":
            tree.upsert(key, value)
        elif tree.contains(key):
            tree.delete(key)
    recovered = tree.recover_from_wal()
    assert dict(recovered.scan()) == dict(tree.scan())


@default_budget
@given(
    st.lists(st.tuples(keys, values), min_size=1),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=2, max_value=5),
)
def test_flush_merge_equivalence_across_configs(operations, budget, fanin):
    """Logical contents are independent of flush/merge configuration."""
    reference = {}
    tree = LSMTree(memtable_budget=budget, merge_fanin=fanin)
    for key, value in operations:
        tree.upsert(key, value)
        reference[key] = value
    assert dict(tree.scan()) == reference
    tree.flush()
    tree.merge_all()
    assert dict(tree.scan()) == reference


@default_budget
@given(st.lists(st.tuples(keys, values), min_size=1))
def test_get_after_merge_matches_before(operations):
    tree = LSMTree(memtable_budget=2, merge_fanin=100)
    for key, value in operations:
        tree.upsert(key, value)
    before = {key: tree.get(key) for key, _ in operations}
    tree.flush()
    tree.merge_all()
    assert {key: tree.get(key) for key, _ in operations} == before
