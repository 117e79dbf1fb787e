"""Property-based tests for the secondary index structures."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adm import Circle, Point, Rectangle
from repro.storage import BPlusTree, RTree

from .reference_rtree import ReferenceRTree

postings = st.lists(
    st.tuples(st.integers(min_value=0, max_value=200), st.integers(0, 20)),
    max_size=300,
)


class TestBTreeProperties:
    @given(postings)
    @settings(max_examples=60)
    def test_search_matches_model(self, entries):
        tree = BPlusTree(order=4)
        model = {}
        for key, pk in entries:
            tree.insert(key, pk)
            model.setdefault(key, set()).add(pk)
        tree.check_invariants()
        for key, pks in model.items():
            assert tree.search(key) == pks
        assert len(tree) == sum(len(v) for v in model.values())

    @given(postings, st.integers(0, 200), st.integers(0, 200))
    @settings(max_examples=60)
    def test_range_matches_model(self, entries, low, high):
        if low > high:
            low, high = high, low
        tree = BPlusTree(order=4)
        model = {}
        for key, pk in entries:
            tree.insert(key, pk)
            model.setdefault(key, set()).add(pk)
        got = dict(tree.range_search(low, high))
        expected = {k: v for k, v in model.items() if low <= k <= high}
        assert got == expected

    @given(postings, postings)
    @settings(max_examples=60)
    def test_insert_delete_roundtrip(self, inserted, deleted):
        tree = BPlusTree(order=4)
        model = {}
        for key, pk in inserted:
            tree.insert(key, pk)
            model.setdefault(key, set()).add(pk)
        for key, pk in deleted:
            expected = pk in model.get(key, set())
            assert tree.delete(key, pk) == expected
            if expected:
                model[key].discard(pk)
                if not model[key]:
                    del model[key]
        tree.check_invariants()
        for key, pks in model.items():
            assert tree.search(key) == pks


coords = st.floats(min_value=0, max_value=100, allow_nan=False, width=32)
points = st.tuples(coords, coords)


def assert_entries_are_tight(node):
    """Every interior entry's MBR *is* the union of its child's entries.

    ``check_invariants`` accepts any cover, so it would pass a tree whose
    ancestors were never re-tightened; searches on one visit more nodes.
    """
    if node.is_leaf:
        return
    for x1, y1, x2, y2, child in node.entries:  # flat (x1, y1, x2, y2, ref)
        mbrs = child.entries
        assert (x1, y1, x2, y2) == (
            min(m[0] for m in mbrs),
            min(m[1] for m in mbrs),
            max(m[2] for m in mbrs),
            max(m[3] for m in mbrs),
        )
        assert_entries_are_tight(child)


class TestRTreeProperties:
    @given(st.lists(points, max_size=200), points, points)
    @settings(max_examples=50)
    def test_search_matches_brute_force(self, raw_points, corner_a, corner_b):
        tree = RTree(max_entries=4)
        entries = []
        for i, (x, y) in enumerate(raw_points):
            p = Point(x, y)
            tree.insert(p, i)
            entries.append((p, i))
        tree.check_invariants()
        query = Rectangle(corner_a[0], corner_a[1], corner_b[0], corner_b[1])
        got = sorted(pk for _v, pk in tree.search(query, []))
        expected = sorted(pk for p, pk in entries if query.contains_point(p))
        assert got == expected

    @given(st.lists(points, min_size=1, max_size=120), st.data())
    @settings(max_examples=50)
    def test_delete_preserves_invariants(self, raw_points, data):
        tree = RTree(max_entries=4)
        entries = []
        for i, (x, y) in enumerate(raw_points):
            p = Point(x, y)
            tree.insert(p, i)
            entries.append((p, i))
        to_delete = data.draw(
            st.lists(st.sampled_from(entries), unique=True)
        )
        for p, pk in to_delete:
            assert tree.delete(p, pk)
        tree.check_invariants()
        remaining = [e for e in entries if e not in to_delete]
        assert len(tree) == len(remaining)
        world = Rectangle(0, 0, 100, 100)
        got = sorted(pk for _v, pk in tree.search(world, []))
        assert got == sorted(pk for _p, pk in remaining)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from("pprc"), points, st.sampled_from([False, False, True])
            ),
            min_size=20,  # past one node, so there are interior entries
            max_size=150,
        ),
        st.sampled_from([4, 8]),
    )
    @settings(max_examples=60)
    def test_entries_stay_tight_under_inserts_and_deletes(self, ops, max_entries):
        """Only the path an operation changed is re-tightened; that is
        enough only if every other entry was exact to begin with."""
        tree = RTree(max_entries=max_entries)
        live = []
        for pk, (shape, (x, y), delete) in enumerate(ops):
            if delete and live:
                assert tree.delete(*live.pop(pk % len(live)))
            else:
                value = {
                    "p": Point(x, y),
                    "r": Rectangle(x, y, x + 3.0, y + 1.0),
                    "c": Circle(Point(x, y), 2.0),
                }[shape]
                tree.insert(value, pk)
                live.append((value, pk))
            assert_entries_are_tight(tree._root)
        tree.check_invariants()
        assert len(tree) == len(live)

    @given(
        st.lists(
            st.tuples(st.sampled_from("iiud"), st.sampled_from("prc"), points),
            max_size=150,
        ),
        st.lists(st.tuples(st.sampled_from("prc"), points), min_size=1, max_size=8),
        st.sampled_from([4, 8, 16]),
    )
    @settings(max_examples=60)
    def test_flat_search_matches_reference_order_and_nodes(
        self, ops, queries, max_entries
    ):
        """Random inserts, upserts (delete the old value, insert the new,
        as ``SecondaryIndex.on_upsert`` does) and deletes into the flat
        R-tree and the object-entry reference: after every write, every
        query returns the same payloads in the same order and reads the
        same number of nodes."""

        def shape(kind, x, y):
            return {
                "p": Point(x, y),
                "r": Rectangle(x, y, x + 3.0, y + 1.0),
                "c": Circle(Point(x, y), 2.0),
            }[kind]

        tree = RTree(max_entries=max_entries)
        reference = ReferenceRTree(max_entries=max_entries)
        live = {}
        for step, (op, kind, (x, y)) in enumerate(ops):
            value = shape(kind, x, y)
            if op == "i" or not live:
                for index in (tree, reference):
                    index.insert(value, step)
                live[step] = value
            else:
                pk = sorted(live)[step % len(live)]
                for index in (tree, reference):
                    assert index.delete(live[pk], pk)
                del live[pk]
                if op == "u":
                    for index in (tree, reference):
                        index.insert(value, pk)
                    live[pk] = value
            for kind, (qx, qy) in queries:
                query = shape(kind, qx, qy)
                visits = []
                got = tree.search(query, visits)
                assert (got, visits[0]) == reference.search(query)
        tree.check_invariants()
        assert len(tree) == len(reference) == len(live)

    @pytest.mark.parametrize(
        "query",
        [
            Circle(Point(float("nan"), 50.0), 5.0),
            Circle(Point(50.0, 50.0), float("nan")),
            Rectangle(10.0, float("nan"), 20.0, 30.0),
            Point(50.0, float("nan")),
        ],
    )
    def test_nan_region_walks_as_the_reference(self, query):
        """Every comparison with NaN is false, so the inverted overlap
        test lets a NaN corner through on its axis; the flat search keeps
        that walk (the exact test after it decides the rows), with the
        reference's payloads, order and node count."""
        tree = RTree(max_entries=4)
        reference = ReferenceRTree(max_entries=4)
        for i in range(200):
            value = Point(float(i % 20) * 5.0, float(i // 20) * 10.0)
            for index in (tree, reference):
                index.insert(value, i)
        visits = []
        assert (tree.search(query, visits), visits[0]) == reference.search(query)
