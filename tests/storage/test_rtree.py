"""R-tree structure and spatial search correctness."""

import random

import pytest

from repro.adm import Circle, Point, Rectangle
from repro.storage import RTree
from repro.storage.rtree import mbr_of


@pytest.fixture
def points():
    rnd = random.Random(5)
    return [(Point(rnd.uniform(0, 100), rnd.uniform(0, 100)), i) for i in range(400)]


@pytest.fixture
def loaded(points):
    tree = RTree(max_entries=8)
    for p, pk in points:
        tree.insert(p, pk)
    return tree


def brute_force(points, query_mbr):
    return sorted(pk for p, pk in points if query_mbr.contains_point(p))


class TestSearch:
    def test_matches_brute_force_rectangle(self, loaded, points):
        query = Rectangle(20, 20, 40, 40)
        got = sorted(pk for _v, pk in loaded.search(query, []))
        assert got == brute_force(points, query)

    def test_circle_query_uses_mbr(self, loaded, points):
        query = Circle(Point(50, 50), 10)
        got = sorted(pk for _v, pk in loaded.search(query, []))
        assert got == brute_force(points, query.mbr)

    def test_point_query(self, loaded, points):
        target, pk = points[7]
        got = [p for _v, p in loaded.search(target, [])]
        assert pk in got

    def test_empty_region(self, loaded):
        assert list(loaded.search(Rectangle(200, 200, 300, 300), [])) == []

    def test_search_counts_probes_and_nodes(self, loaded):
        visits = []
        loaded.search(Rectangle(0, 0, 100, 100), visits)
        loaded.search(Rectangle(200, 200, 300, 300), visits)
        assert len(visits) == 2  # one count per search
        assert visits[0] > visits[1] >= 1  # a wide query reads more nodes


class TestStructure:
    def test_invariants_after_bulk_insert(self, loaded):
        loaded.check_invariants()
        assert len(loaded) == 400

    def test_invariants_during_incremental_insert(self):
        tree = RTree(max_entries=4)
        rnd = random.Random(11)
        for i in range(60):
            tree.insert(Point(rnd.uniform(0, 10), rnd.uniform(0, 10)), i)
            tree.check_invariants()

    def test_rectangle_entries(self):
        tree = RTree(max_entries=4)
        rects = [Rectangle(i, i, i + 2, i + 2) for i in range(20)]
        for i, r in enumerate(rects):
            tree.insert(r, i)
        got = sorted(pk for _v, pk in tree.search(Rectangle(5, 5, 6, 6), []))
        expected = sorted(
            i for i, r in enumerate(rects) if r.intersects(Rectangle(5, 5, 6, 6))
        )
        assert got == expected

    def test_min_entries_enforced(self):
        with pytest.raises(ValueError):
            RTree(max_entries=3)


class TestDelete:
    def test_delete_removes_entry(self, loaded, points):
        p, pk = points[0]
        assert loaded.delete(p, pk)
        assert pk not in [x for _v, x in loaded.search(p, [])]
        loaded.check_invariants()

    def test_delete_absent_returns_false(self, loaded):
        assert not loaded.delete(Point(-5, -5), 999999)

    def test_mass_delete_keeps_correctness(self, loaded, points):
        for p, pk in points[:200]:
            assert loaded.delete(p, pk)
        loaded.check_invariants()
        assert len(loaded) == 200
        query = Rectangle(0, 0, 100, 100)
        got = sorted(pk for _v, pk in loaded.search(query, []))
        assert got == brute_force(points[200:], query)

    def test_delete_then_reinsert(self, loaded, points):
        p, pk = points[3]
        loaded.delete(p, pk)
        loaded.insert(p, pk)
        assert pk in [x for _v, x in loaded.search(p, [])]
        loaded.check_invariants()


class TestMbrOf:
    def test_point(self):
        m = mbr_of(Point(1, 2))
        assert (m.x1, m.y1, m.x2, m.y2) == (1, 2, 1, 2)

    def test_circle(self):
        m = mbr_of(Circle(Point(0, 0), 1))
        assert (m.x1, m.y1, m.x2, m.y2) == (-1, -1, 1, 1)

    def test_non_spatial_raises(self):
        with pytest.raises(TypeError):
            mbr_of("nope")
