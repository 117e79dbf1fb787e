"""An R-tree for spatial secondary indexes.

AsterixDB builds an R-tree when the user issues ``CREATE INDEX ... TYPE
RTREE``; the paper's Nearby Monuments / Suspicious Names / Worrisome Tweets
UDFs rely on it for index-nested-loop spatial joins.  This is a classic
Guttman R-tree with quadratic split, supporting insert, delete, and
search-by-query-rectangle.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..adm.values import Circle, Point, Rectangle


def mbr_of(value) -> Rectangle:
    """Minimum bounding rectangle of any spatial value."""
    if isinstance(value, Point):
        return Rectangle(value.x, value.y, value.x, value.y)
    if isinstance(value, Rectangle):
        return value
    if isinstance(value, Circle):
        return value.mbr
    raise TypeError(f"not a spatial value: {value!r}")


def _union(a: Rectangle, b: Rectangle) -> Rectangle:
    return Rectangle(
        min(a.x1, b.x1), min(a.y1, b.y1), max(a.x2, b.x2), max(a.y2, b.y2)
    )


def _area(r: Rectangle) -> float:
    return (r.x2 - r.x1) * (r.y2 - r.y1)


def _enlargement(r: Rectangle, added: Rectangle) -> float:
    return _area(_union(r, added)) - _area(r)


class _Entry:
    __slots__ = ("mbr", "child", "payload")

    def __init__(self, mbr: Rectangle, child=None, payload=None):
        self.mbr = mbr
        self.child = child  # _RNode for interior entries
        self.payload = payload  # (spatial_value, primary_key) for leaves


class _RNode:
    __slots__ = ("entries", "is_leaf", "parent")

    def __init__(self, is_leaf: bool):
        self.is_leaf = is_leaf
        self.entries: List[_Entry] = []
        self.parent: Optional[_RNode] = None

    def mbr(self) -> Rectangle:
        x1s, y1s, x2s, y2s = zip(
            *[(e.mbr.x1, e.mbr.y1, e.mbr.x2, e.mbr.y2) for e in self.entries]
        )
        return Rectangle(min(x1s), min(y1s), max(x2s), max(y2s))


class RTree:
    """Guttman R-tree with quadratic split."""

    def __init__(self, max_entries: int = 16):
        if max_entries < 4:
            raise ValueError("max_entries must be >= 4")
        self.max_entries = max_entries
        self.min_entries = max(2, max_entries // 2)
        self._root = _RNode(is_leaf=True)
        self._size = 0
        self.probes = 0  # search count, used by the cost model
        self.nodes_visited = 0  # cumulative nodes touched by searches

    def __len__(self) -> int:
        return self._size

    # ----------------------------------------------------------------- insert

    def insert(self, spatial_value, primary_key) -> None:
        mbr = mbr_of(spatial_value)
        leaf = self._choose_leaf(self._root, mbr)
        leaf.entries.append(_Entry(mbr, payload=(spatial_value, primary_key)))
        self._size += 1
        self._handle_overflow(leaf)
        self._adjust_upward(leaf)

    def _adjust_upward(self, node: _RNode) -> None:
        """Re-tighten the entry of every node on the path up from ``node``."""
        while node.parent is not None:
            self._tighten(node)
            node = node.parent

    def _choose_leaf(self, node: _RNode, mbr: Rectangle) -> _RNode:
        while not node.is_leaf:
            best = min(
                node.entries,
                key=lambda e: (_enlargement(e.mbr, mbr), _area(e.mbr)),
            )
            node = best.child
        return node

    def _handle_overflow(self, node: _RNode) -> None:
        while len(node.entries) > self.max_entries:
            sibling = self._split(node)
            parent = node.parent
            if parent is None:
                new_root = _RNode(is_leaf=False)
                for child in (node, sibling):
                    entry = _Entry(child.mbr(), child=child)
                    new_root.entries.append(entry)
                    child.parent = new_root
                self._root = new_root
                return
            parent.entries.append(_Entry(sibling.mbr(), child=sibling))
            sibling.parent = parent
            self._tighten(node)
            node = parent

    def _split(self, node: _RNode) -> _RNode:
        """Quadratic split: pick the two seeds wasting the most area."""
        entries = node.entries
        worst_pair, worst_waste = (0, 1), -1.0
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                waste = (
                    _area(_union(entries[i].mbr, entries[j].mbr))
                    - _area(entries[i].mbr)
                    - _area(entries[j].mbr)
                )
                if waste > worst_waste:
                    worst_waste = waste
                    worst_pair = (i, j)
        i, j = worst_pair
        group_a = [entries[i]]
        group_b = [entries[j]]
        rest = [e for k, e in enumerate(entries) if k not in (i, j)]
        mbr_a, mbr_b = group_a[0].mbr, group_b[0].mbr
        for entry in rest:
            remaining = len(rest) - (len(group_a) + len(group_b) - 2)
            if len(group_a) + remaining <= self.min_entries:
                group_a.append(entry)
                mbr_a = _union(mbr_a, entry.mbr)
                continue
            if len(group_b) + remaining <= self.min_entries:
                group_b.append(entry)
                mbr_b = _union(mbr_b, entry.mbr)
                continue
            if _enlargement(mbr_a, entry.mbr) <= _enlargement(mbr_b, entry.mbr):
                group_a.append(entry)
                mbr_a = _union(mbr_a, entry.mbr)
            else:
                group_b.append(entry)
                mbr_b = _union(mbr_b, entry.mbr)
        node.entries = group_a
        sibling = _RNode(is_leaf=node.is_leaf)
        sibling.entries = group_b
        if not sibling.is_leaf:
            for entry in sibling.entries:
                entry.child.parent = sibling
        return sibling

    @staticmethod
    def _tighten(node: _RNode) -> None:
        """Set the parent entry of ``node`` to the union of its entries.

        Every interior entry equals its child's union between operations,
        so an insert or delete leaves only the entries above the nodes it
        changed to recompute; the siblings are already exact.
        """
        for entry in node.parent.entries:
            if entry.child is node:
                entry.mbr = node.mbr()
                return

    # ----------------------------------------------------------------- delete

    def delete(self, spatial_value, primary_key) -> bool:
        """Remove one (value, pk) posting; returns False if absent."""
        mbr = mbr_of(spatial_value)
        found = self._find_leaf_entry(self._root, mbr, spatial_value, primary_key)
        if found is None:
            return False
        leaf, entry = found
        leaf.entries.remove(entry)
        self._size -= 1
        self._condense(leaf)
        return True

    def _find_leaf_entry(self, node: _RNode, mbr, value, pk):
        if node.is_leaf:
            for entry in node.entries:
                if entry.payload == (value, pk):
                    return node, entry
            return None
        for entry in node.entries:
            if entry.mbr.intersects(mbr):
                found = self._find_leaf_entry(entry.child, mbr, value, pk)
                if found is not None:
                    return found
        return None

    def _condense(self, node: _RNode) -> None:
        """Reinsert orphans from underfull nodes; shrink ancestor MBRs."""
        orphans: List[_Entry] = []
        while node.parent is not None:
            parent = node.parent
            if len(node.entries) < self.min_entries:
                parent.entries = [e for e in parent.entries if e.child is not node]
                self._collect_leaf_entries(node, orphans)
            else:
                self._tighten(node)
            node = parent
        if not self._root.is_leaf and len(self._root.entries) == 1:
            self._root = self._root.entries[0].child
            self._root.parent = None
        for entry in orphans:
            value, pk = entry.payload
            self._size -= 1  # insert() will re-increment
            self.insert(value, pk)

    def _collect_leaf_entries(self, node: _RNode, out: List[_Entry]) -> None:
        if node.is_leaf:
            out.extend(node.entries)
        else:
            for entry in node.entries:
                self._collect_leaf_entries(entry.child, out)

    # ----------------------------------------------------------------- search

    def search(self, query) -> List[Tuple[object, object]]:
        """The (spatial_value, primary_key) whose MBR intersects ``query``.

        ``query`` may be a Point/Rectangle/Circle; circles are searched by
        their MBR (callers apply the exact predicate afterwards, as the
        optimizer does for index-NLJ plans).
        """
        self.probes += 1
        query_mbr = mbr_of(query)
        qx1, qy1, qx2, qy2 = query_mbr.x1, query_mbr.y1, query_mbr.x2, query_mbr.y2
        found: List[Tuple[object, object]] = []
        visited = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            visited += 1
            is_leaf = node.is_leaf
            for entry in node.entries:
                m = entry.mbr
                # ``m.intersects(query_mbr)``, inlined
                if not (qx1 > m.x2 or qx2 < m.x1 or qy1 > m.y2 or qy2 < m.y1):
                    if is_leaf:
                        found.append(entry.payload)
                    else:
                        stack.append(entry.child)
        self.nodes_visited += visited
        return found

    def check_invariants(self) -> None:
        """Assert structural invariants (used by property tests)."""
        count = self._check_node(self._root, is_root=True)
        if count != self._size:
            raise AssertionError(f"size mismatch: counted {count}, size {self._size}")

    def _check_node(self, node: _RNode, is_root=False) -> int:
        if not is_root and len(node.entries) < self.min_entries:
            raise AssertionError("underfull non-root node")
        if len(node.entries) > self.max_entries:
            raise AssertionError("overfull node")
        if node.is_leaf:
            return len(node.entries)
        total = 0
        for entry in node.entries:
            child_mbr = entry.child.mbr()
            if (
                child_mbr.x1 < entry.mbr.x1
                or child_mbr.y1 < entry.mbr.y1
                or child_mbr.x2 > entry.mbr.x2
                or child_mbr.y2 > entry.mbr.y2
            ):
                raise AssertionError("entry MBR does not cover child")
            if entry.child.parent is not node:
                raise AssertionError("broken parent pointer")
            total += self._check_node(entry.child)
        return total
