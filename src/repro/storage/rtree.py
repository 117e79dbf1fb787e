"""An R-tree for spatial secondary indexes.

AsterixDB builds an R-tree when the user issues ``CREATE INDEX ... TYPE
RTREE``; the paper's Nearby Monuments / Suspicious Names / Worrisome Tweets
UDFs rely on it for index-nested-loop spatial joins.  This is a classic
Guttman R-tree with quadratic split, supporting insert, delete, and
search-by-query-rectangle.

Every entry is one flat tuple ``(x1, y1, x2, y2, ref)``: its MBR's corners,
then the child node (interior) or the ``(spatial value, primary key)``
payload (leaf).  A search unpacks an entry in one step instead of reading
a rectangle object's four attributes, and a write that changes an MBR
replaces the entry in its node, so no write leaves a structure to rebuild.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..adm.values import Circle, Point, Rectangle


#: the spatial types an R-tree can bound (:func:`mbr_of`)
BOUNDABLE = (Point, Rectangle, Circle)


def mbr_of(value) -> Rectangle:
    """Minimum bounding rectangle of any spatial value."""
    if not isinstance(value, BOUNDABLE):
        raise TypeError(f"not a spatial value: {value!r}")
    if isinstance(value, Point):
        return Rectangle(value.x, value.y, value.x, value.y)
    if isinstance(value, Circle):
        return value.mbr
    return value


def corners(value) -> Tuple[float, float, float, float]:
    """``mbr_of(value)``'s corners.  A point, the shape most probes are,
    and a circle with a float center and a non-negative float radius need
    no rectangle built: ``cx - r <= cx + r`` then holds, so the rectangle
    would not reorder them.  Every other value goes through :func:`mbr_of`.
    """
    if isinstance(value, Point):
        x, y = value.x, value.y
        return x, y, x, y
    if type(value) is Circle:
        center, r = value.center, value.radius
        cx, cy = center.x, center.y
        if type(r) is float and r >= 0.0 and type(cx) is float and type(cy) is float:
            return cx - r, cy - r, cx + r, cy + r
    m = mbr_of(value)
    return m.x1, m.y1, m.x2, m.y2


def _union(a, b) -> Tuple[float, float, float, float]:
    return min(a[0], b[0]), min(a[1], b[1]), max(a[2], b[2]), max(a[3], b[3])


def _area(r) -> float:
    return (r[2] - r[0]) * (r[3] - r[1])


def _enlargement(r, added) -> float:
    return _area(_union(r, added)) - _area(r)


#: one entry: ``(x1, y1, x2, y2, ref)``, its MBR's corners and then the
#: child :class:`_RNode` (interior) or the ``(spatial value, primary key)``
#: payload (leaf).  A plain tuple, which a search unpacks in one step.
_Entry = Tuple[float, float, float, float, object]


class _RNode:
    __slots__ = ("entries", "is_leaf", "parent")

    def __init__(self, is_leaf: bool):
        self.is_leaf = is_leaf
        self.entries: List[_Entry] = []
        self.parent: Optional[_RNode] = None

    def cover(self) -> Tuple[float, float, float, float]:
        """The union of the entries' MBRs."""
        x1s, y1s, x2s, y2s, _refs = zip(*self.entries)
        return min(x1s), min(y1s), max(x2s), max(y2s)

    def entry(self) -> _Entry:
        """This node's entry in its parent."""
        return (*self.cover(), self)


class RTree:
    """Guttman R-tree with quadratic split."""

    def __init__(self, max_entries: int = 16):
        if max_entries < 4:
            raise ValueError("max_entries must be >= 4")
        self.max_entries = max_entries
        self.min_entries = max(2, max_entries // 2)
        self._root = _RNode(is_leaf=True)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    # ----------------------------------------------------------------- insert

    def insert(self, spatial_value, primary_key) -> None:
        mbr = corners(spatial_value)
        leaf = self._choose_leaf(self._root, mbr)
        leaf.entries.append((*mbr, (spatial_value, primary_key)))
        self._size += 1
        self._handle_overflow(leaf)
        self._adjust_upward(leaf)

    def _adjust_upward(self, node: _RNode) -> None:
        """Re-tighten the entry of every node on the path up from ``node``."""
        while node.parent is not None:
            self._tighten(node)
            node = node.parent

    def _choose_leaf(self, node: _RNode, mbr) -> _RNode:
        while not node.is_leaf:
            best = min(
                node.entries,
                key=lambda e: (_enlargement(e, mbr), _area(e)),
            )
            node = best[4]
        return node

    def _handle_overflow(self, node: _RNode) -> None:
        while len(node.entries) > self.max_entries:
            sibling = self._split(node)
            parent = node.parent
            if parent is None:
                new_root = _RNode(is_leaf=False)
                for child in (node, sibling):
                    new_root.entries.append(child.entry())
                    child.parent = new_root
                self._root = new_root
                return
            parent.entries.append(sibling.entry())
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
                    _area(_union(entries[i], entries[j]))
                    - _area(entries[i])
                    - _area(entries[j])
                )
                if waste > worst_waste:
                    worst_waste = waste
                    worst_pair = (i, j)
        i, j = worst_pair
        group_a = [entries[i]]
        group_b = [entries[j]]
        rest = [e for k, e in enumerate(entries) if k not in (i, j)]
        mbr_a, mbr_b = group_a[0], group_b[0]
        for entry in rest:
            remaining = len(rest) - (len(group_a) + len(group_b) - 2)
            if len(group_a) + remaining <= self.min_entries:
                group_a.append(entry)
                mbr_a = _union(mbr_a, entry)
                continue
            if len(group_b) + remaining <= self.min_entries:
                group_b.append(entry)
                mbr_b = _union(mbr_b, entry)
                continue
            if _enlargement(mbr_a, entry) <= _enlargement(mbr_b, entry):
                group_a.append(entry)
                mbr_a = _union(mbr_a, entry)
            else:
                group_b.append(entry)
                mbr_b = _union(mbr_b, entry)
        node.entries = group_a
        sibling = _RNode(is_leaf=node.is_leaf)
        sibling.entries = group_b
        if not sibling.is_leaf:
            for entry in sibling.entries:
                entry[4].parent = sibling
        return sibling

    @staticmethod
    def _tighten(node: _RNode) -> None:
        """Set the parent entry of ``node`` to the union of its entries.

        Every interior entry equals its child's union between operations,
        so an insert or delete leaves only the entries above the nodes it
        changed to recompute; the siblings are already exact.
        """
        entries = node.parent.entries
        for at, entry in enumerate(entries):
            if entry[4] is node:
                entries[at] = node.entry()
                return

    # ----------------------------------------------------------------- delete

    def delete(self, spatial_value, primary_key) -> bool:
        """Remove one (value, pk) posting; returns False if absent."""
        mbr = corners(spatial_value)
        found = self._find_leaf_entry(self._root, mbr, (spatial_value, primary_key))
        if found is None:
            return False
        leaf, at = found
        del leaf.entries[at]
        self._size -= 1
        self._condense(leaf)
        return True

    def _find_leaf_entry(self, node: _RNode, mbr, payload):
        if node.is_leaf:
            for at, entry in enumerate(node.entries):
                if entry[4] == payload:
                    return node, at
            return None
        qx1, qy1, qx2, qy2 = mbr
        for x1, y1, x2, y2, child in node.entries:
            if not (qx1 > x2 or qx2 < x1 or qy1 > y2 or qy2 < y1):
                found = self._find_leaf_entry(child, mbr, payload)
                if found is not None:
                    return found
        return None

    def _condense(self, node: _RNode) -> None:
        """Reinsert orphans from underfull nodes; shrink ancestor MBRs."""
        orphans: List[_Entry] = []
        while node.parent is not None:
            parent = node.parent
            if len(node.entries) < self.min_entries:
                parent.entries = [e for e in parent.entries if e[4] is not node]
                self._collect_leaf_entries(node, orphans)
            else:
                self._tighten(node)
            node = parent
        if not self._root.is_leaf and len(self._root.entries) == 1:
            self._root = self._root.entries[0][4]
            self._root.parent = None
        for entry in orphans:
            value, pk = entry[4]
            self._size -= 1  # insert() will re-increment
            self.insert(value, pk)

    def _collect_leaf_entries(self, node: _RNode, out: List[_Entry]) -> None:
        if node.is_leaf:
            out.extend(node.entries)
        else:
            for entry in node.entries:
                self._collect_leaf_entries(entry[4], out)

    # ----------------------------------------------------------------- search

    def search(self, query, visits: list) -> List[Tuple[object, object]]:
        """The (spatial_value, primary_key) whose MBR intersects ``query``.

        ``query`` may be a Point/Rectangle/Circle, or its :func:`corners`
        tuple (a probe over several partitions works them out once);
        circles are searched by their MBR (callers apply the exact
        predicate afterwards, as the optimizer does for index-NLJ plans).
        The number of nodes read is appended to ``visits``.
        """
        qx1, qy1, qx2, qy2 = query if type(query) is tuple else corners(query)
        found: List[Tuple[object, object]] = []
        visited = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            visited += 1
            out = found if node.is_leaf else stack
            for x1, y1, x2, y2, ref in node.entries:
                if not (qx1 > x2 or qx2 < x1 or qy1 > y2 or qy2 < y1):
                    out.append(ref)
        visits.append(visited)
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
        for x1, y1, x2, y2, child in node.entries:
            cx1, cy1, cx2, cy2 = child.cover()
            if cx1 < x1 or cy1 < y1 or cx2 > x2 or cy2 > y2:
                raise AssertionError("entry MBR does not cover child")
            if child.parent is not node:
                raise AssertionError("broken parent pointer")
            total += self._check_node(child)
        return total
