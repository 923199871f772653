"""In-memory 2D R-tree.

Keys are (minx, miny, maxx, maxy) rectangles; items are opaque hashable ids.
Node capacity is 16 and no node has a minimum fill. Search is inclusive:
touching rectangles intersect. An overflowing node sorts its entries by
rectangle centre along the axis where the centres spread widest and splits
into halves. Delete refreshes the rectangles on the entry's path and drops
every node it leaves empty.

A leaf holds its items in a list and their rectangles in one array('d'),
four numbers per item in the same order, so the tree is the only holder of
each rectangle and keeps no tuple or float object per entry. An inner node
holds (rect, child) pairs. search() takes any number of boxes and keeps an
item only if its rectangle meets every one of them; it prunes a subtree as
soon as one box misses the subtree's rectangle.

bulk_load packs a whole set of entries at once by Sort-Tile-Recursive
(Leutenegger, Lopez & Edgington, ICDE 1997); insert and delete work on such
a tree as on any other.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterable

Rect = tuple[float, float, float, float]

MAX_ENTRIES = 16
MIN_ENTRIES = 6  # the classic 40 % fill, for reference only: no node is held to it


def _intersects(a: Rect, b: Rect) -> bool:
    return a[0] <= b[2] and b[0] <= a[2] and a[1] <= b[3] and b[1] <= a[3]


def _combine(a: Rect, b: Rect) -> Rect:
    return (min(a[0], b[0]), min(a[1], b[1]), max(a[2], b[2]), max(a[3], b[3]))


def _area(r: Rect) -> float:
    return (r[2] - r[0]) * (r[3] - r[1])


def _enlargement(r: Rect, add: Rect) -> float:
    return _area(_combine(r, add)) - _area(r)


def _rows(rects: array):
    """A leaf's rectangles as (minx, miny, maxx, maxy) rows."""
    it = iter(rects)
    return zip(it, it, it, it)


def _centres(rows) -> tuple[list[float], list[float]]:
    """Twice the x and twice the y centre of each rectangle."""
    xs, ys = [], []
    for x0, y0, x1, y1 in rows:
        xs.append(x0 + x1)
        ys.append(y0 + y1)
    return xs, ys


def _column(rows) -> array:
    """Rectangles as one leaf column, four numbers each."""
    return array("d", [v for row in rows for v in row])


class _Node:
    __slots__ = ("is_leaf", "entries", "rects")

    def __init__(self, is_leaf: bool, entries: list, rects: array | None = None):
        self.is_leaf = is_leaf
        # a leaf: its items, with their rectangles in rects; an inner node:
        # (rect, child) pairs, and rects is None
        self.entries = entries
        self.rects = rects

    def rect(self) -> Rect:
        if self.is_leaf:
            r = self.rects
            return (min(r[0::4]), min(r[1::4]), max(r[2::4]), max(r[3::4]))
        r = self.entries[0][0]
        for other, _ in self.entries[1:]:
            r = _combine(r, other)
        return r


class RTree:
    def __init__(self):
        self._root = _Node(True, [], array("d"))
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @classmethod
    def bulk_load(cls, entries: Iterable[tuple[object, Rect]]) -> "RTree":
        """A packed tree of (item, rect) entries, built level by level."""
        items, rects = [], array("d")
        for item, rect in entries:
            items.append(item)
            rects.extend(rect)
        tree = cls()
        tree._size = len(items)
        if len(items) <= MAX_ENTRIES:
            tree._root = _Node(True, items, rects)
            return tree
        nodes = [_Node(True, [items[i] for i in run],
                       _column(rects[4 * i : 4 * i + 4] for i in run))
                 for run in _str_runs(*_centres(_rows(rects)), MAX_ENTRIES)]
        level = [(node.rect(), node) for node in nodes]
        while len(level) > MAX_ENTRIES:
            nodes = [_Node(False, [level[i] for i in run])
                     for run in _str_runs(*_centres(r for r, _ in level), MAX_ENTRIES)]
            level = [(node.rect(), node) for node in nodes]
        tree._root = _Node(False, level)
        return tree

    def insert(self, item, rect: Rect) -> None:
        split = self._insert(self._root, rect, item)
        if split is not None:
            old = self._root
            self._root = _Node(False, [(old.rect(), old), (split.rect(), split)])
        self._size += 1

    def _insert(self, node: _Node, rect: Rect, item) -> "_Node | None":
        if node.is_leaf:
            node.entries.append(item)
            node.rects.extend(rect)
        else:
            idx = self._choose_subtree(node, rect)
            child = node.entries[idx][1]
            split = self._insert(child, rect, item)
            node.entries[idx] = (child.rect(), child)
            if split is not None:
                node.entries.append((split.rect(), split))
        if len(node.entries) > MAX_ENTRIES:
            return self._split(node)
        return None

    @staticmethod
    def _choose_subtree(node: _Node, rect: Rect) -> int:
        best = 0
        best_key = None
        for i, (r, _) in enumerate(node.entries):
            key = (_enlargement(r, rect), _area(r))
            if best_key is None or key < best_key:
                best, best_key = i, key
        return best

    @staticmethod
    def _split(node: _Node) -> _Node:
        """Halve node's entries, sorted by centre on the axis they spread widest."""
        rows = list(_rows(node.rects)) if node.is_leaf else [r for r, _ in node.entries]
        xs, ys = _centres(rows)
        axis = 0 if max(xs) - min(xs) >= max(ys) - min(ys) else 1
        order = sorted(range(len(rows)), key=(xs if axis == 0 else ys).__getitem__)
        keep, move = order[: len(order) // 2], order[len(order) // 2 :]
        entries = node.entries
        node.entries = [entries[i] for i in keep]
        if not node.is_leaf:
            return _Node(False, [entries[i] for i in move])
        node.rects = _column(rows[i] for i in keep)
        return _Node(True, [entries[i] for i in move], _column(rows[i] for i in move))

    def search(self, *rects: Rect) -> list:
        """Items whose stored rectangle intersects every one of rects
        (inclusive bounds); with none given, every item."""
        out: list = []
        self._search(self._root, rects, out)
        return out

    def _search(self, node: _Node, boxes: tuple[Rect, ...], out: list) -> None:
        if node.is_leaf:
            for (x0, y0, x1, y1), item in zip(_rows(node.rects), node.entries):
                for b0, b1, b2, b3 in boxes:
                    if x0 > b2 or b0 > x1 or y0 > b3 or b1 > y1:
                        break
                else:
                    out.append(item)
            return
        for (x0, y0, x1, y1), child in node.entries:
            for b0, b1, b2, b3 in boxes:
                if x0 > b2 or b0 > x1 or y0 > b3 or b1 > y1:
                    break
            else:
                self._search(child, boxes, out)

    def bounds(self) -> Rect | None:
        """The smallest rectangle holding every stored one; None when empty."""
        return self._root.rect() if self._root.entries else None

    def items(self) -> list[tuple[object, Rect]]:
        out: list = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                out.extend(zip(node.entries, _rows(node.rects)))
            else:
                stack.extend(child for _, child in node.entries)
        return out

    def delete(self, item, rect: Rect) -> None:
        """Remove one (item, rect) entry; KeyError when absent."""
        if not self._delete(self._root, tuple(rect), item):
            raise KeyError(item)
        self._size -= 1
        # Collapse one-child roots: an inner root then has two or more children,
        # and a delete drops at most one of them, so the root never empties.
        while not self._root.is_leaf and len(self._root.entries) == 1:
            self._root = self._root.entries[0][1]

    def _delete(self, node: _Node, rect: Rect, item) -> bool:
        if node.is_leaf:
            for k, it in enumerate(node.entries):
                if it == item and tuple(node.rects[4 * k : 4 * k + 4]) == rect:
                    del node.entries[k]
                    del node.rects[4 * k : 4 * k + 4]
                    return True
            return False
        for k, (r, child) in enumerate(node.entries):
            if _intersects(r, rect) and self._delete(child, rect, item):
                if child.entries:
                    node.entries[k] = (child.rect(), child)
                else:
                    del node.entries[k]
                return True
        return False


def _str_runs(xs: list[float], ys: list[float], cap: int) -> list[list[int]]:
    """One STR level over the entries whose (doubled) centres are xs and ys,
    as runs of entry numbers, one per node: sort by x centre into vertical
    slices of whole nodes, then each slice by y centre into nodes of cap
    entries."""
    n = len(xs)
    slices = math.ceil(math.sqrt(math.ceil(n / cap)))
    per_slice = slices * cap
    order = sorted(range(n), key=xs.__getitem__)
    runs = []
    for s in range(0, n, per_slice):
        run = sorted(order[s : s + per_slice], key=ys.__getitem__)
        runs.extend(run[k : k + cap] for k in range(0, len(run), cap))
    return runs
