"""In-memory 2D R-tree.

Keys are (minx, miny, maxx, maxy) rectangles; items are opaque hashable ids.
Node capacity is 16 and no node has a minimum fill. Search is inclusive:
touching rectangles intersect. An overflowing node sorts its entries by
rectangle centre along the axis where the centres spread widest and splits
into halves. Delete refreshes the rectangles on the entry's path and drops
every node it leaves empty.

bulk_load packs a whole set of entries at once by Sort-Tile-Recursive
(Leutenegger, Lopez & Edgington, ICDE 1997); insert and delete work on such
a tree as on any other.
"""

from __future__ import annotations

import math
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


class _Node:
    __slots__ = ("is_leaf", "entries")

    def __init__(self, is_leaf: bool):
        self.is_leaf = is_leaf
        self.entries: list[tuple[Rect, object]] = []  # object: child _Node or item id

    def rect(self) -> Rect:
        r = self.entries[0][0]
        for other, _ in self.entries[1:]:
            r = _combine(r, other)
        return r


class RTree:
    def __init__(self):
        self._root = _Node(is_leaf=True)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @classmethod
    def bulk_load(cls, entries: Iterable[tuple[object, Rect]]) -> "RTree":
        """A packed tree of (item, rect) entries, built level by level."""
        tree = cls()
        level = [(rect, item) for item, rect in entries]
        tree._size = len(level)
        is_leaf = True
        while len(level) > MAX_ENTRIES:
            nodes = _str_pack(level, MAX_ENTRIES, is_leaf)
            level = [(node.rect(), node) for node in nodes]
            is_leaf = False
        tree._root = _Node(is_leaf)
        tree._root.entries = level
        return tree

    def insert(self, item, rect: Rect) -> None:
        split = self._insert(self._root, rect, item)
        if split is not None:
            old = self._root
            root = _Node(is_leaf=False)
            root.entries = [(old.rect(), old), (split.rect(), split)]
            self._root = root
        self._size += 1

    def _insert(self, node: _Node, rect: Rect, item) -> "_Node | None":
        if node.is_leaf:
            node.entries.append((rect, item))
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
        xs = [r[0] + r[2] for r, _ in node.entries]
        ys = [r[1] + r[3] for r, _ in node.entries]
        axis = 0 if max(xs) - min(xs) >= max(ys) - min(ys) else 1
        node.entries.sort(key=lambda e: e[0][axis] + e[0][axis + 2])
        half = len(node.entries) // 2
        sibling = _Node(is_leaf=node.is_leaf)
        sibling.entries = node.entries[half:]
        del node.entries[half:]
        return sibling

    def search(self, rect: Rect) -> list:
        """Items whose stored rectangle intersects rect (inclusive bounds)."""
        out: list = []
        self._search(self._root, rect, out)
        return out

    def _search(self, node: _Node, rect: Rect, out: list) -> None:
        for r, child in node.entries:
            if _intersects(r, rect):
                if node.is_leaf:
                    out.append(child)
                else:
                    self._search(child, rect, out)

    def items(self) -> list[tuple[object, Rect]]:
        out: list = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            for r, child in node.entries:
                if node.is_leaf:
                    out.append((child, r))
                else:
                    stack.append(child)
        return out

    def delete(self, item, rect: Rect) -> None:
        """Remove one (item, rect) entry; KeyError when absent."""
        if not self._delete(self._root, rect, item):
            raise KeyError(item)
        self._size -= 1
        # Collapse one-child roots: an inner root then has two or more children,
        # and a delete drops at most one of them, so the root never empties.
        while not self._root.is_leaf and len(self._root.entries) == 1:
            self._root = self._root.entries[0][1]

    def _delete(self, node: _Node, rect: Rect, item) -> bool:
        if node.is_leaf:
            for k, (r, it) in enumerate(node.entries):
                if it == item and r == rect:
                    del node.entries[k]
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


def _str_pack(entries: list[tuple[Rect, object]], cap: int, is_leaf: bool) -> list[_Node]:
    """One STR level: sort by x centre into vertical slices of whole nodes,
    then each slice by y centre into nodes of cap entries."""
    slices = math.ceil(math.sqrt(math.ceil(len(entries) / cap)))
    per_slice = slices * cap
    entries.sort(key=lambda e: e[0][0] + e[0][2])
    nodes = []
    for s in range(0, len(entries), per_slice):
        run = sorted(entries[s : s + per_slice], key=lambda e: e[0][1] + e[0][3])
        for k in range(0, len(run), cap):
            node = _Node(is_leaf)
            node.entries = run[k : k + cap]
            nodes.append(node)
    return nodes
