"""In-memory 2D R-tree with quadratic split (Guttman).

Keys are (minx, miny, maxx, maxy) rectangles; items are opaque hashable ids.
Node capacity is 16 with a 40% minimum fill. Search is inclusive: touching
rectangles intersect. Deletion condenses underfull nodes by reinserting
their leaf entries.

bulk_load packs a whole set of entries at once by Sort-Tile-Recursive
(Leutenegger, Lopez & Edgington, ICDE 1997). Its nodes are full except the
last of each tile, which may hold fewer than the minimum fill; insert and
delete work on such a tree as on any other.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

Rect = tuple[float, float, float, float]

MAX_ENTRIES = 16
MIN_ENTRIES = 6


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
        self._insert_entry(rect, item)
        self._size += 1

    def _insert_entry(self, rect: Rect, item) -> None:
        split = self._insert(self._root, rect, item)
        if split is not None:
            old = self._root
            root = _Node(is_leaf=False)
            root.entries = [(old.rect(), old), (split.rect(), split)]
            self._root = root

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
            return self._quadratic_split(node)
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

    def _quadratic_split(self, node: _Node) -> _Node:
        entries = node.entries
        seed_a = seed_b = 0
        worst = -1.0
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                waste = _area(_combine(entries[i][0], entries[j][0])) - _area(
                    entries[i][0]
                ) - _area(entries[j][0])
                if waste > worst:
                    worst, seed_a, seed_b = waste, i, j
        group_a = [entries[seed_a]]
        group_b = [entries[seed_b]]
        rect_a = entries[seed_a][0]
        rect_b = entries[seed_b][0]
        rest = [e for k, e in enumerate(entries) if k not in (seed_a, seed_b)]
        while rest:
            if len(group_a) + len(rest) == MIN_ENTRIES:
                group_a.extend(rest)
                rest = []
                break
            if len(group_b) + len(rest) == MIN_ENTRIES:
                group_b.extend(rest)
                rest = []
                break
            pick, prefer_a, best_diff = 0, True, -1.0
            for k, (r, _) in enumerate(rest):
                da = _enlargement(rect_a, r)
                db = _enlargement(rect_b, r)
                diff = abs(da - db)
                if diff > best_diff:
                    pick, best_diff = k, diff
                    prefer_a = da < db or (da == db and _area(rect_a) <= _area(rect_b))
            entry = rest.pop(pick)
            if prefer_a:
                group_a.append(entry)
                rect_a = _combine(rect_a, entry[0])
            else:
                group_b.append(entry)
                rect_b = _combine(rect_b, entry[0])
        node.entries = group_a
        sibling = _Node(is_leaf=node.is_leaf)
        sibling.entries = group_b
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
        found, orphans = self._delete(self._root, rect, item)
        if not found:
            raise KeyError(item)
        self._size -= 1
        if not self._root.is_leaf and len(self._root.entries) == 1:
            self._root = self._root.entries[0][1]
        if not self._root.is_leaf and not self._root.entries:
            self._root = _Node(is_leaf=True)
        for r, it in orphans:
            self._insert_entry(r, it)

    def _delete(self, node: _Node, rect: Rect, item):
        if node.is_leaf:
            for k, (r, it) in enumerate(node.entries):
                if it == item and r == rect:
                    del node.entries[k]
                    return True, []
            return False, []
        for k, (r, child) in enumerate(node.entries):
            if not _intersects(r, rect):
                continue
            found, orphans = self._delete(child, rect, item)
            if not found:
                continue
            if not child.entries or len(child.entries) < MIN_ENTRIES:
                del node.entries[k]
                orphans.extend(_leaf_entries(child))
            else:
                node.entries[k] = (child.rect(), child)
            return True, orphans
        return False, []


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


def _leaf_entries(node: _Node) -> list[tuple[Rect, object]]:
    if node.is_leaf:
        return list(node.entries)
    out: list = []
    for _, child in node.entries:
        out.extend(_leaf_entries(child))
    return out
