"""In-memory 2D R-tree: a packed tree plus a small write delta.

Keys are (minx, miny, maxx, maxy) rectangles; items are opaque hashable ids.
Search is inclusive: touching rectangles intersect. search() keeps an item
only if its rectangle meets every box it is given, and prunes a subtree as
soon as one box misses the subtree's box.

The packed part is Sort-Tile-Recursive (Leutenegger, Lopez & Edgington,
ICDE 1997) in flat levels, leaves first, as in flatbush: an array('d') of
rectangles, four numbers per entry, and an array of node starts, so node j
holds entries starts[j] up to starts[j + 1] and entry j of the level above
holds node j's box. Each leaf is one STR run of at most MAX_ENTRIES, each
level above is STR over the boxes below, and a node's children sit next to
each other. The leaves keep their items in one list: no tuple or float per
entry. insert() appends to the delta, an unsorted last leaf that no node
points to and every search scans. delete() takes an entry out of the
delta, or makes a packed entry's rectangle an empty box and the boxes on
its path exact again, so bounds() reads only the root and the delta. Once
the delta and the deleted entries outnumber max(MAX_ENTRIES, isqrt(len)),
the live entries are packed again.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from collections.abc import Iterable
from itertools import accumulate
from operator import itemgetter

Rect = tuple[float, float, float, float]

MAX_ENTRIES = 16

_EMPTY = array("d", (math.inf, math.inf, -math.inf, -math.inf))  # meets no rectangle
_GONE = object()  # the item of a deleted packed entry


def _union(rects: array) -> Rect:
    """The box of a non-empty column of rectangles."""
    return (min(rects[0::4]), min(rects[1::4]), max(rects[2::4]), max(rects[3::4]))


def _meeting(rects: array, labels, starts, nodes, boxes) -> list:
    """The labels of the entries in nodes of a level that meet every box."""
    hits = []
    for j in nodes:
        lo, hi = starts[j], starts[j + 1]
        it = iter(rects[4 * lo : 4 * hi])
        for label, x0, y0, x1, y1 in zip(labels[lo:hi], it, it, it, it):
            for b0, b1, b2, b3 in boxes:
                if x0 > b2 or b0 > x1 or y0 > b3 or b1 > y1:
                    break
            else:
                hits.append(label)
    return hits


class RTree:
    def __init__(self):
        # (rects, starts) per level, leaves first, and the leaves' items, _GONE
        # where deleted; the leaves' starts end with the delta's
        self._levels, self._items = _pack([], array("d"), [])
        self._size = self._dead = 0  # live entries; deleted entries in the leaves

    def __len__(self) -> int:
        return self._size

    @classmethod
    def bulk_load(cls, entries: Iterable[tuple[object, Rect]]) -> "RTree":
        """A packed tree of (item, rect) entries."""
        tree, items, rects = cls(), [], array("d")
        for item, rect in entries:
            items.append(item)
            rects.extend(rect)
        tree._levels, tree._items = _pack(items, rects, range(len(items)))
        tree._size = len(items)
        return tree

    def insert(self, item, rect: Rect) -> None:
        leaf, starts = self._levels[0]
        self._items.append(item)
        leaf.extend(rect)
        starts[-1] += 1
        self._size += 1
        self._tidy()

    def delete(self, item, rect: Rect) -> None:
        """Remove one (item, rect) entry; KeyError when absent."""
        key = array("d", rect)
        corner = (key[0], key[1], key[0], key[1])  # in every box that holds key
        leaf, leaf_starts = self._levels[0]
        i = next((i for i in self._leaf_hits((corner,), range(len(self._items)))
                  if self._items[i] == item and leaf[4 * i : 4 * i + 4] == key), None)
        if i is None:
            raise KeyError(item)
        if i >= leaf_starts[-2]:  # in the delta
            del self._items[i]
            del leaf[4 * i : 4 * i + 4]
            leaf_starts[-1] -= 1
        else:
            self._items[i] = _GONE
            leaf[4 * i : 4 * i + 4] = _EMPTY
            self._dead += 1
            for (rects, starts), (above, _) in zip(self._levels, self._levels[1:]):
                i = bisect_right(starts, i) - 1  # the node, and its entry above
                box = _union(rects[4 * starts[i] : 4 * starts[i + 1]])
                above[4 * i : 4 * i + 4] = array("d", box)
        self._size -= 1
        self._tidy()

    def _leaf_hits(self, boxes, labels) -> list:
        """The labels of the leaf entries, the delta's among them, that meet
        every box (an inner entry's label is its number, which is the number
        of its child node)."""
        hits = [0]  # the root node
        for column, starts in reversed(self._levels[1:]):
            hits = _meeting(column, range(len(column) // 4), starts, hits, boxes)
        column, starts = self._levels[0]
        return _meeting(column, labels, starts, hits + [len(starts) - 2], boxes)

    def _tidy(self) -> None:
        """Pack again once the delta and the deleted entries, which searches
        read, outnumber the bound or the live entries."""
        stale = len(self._items) - self._levels[0][1][-2] + self._dead
        if stale > min(self._size, max(MAX_ENTRIES, math.isqrt(self._size))):
            live = range(len(self._items)) if not self._dead else \
                [i for i, item in enumerate(self._items) if item is not _GONE]
            self._levels, self._items = _pack(self._items, self._levels[0][0], live)
            self._dead = 0

    def search(self, rect: Rect, *rects: Rect) -> list:
        """Items whose stored rectangle intersects rect and every one of rects
        (inclusive bounds)."""
        return self._leaf_hits((rect, *rects), self._items)

    def bounds(self) -> Rect | None:
        """The smallest rectangle holding every stored one; None when empty."""
        leaf, starts = self._levels[0]
        return _union(self._levels[-1][0] + leaf[4 * starts[-2] :]) if self._size else None

    def items(self) -> list[tuple[object, Rect]]:
        it = iter(self._levels[0][0])
        return [entry for entry in zip(self._items, zip(it, it, it, it)) if entry[0] is not _GONE]


def _pack(items: list, rects: array, entries) -> tuple[list[tuple[array, array]], list]:
    """The levels, leaves first, over the entries numbered in entries, and
    their items in leaf order: grouped bottom-up, laid out top-down."""
    columns, groupings = [rects], []
    while len(entries) > MAX_ENTRIES:
        runs = _str_runs(columns[-1], entries)
        groupings.append(runs)
        columns.append(_boxes(columns[-1], runs))
        entries = range(len(runs))
    groupings.append([entries])  # the root
    levels, order = [], [0]
    for column, runs in zip(reversed(columns), reversed(groupings)):
        nodes = [runs[j] for j in order]
        order = [i for node in nodes for i in node]
        laid = array("d")
        for i in order:
            laid += column[4 * i : 4 * i + 4]
        levels.append((laid, array("q", accumulate(map(len, nodes), initial=0))))
    levels.reverse()
    levels[0][1].append(len(order))  # the delta: one more leaf, after the packed ones
    return levels, [items[i] for i in order]


def _str_runs(rects: array, entries) -> list[list[int]]:
    """One STR level over the entries numbered in entries, as runs of entry
    numbers, one per node: sort by x centre into vertical slices of whole
    nodes, then each slice by y centre into nodes of MAX_ENTRIES."""
    n = len(entries)
    per_slice = math.ceil(math.sqrt(math.ceil(n / MAX_ENTRIES))) * MAX_ENTRIES
    order = sorted(entries, key=[a + b for a, b in zip(rects[0::4], rects[2::4])].__getitem__)
    centres = [a + b for a, b in zip(rects[1::4], rects[3::4])]  # twice the x, then the y centre
    runs = []
    for s in range(0, n, per_slice):
        run = sorted(order[s : s + per_slice], key=centres.__getitem__)
        runs.extend(run[k : k + MAX_ENTRIES] for k in range(0, len(run), MAX_ENTRIES))
    return runs


def _boxes(rects: array, runs: list[list[int]]) -> array:
    """The box of each run of entry numbers of rects, as one column."""
    x0, y0, x1, y1 = (rects[k::4] for k in range(4))
    boxes = array("d")
    for run in runs:
        get = itemgetter(run[0], *run)  # two or more numbers, so that get() gives a tuple
        boxes.extend((min(get(x0)), min(get(y0)), max(get(x1)), max(get(y1))))
    return boxes
