"""R-tree correctness by differential testing against a brute-force rectangle list."""

from __future__ import annotations

import random

import pytest

from array import array

from geomedia.rtree import MAX_ENTRIES, RTree


def brute_force_search(entries, rect):
    out = []
    for item, (ax0, ay0, ax1, ay1) in entries.items():
        if ax0 <= rect[2] and rect[0] <= ax1 and ay0 <= rect[3] and rect[1] <= ay1:
            out.append(item)
    return sorted(out)


def random_rect(rng, span=100.0):
    x0 = rng.uniform(-span, span)
    y0 = rng.uniform(-span, span)
    return (x0, y0, x0 + rng.uniform(0, span / 4), y0 + rng.uniform(0, span / 4))


def test_empty_tree():
    tree = RTree()
    assert len(tree) == 0
    assert tree.search((-1000, -1000, 1000, 1000)) == []


def test_single_entry_and_touching_edges():
    tree = RTree()
    tree.insert(1, (0, 0, 10, 10))
    assert tree.search((10, 10, 20, 20)) == [1]  # corner touch counts
    assert tree.search((11, 11, 20, 20)) == []
    assert tree.search((5, 5, 6, 6)) == [1]


def test_point_rectangles():
    tree = RTree()
    tree.insert(7, (3, 4, 3, 4))
    assert tree.search((3, 4, 3, 4)) == [7]
    assert tree.search((0, 0, 2.9, 4)) == []


def test_split_occurs_and_stays_correct():
    tree = RTree()
    entries = {}
    for i in range(MAX_ENTRIES * 5):
        rect = (i, i, i + 0.5, i + 0.5)
        entries[i] = rect
        tree.insert(i, rect)
    assert len(tree) == MAX_ENTRIES * 5
    for i in range(MAX_ENTRIES * 5):
        assert sorted(tree.search(entries[i])) == brute_force_search(entries, entries[i])


def test_delete_missing_raises():
    tree = RTree()
    tree.insert(0, (0, 0, 1, 1))
    with pytest.raises(KeyError):
        tree.delete(1, (0, 0, 1, 1))
    with pytest.raises(KeyError):
        tree.delete(0, (5, 5, 6, 6))


def test_randomized_insert_query():
    rng = random.Random("rtree-iq")
    tree = RTree()
    entries = {}
    for i in range(1000):
        rect = random_rect(rng)
        entries[i] = rect
        tree.insert(i, rect)
    for _ in range(200):
        q = random_rect(rng, span=150.0)
        assert sorted(tree.search(q)) == brute_force_search(entries, q)


def test_randomized_insert_delete_query():
    rng = random.Random("rtree-idq")
    tree = RTree()
    entries = {}
    next_id = 0
    for step in range(3000):
        action = rng.random()
        if action < 0.55 or not entries:
            rect = random_rect(rng)
            entries[next_id] = rect
            tree.insert(next_id, rect)
            next_id += 1
        elif action < 0.85:
            victim = rng.choice(list(entries))
            tree.delete(victim, entries.pop(victim))
        else:
            q = random_rect(rng, span=150.0)
            assert sorted(tree.search(q)) == brute_force_search(entries, q)
        assert len(tree) == len(entries)
    q = (-1000, -1000, 1000, 1000)
    assert sorted(tree.search(q)) == sorted(entries)


def test_duplicate_rectangles_coexist():
    tree = RTree()
    rect = (1, 1, 2, 2)
    for item in (0, 1, 2):
        tree.insert(item, rect)
    assert sorted(tree.search(rect)) == [0, 1, 2]
    tree.delete(1, rect)
    assert sorted(tree.search(rect)) == [0, 2]


def test_items_enumerates_everything():
    rng = random.Random("rtree-items")
    tree = RTree()
    entries = {}
    for i in range(100):
        rect = random_rect(rng)
        entries[i] = rect
        tree.insert(i, rect)
    assert sorted(tree.items()) == sorted((k, v) for k, v in entries.items())


def leaf_depths_and_sizes(tree):
    """(depth, entry count) of every leaf of a tree's packed levels."""
    out = []
    stack = [(len(tree._levels) - 1, 0, 0)]  # (level, node, depth)
    while stack:
        level, node, depth = stack.pop()
        starts = tree._levels[level][1]
        entries = range(starts[node], starts[node + 1])
        if level == 0:
            out.append((depth, len(entries)))
        else:
            stack.extend((level - 1, child, depth + 1) for child in entries)
    return out


# 4 * MAX_ENTRIES + 3 entries pack into 5 leaves in 3 slices of up to 3 leaves:
# the second slice holds 19 entries, a full leaf and one of 3, which is kept short.
@pytest.mark.parametrize("n", [0, 1, MAX_ENTRIES, MAX_ENTRIES + 1, 4 * MAX_ENTRIES + 3, 1000])
def test_bulk_load_matches_brute_force_then_stays_mutable(n):
    rng = random.Random(f"rtree-bulk-{n}")
    entries = {i: random_rect(rng) for i in range(n)}
    tree = RTree.bulk_load(entries.items())
    assert len(tree) == n
    assert sorted(tree.items()) == sorted(entries.items())
    leaves = leaf_depths_and_sizes(tree)
    assert len({depth for depth, _ in leaves}) == 1  # every leaf on one level
    assert all(size <= MAX_ENTRIES for _, size in leaves)
    if n in (MAX_ENTRIES + 1, 4 * MAX_ENTRIES + 3):
        assert min(size for _, size in leaves) == n % MAX_ENTRIES
    for _ in range(50):
        q = random_rect(rng, span=150.0)
        assert sorted(tree.search(q)) == brute_force_search(entries, q)
    next_id = n
    for _ in range(600):
        action = rng.random()
        if action < 0.4 or not entries:
            rect = random_rect(rng)
            entries[next_id] = rect
            tree.insert(next_id, rect)
            next_id += 1
        elif action < 0.8:
            victim = rng.choice(list(entries))
            tree.delete(victim, entries.pop(victim))
        else:
            q = random_rect(rng, span=150.0)
            assert sorted(tree.search(q)) == brute_force_search(entries, q)
        assert len(tree) == len(entries)
    assert sorted(tree.items()) == sorted(entries.items())


def test_bulk_load_keeps_duplicate_rectangles():
    rect = (1, 1, 2, 2)
    tree = RTree.bulk_load((item, rect) for item in range(21))
    assert sorted(tree.search(rect)) == list(range(21))
    tree.delete(1, rect)
    assert 1 not in tree.search(rect)


def test_deleting_every_entry_of_a_bulk_loaded_tree():
    rng = random.Random("rtree-drain")
    entries = {i: random_rect(rng) for i in range(1000)}
    tree = RTree.bulk_load(entries.items())
    order = list(entries)
    rng.shuffle(order)
    for k, victim in enumerate(order, 1):
        tree.delete(victim, entries.pop(victim))
        if k % 100 == 0 or len(entries) < 20:
            assert len(tree) == len(entries)
            assert len({depth for depth, _ in leaf_depths_and_sizes(tree)}) == 1
            for _ in range(20):
                q = random_rect(rng, span=150.0)
                assert sorted(tree.search(q)) == brute_force_search(entries, q)
    assert tree._items == array("q") and [len(rects) for rects, _ in tree._levels] == [0]
    assert tree.search((-1000, -1000, 1000, 1000)) == []
    for i in range(3 * MAX_ENTRIES):
        rect = random_rect(rng)
        entries[i] = rect
        tree.insert(i, rect)
    assert len(tree) == len(entries)
    assert sorted(tree.items()) == sorted(entries.items())
    q = random_rect(rng, span=150.0)
    assert sorted(tree.search(q)) == brute_force_search(entries, q)


def brute_force_multi(entries, boxes):
    """Items whose rectangle meets every one of boxes."""
    hits = set(entries)
    for box in boxes:
        hits &= set(brute_force_search(entries, box))
    return sorted(hits)


def test_multi_box_search_matches_brute_force_after_bulk_load_inserts_and_deletes():
    rng = random.Random("rtree-multi")
    entries = {i: random_rect(rng) for i in range(600)}
    tree = RTree.bulk_load(entries.items())

    def check():
        for _ in range(40):
            boxes = [random_rect(rng, span=150.0) for _ in range(rng.choice((2, 3)))]
            if rng.random() < 0.5:  # boxes that overlap, so the answer is not always empty
                x0, y0, x1, y1 = boxes[0]
                boxes[1] = (x0 + (x1 - x0) / 2, y0 - 10, x1 + 30, y1)
            assert sorted(tree.search(*boxes)) == brute_force_multi(entries, boxes)
        assert sorted(tree.items()) == sorted(entries.items())

    check()
    next_id = len(entries)
    for _ in range(800):
        if rng.random() < 0.5 or not entries:
            rect = random_rect(rng)
            entries[next_id] = rect
            tree.insert(next_id, rect)
            next_id += 1
        else:
            victim = rng.choice(list(entries))
            tree.delete(victim, entries.pop(victim))
    check()


def test_bounds_is_the_union_of_every_rectangle():
    rng = random.Random("rtree-bounds")
    tree = RTree()
    assert tree.bounds() is None
    entries = {}
    for i in range(300):
        entries[i] = random_rect(rng)
        tree.insert(i, entries[i])
        if i % 3 == 2:
            victim = rng.choice(list(entries))
            tree.delete(victim, entries.pop(victim))
        rects = list(entries.values())
        assert tree.bounds() == (min(r[0] for r in rects), min(r[1] for r in rects),
                                 max(r[2] for r in rects), max(r[3] for r in rects))
    for victim in list(entries):
        tree.delete(victim, entries.pop(victim))
    assert tree.bounds() is None


def delta_items(tree):
    """The items in the tree's write delta, the unsorted leaf after the packed ones."""
    return tree._items[tree._levels[0][1][-2]:]


def test_write_delta_matches_brute_force_across_repacks():
    rng = random.Random("rtree-delta")
    entries = {i: random_rect(rng) for i in range(300)}
    for i in range(300, 320):  # duplicate rectangles, packed
        entries[i] = entries[i - 300]
    tree = RTree.bulk_load(entries.items())
    counts = {"packs": 0, "from delta": 0, "from packed": 0}
    next_id = len(entries)

    def write(delete: bool):
        nonlocal next_id
        levels = tree._levels
        if delete:
            victim = rng.choice(list(entries))
            counts["from delta" if victim in delta_items(tree) else "from packed"] += 1
            tree.delete(victim, entries.pop(victim))
        else:
            duplicate = entries and rng.random() < 0.2
            rect = rng.choice(list(entries.values())) if duplicate else random_rect(rng)
            entries[next_id] = rect
            tree.insert(next_id, rect)
            next_id += 1
        counts["packs"] += tree._levels is not levels
        assert len(tree) == len(entries)
        rects = list(entries.values())
        assert tree.bounds() == ((min(r[0] for r in rects), min(r[1] for r in rects),
                                  max(r[2] for r in rects), max(r[3] for r in rects))
                                 if rects else None)

    def check():
        for _ in range(10):
            boxes = [random_rect(rng, span=150.0) for _ in range(rng.choice((1, 2, 3)))]
            assert sorted(tree.search(*boxes)) == brute_force_multi(entries, boxes)
        assert sorted(tree.items()) == sorted(entries.items())

    for k in range(600):
        write(delete=entries and rng.random() < 0.55)
        if k % 20 == 0:
            check()
    assert counts["packs"] >= 3 and counts["from delta"] > 0 and counts["from packed"] > 0
    while entries:  # drain, then fill again from empty
        write(delete=True)
    check()
    for _ in range(100):
        write(delete=False)
    check()
