"""The store's write log: commit, replay, torn tails, compaction and generations."""

from __future__ import annotations

import contextlib
import json
import random
import zlib

import pytest

from geomedia import (
    Annotation,
    FieldOfView,
    GeoPoint,
    MediaStore,
    MovingPoint,
    MovingVideo,
    STPhoto,
    TimeInterval,
    document_of,
)
from geomedia.errors import CorruptStoreError, StoreIoError

from conftest import fingerprint

KINDS = ("MovingPoint", "stphoto", "MovingVideo")


def random_doc(rng, kind):
    lon, lat = rng.uniform(-150, 150), rng.uniform(-70, 70)
    t = rng.randint(0, 1_000_000_000)
    if kind == "stphoto":
        return document_of(STPhoto(f"u:{t}", GeoPoint(lon, lat), t,
                                   FieldOfView(direction2d=rng.uniform(0, 359))))
    n = rng.randint(2, 5)
    times = tuple(t + 1000 * k for k in range(n))
    points = tuple(GeoPoint(lon + 0.001 * k, lat + rng.uniform(-0.001, 0.001)) for k in range(n))
    track = MovingPoint(times, points)
    if kind == "MovingPoint":
        return document_of(track)
    return document_of(MovingVideo(f"v:{t}", track, (FieldOfView(direction2d=rng.uniform(0, 359)),)))


def random_annotation(rng, record, aid):
    kind = rng.choice(("text", "icon", "polygon"))
    body = [(0, 0), (rng.uniform(1, 9), 0), (4, 3)] if kind == "polygon" else f"label {aid}"
    time_range = None
    if record.doc.kind == "MovingVideo" and rng.random() < 0.5:
        time_range = TimeInterval(record.extent.start, record.extent.start + 500)
    return Annotation(aid, kind, body, time_range)


def random_op(rng, store, serial):
    """Apply one random mutation of any kind; returns its op name."""
    collections = store.list_collections()
    features = [(c.id, r) for c in collections for r in store.st_query(c.id)]
    annotated = [(cid, r.fid, a.aid) for cid, r in features
                 for a in store.list_annotations(cid, r.fid)]
    choice = rng.random()
    if not collections or choice < 0.06:
        cid = rng.choice(("wal", "tracks", "pics", "vids", "manifest", "c1"))
        if cid in {c.id for c in collections}:
            store.delete_collection(cid)
            return "delete_collection"
        store.create_collection(cid, f"title {serial}", rng.choice(KINDS))
        return "create_collection"
    if choice < 0.45 or not features:
        meta = rng.choice(collections)
        fids = [r.fid for r in store.st_query(meta.id)]
        fid = rng.choice(fids) if fids and rng.random() < 0.3 else f"f{serial}"
        store.put_feature(meta.id, fid, random_doc(rng, meta.media_type))
        return "put_feature"
    if choice < 0.55:
        cid, record = rng.choice(features)
        store.delete_feature(cid, record.fid)
        return "delete_feature"
    if choice < 0.85 or not annotated:
        cid, record = rng.choice(features)
        store.put_annotation(cid, record.fid, random_annotation(rng, record, f"a{serial}"))
        return "put_annotation"
    store.delete_annotation(*rng.choice(annotated))
    return "delete_annotation"


def committed_store(target, n_puts=3):
    """A flushed store with one collection, then n_puts features committed one at a time."""
    store = MediaStore(target)
    store.create_collection("tracks", "tracks", "MovingPoint", created=7)
    store.flush()
    rng = random.Random("committed")
    for i in range(n_puts):
        store.put_feature("tracks", f"t{i}", random_doc(rng, "MovingPoint"))
        store.commit()
    return store


def test_random_ops_reload_equal(tmp_path, monkeypatch):
    """Every op kind, committed in batches: each reload equals the live store."""
    flushes = []
    real_flush = MediaStore.flush

    def counting_flush(self):
        flushes.append(self)
        return real_flush(self)

    monkeypatch.setattr(MediaStore, "flush", counting_flush)
    rng = random.Random("wal-ops")
    target = tmp_path / "s"
    store = MediaStore(target)
    seen, replayed = set(), 0
    serial = 0
    for _ in range(150):
        for _ in range(rng.randint(1, 5)):
            serial += 1
            seen.add(random_op(rng, store, serial))
        store.commit()
        replayed += (target / "wal.log").is_file()
        assert fingerprint(MediaStore.load(target)) == fingerprint(store)
    assert seen == {"create_collection", "delete_collection", "put_feature", "delete_feature",
                    "put_annotation", "delete_annotation"}
    assert len(flushes) >= 2  # the first commit writes the snapshot; later ones compact
    assert replayed > 100  # most reloads replayed a log


@pytest.mark.parametrize("tear", ["cut", "no-newline", "flip"])
def test_torn_last_record_dropped_then_truncated(tmp_path, tear):
    target = tmp_path / "s"
    committed_store(target)
    log = target / "wal.log"
    data = log.read_bytes()
    whole = data[:data.rstrip(b"\n").rfind(b"\n") + 1]  # without the last record
    if tear == "cut":
        log.write_bytes(data[:-25])
    elif tear == "no-newline":
        log.write_bytes(data[:-1])
    else:
        i = len(data) - 30
        log.write_bytes(data[:i] + bytes([data[i] ^ 0x01]) + data[i + 1:])
    loaded = MediaStore.load(target)
    assert [r.fid for r in loaded.st_query("tracks")] == ["t0", "t1"]
    assert log.read_bytes() != whole  # load reads only
    loaded.put_feature("tracks", "t9", random_doc(random.Random(9), "MovingPoint"))
    loaded.commit()
    assert log.read_bytes().startswith(whole)
    again = MediaStore.load(target)
    assert [r.fid for r in again.st_query("tracks")] == ["t0", "t1", "t9"]
    assert fingerprint(again) == fingerprint(loaded)


def test_damaged_middle_record_is_corrupt(tmp_path):
    target = tmp_path / "s"
    committed_store(target)
    log = target / "wal.log"
    lines = log.read_bytes().splitlines(keepends=True)
    assert len(lines) == 4  # the snapshot record and three puts
    lines[2] = lines[2].replace(b'"t1"', b'"tX"')
    log.write_bytes(b"".join(lines))
    with pytest.raises(CorruptStoreError, match="record 3 is damaged"):
        MediaStore.load(target)


def replace_log_line(target, n, line):
    log = target / "wal.log"
    lines = log.read_bytes().splitlines(keepends=True)
    assert len(lines) == 4  # the snapshot record and three puts
    lines[n] = line
    log.write_bytes(b"".join(lines))


def test_last_line_that_is_not_json_is_a_torn_tail(tmp_path):
    target = tmp_path / "s"
    committed_store(target)
    replace_log_line(target, 3, b"not json\n")
    assert [r.fid for r in MediaStore.load(target).st_query("tracks")] == ["t0", "t1"]


def test_line_that_is_not_json_before_a_whole_record_is_corrupt(tmp_path):
    target = tmp_path / "s"
    committed_store(target)
    replace_log_line(target, 1, b"not json\n")
    with pytest.raises(CorruptStoreError, match="record 2 is damaged but record 3 is whole"):
        MediaStore.load(target)


def test_log_must_start_with_its_snapshot_record(tmp_path):
    target = tmp_path / "s"
    committed_store(target)
    log = target / "wal.log"
    log.write_bytes(b"".join(log.read_bytes().splitlines(keepends=True)[1:]))
    with pytest.raises(CorruptStoreError, match="snapshot record"):
        MediaStore.load(target)


def test_snapshot_record_must_name_an_int_generation(tmp_path):
    """A header of true names no generation, though true == 1 in Python."""
    target = tmp_path / "s"
    committed_store(target)  # generation 1
    log = target / "wal.log"
    header = {"snapshot": True}
    body = json.dumps(header, separators=(",", ":")).encode()
    line = json.dumps({"crc": zlib.crc32(body), **header}, separators=(",", ":")) + "\n"
    log.write_bytes(line.encode() + b"".join(log.read_bytes().splitlines(keepends=True)[1:]))
    with pytest.raises(CorruptStoreError, match="snapshot record"):
        MediaStore.load(target)


@pytest.mark.parametrize("rec", [
    {"op": "flush"},
    {"op": "put_feature", "cid": "tracks", "fid": "x", "document": {}},
], ids=["not-a-mutation", "unknown-argument"])
def test_whole_record_that_names_no_mutation_is_corrupt(tmp_path, rec):
    target = tmp_path / "s"
    committed_store(target)
    body = json.dumps(rec, separators=(",", ":")).encode()
    line = json.dumps({"crc": zlib.crc32(body), **rec}, separators=(",", ":")) + "\n"
    with open(target / "wal.log", "a") as log:
        log.write(line)
    with pytest.raises(CorruptStoreError, match="record 5"):
        MediaStore.load(target)


def test_crash_between_manifest_rename_and_log_reset(tmp_path, disk_faults):
    """The new snapshot already holds the log's ops; replaying them again would
    re-create a collection and re-delete a feature. The flush is committed
    once the manifest is renamed in, so a log it cannot remove does not fail it."""
    target = tmp_path / "s"
    store = committed_store(target)
    store.create_collection("late", "late", "stphoto", created=9)
    store.delete_feature("tracks", "t0")
    store.commit()
    with disk_faults("unlink", at=1) as unlinks:
        store.flush()  # its first unlink is the log's, after the manifest's rename
    assert unlinks[0][1][0].name == "wal.log"
    assert sorted(args[0].name for _, args in unlinks[1:]) == [
        "tracks.1.ann.ndjson.gz", "tracks.1.ndjson.gz"]  # the old generation's files
    assert (target / "wal.log").is_file()  # the old generation's log is still there
    loaded = MediaStore.load(target)
    assert fingerprint(loaded) == fingerprint(store)
    # the next commit replaces the stale log instead of appending to it
    loaded.put_feature("tracks", "t5", random_doc(random.Random(5), "MovingPoint"))
    loaded.commit()
    assert fingerprint(MediaStore.load(target)) == fingerprint(loaded)


def test_compacting_commit_cut_at_the_log_unlink_returns_the_new_state(
        tmp_path, monkeypatch, disk_faults):
    """A commit that compacts is durable once the new manifest is renamed in
    and its directory fsynced; failing to remove the old log, or an old data
    file, after that does not fail it, so a client that retries does not
    write twice. open() ignores the log left behind, and the next commit
    truncates it."""
    target = tmp_path / "s"
    store = committed_store(target)
    store.create_collection("gone", "gone", "stphoto", created=8)
    store.put_feature("gone", "p0", random_doc(random.Random(1), "stphoto"))
    store.flush()
    store.delete_collection("gone")
    store.put_feature("tracks", "late", random_doc(random.Random(3), "MovingPoint"))
    store.commit()
    monkeypatch.setattr("geomedia.store._COMPACT_MIN_BYTES", 0)  # the next commit compacts
    store.put_annotation("tracks", "late", Annotation("a1", "text", "late"))
    new = fingerprint(store)
    old = sorted(p.name for p in target.iterdir() if p.name != "manifest.json")
    with disk_faults("unlink", at=1, every=True) as unlinks:
        store.commit()
    assert old == ["gone.2.ann.ndjson.gz", "gone.2.ndjson.gz",
                   "tracks.2.ann.ndjson.gz", "tracks.2.ndjson.gz", "wal.log"]
    assert sorted(args[0].name for _, args in unlinks) == old
    assert all((target / name).is_file() for name in old)
    assert fingerprint(store) == new == fingerprint(MediaStore.open(target))
    monkeypatch.undo()
    store.put_feature("tracks", "later", random_doc(random.Random(4), "MovingPoint"))
    store.commit()  # appends to a fresh log in place of the stale one
    assert fingerprint(MediaStore.open(target)) == fingerprint(store)
    assert [r.fid for r in store.st_query("tracks")] == ["late", "later", "t0", "t1", "t2"]


def test_collection_named_wal_round_trips(tmp_path):
    target = tmp_path / "s"
    store = MediaStore(target)
    store.flush()
    store.create_collection("wal", "wal", "stphoto", created=3)
    store.put_feature("wal", "p1", random_doc(random.Random(1), "stphoto"))
    store.put_annotation("wal", "p1", Annotation("a1", "text", "log"))
    store.commit()
    assert {p.name for p in target.iterdir()} == {"manifest.json", "wal.log"}
    assert fingerprint(MediaStore.load(target)) == fingerprint(store)
    store.flush()
    assert {p.name for p in target.iterdir()} == {"manifest.json", "wal.2.ndjson.gz",
                                                   "wal.2.ann.ndjson.gz"}
    assert fingerprint(MediaStore.load(target)) == fingerprint(store)


def test_queued_op_without_commit_is_absent(tmp_path):
    target = tmp_path / "s"
    store = committed_store(target)
    store.put_feature("tracks", "queued", random_doc(random.Random(2), "MovingPoint"))
    store.delete_feature("tracks", "t1")
    loaded = MediaStore.load(target)
    assert [r.fid for r in loaded.st_query("tracks")] == ["t0", "t1", "t2"]


def test_failed_commit_leaves_memory_as_a_restart_finds_it(tmp_path, disk_faults):
    target = tmp_path / "s"
    store = committed_store(target)
    acknowledged = fingerprint(store)
    lock = store.lock
    store.put_feature("tracks", "late", random_doc(random.Random(3), "MovingPoint"))
    with disk_faults("fsync", at=1, every=True), pytest.raises(StoreIoError, match="commit failed"):
        store.commit()
    # The records written before the failed fsync are cut off again, and
    # memory is reloaded from what is left.
    assert fingerprint(MediaStore.load(target)) == acknowledged
    assert fingerprint(store) == acknowledged
    assert store.lock is lock
    files = {p.name: p.read_bytes() for p in target.iterdir()}
    store.commit()
    assert {p.name: p.read_bytes() for p in target.iterdir()} == files


def test_failed_commit_reopens_without_parsing(tmp_path, monkeypatch, disk_faults):
    """Recovery reads what a restart finds but parses no collection: the one
    the failed op did not touch stays unparsed until a method needs it."""
    target = tmp_path / "s"
    store = committed_store(target)
    store.create_collection("pics", "pics", "stphoto", created=8)
    store.put_feature("pics", "p0", random_doc(random.Random(4), "stphoto"))
    store.flush()
    store = MediaStore.open(target)
    store.put_feature("tracks", "late", random_doc(random.Random(3), "MovingPoint"))
    parsed = []
    parse = MediaStore._parse_collection

    def recorded_parse(self, state):
        parsed.append(state.meta.id)
        return parse(self, state)

    monkeypatch.setattr(MediaStore, "_parse_collection", recorded_parse)
    with disk_faults("fsync", at=1, every=True), pytest.raises(StoreIoError, match="commit failed"):
        store.commit()
    assert parsed == []
    assert fingerprint(store) == fingerprint(MediaStore.load(target))
    assert [r.fid for r in store.st_query("tracks")] == ["t0", "t1", "t2"]


def test_failed_compaction_in_commit_reloads_too(tmp_path, monkeypatch, disk_faults):
    target = tmp_path / "s"
    store = committed_store(target)
    acknowledged = fingerprint(store)
    monkeypatch.setattr("geomedia.store._COMPACT_MIN_BYTES", 0)  # this commit compacts
    store.put_feature("tracks", "late", random_doc(random.Random(3), "MovingPoint"))
    with disk_faults("fsync", at=1, every=True), pytest.raises(StoreIoError, match="flush failed"):
        store.commit()
    assert fingerprint(store) == acknowledged == fingerprint(MediaStore.load(target))


def test_failed_commit_that_cannot_reload_keeps_memory(tmp_path, disk_faults):
    store = MediaStore(tmp_path / "s")
    store.create_collection("tracks", "tracks", "MovingPoint", created=7)
    with disk_faults("fsync", at=1, every=True), pytest.raises(StoreIoError, match="flush failed"):
        store.commit()  # the first commit compacts, and no manifest is left to load
    assert [c.id for c in store.list_collections()] == ["tracks"]


@pytest.mark.parametrize("n_puts, disk_calls", [
    (0, ["append", "fsync", "fsync_dir"]),
    (3, ["append", "fsync"]),
], ids=["commit-that-starts-the-log", "later-commit"])
def test_commit_cut_at_each_disk_call_opens_to_the_old_or_the_new_state(
        tmp_path, disk_faults, n_puts, disk_calls):
    """Fail one log-appending commit at its first disk call, then at its
    second, and so on until it completes. After each cut the directory opens
    to the state before the commit or after it, and so does the store that
    failed; an acknowledged write is never lost."""
    target = tmp_path / "s"
    store = committed_store(target, n_puts)
    old = fingerprint(store)
    doc = random_doc(random.Random("sweep"), "MovingPoint")
    for k in range(1, len(disk_calls) + 2):
        store.put_feature("tracks", "late", doc)
        store.put_annotation("tracks", "late", Annotation("a1", "text", "late"))
        new = fingerprint(store)
        with disk_faults("stage", "append", "fsync", "fsync_dir", "rename", "unlink",
                         at=k) as calls:
            try:
                store.commit()
                cut = False
            except StoreIoError:
                cut = True
        opened = fingerprint(MediaStore.open(target))
        assert opened in (old, new)
        assert fingerprint(store) == opened
        if not cut:
            break
    assert opened == new
    assert k == len(disk_calls) + 1  # every call was cut once
    assert [name for name, _ in calls] == disk_calls


def test_flush_that_fails_at_its_directory_fsync_loses_no_later_write(tmp_path, disk_faults):
    """Once the manifest is renamed in, memory names the new snapshot even if
    the directory's fsync then fails, so the next commit starts a log over
    that snapshot instead of appending to the old one's, which open ignores."""
    target = tmp_path / "s"
    store = MediaStore(target)
    store.create_collection("tracks", "tracks", "MovingPoint", created=7)
    rng = random.Random("fsync_dir")
    store.put_feature("tracks", "a", random_doc(rng, "MovingPoint"))
    store.flush()
    store.put_feature("tracks", "b", random_doc(rng, "MovingPoint"))
    store.commit()
    store.put_feature("tracks", "c1", random_doc(rng, "MovingPoint"))
    with disk_faults("fsync_dir", at=1), pytest.raises(StoreIoError, match="flush failed"):
        store.flush()
    store.put_feature("tracks", "d", random_doc(rng, "MovingPoint"))
    store.commit()
    loaded = MediaStore.load(target)
    assert [r.fid for r in loaded.st_query("tracks")] == ["a", "b", "c1", "d"]
    assert fingerprint(loaded) == fingerprint(store)


@pytest.mark.parametrize("operation", ["flush", "commit"])
def test_compaction_cut_at_each_disk_call_loads_the_old_or_the_new_state(
        tmp_path, monkeypatch, disk_faults, operation):
    """Cut one flush, or one commit that compacts, over three collections at
    its first disk call, then at its second, and so on until it runs through
    uncut. After each cut the directory loads to the state before it or
    after it, never CorruptStoreError: a data file's rename goes to a name
    no manifest holds, and the manifest's rename is the one commit. A failed
    commit reopens to what the directory holds; a failed flush keeps memory."""
    monkeypatch.setattr("geomedia.store._COMPACT_MIN_BYTES", 0)  # every commit compacts
    rng = random.Random("crash points")
    docs = {kind: [random_doc(rng, kind) for _ in range(2)] for kind in KINDS}
    k = 0
    while True:
        k += 1
        target = tmp_path / f"cut{k}"
        store = MediaStore(target)
        for n, kind in enumerate(KINDS):
            store.create_collection(f"c{n}", kind, kind, created=n)
            store.put_feature(f"c{n}", "f0", docs[kind][0])
        store.commit()  # the first commit writes the snapshot
        old = fingerprint(store)
        for n, kind in enumerate(KINDS):
            store.put_feature(f"c{n}", "f1", docs[kind][1])
            store.put_annotation(f"c{n}", "f0", Annotation("a1", "text", "late"))
        store.delete_feature("c0", "f0")
        new = fingerprint(store)
        with disk_faults("stage", "append", "fsync", "fsync_dir", "rename", "unlink",
                         at=k) as calls:
            with contextlib.suppress(StoreIoError):
                getattr(store, operation)()
        loaded = fingerprint(MediaStore.load(target))
        assert loaded in (old, new), f"cut at disk call {k}"
        assert fingerprint(store) == (new if operation == "flush" else loaded)
        if len(calls) < k:  # ran through uncut
            break
    assert loaded == new
    assert [name for name, _ in calls].count("rename") == 7  # 3 collections x 2 files + manifest
