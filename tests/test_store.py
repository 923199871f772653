"""Media store: collections, features, annotations, index equivalence, durability."""

from __future__ import annotations

import gc
import hashlib
import json
import random
import sys
import threading
import time
import tracemalloc
import zlib
from pathlib import Path

import pytest

import geomedia
from geomedia import (
    Annotation,
    FieldOfView,
    GeoMediaApi,
    GeoPoint,
    InterpolationMode,
    MediaStore,
    MovingDouble,
    MovingPoint,
    MovingVideo,
    STPhoto,
    TimeInterval,
    document_of,
    parse_document,
    serialize_document,
)
from geomedia.errors import (
    BadQueryError,
    CorruptStoreError,
    DuplicateIdError,
    NotFoundError,
    ParseError,
    StoreIoError,
    WrongKindError,
)

from geomedia.codec import interval_str
from geomedia.rtree import RTree

from conftest import T0, edit_snapshot, fingerprint, fixture_bytes, reseal_snapshot, snapshot_text


def track_doc(rng, n=None):
    n = n or rng.randint(1, 6)
    base_lon = rng.uniform(-160, 160)
    base_lat = rng.uniform(-70, 70)
    t = rng.randint(0, 10_000_000)
    times = []
    for _ in range(n):
        t += rng.randint(1, 10_000)
        times.append(t)
    times = tuple(times)
    points = tuple(
        GeoPoint(base_lon + rng.uniform(-2, 2), base_lat + rng.uniform(-2, 2))
        for _ in range(n)
    )
    return document_of(MovingPoint(times, points, InterpolationMode.LINEAR))


class TestCollections:
    def test_create_list_delete(self, store):
        store.create_collection("taxi", "Taxi GPS", "MovingPoint")
        assert [c.id for c in store.list_collections()] == ["taxi"]
        store.delete_collection("taxi")
        assert store.list_collections() == []

    def test_duplicate_id(self, store):
        store.create_collection("taxi", "Taxi GPS", "MovingPoint")
        with pytest.raises(DuplicateIdError):
            store.create_collection("taxi", "Another", "MovingPoint")

    def test_delete_missing(self, store):
        with pytest.raises(NotFoundError):
            store.delete_collection("ghost")

    def test_bad_id_rejected(self, store):
        with pytest.raises(ValueError):
            store.create_collection("has spaces", "t", "MovingPoint")
        with pytest.raises(ValueError):
            store.create_collection("x" * 65, "t", "MovingPoint")

    def test_bad_media_type_rejected(self, store):
        with pytest.raises(ValueError):
            store.create_collection("c", "t", "Blob")

    @pytest.mark.parametrize("title, created, message", [
        (5, 0, "collection title 5 must be a string"),
        ("t", "yesterday", "collection time 'yesterday' is not an integer in years 1-9999"),
        ("t", True, "collection time True is not an integer in years 1-9999"),
        ("t", 10**20, "is not an integer in years 1-9999"),
        ("t", 1.5, "is not an integer in years 1-9999"),
    ], ids=["title", "created-str", "created-bool", "created-too-late", "created-float"])
    def test_bad_title_or_created_rejected(self, store, title, created, message):
        with pytest.raises(ValueError, match=message):
            store.create_collection("c", title, "MovingPoint", created=created)
        assert store.list_collections() == []


class TestFeatures:
    def test_put_get_roundtrip(self, store, moving_point_doc):
        store.create_collection("taxi", "Taxi GPS", "MovingPoint")
        store.put_feature("taxi", "t1", moving_point_doc)
        record = store.get_feature("taxi", "t1")
        assert record.doc == moving_point_doc
        assert record.bbox == (150.0, 50.0, 170.0, 60.0)
        assert record.extent == moving_point_doc.payload.time_extent()

    def test_kind_mismatch(self, store, stphoto_doc):
        store.create_collection("taxi", "Taxi GPS", "MovingPoint")
        with pytest.raises(WrongKindError, match="does not match collection media type"):
            store.put_feature("taxi", "p1", stphoto_doc)

    def test_put_replaces(self, store):
        rng = random.Random("replace")
        store.create_collection("c", "t", "MovingPoint")
        store.put_feature("c", "f", track_doc(rng))
        replacement = track_doc(rng)
        store.put_feature("c", "f", replacement)
        assert store.feature_count("c") == 1
        assert store.get_feature("c", "f").doc == replacement

    def test_delete_then_get(self, store, moving_point_doc):
        store.create_collection("taxi", "t", "MovingPoint")
        store.put_feature("taxi", "t1", moving_point_doc)
        store.delete_feature("taxi", "t1")
        with pytest.raises(NotFoundError):
            store.get_feature("taxi", "t1")

    def test_missing_collection(self, store, moving_point_doc):
        with pytest.raises(NotFoundError):
            store.put_feature("nope", "f", moving_point_doc)

    def test_photo_bbox_covers_sector(self, store, stphoto_doc):
        store.create_collection("pics", "t", "stphoto")
        record = store.put_feature("pics", "p1", stphoto_doc)
        loc = stphoto_doc.payload.loc
        # direction 90, distance 30: bbox extends east of the camera
        assert record.bbox[0] == loc.lon
        assert record.bbox[2] > loc.lon
        assert record.bbox[1] < loc.lat < record.bbox[3]


class TestMemory:
    # Bytes that geomedia's own lines hold per stored sample of a 12-sample
    # track, parse plus put (see _held_bytes): 29.4 on Python 3.11 to 3.13
    # and 31.4 on 3.10 with one set of columns per collection, against 56.8
    # (65.0 on 3.10) with time and coordinate columns per track and 172.8
    # (181.6) with one GeoPoint per sample. Each bound is its figure plus ~15 %.
    BYTES_PER_SAMPLE = 36 if sys.version_info < (3, 11) else 34

    def test_stored_tracks_hold_no_object_per_sample(self):
        texts = [
            json.dumps({
                "type": "MovingPoint",
                "coordinates": [[126 + i * 1e-4 + k * 1e-5, 37.5 + k * 1e-5] for k in range(12)],
                "timeline": [T0 + i * 60_000 + k * 1000 for k in range(12)],
            }).encode()
            for i in range(1000)
        ]
        store = MediaStore()
        store.create_collection("taxi", "", "MovingPoint")

        def put_all():
            for i, text in enumerate(texts):
                store.put_feature("taxi", f"f{i}", parse_document(text))

        assert _held_bytes(put_all) / 12_000 < self.BYTES_PER_SAMPLE

    # Bytes that geomedia's own lines hold per stored sample of a 12-sample
    # video with one FoV per sample, parse plus put: 63.1 (65.2 on 3.10) with
    # one set of columns per collection, against 100.2 (108.4) with an
    # array('d') FoV column per video and 272.2 (280.4) with one FieldOfView
    # per sample. Each bound is its figure plus ~15 %.
    VIDEO_BYTES_PER_SAMPLE = 75 if sys.version_info < (3, 11) else 73

    def test_stored_videos_hold_no_object_per_fov(self):
        texts = [
            json.dumps({
                "type": "MovingVideo",
                "uri": f"https://media.example/video/{i}.mp4",
                "coordinates": [[126 + i * 1e-4 + k * 1e-5, 37.5 + k * 1e-5] for k in range(12)],
                "timeline": [T0 + i * 60_000 + k * 1000 for k in range(12)],
                "fov": [{"horizontalAngle": 60, "verticalAngle": 45,
                         "direction2d": (i + 7 * k) % 360, "viewDistance": 80}
                        for k in range(12)],
            }).encode()
            for i in range(1000)
        ]
        store = MediaStore()
        store.create_collection("videos", "", "MovingVideo")

        def put_all():
            for i, text in enumerate(texts):
                store.put_feature("videos", f"f{i}", parse_document(text))

        assert _held_bytes(put_all) / 12_000 < self.VIDEO_BYTES_PER_SAMPLE

    # Bytes that geomedia's own lines hold per loaded feature (parse plus
    # index) of 1,000 photos and 1,000 12-sample tracks: 289 on Python 3.11
    # to 3.13 (313 on 3.10, whose objects are larger) with one set of columns
    # per collection and a fid -> row map, against 584 (692) with a document
    # per feature, and 915 (996) with a FeatureRecord, a bbox tuple and an
    # extent per feature beside a (rect, fid) tuple per leaf entry. Measured
    # after gc.collect(), so tuples parked in the interpreter's free list
    # after the parse freed them do not count. Each bound is its figure plus
    # ~15 %.
    LOADED_BYTES_PER_FEATURE = 360 if sys.version_info < (3, 11) else 335

    def test_loaded_store_holds_only_documents_and_leaf_columns(self, tmp_path):
        store = MediaStore(tmp_path / "s")
        store.create_collection("pics", "", "stphoto", created=0)
        store.create_collection("taxi", "", "MovingPoint", created=0)
        for i in range(1000):
            store.put_feature("pics", f"p{i:04d}", parse_document(json.dumps({
                "type": "stphoto", "uri": f"https://media.example/photo/{i}.jpg",
                "coordinates": [126 + i * 1e-4, 37.5 + (i % 7) * 1e-3],
                "timeline": [T0 + i * 1000],
                "fov": {"horizontalAngle": 60, "verticalAngle": 45,
                        "direction2d": (i * 37) % 360, "distance": 80},
            }).encode()))
            store.put_feature("taxi", f"f{i:04d}", parse_document(json.dumps({
                "type": "MovingPoint",
                "coordinates": [[126 + i * 1e-4 + k * 1e-5, 37.5 + k * 1e-5] for k in range(12)],
                "timeline": [T0 + i * 60_000 + k * 1000 for k in range(12)],
            }).encode()))
        store.flush()
        del store
        gc.collect()
        tracemalloc.start()
        try:
            loaded = MediaStore.load(tmp_path / "s")
            gc.collect()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        package = str(Path(geomedia.__file__).parent / "*")
        snapshot = snapshot.filter_traces([tracemalloc.Filter(True, package)])
        held = sum(stat.size for stat in snapshot.statistics("filename"))
        assert loaded.feature_count("pics") == loaded.feature_count("taxi") == 1000
        assert held / 2000 < self.LOADED_BYTES_PER_FEATURE


class TestRows:
    """A put or replacement appends a row to the collection's columns, a
    delete leaves a dead one, and the live rows move to fresh columns once
    the dead ones outnumber them."""

    def test_replacing_and_re_adding_one_feature_holds_bounded_bytes(self):
        store = MediaStore()
        store.create_collection("taxi", "", "MovingPoint")
        docs = [document_of(MovingPoint(tuple(T0 + i + k * 1000 for k in range(12)),
                                        tuple(GeoPoint(126 + i * 1e-4, 37.5 + k * 1e-5)
                                              for k in range(12))))
                for i in range(10)]
        store.put_feature("taxi", "f", docs[0])

        def churn():
            for i in range(10_000):
                store.put_feature("taxi", "f", docs[i % 10])
            for i in range(1_000):
                store.delete_feature("taxi", "f")
                store.put_feature("taxi", "f", docs[i % 10])

        # 11,000 rows of 12 samples each would hold ~2.9 MB
        assert _held_bytes(churn) < 8_000
        assert store.get_feature("taxi", "f").doc == docs[9]

    def test_record_taken_before_a_compaction_keeps_its_document(self, moving_point_doc):
        store = MediaStore()
        store.create_collection("taxi", "", "MovingPoint")
        for i in range(4):
            store.put_feature("taxi", f"f{i}", moving_point_doc)
        other = document_of(MovingPoint((T0,), (GeoPoint(1.0, 2.0),)))
        records = store.st_query("taxi") + [store.get_feature("taxi", "f3")]
        columns = store._collections["taxi"].columns
        for fid in ("f0", "f1", "f2", "f3", "f0"):
            store.put_feature("taxi", fid, other)
        assert store._collections["taxi"].columns is not columns  # compacted
        assert [r.doc for r in records] == [moving_point_doc] * 5
        assert [r.doc for r in store.st_query("taxi")] == [other] * 4

    def test_concurrent_writes_leave_records_read_after_the_lock_whole(self):
        """Readers build documents outside the store lock while writers
        append, drop and compact rows: every document read is one written."""
        store = MediaStore()
        store.create_collection("taxi", "", "MovingPoint")
        docs = [document_of(MovingPoint(tuple(T0 + i + k * 1000 for k in range(3 + i)),
                                        tuple(GeoPoint(126 + i * 1e-3, 37.5 + k * 1e-4)
                                              for k in range(3 + i))))
                for i in range(8)]
        for k in range(20):
            store.put_feature("taxi", f"f{k}", docs[k % 8])
        stop, bad, compactions = threading.Event(), [], set()

        def writer(seed):
            rng = random.Random(seed)
            while not stop.is_set():
                fid = f"f{rng.randrange(20)}"
                with store.lock:  # the other writer may delete fid in between
                    if rng.random() < 0.2 and store.has_feature("taxi", fid):
                        store.delete_feature("taxi", fid)
                    else:
                        store.put_feature("taxi", fid, rng.choice(docs))

        def reader():
            while not stop.is_set():
                records = store.st_query("taxi")
                compactions.add(id(store._collections["taxi"].columns))
                try:
                    bad.extend(r.fid for r in records if r.doc not in docs)
                except Exception as exc:  # a row changed under a record
                    bad.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer, args=(n,)) for n in range(2)]
            threads += [threading.Thread(target=reader) for _ in range(3)]
            for t in threads:
                t.start()
            time.sleep(0.5)
            stop.set()
            for t in threads:
                t.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not bad
        assert len(compactions) > 1

    def test_load_then_flush_rewrites_every_snapshot_file_byte_identical(self, tmp_path):
        points = tuple(GeoPoint(126 + k * 1e-3, 37.5, None if k == 1 else 10.0 + k)
                       for k in range(3))
        track = MovingPoint((T0, T0 + 1000, T0 + 2000), tuple(GeoPoint(p.lon, p.lat, 5.0)
                                                               for p in points),
                            InterpolationMode.STEPWISE)
        per_sample = tuple(FieldOfView(60, 45, d, 80) for d in (10, 20, 30))
        store = MediaStore(tmp_path / "s")
        features = {
            "taxi": {"a": document_of(track),
                     "b": parse_document(json.dumps({
                         "type": "MovingPoint", "coordinates": [[1, 2], [3, 4]],
                         "timeline": [T0, T0 + 1], "interpolation": "discrete",
                         "vendor": {"x": [1, 2]}}).encode())},
            "sensors": {"a": document_of(MovingDouble((T0, T0 + 1000, T0 + 2000), (1, 2.5, 3),
                                                      track=points)),
                        "b": document_of(MovingDouble((T0,), (7,)))},
            "pics": {"a": document_of(STPhoto("u:a", GeoPoint(126, 37.5, 3.0), T0,
                                              FieldOfView(60, 45, 90, 30))),
                     "b": document_of(STPhoto("u:b", GeoPoint(126, 37.5), T0))},
            "cams": {"a": document_of(MovingVideo("u:a", track, per_sample)),
                     "b": document_of(MovingVideo("u:b", MovingPoint(
                         (T0, T0 + 1000), (GeoPoint(0, 0), GeoPoint(0, 1e-3))),
                         (FieldOfView(direction2d=-90),)))},
        }
        for cid, docs in features.items():
            store.create_collection(cid, cid, next(iter(docs.values())).kind, created=0)
            for fid, doc in docs.items():
                store.put_feature(cid, fid, doc)
        store.put_annotation("cams", "a", Annotation("n", "text", "hello",
                                                     TimeInterval(T0, T0 + 1000)))
        store.flush()
        before = {p.name: p.read_bytes() for p in (tmp_path / "s").iterdir()}
        loaded = MediaStore.load(tmp_path / "s")
        for cid, docs in features.items():
            assert {r.fid: r.doc for r in loaded.st_query(cid)} == docs
        loaded.flush()
        assert {p.name: p.read_bytes() for p in (tmp_path / "s").iterdir()} == before


def _twelve_sample_tracks(directory, count):
    store = MediaStore(directory)
    store.create_collection("taxi", "", "MovingPoint", created=0)
    for i in range(count):
        times = tuple(T0 + i * 60_000 + k * 1000 for k in range(12))
        points = tuple(GeoPoint(126 + i * 1e-4 + k * 1e-5, 37.5 + k * 1e-5) for k in range(12))
        store.put_feature("taxi", f"f{i:04d}", document_of(MovingPoint(times, points)))
    return store


def _held_bytes(call) -> int:
    """Bytes that geomedia's own lines allocate in call() and still hold.

    Measured after gc.collect(), which also empties the interpreter's free
    lists, so objects that call() freed into them do not count; a
    tracemalloc snapshot filtered to the package leaves out the caller's own
    allocations.
    """
    gc.collect()
    tracemalloc.start()
    try:
        call()
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    package = str(Path(geomedia.__file__).parent / "*")
    snapshot = snapshot.filter_traces([tracemalloc.Filter(True, package)])
    return sum(stat.size for stat in snapshot.statistics("filename"))


def _transient_bytes(call):
    """Bytes that call() allocates at its peak beyond what it leaves held, and its result."""
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - held, result


class TestStreaming:
    """flush() and load() stream each snapshot file: neither holds a whole copy of one."""

    # A whole file in memory is 1x its uncompressed size (0.13x compressed);
    # what streaming holds at once is one line, a read chunk and one zlib
    # stream's state: 0.17x (flush) and 0.16x (load) here. Deflate's ~0.3 MB
    # of state does not grow with the file, so the file is 2.3 MB of NDJSON:
    # large enough for that state to fit under the bound, small enough that a
    # whole compressed copy on top of it does not (0.29x).
    PEAK_SHARE = 0.25
    TRACKS = 4000

    def test_load_peak(self, tmp_path):
        _twelve_sample_tracks(tmp_path / "s", self.TRACKS).flush()
        size = len(snapshot_text(tmp_path / "s" / "taxi.ndjson.gz"))
        assert size > 2_000_000
        transient, loaded = _transient_bytes(lambda: MediaStore.load(tmp_path / "s"))
        assert loaded.feature_count("taxi") == self.TRACKS
        assert transient < self.PEAK_SHARE * size

    def test_flush_peak(self, tmp_path):
        store = _twelve_sample_tracks(tmp_path / "s", self.TRACKS)
        transient, _ = _transient_bytes(store.flush)
        size = len(snapshot_text(tmp_path / "s" / "taxi.ndjson.gz"))
        assert size > 2_000_000
        assert transient < self.PEAK_SHARE * size


class TestStQuery:
    def test_reference_listing_hit(self, store, moving_point_doc):
        store.create_collection("taxi", "t", "MovingPoint")
        store.put_feature("taxi", "t1", moving_point_doc)
        assert [r.fid for r in store.st_query("taxi", bbox=(140, 40, 180, 70))] == ["t1"]
        assert store.st_query("taxi", bbox=(0, 0, 1, 1)) == []

    def test_inverted_inputs_rejected(self, store, moving_point_doc):
        store.create_collection("taxi", "t", "MovingPoint")
        with pytest.raises(BadQueryError):
            store.st_query("taxi", bbox=(1, 2, 0, 3))
        with pytest.raises(BadQueryError):
            store.st_query("taxi", interval=(10, 5))

    def test_matches_linear_scan(self, store):
        rng = random.Random("stq")
        store.create_collection("c", "t", "MovingPoint")
        docs = {}
        for i in range(100):
            fid = f"f{i:03d}"
            docs[fid] = track_doc(rng)
            store.put_feature("c", fid, docs[fid])
        for _ in range(50):
            bbox = None
            if rng.random() < 0.8:
                lon0 = rng.uniform(-180, 170)
                lat0 = rng.uniform(-90, 80)
                bbox = (lon0, lat0, lon0 + rng.uniform(0, 40), lat0 + rng.uniform(0, 40))
            interval = None
            if rng.random() < 0.8:
                start = rng.randint(0, 10_000_000)
                interval = TimeInterval(start, start + rng.randint(0, 100_000))
            got = [r.fid for r in store.st_query("c", bbox=bbox, interval=interval)]
            want = []
            for fid in sorted(docs):
                record = store.get_feature("c", fid)
                if bbox is not None:
                    b = record.bbox
                    if not (b[0] <= bbox[2] and bbox[0] <= b[2] and b[1] <= bbox[3] and bbox[1] <= b[3]):
                        continue
                if interval is not None and not record.extent.overlaps(interval):
                    continue
                want.append(fid)
            assert got == want

    def test_photo_that_sees_a_quarter_of_the_earth_meets_every_box(self, store):
        """A view distance of a quarter of the earth or more gives the
        whole-globe bbox, so a box on the far side of the earth finds it."""
        store.create_collection("pics", "p", "stphoto")
        far = FieldOfView(direction2d=0, view_distance=10_100_000)  # > pi/2 * 6371008.8 m
        near = FieldOfView(direction2d=0, view_distance=100)
        store.put_feature("pics", "far", document_of(STPhoto("u:f", GeoPoint(10, 45), 0, far)))
        store.put_feature("pics", "near", document_of(STPhoto("u:n", GeoPoint(10, 45), 0, near)))
        assert store.get_feature("pics", "far").bbox == (-180.0, -90.0, 180.0, 90.0)
        assert [r.fid for r in store.st_query("pics", bbox=(-170, -46, -169, -45))] == ["far"]


def _photo(rng):
    fov = FieldOfView(h_angle=rng.choice((30.0, 90.0, 360.0)), direction2d=rng.uniform(0, 359),
                      view_distance=rng.uniform(10, 5000))
    loc = GeoPoint(rng.uniform(-170, 170), rng.uniform(-80, 80))
    return document_of(STPhoto("u:p", loc, rng.randint(0, 10_000_000), fov))


def _scanned_bbox(store, cid):
    """collection_bbox as a scan of every record's bbox would give it."""
    boxes = [r.bbox for r in store.st_query(cid) if r.bbox is not None]
    if not boxes:
        return None
    return (min(b[0] for b in boxes), min(b[1] for b in boxes),
            max(b[2] for b in boxes), max(b[3] for b in boxes))


class TestCollectionBounds:
    @pytest.mark.parametrize("kind, make", [("MovingPoint", track_doc), ("stphoto", _photo)])
    def test_bbox_equals_a_scan_through_puts_replacements_and_deletes(self, store, kind, make):
        rng = random.Random(f"bounds {kind}")
        store.create_collection("c", "c", kind)
        api = GeoMediaApi(store)
        fids = []
        for step in range(300):
            action = rng.random()
            if action < 0.5 or not fids:
                fid = f"f{step:03d}"
                fids.append(fid)
                store.put_feature("c", fid, make(rng))
            elif action < 0.75:
                store.put_feature("c", rng.choice(fids), make(rng))  # a replacement
            else:
                fid = fids.pop(rng.randrange(len(fids)))
                store.delete_feature("c", fid)
            if step % 25 == 0 or not fids:
                want = _scanned_bbox(store, "c")
                assert store.collection_bbox("c") == want
                status, body = api.handle("GET", "/collections/c")
                assert status == 200 and body["bbox"] == (list(want) if want else None)
        for fid in fids:
            store.delete_feature("c", fid)
        assert store.collection_bbox("c") is None
        assert store.collection_extent("c") is None
        assert api.handle("GET", "/collections/c")[1]["bbox"] is None

    @pytest.mark.parametrize("kind, make", [("MovingPoint", track_doc), ("stphoto", _photo)])
    def test_extent_equals_a_scan_through_puts_replacements_and_deletes(self, store, kind, make):
        """The cached extent, read after every step, is what a scan of every
        record's extent gives: a fresh put widens it, a replacement or a
        delete (which may shrink it) makes the next read scan again."""
        rng = random.Random(f"extent {kind}")
        store.create_collection("c", "c", kind)
        api = GeoMediaApi(store)
        fids = []
        for step in range(300):
            action = rng.random()
            if action < 0.5 or not fids:
                fid = f"f{step:03d}"
                fids.append(fid)
                store.put_feature("c", fid, make(rng))
            elif action < 0.75:
                store.put_feature("c", rng.choice(fids), make(rng))  # a replacement
            else:
                store.delete_feature("c", fids.pop(rng.randrange(len(fids))))
            records = store.st_query("c")
            want = None
            if records:
                want = TimeInterval(min(r.extent.start for r in records),
                                    max(r.extent.end for r in records))
            assert store.collection_extent("c") == want
            if step % 25 == 0:
                body = api.handle("GET", "/collections/c")[1]
                assert body["extent"] == (interval_str(want) if want else None)

    def test_reloaded_collection_body_is_unchanged(self, tmp_path):
        rng = random.Random("bounds reload")
        store = MediaStore(tmp_path / "s")
        store.create_collection("pics", "p", "stphoto", created=0)
        store.create_collection("taxi", "t", "MovingPoint", created=0)
        for i in range(50):
            store.put_feature("pics", f"p{i}", _photo(rng))
            store.put_feature("taxi", f"t{i}", track_doc(rng))
        store.flush()
        before = GeoMediaApi(store).handle("GET", "/collections")
        after = GeoMediaApi(MediaStore.load(tmp_path / "s")).handle("GET", "/collections")
        assert after == before
        assert json.dumps(after[1]) == json.dumps(before[1])
        for body in before[1]["collections"]:
            assert body["bbox"] == list(_scanned_bbox(store, body["id"]))

    def test_track_less_sensors_have_no_bbox(self, store):
        store.create_collection("sensors", "s", "MovingDouble")
        series = MovingDouble((T0, T0 + 1000), (1.0, 2.0))
        store.put_feature("sensors", "s1", document_of(series))
        assert store.collection_bbox("sensors") is None
        assert store.collection_extent("sensors") == TimeInterval(T0, T0 + 1000)
        assert store.st_query("sensors", bbox=(-180, -90, 180, 90)) == []


class TestAnnotations:
    def test_text_annotation(self, store, stphoto_doc):
        store.create_collection("pics", "t", "stphoto")
        store.put_feature("pics", "p1", stphoto_doc)
        store.put_annotation("pics", "p1", Annotation("a1", "text", "stop sign"))
        anns = store.list_annotations("pics", "p1")
        assert len(anns) == 1
        assert anns[0].body == "stop sign"

    def test_polygon_needs_three_vertices(self):
        with pytest.raises(ParseError, match="polygon body needs >= 3"):
            Annotation("a1", "polygon", [(0, 0), (1, 1)])
        ann = Annotation("a1", "polygon", [(0, 0), (1, 1), (0, 1)])
        assert len(ann.body) == 3

    def test_bad_kind(self):
        with pytest.raises(ParseError, match="annotation kind 'sticker' unknown"):
            Annotation("a1", "sticker", "x")

    def test_time_range_only_on_videos(self, store, stphoto_doc, moving_video_doc):
        store.create_collection("pics", "t", "stphoto")
        store.put_feature("pics", "p1", stphoto_doc)
        with pytest.raises(ParseError, match="time ranges apply to video annotations only"):
            store.put_annotation(
                "pics", "p1", Annotation("a1", "text", "x", TimeInterval(T0, T0))
            )
        store.create_collection("vids", "t", "MovingVideo")
        store.put_feature("vids", "v1", moving_video_doc)
        ann = Annotation("a1", "text", "car", TimeInterval(T0, T0 + 1000))
        store.put_annotation("vids", "v1", ann)
        assert store.get_annotation("vids", "v1", "a1") == ann

    def test_time_range_must_fit_extent(self, store, moving_video_doc):
        store.create_collection("vids", "t", "MovingVideo")
        store.put_feature("vids", "v1", moving_video_doc)
        with pytest.raises(ParseError, match="outside feature extent"):
            store.put_annotation(
                "vids", "v1", Annotation("a1", "text", "x", TimeInterval(0, 10))
            )

    def test_delete_annotation(self, store, stphoto_doc):
        store.create_collection("pics", "t", "stphoto")
        store.put_feature("pics", "p1", stphoto_doc)
        store.put_annotation("pics", "p1", Annotation("a1", "icon", "star"))
        store.delete_annotation("pics", "p1", "a1")
        assert store.list_annotations("pics", "p1") == []
        with pytest.raises(NotFoundError):
            store.delete_annotation("pics", "p1", "a1")

    def test_feature_delete_drops_annotations(self, store, stphoto_doc):
        store.create_collection("pics", "t", "stphoto")
        store.put_feature("pics", "p1", stphoto_doc)
        store.put_annotation("pics", "p1", Annotation("a1", "text", "x"))
        store.delete_feature("pics", "p1")
        store.put_feature("pics", "p1", stphoto_doc)
        assert store.list_annotations("pics", "p1") == []


class TestIndexUpkeep:
    """The R-tree is bulk-loaded once per collection and then kept up to date."""

    @staticmethod
    def _count_calls(monkeypatch):
        calls = {"bulk_load": 0, "insert": 0}
        real_bulk, real_insert = RTree.bulk_load.__func__, RTree.insert

        def bulk_load(cls, entries):
            calls["bulk_load"] += 1
            return real_bulk(cls, entries)

        def insert(self, item, rect):
            calls["insert"] += 1
            return real_insert(self, item, rect)

        monkeypatch.setattr(RTree, "bulk_load", classmethod(bulk_load))
        monkeypatch.setattr(RTree, "insert", insert)
        return calls

    @staticmethod
    def _scan(store, cid, bbox):
        return [r.fid for r in store.st_query(cid)
                if r.bbox[0] <= bbox[2] and bbox[0] <= r.bbox[2]
                and r.bbox[1] <= bbox[3] and bbox[1] <= r.bbox[3]]

    def test_fresh_collection_indexed_at_first_search(self, store, monkeypatch):
        calls = self._count_calls(monkeypatch)
        rng = random.Random("fresh-index")
        store.create_collection("c", "t", "MovingPoint")
        for i in range(60):
            store.put_feature("c", f"f{i:02d}", track_doc(rng))
        store.put_feature("c", "f07", track_doc(rng))
        store.delete_feature("c", "f11")
        assert calls == {"bulk_load": 0, "insert": 0}  # no index upkeep during the fill
        whole = (-180, -90, 180, 90)
        assert [r.fid for r in store.st_query("c", bbox=whole)] == self._scan(store, "c", whole)
        assert calls == {"bulk_load": 1, "insert": 0}
        for i in range(60, 90):
            store.put_feature("c", f"f{i:02d}", track_doc(rng))
        for fid in ("f00", "f30", "f61"):
            store.delete_feature("c", fid)
        store.put_feature("c", "f05", track_doc(rng))
        assert calls == {"bulk_load": 1, "insert": 31}  # one entry at a time from now on
        for _ in range(30):
            lon0, lat0 = rng.uniform(-180, 140), rng.uniform(-90, 50)
            bbox = (lon0, lat0, lon0 + 40, lat0 + 40)
            assert [r.fid for r in store.st_query("c", bbox=bbox)] == self._scan(store, "c", bbox)
        assert calls["bulk_load"] == 1

    def test_load_indexes_every_collection_eagerly(self, tmp_path, monkeypatch):
        rng = random.Random("eager-index")
        store = MediaStore(tmp_path / "s")
        for cid in ("a", "b"):
            store.create_collection(cid, "t", "MovingPoint")
            for i in range(40):
                store.put_feature(cid, f"f{i:02d}", track_doc(rng))
        store.flush()
        calls = self._count_calls(monkeypatch)
        loaded = MediaStore.load(tmp_path / "s")
        assert calls == {"bulk_load": 2, "insert": 0}
        bbox = (-100, -60, 60, 60)
        for cid in ("a", "b"):
            assert [r.fid for r in loaded.st_query(cid, bbox=bbox)] == self._scan(store, cid, bbox)
        assert calls == {"bulk_load": 2, "insert": 0}


class TestDurability:
    def _populate(self, store):
        rng = random.Random("durable")
        store.create_collection("tracks", "GPS tracks", "MovingPoint", created=1000)
        for i in range(20):
            store.put_feature("tracks", f"f{i:02d}", track_doc(rng))
        store.create_collection("pics", "Photos", "stphoto", created=2000)
        photo = parse_document(fixture_bytes("stphoto.json"))
        store.put_feature("pics", "p1", photo)
        store.put_annotation("pics", "p1", Annotation("a1", "text", "stop sign"))
        store.put_annotation(
            "pics", "p1", Annotation("a2", "polygon", [(0, 0), (4, 0), (4, 3)])
        )

    def test_flush_load_round_trip(self, tmp_path):
        store = MediaStore(tmp_path / "s")
        self._populate(store)
        store.flush()
        loaded = MediaStore.load(tmp_path / "s")
        assert [c.id for c in loaded.list_collections()] == ["pics", "tracks"]
        assert loaded.get_collection("tracks").created == 1000
        for cid in ("tracks", "pics"):
            orig = {r.fid: serialize_document(r.doc) for r in store.st_query(cid)}
            back = {r.fid: serialize_document(r.doc) for r in loaded.st_query(cid)}
            assert orig == back
        assert loaded.list_annotations("pics", "p1") == store.list_annotations("pics", "p1")

    @pytest.mark.parametrize("reopen", ["load", "open"])
    def test_flush_load_flush_is_byte_identical(self, tmp_path, moving_double_doc,
                                                moving_video_doc, reopen):
        target = tmp_path / "s"
        store = MediaStore(target)
        self._populate(store)
        store.create_collection("sensors", "Sensors", "MovingDouble", created=3000)
        store.put_feature("sensors", "d1", moving_double_doc)
        store.create_collection("vids", "Videos", "MovingVideo", created=4000)
        store.put_feature("vids", "v1", moving_video_doc)
        store.flush()
        first = {p.name: p.read_bytes() for p in sorted(target.iterdir())}
        loaded = getattr(MediaStore, reopen)(target)
        loaded.flush()
        assert {p.name: p.read_bytes() for p in sorted(target.iterdir())} == first
        md = loaded.get_feature("sensors", "d1").doc.payload
        assert type(md.times) is type(md.values) is tuple
        assert (md.times, md.values) == (moving_double_doc.payload.times,
                                         moving_double_doc.payload.values)
        for cid in ("tracks", "sensors", "vids"):
            for orig, back in zip(store.st_query(cid), loaded.st_query(cid)):
                assert back.doc.payload == orig.doc.payload
                assert hash(back.doc.payload) == hash(orig.doc.payload)

    def test_queries_identical_after_reload(self, tmp_path):
        store = MediaStore(tmp_path / "s")
        self._populate(store)
        store.flush()
        loaded = MediaStore.load(tmp_path / "s")
        rng = random.Random("reload-queries")
        for _ in range(25):
            lon0 = rng.uniform(-180, 140)
            lat0 = rng.uniform(-90, 50)
            bbox = (lon0, lat0, lon0 + 40, lat0 + 40)
            a = [r.fid for r in store.st_query("tracks", bbox=bbox)]
            b = [r.fid for r in loaded.st_query("tracks", bbox=bbox)]
            assert a == b

    def test_load_missing_manifest(self, tmp_path):
        with pytest.raises(StoreIoError):
            MediaStore.load(tmp_path / "nothing")

    def test_truncated_data_file_detected(self, tmp_path):
        store = MediaStore(tmp_path / "s")
        self._populate(store)
        store.flush()
        victim = tmp_path / "s" / "tracks.ndjson.gz"
        victim.write_bytes(victim.read_bytes()[:-20])
        with pytest.raises(CorruptStoreError):
            MediaStore.load(tmp_path / "s")

    def test_missing_data_file_detected(self, tmp_path):
        store = MediaStore(tmp_path / "s")
        self._populate(store)
        store.flush()
        (tmp_path / "s" / "pics.ann.ndjson.gz").unlink()
        with pytest.raises(CorruptStoreError):
            MediaStore.load(tmp_path / "s")

    def test_stationary_relative_video_line_detected(self, tmp_path):
        """The codec refuses a still track with a relative FoV, so load does too."""
        target = tmp_path / "s"
        store = MediaStore(target)
        store.create_collection("vids", "Videos", "MovingVideo")
        moving = MovingVideo("u:v", MovingPoint((T0, T0 + 1), (GeoPoint(0, 0), GeoPoint(1, 0))),
                             (FieldOfView(direction2d=-360),))
        store.put_feature("vids", "v1", document_of(moving))
        store.flush()
        # the library refuses to build the still video, so stop the track in the file
        edit_snapshot(target / "vids.ndjson.gz", lambda data: data.replace(b"[1, 0]", b"[0, 0]"),
                      reseal=True)
        with pytest.raises(CorruptStoreError, match="/fov/0/direction2d: a mount-relative"):
            MediaStore.load(target)

    def test_moving_double_with_mixed_altitudes_round_trips(self, tmp_path):
        """A sensor track may mix 2- and 3-component positions, unlike a moving point."""
        text = (b'{"type": "MovingDouble", "values": [1, 2.5, 3], "timeline": [0, 1, 2],'
                b' "coordinates": [[1, 2, 3], [4, 5], [6, 7, 8]], "interpolation": "linear"}')
        doc = parse_document(text)
        assert serialize_document(doc) == text
        store = MediaStore(tmp_path / "s")
        store.create_collection("sensors", "Sensors", "MovingDouble")
        store.flush()
        store.put_feature("sensors", "s1", doc)
        store.commit()
        replayed = MediaStore.load(tmp_path / "s")  # from the log
        replayed.flush()
        for loaded in (replayed, MediaStore.load(tmp_path / "s")):  # and from the snapshot
            again = loaded.get_feature("sensors", "s1").doc
            assert again == doc and serialize_document(again) == text

    def test_garbage_manifest_detected(self, tmp_path):
        target = tmp_path / "s"
        target.mkdir()
        (target / "manifest.json").write_text("{not json")
        with pytest.raises(CorruptStoreError):
            MediaStore.load(target)

    @pytest.mark.parametrize("collections", [None, 5, "ab", [None]])
    def test_manifest_collections_not_a_list_of_entries_detected(self, tmp_path, collections):
        target = tmp_path / "s"
        MediaStore(target).flush()
        manifest = json.loads((target / "manifest.json").read_text())
        manifest["collections"] = collections
        (target / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CorruptStoreError, match="bad manifest"):
            MediaStore.open(target)

    def test_manifest_entry_without_sha256_detected(self, tmp_path):
        target = tmp_path / "s"
        store = MediaStore(target)
        self._populate(store)
        store.flush()
        manifest = json.loads((target / "manifest.json").read_text())
        del manifest["collections"][0]["sha256"]
        (target / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CorruptStoreError, match="bad manifest entry"):
            MediaStore.open(target)

    def test_interrupted_flush_never_loads_silently(self, tmp_path, disk_faults):
        """Cut the flush off after each possible number of renames; every
        outcome must either load the old state or raise CorruptStoreError."""
        target = tmp_path / "s"
        store = MediaStore(target)
        self._populate(store)
        store.flush()
        before = {
            cid: [r.fid for r in MediaStore.load(target).st_query(cid)]
            for cid in ("tracks", "pics")
        }
        rng = random.Random("interrupt")
        # 5 files: 2 collections x (features + annotations) + manifest
        for cutoff in range(5):
            store.create_collection(f"extra{cutoff}", "x", "MovingPoint")
            store.put_feature(f"extra{cutoff}", "f0", track_doc(rng))
            with disk_faults("rename", at=cutoff + 1), pytest.raises(StoreIoError):
                store.flush()
            try:
                loaded = MediaStore.load(target)
            except CorruptStoreError:
                continue  # detected: acceptable
            loaded_fids = {
                cid: [r.fid for r in loaded.st_query(cid)]
                for cid in ("tracks", "pics")
            }
            assert loaded_fids == before  # old state must be intact

    def test_open_checks_every_checksum_before_any_parse(self, tmp_path, monkeypatch):
        import geomedia.store

        target = tmp_path / "s"
        store = MediaStore(target)
        self._populate(store)
        store.flush()
        victim = target / "tracks.ndjson.gz"  # the last collection: pics comes first
        victim.write_bytes(victim.read_bytes()[:-20])
        parsed = []
        monkeypatch.setattr(geomedia.store, "parse_obj", parsed.append)
        with pytest.raises(CorruptStoreError, match="checksum mismatch for tracks.ndjson.gz"):
            MediaStore.open(target)
        assert parsed == []

    def test_parse_after_open_fails_if_a_file_changed_since_open(self, tmp_path):
        target = tmp_path / "s"
        store = MediaStore(target)
        self._populate(store)
        store.flush()
        opened = MediaStore.open(target)
        edit_snapshot(target / "tracks.ndjson.gz",
                      lambda data: data.replace(b'"fid": "f00"', b'"fid": "f99"', 1))
        assert [c.id for c in opened.list_collections()] == ["pics", "tracks"]
        assert opened.feature_count("pics") == 1
        for _ in range(2):  # a failed parse leaves the collection unparsed, not half-filled
            with pytest.raises(CorruptStoreError, match="checksum mismatch for tracks.ndjson.gz"):
                opened.feature_count("tracks")

    def test_flush_fails_before_any_rename_if_a_file_changed_since_open(self, tmp_path):
        target = tmp_path / "s"
        store = MediaStore(target)
        self._populate(store)
        store.flush()
        before = {p.name: p.read_bytes() for p in target.iterdir()}
        opened = MediaStore.open(target)
        opened.create_collection("extra", "x", "MovingPoint")
        opened.put_feature("extra", "f0", track_doc(random.Random("changed")))
        victim = target / "tracks.ndjson.gz"  # the last collection: extra and pics are staged first
        changed = edit_snapshot(victim, lambda data: data.replace(b'"fid": "f00"', b'"fid": "f99"', 1))
        with pytest.raises(CorruptStoreError, match="checksum mismatch for tracks.ndjson.gz"):
            opened.flush()
        after = {p.name: p.read_bytes() for p in target.iterdir() if p.suffix != ".tmp"}
        assert after == {**before, "tracks.ndjson.gz": changed}
        victim.write_bytes(before["tracks.ndjson.gz"])
        loaded = MediaStore.load(target)
        assert [c.id for c in loaded.list_collections()] == ["pics", "tracks"]
        assert loaded.feature_count("tracks") == 20

    def test_flush_leaves_the_files_of_a_never_parsed_collection_in_place(
            self, tmp_path, disk_faults):
        target = tmp_path / "s"
        store = MediaStore(target)
        self._populate(store)
        store.create_collection("more", "More tracks", "MovingPoint", created=3000)
        store.put_feature("more", "m0", track_doc(random.Random("more")))
        store.flush()
        untouched = ("more.ndjson.gz", "more.ann.ndjson.gz", "pics.ndjson.gz", "pics.ann.ndjson.gz")

        def files():
            return {name: ((target / name).read_bytes(), (target / name).stat().st_ino)
                    for name in untouched}

        before = files()
        opened = MediaStore.open(target)
        opened.put_feature("tracks", "new", track_doc(random.Random("new")))
        with disk_faults("rename") as renames:
            opened.flush()
        assert [dst.name for _, (src, dst) in renames] == [
            "tracks.ndjson.gz", "tracks.ann.ndjson.gz", "manifest.json"]
        assert files() == before
        loaded = MediaStore.load(target)
        assert [loaded.feature_count(cid) for cid in ("more", "pics", "tracks")] == [1, 1, 21]

    def test_no_staged_file_outlives_a_flush(self, tmp_path):
        target = tmp_path / "s"
        store = MediaStore(target)
        self._populate(store)
        store.flush()
        opened = MediaStore.open(target)
        opened.create_collection("extra", "x", "MovingPoint")
        opened.put_feature("extra", "f0", track_doc(random.Random("changed")))
        victim = target / "tracks.ndjson.gz"
        good = victim.read_bytes()
        edit_snapshot(victim, lambda data: data.replace(b'"fid": "f00"', b'"fid": "f99"', 1))
        with pytest.raises(CorruptStoreError, match="checksum mismatch for tracks.ndjson.gz"):
            opened.flush()
        assert sorted(target.glob("*.tmp")) == []
        victim.write_bytes(good)
        (target / "gone.ndjson.gz.tmp").write_bytes(b"staged by a flush that crashed")
        opened.flush()
        assert sorted(target.glob("*.tmp")) == []
        assert MediaStore.load(target).feature_count("extra") == 1

    def test_flush_removes_stale_collection_files(self, tmp_path):
        store = MediaStore(tmp_path / "s")
        self._populate(store)
        store.flush()
        assert (tmp_path / "s" / "tracks.ndjson.gz").exists()
        store.delete_collection("tracks")
        store.flush()
        assert not (tmp_path / "s" / "tracks.ndjson.gz").exists()
        loaded = MediaStore.load(tmp_path / "s")
        assert [c.id for c in loaded.list_collections()] == ["pics"]

    def test_timeline_outside_iso_years_in_store_line_is_corrupt(self, tmp_path):
        """A line whose timeline no ISO-8601 datetime can spell fails load, checksum or not."""
        target = tmp_path / "s"
        store = MediaStore(target)
        self._populate(store)
        store.flush()

        def edit(data):
            first, rest = data.split(b"\n", 1)
            record = json.loads(first)
            record["document"]["timeline"][0] = -10**20
            return json.dumps(record).encode() + b"\n" + rest

        edit_snapshot(target / "tracks.ndjson.gz", edit, reseal=True)
        with pytest.raises(CorruptStoreError, match="tracks.ndjson.gz line 1: /timeline/0"):
            MediaStore.load(target)

    def test_flush_requires_directory(self):
        with pytest.raises(StoreIoError):
            MediaStore().flush()

    def test_ndjson_is_line_oriented_utf8(self, tmp_path):
        store = MediaStore(tmp_path / "s")
        self._populate(store)
        store.flush()
        raw = snapshot_text(tmp_path / "s" / "pics.ndjson.gz")
        assert b"\r" not in raw
        line = json.loads(raw.decode("utf-8").splitlines()[0])
        assert line["fid"] == "p1"
        assert line["document"]["type"] == "stphoto"

    @pytest.mark.parametrize("file, member, repeat", [
        ("tracks.ndjson.gz", "fid", b'"f99", "fid": '),
        ("tracks.ndjson.gz", "interpolation", b'"stepwise", "interpolation": '),
        ("pics.ann.ndjson.gz", "kind", b'"icon", "kind": '),
    ], ids=["wrapper", "document", "annotation"])
    def test_duplicate_member_in_store_line_detected(self, tmp_path, file, member, repeat):
        """A line that repeats a member is corrupt even when its checksum matches."""
        target = tmp_path / "s"
        store = MediaStore(target)
        self._populate(store)
        store.flush()
        key = f'"{member}": '.encode()

        def edit(data):
            first = data.split(b"\n", 1)[0]
            line = first.replace(key, key + repeat, 1)
            assert line != first
            return data.replace(first, line, 1)

        edit_snapshot(target / file, edit, reseal=True)
        with pytest.raises(CorruptStoreError, match=f"{file} line 1: duplicate member"):
            MediaStore.load(target)


class TestCompressedSnapshot:
    """Store format 2: each snapshot file is one gzip stream of NDJSON lines."""

    _populate = TestDurability._populate

    def _flushed(self, tmp_path):
        target = tmp_path / "s"
        store = MediaStore(target)
        self._populate(store)
        store.flush()
        return store, target

    def test_round_trip_and_lines_as_json_dumps_writes_them(self, tmp_path):
        store, target = self._flushed(tmp_path)
        assert sorted(p.name for p in target.iterdir()) == [
            "manifest.json", "pics.ann.ndjson.gz", "pics.ndjson.gz",
            "tracks.ann.ndjson.gz", "tracks.ndjson.gz"]
        lines = snapshot_text(target / "tracks.ndjson.gz").splitlines(keepends=True)
        records = store.st_query("tracks")
        assert lines == [(json.dumps({"fid": r.fid, "document": json.loads(serialize_document(
            r.doc))}, separators=(", ", ": ")) + "\n").encode() for r in records]
        anns = snapshot_text(target / "pics.ann.ndjson.gz").splitlines()
        assert [json.loads(line)["aid"] for line in anns] == ["a1", "a2"]
        assert snapshot_text(target / "tracks.ann.ndjson.gz") == b""
        loaded = MediaStore.load(target)
        for cid in ("tracks", "pics"):
            assert ([(r.fid, serialize_document(r.doc)) for r in loaded.st_query(cid)]
                    == [(r.fid, serialize_document(r.doc)) for r in store.st_query(cid)])
        assert loaded.list_annotations("pics", "p1") == store.list_annotations("pics", "p1")

    def test_line_that_spans_many_read_chunks(self, tmp_path):
        rng = random.Random("long line")
        store = MediaStore(tmp_path / "s")
        store.create_collection("tracks", "t", "MovingPoint")
        for fid in ("a", "long", "z"):
            store.put_feature("tracks", fid, track_doc(rng, 5000 if fid == "long" else 3))
        store.flush()
        assert (tmp_path / "s" / "tracks.ndjson.gz").stat().st_size > 20 * 4096
        loaded = MediaStore.load(tmp_path / "s")
        assert ([serialize_document(r.doc) for r in loaded.st_query("tracks")]
                == [serialize_document(r.doc) for r in store.st_query("tracks")])

    def test_two_flushes_write_the_same_bytes(self, tmp_path):
        store, target = self._flushed(tmp_path)
        first = {p.name: p.read_bytes() for p in target.iterdir()}
        store.flush()
        assert {p.name: p.read_bytes() for p in target.iterdir()} == first
        again = MediaStore(tmp_path / "again")
        self._populate(again)
        again.flush()
        assert {p.name: p.read_bytes() for p in (tmp_path / "again").iterdir()} == first
        head = first["tracks.ndjson.gz"][:10]
        # gzip magic, deflate, no flags (so no file name), mtime 0
        assert head[:4] == b"\x1f\x8b\x08\x00" and head[4:8] == b"\0\0\0\0"

    @staticmethod
    def _level_5(path) -> bytes:
        """The bytes of one zlib level-5 gzip stream of a snapshot file's lines."""
        stream = zlib.compressobj(5, zlib.DEFLATED, 31)
        return stream.compress(snapshot_text(path)) + stream.flush()

    def test_each_file_is_one_level_5_stream(self, tmp_path):
        _, target = self._flushed(tmp_path)
        for path in target.glob("*.ndjson.gz"):
            assert path.read_bytes() == self._level_5(path), path.name

    def test_level_1_files_load_and_the_next_flush_writes_level_5(self, tmp_path):
        store, target = self._flushed(tmp_path)
        files = sorted(target.glob("*.ndjson.gz"))
        lines = [snapshot_text(path) for path in files]
        for path in files:
            edit_snapshot(path, lambda data: data, reseal=True)  # a level-1 stream
        tracks = target / "tracks.ndjson.gz"
        assert tracks.read_bytes() != self._level_5(tracks)
        assert fingerprint(MediaStore.open(target)) == fingerprint(store)
        loaded = MediaStore.load(target)
        assert fingerprint(loaded) == fingerprint(store)
        loaded.flush()
        assert [snapshot_text(path) for path in files] == lines
        for path in files:
            assert path.read_bytes() == self._level_5(path), path.name

    @pytest.mark.parametrize("damage, message", [
        (lambda raw: raw[:-9], "tracks.ndjson.gz: gzip stream cut off before its end"),
        (lambda raw: raw[:len(raw) // 2], "tracks.ndjson.gz: gzip stream cut off before its end"),
        (lambda raw: raw + b"\n", "tracks.ndjson.gz: bytes after the end of its gzip stream"),
        (lambda raw: raw + raw, "tracks.ndjson.gz: bytes after the end of its gzip stream"),
        (lambda raw: raw[:3] + b"\xff" + raw[4:], "tracks.ndjson.gz: damaged gzip stream"),
        (lambda raw: raw[:-8] + bytes(8), "tracks.ndjson.gz: damaged gzip stream"),
        (lambda raw: b"", "tracks.ndjson.gz: gzip stream cut off before its end"),
    ], ids=["trailer-cut", "half", "trailing-newline", "second-member", "bad-flags",
            "bad-crc", "empty"])
    def test_damaged_stream_whose_checksum_matches_is_corrupt(self, tmp_path, damage, message):
        _, target = self._flushed(tmp_path)
        victim = target / "tracks.ndjson.gz"
        victim.write_bytes(damage(victim.read_bytes()))
        reseal_snapshot(victim)
        opened = MediaStore.open(target)  # the checksum matches
        with pytest.raises(CorruptStoreError, match=message):
            opened.feature_count("tracks")
        with pytest.raises(CorruptStoreError, match=message):
            MediaStore.load(target)

    @pytest.mark.parametrize("damage", [
        lambda raw: raw[:-9],
        lambda raw: raw + b"\0",
        lambda raw: raw[:20] + bytes(len(raw) - 20),
        lambda raw: b"",
    ], ids=["cut", "trailing", "zeroed", "empty"])
    def test_file_altered_after_open_is_corrupt(self, tmp_path, damage):
        _, target = self._flushed(tmp_path)
        opened = MediaStore.open(target)
        victim = target / "tracks.ndjson.gz"
        victim.write_bytes(damage(victim.read_bytes()))
        with pytest.raises(CorruptStoreError, match="tracks.ndjson.gz"):
            opened.feature_count("tracks")
        with pytest.raises(CorruptStoreError, match="checksum mismatch for tracks.ndjson.gz"):
            MediaStore.open(target)

    def test_version_1_store_is_refused_by_name(self, tmp_path):
        _, target = self._flushed(tmp_path)
        manifest = json.loads((target / "manifest.json").read_text())
        assert manifest["version"] == 2
        manifest["version"] = 1
        (target / "manifest.json").write_text(json.dumps(manifest))
        for reopen in (MediaStore.open, MediaStore.load):
            with pytest.raises(CorruptStoreError) as err:
                reopen(target)
            assert "unsupported store version 1 " in str(err.value)
            assert "reads version 2" in str(err.value)


class TestParseChecks:
    """Checks a parse makes that a matching checksum cannot: each file is
    edited and resealed, so only the parse can find the fault."""

    _flushed = TestCompressedSnapshot._flushed
    _populate = TestDurability._populate

    def test_feature_count_must_match_the_manifest(self, tmp_path):
        _, target = self._flushed(tmp_path)
        edit_snapshot(target / "tracks.ndjson.gz", lambda data: data.split(b"\n", 1)[1],
                      reseal=True)
        opened = MediaStore.open(target)  # the checksum matches
        message = "^tracks: manifest says 20 features, file has 19$"
        with pytest.raises(CorruptStoreError, match=message):
            opened.feature_count("tracks")
        with pytest.raises(CorruptStoreError, match=message):
            MediaStore.load(target)

    @pytest.mark.parametrize("edit, message", [
        (lambda data, photo: (photo.replace(b'"fid": "p1"', b'"fid": "f00"')
                              + data.split(b"\n", 1)[1]),
         "document kind stphoto does not match collection media type MovingPoint"),
        (lambda data, photo: data.replace(b'"fid": "f00"', b'"fid": "f/00"', 1),
         "feature id 'f/00' must be non-empty without '/'"),
        (lambda data, photo: data.replace(b'"fid": "f00"', b'"fid": 5', 1),
         "feature id 5 must be non-empty without '/'"),
    ], ids=["kind", "fid", "fid-not-a-string"])
    def test_feature_line_is_held_to_the_rule_of_a_put(self, tmp_path, edit, message):
        _, target = self._flushed(tmp_path)
        photo = snapshot_text(target / "pics.ndjson.gz")
        edit_snapshot(target / "tracks.ndjson.gz", lambda data: edit(data, photo), reseal=True)
        with pytest.raises(CorruptStoreError, match=f"^tracks.ndjson.gz line 1: {message}$"):
            MediaStore.load(target)

    def test_annotation_of_an_unknown_feature_is_corrupt(self, tmp_path):
        _, target = self._flushed(tmp_path)
        edit_snapshot(target / "pics.ann.ndjson.gz",
                      lambda data: data.replace(b'"fid": "p1"', b'"fid": "p9"'), reseal=True)
        with pytest.raises(CorruptStoreError,
                           match="^pics.ann.ndjson.gz line 1: feature 'p9' not in collection 'pics'$"):
            MediaStore.load(target)

    def test_annotation_line_is_held_to_the_rule_of_a_label(self, tmp_path):
        _, target = self._flushed(tmp_path)
        edit_snapshot(target / "pics.ann.ndjson.gz",
                      lambda data: data.replace(b'"timeRange": null', b'"timeRange": [0, 0]', 1),
                      reseal=True)
        with pytest.raises(CorruptStoreError, match="^pics.ann.ndjson.gz line 1: "
                           "time ranges apply to video annotations only$"):
            MediaStore.load(target)

    def test_annotation_time_range_must_lie_in_its_video(self, tmp_path, moving_video_doc):
        target = tmp_path / "s"
        store = MediaStore(target)
        store.create_collection("cams", "cams", "MovingVideo", created=1)
        store.put_feature("cams", "v1", moving_video_doc)
        store.put_annotation("cams", "v1", Annotation("a1", "text", "car",
                                                      TimeInterval(T0, T0 + 1000)))
        store.flush()
        edit_snapshot(target / "cams.ann.ndjson.gz",
                      lambda data: data.replace(str(T0 + 1000).encode(), str(T0 + 9000).encode()),
                      reseal=True)
        with pytest.raises(CorruptStoreError, match=(
                rf"^cams.ann.ndjson.gz line 1: time range \[{T0}, {T0 + 9000}\] "
                rf"outside feature extent \[{T0}, {T0 + 2000}\]$")):
            MediaStore.load(target)

    def test_manifest_must_not_repeat_a_collection(self, tmp_path):
        _, target = self._flushed(tmp_path)
        manifest = json.loads((target / "manifest.json").read_text())
        manifest["collections"].append(manifest["collections"][0])
        (target / "manifest.json").write_text(json.dumps(manifest))
        message = "^bad manifest entry: collection 'pics' already exists$"
        with pytest.raises(CorruptStoreError, match=message):
            MediaStore.open(target)
        with pytest.raises(CorruptStoreError, match=message):
            MediaStore.load(target)

    @pytest.mark.parametrize("field, value, message", [
        ("title", 5, "collection title 5 must be a string"),
        ("created", "yesterday", "collection time 'yesterday' is not an integer in years 1-9999"),
    ])
    def test_manifest_entry_is_held_to_the_rule_of_a_create(self, tmp_path, field, value,
                                                            message):
        _, target = self._flushed(tmp_path)
        manifest = json.loads((target / "manifest.json").read_text())
        manifest["collections"][0][field] = value
        (target / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CorruptStoreError, match=f"^bad manifest entry: {message}$"):
            MediaStore.open(target)

    def test_malformed_annotation_time_range_names_the_pair(self, tmp_path):
        _, target = self._flushed(tmp_path)
        edit_snapshot(target / "pics.ann.ndjson.gz",
                      lambda data: data.replace(b'"timeRange": null', b'"timeRange": [5]', 1),
                      reseal=True)
        with pytest.raises(CorruptStoreError) as err:
            MediaStore.load(target)
        assert str(err.value) == ("pics.ann.ndjson.gz line 1: /timeRange: bad timeRange [5]: "
                                  "expected a [start, end] pair of epoch milliseconds")

    def test_log_record_over_a_malformed_snapshot_line_names_the_line(self, tmp_path):
        store, target = self._flushed(tmp_path)
        store.put_feature("tracks", "new", track_doc(random.Random("new")))
        store.commit()
        edit_snapshot(target / "tracks.ndjson.gz",
                      lambda data: data.replace(b'{"fid": "f00"', b'{"fid": f00', 1), reseal=True)
        # the resealed manifest is a new snapshot: point the log's first record at it
        log = target / "wal.log"
        _, put = log.read_bytes().splitlines(keepends=True)
        snapshot = hashlib.sha256((target / "manifest.json").read_bytes()).hexdigest()
        body = json.dumps({"snapshot": snapshot}, separators=(",", ":")).encode()
        header = {"crc": zlib.crc32(body), "snapshot": snapshot}
        log.write_bytes(json.dumps(header, separators=(",", ":")).encode() + b"\n" + put)
        # replaying the put parses the collection: the fault is the line's, not the record's
        with pytest.raises(CorruptStoreError, match="^tracks.ndjson.gz line 1: ") as err:
            MediaStore.open(target)
        assert "wal.log" not in str(err.value)
