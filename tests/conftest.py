"""Shared fixtures: the four reference documents, store builders and disk faults."""

from __future__ import annotations

import contextlib
import json
import threading
import zlib
from pathlib import Path

import pytest

from geomedia import MediaStore, disk, parse_document, serialize_document
from geomedia.errors import GeoMediaError

FIXTURES = Path(__file__).parent / "fixtures"

# Cross-checked constants used throughout the suite: the integer timeline
# and the ISO datetimes of the reference listings denote the same instants.
T0 = 1533128461000  # 2018-08-01T13:01:01Z
T1 = 1533128462000
T2 = 1533128463000


def fixture_bytes(name: str) -> bytes:
    return (FIXTURES / name).read_bytes()


def error_classes() -> list[type[GeoMediaError]]:
    """GeoMediaError and every class below it."""
    classes, todo = [], [GeoMediaError]
    while todo:
        cls = todo.pop()
        classes.append(cls)
        todo.extend(cls.__subclasses__())
    return classes


def fingerprint(store):
    """Everything a reader can see: collections, documents by both query paths, annotations."""
    out = []
    for meta in store.list_collections():
        out.append(repr(meta))
        for record in store.st_query(meta.id, bbox=(-180, -90, 180, 90)) + store.st_query(meta.id):
            out.append((meta.id, record.fid, serialize_document(record.doc, "epoch")))
            for ann in store.list_annotations(meta.id, record.fid):
                out.append((meta.id, record.fid, repr(ann)))
    return out


def snapshot_path(target: Path, cid: str, kind: str = "features") -> Path:
    """The data file of kind ("features" or "annotations") that the manifest
    of the store at target names for collection cid."""
    manifest = json.loads((target / "manifest.json").read_text())
    [entry] = [entry for entry in manifest["collections"] if entry["id"] == cid]
    features, annotations = disk.snapshot_names(cid, entry["generation"])
    return target / (features if kind == "features" else annotations)


def snapshot_files(target: Path) -> tuple[int, dict]:
    """The manifest's generation of the store at target, and its files: each
    data file's bytes by (cid, kind) and, under "manifest.json", the
    manifest without any generation. The directory must hold no other file."""
    manifest = json.loads((target / "manifest.json").read_text())
    files = {}
    for entry in manifest["collections"]:
        names = disk.snapshot_names(entry["id"], entry.pop("generation"))
        for kind, name in zip(("features", "annotations"), names):
            files[entry["id"], kind] = (target / name).read_bytes()
    assert len(list(target.iterdir())) == 1 + len(files)
    generation = manifest.pop("generation")
    files["manifest.json"] = manifest
    return generation, files


def snapshot_text(path: Path) -> bytes:
    """The NDJSON lines a store's gzip-compressed snapshot file holds."""
    return zlib.decompress(path.read_bytes(), 31)


def edit_snapshot(path: Path, edit, reseal: bool = False) -> bytes:
    """Decompress a snapshot file, edit its NDJSON bytes (edit: bytes -> bytes)
    and write them back as one gzip stream at zlib level 1, not the store's
    own level; returns the new file bytes.

    With reseal, the manifest takes the new bytes' checksum too (see
    reseal_snapshot), so only a parse can find what the edit did.
    """
    stream = zlib.compressobj(1, zlib.DEFLATED, 31)
    raw = stream.compress(edit(snapshot_text(path))) + stream.flush()
    path.write_bytes(raw)
    if reseal:
        reseal_snapshot(path)
    return raw


def reseal_snapshot(path: Path) -> None:
    """Set the checksum that the manifest beside a snapshot file holds for it
    to the CRC-32 of the file's bytes as they are now."""
    manifest_path = path.parent / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    cid = path.name.partition(".")[0]
    kind = "annotations" if path.name.endswith(".ann.ndjson.gz") else "features"
    for entry in manifest["collections"]:
        if entry["id"] == cid:
            entry["crc32"][kind] = zlib.crc32(path.read_bytes())
    manifest_path.write_text(json.dumps(manifest))


@pytest.fixture(scope="session")
def moving_point_doc():
    return parse_document(fixture_bytes("moving_point.json"))


@pytest.fixture(scope="session")
def moving_double_doc():
    return parse_document(fixture_bytes("moving_double.json"))


@pytest.fixture(scope="session")
def stphoto_doc():
    return parse_document(fixture_bytes("stphoto.json"))


@pytest.fixture(scope="session")
def moving_video_doc():
    return parse_document(fixture_bytes("moving_video.json"))


@pytest.fixture
def store(tmp_path):
    return MediaStore(tmp_path / "store")


@pytest.fixture
def disk_faults():
    """disk_faults(*names, at=k) is a context in which the k-th call, counted
    from 1, of the named geomedia.disk functions (counted together) raises
    OSError; with every=True each k-th call does, and at=None fails none.
    The context gives the list of those calls, (name, args) in call order.
    The store alone calls these functions, so no other file access fails.
    The count is kept under a lock: the store's callers may be threads."""

    @contextlib.contextmanager
    def faults(*names, at=None, every=False):
        calls, lock = [], threading.Lock()
        real = {name: getattr(disk, name) for name in names}

        def counted(name):
            def call(*args, **kwargs):
                with lock:
                    calls.append((name, args))
                    n = len(calls)
                if at is not None and (n % at == 0 if every else n == at):
                    raise OSError(f"injected failure of disk.{name} at call {n}")
                return real[name](*args, **kwargs)
            return call

        for name in names:
            setattr(disk, name, counted(name))
        try:
            yield calls
        finally:
            for name in names:
                setattr(disk, name, real[name])

    return faults
