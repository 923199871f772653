"""Persistent collections ("layers") of geo-tagged media with a spatial index.

A collection holds its documents in one set of columns, a row each
(media.Columns, which packs each kind and each row's fid), an array of its
live rows in fid order, and a 2-D (lon, lat) R-tree over the documents'
bounding boxes whose items are row numbers. A row never changes: a put or
replacement appends one, a delete leaves its row dead, and once dead rows
outnumber live ones the live rows are copied into fresh columns and the
tree's items renumbered. So a FeatureRecord names (columns, row) and
builds its document when a caller reads it, after the lock is released
too. The tree is the only holder of a bbox (it keeps them in array('d')
columns): a FeatureRecord works its bbox and extent out from the
document, and a delete or replacement works the old row's bbox out again
to find its entry. Time windows are not indexed but checked exactly on each
candidate, by the first and last time of its row, read from the columns.
The tree is packed (STR) when the collection's snapshot files are parsed,
and for a collection filled since it was created by the first spatial
search (until then a put computes no bbox); after that every put and
delete goes to the tree's write delta, which it packs again now and then
on its own (see rtree.py).
The columns keep their view reach, an upper bound on how far any of their
cameras sees past its bbox (the radius of st_query's visible_from box; a
photo's bbox holds its whole view, so photos add none), and a collection
caches its time extent (collection_extent()): a fresh put widens it, a
replacement or delete drops it, and the next read works it out again.

A store is a directory holding a snapshot and a write log. The snapshot is
manifest.json (plain JSON), which names its generation (the number of the
flush that wrote it) and each collection's metadata, file generation and
CRC-32s, plus one <cid>.<g>.ndjson.gz of features and one
<cid>.<g>.ann.ndjson.gz of annotations per collection; disk.py owns the
bytes of these files and of the log. This is store format version 3; open()
refuses versions 1 and 2 by name.
flush() compacts: it writes each parsed collection's files under the next
generation's names, which no manifest holds, then renames the manifest in.
That rename is the one commit, so an interrupted flush leaves the old
snapshot or the new one, each whole.

open() reads the manifest, checks every snapshot file's CRC-32 and replays
the log, but parses a collection's files only when a method first needs its
features; the parse fails unless they are still the bytes open() checked.
load() is open() followed by parsing every collection, so a server opened
with it answers its first query at full speed. The CLI commands that name
one collection use open(); `geomedia serve` uses load().
flush() writes a parsed collection by serialising it and keeps the entry and
files of a collection it never parsed, checking their CRC-32s again and
failing before any rename unless they still match. So a malformed line in a
collection that nothing touched stays as it is, and is reported by the
first load(), or method, that parses it.
A collection's contents keep one set of rules (_CollectionState's put, drop
and annotate), whoever writes them: an API call, a replayed log record or a
snapshot line. So each snapshot line meets the rule of the put or label that
wrote it, and manifest ids are unique, as create_collection keeps them.

Mutating methods change memory and queue an op; commit() appends the queued
ops to wal.log, one checksummed record each, and fsyncs the log. The log's
first record names the generation of the manifest it extends, so open()
replays a log only over its own snapshot and ignores one that a later flush
left behind. A torn tail is dropped at open and cut off by the next commit. A
commit that fails reopens the store from its directory, so memory holds no
mutation that a restart would not find.

Concurrency: every public method takes the store's re-entrant lock, so no
partially applied mutation is observable; a step of several calls holds it
across them. GeoMediaApi.handle() is where a mutation and its commit form
one step: it holds the lock across each non-GET request and its commit.
"""

from __future__ import annotations

import contextlib
import json
import math
import re
import threading
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

from . import disk, media
from .codec import (
    decode_json,
    document_to_obj,
    interval_str,
    is_finite_number,
    parse_datetime,
    parse_obj,
)
from .errors import (
    BadQueryError,
    CorruptStoreError,
    DuplicateIdError,
    GeoMediaError,
    NotFoundError,
    ParseError,
    StoreIoError,
    WrongKindError,
)
from .geo import GeoPoint, disk_bbox
from .media import Bbox, GeoMediaDocument
from .rtree import RTree
from .temporal import MAX_TIME, MIN_TIME, TimeInterval

_ID_RE = re.compile(r"^[A-Za-z0-9_-]{1,64}$")
# A high surrogate then a low one: JSON writes the two as an escape pair and
# reads that back as one astral character, so such a fid would not round-trip.
_SURROGATE_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]")
_MANIFEST = "manifest.json"
_FORMAT_VERSION = 3  # 1: plain .ndjson; 2: .ndjson.gz by SHA-256; 3: named by generation
# A commit whose records would grow the log past
# max(_COMPACT_MIN_BYTES, snapshot bytes // _COMPACT_SHARE) compacts instead.
# Both sides count bytes on disk: compressed snapshot files, a plain log. So
# the log adds at most 1/32 = 3.1 % to a large store's bytes on disk, less
# where its records add live data: a store that takes 0.183 bytes per byte of
# data after a compaction takes about 0.183 * 1.031 = 0.189 just before one.
# At 5k features per kind (a 2.25 MB snapshot) that is ~70 KB of log between
# compactions. Below 2 MB of snapshot the 64 KiB floor holds: at 1k features
# per kind (a 0.45 MB snapshot) the log may add ~15 %, ~140 mutations between
# compactions.
_COMPACT_MIN_BYTES = 64 * 1024
_COMPACT_SHARE = 32

ANNOTATION_KINDS = ("text", "icon", "polygon")
# What a malformed manifest entry, snapshot line or log record raises here.
_MALFORMED = (AttributeError, KeyError, TypeError, ValueError, GeoMediaError)


@dataclass(frozen=True, slots=True)
class Collection:
    """A named layer of homogeneous geo-tagged media."""

    id: str
    title: str
    media_type: str
    created: int

    def __post_init__(self):
        if not _ID_RE.match(self.id):
            raise ValueError(f"collection id {self.id!r} must match [A-Za-z0-9_-]{{1,64}}")
        if self.media_type not in media.KINDS:
            raise ValueError(f"unknown media type {self.media_type!r}")
        if not isinstance(self.title, str):
            raise ValueError(f"collection title {self.title!r} must be a string")
        if type(self.created) is not int or not MIN_TIME <= self.created <= MAX_TIME:
            raise ValueError(f"collection time {self.created!r} is not an integer in years 1-9999")


@dataclass(frozen=True, slots=True)
class Annotation:
    """A text, icon, or image-space polygon annotation on one feature."""

    aid: str
    kind: str
    body: object
    time_range: TimeInterval | None = None

    def __post_init__(self):
        if not isinstance(self.aid, str) or not self.aid:
            raise ParseError("annotation id must be a non-empty string")
        if self.kind not in ANNOTATION_KINDS:
            raise ParseError(f"annotation kind {self.kind!r} unknown")
        if self.kind == "polygon":
            body = self.body
            ok = (
                isinstance(body, (list, tuple))
                and len(body) >= 3
                and all(
                    isinstance(v, (list, tuple))
                    and len(v) == 2
                    and all(is_finite_number(c) for c in v)
                    for v in body
                )
            )
            if not ok:
                raise ParseError("polygon body needs >= 3 [x, y] pixel vertices")
            object.__setattr__(self, "body", tuple((float(x), float(y)) for x, y in body))
        elif not isinstance(self.body, str) or not self.body:
            raise ParseError(f"{self.kind} body must be a non-empty string")


def annotation_to_obj(ann: Annotation, time_style: str) -> dict:
    """JSON object form of an annotation.

    time_style "epoch" (store files) writes the time range as [start, end]
    epoch milliseconds, "iso" (HTTP) as one "start/end" ISO interval string.
    """
    time_range = ann.time_range
    if time_range is not None:
        if time_style == "epoch":
            time_range = [time_range.start, time_range.end]
        else:
            time_range = interval_str(time_range)
    body = [list(v) for v in ann.body] if ann.kind == "polygon" else ann.body
    return {"aid": ann.aid, "kind": ann.kind, "body": body, "timeRange": time_range}


def annotation_from_obj(obj: dict, time_style: str) -> Annotation:
    """Inverse of annotation_to_obj; a malformed time range is a ParseError
    that names the shape time_style expects."""
    raw = obj.get("timeRange")
    time_range = None
    if raw is not None:
        try:
            if time_style == "epoch":
                if not (isinstance(raw, list) and len(raw) == 2 and all(type(t) is int for t in raw)):
                    raise ValueError("expected a [start, end] pair of epoch milliseconds")
                start, end = raw
            else:
                parts = raw.split("/") if isinstance(raw, str) else ()
                if len(parts) != 2:
                    raise ValueError('expected a "start/end" string of two ISO-8601 instants')
                start, end = map(parse_datetime, parts)
            time_range = TimeInterval(start, end)
        except (ValueError, ParseError) as exc:
            raise ParseError(f"bad timeRange {raw!r}: {exc}", "/timeRange") from None
    return Annotation(obj.get("aid"), obj.get("kind"), obj.get("body"), time_range)


class FeatureRecord:
    """A stored document under its feature id, built when a caller reads doc.

    The record names its collection's row, which never changes (see
    media.Columns), so doc is right however long after the query it is
    read. bbox and extent are read from the row's columns on each read,
    without building the document.
    """

    __slots__ = ("fid", "_columns", "_row", "_doc")

    def __init__(self, fid: str, columns: media.Columns, row: int):
        self.fid = fid
        self._columns = columns
        self._row = row
        self._doc = None

    @property
    def doc(self) -> GeoMediaDocument:
        if self._doc is None:
            self._doc = self._columns.document(self._row)
        return self._doc

    def __eq__(self, other):
        if not isinstance(other, FeatureRecord):
            return NotImplemented
        return (self.fid, self.doc) == (other.fid, other.doc)

    def __hash__(self):
        return hash((self.fid, self.doc))

    def __repr__(self) -> str:
        return f"FeatureRecord(fid={self.fid!r}, doc={self.doc!r})"

    @property
    def bbox(self) -> Bbox | None:
        return self._columns.bbox(self._row)

    @property
    def extent(self) -> TimeInterval:
        return TimeInterval(*self._columns.time_bounds(self._row))


class _CollectionState:
    """One collection: its columns, the live rows among them, its index and
    its annotations, and the rules of every write to them.

    rows holds the live rows' numbers (array('i')) in fid order, the order
    of st_query's answers and of the snapshot file, and is searched by the
    fids packed in the columns (Columns.locate); a put of a fid that sorts
    after every other appends. The index's items are row numbers, renumbered
    when a compaction renumbers the rows. So no str or int object is held
    per feature.
    """

    __slots__ = ("meta", "columns", "rows", "annotations", "index", "bounds", "unparsed")

    def __init__(self, meta: Collection, unparsed: dict | None = None):
        self.meta = meta
        # The manifest entry of snapshot files that open() checked but nothing
        # has parsed yet; the collection stays empty until then.
        self.unparsed = unparsed
        self.columns = media.Columns(meta.media_type)
        self.rows = array("i")  # the live rows of columns, in fid order
        self.annotations: dict[str, dict[str, Annotation]] = {}
        self.index: RTree | None = None  # built by spatial_index() when first needed
        # (earliest start, latest end) of the features' time bounds, or None
        # until collection_extent() works it out; a fresh put widens it, a
        # replacement or delete drops it.
        self.bounds: tuple[int, int] | None = None

    def spatial_index(self) -> RTree:
        if self.index is None:
            columns = self.columns
            self.index = RTree.bulk_load(
                (row, bbox) for row in self.rows if (bbox := columns.bbox(row)) is not None)
        return self.index

    def locate(self, fid: str) -> tuple[int, bool]:
        """Where fid is, or would go, in rows, and whether it is there."""
        if not isinstance(fid, str):
            return 0, False
        return self.columns.locate(self.rows, fid)

    def position(self, fid: str) -> int:
        """Where fid is in rows; NotFoundError if it is not there."""
        i, found = self.locate(fid)
        if not found:
            raise NotFoundError(f"feature {fid!r} not in collection {self.meta.id!r}")
        return i

    def row(self, fid: str) -> int:
        return self.rows[self.position(fid)]

    def record(self, fid: str) -> FeatureRecord:
        return FeatureRecord(fid, self.columns, self.row(fid))

    def put(self, fid: str, doc: GeoMediaDocument) -> None:
        """Insert or replace a feature as a new row, and its index entry once
        there is an index (until then no bbox is computed). A replacement
        keeps the feature's annotations whose time ranges fit its new
        extent."""
        if not isinstance(fid, str) or not fid or "/" in fid:
            raise BadQueryError(f"feature id {fid!r} must be non-empty without '/'")
        if _SURROGATE_PAIR.search(fid):
            raise BadQueryError(f"feature id {fid!r} must not hold a high surrogate "
                                "followed by a low one")
        if doc.kind != self.meta.media_type:
            raise WrongKindError(f"document kind {doc.kind} does not match "
                                 f"collection media type {self.meta.media_type}")
        i, replaced = self.locate(fid)
        row = self.columns.add(fid, doc)
        if self.index is not None:
            if replaced:
                self._index_delete(self.rows[i])
            bbox = self.columns.bbox(row)
            if bbox is not None:
                self.index.insert(row, bbox)
        if replaced:
            self.rows[i] = row
            self.bounds = None
        else:
            self.rows.insert(i, row)
            if self.bounds is not None:
                (low, high), (start, end) = self.bounds, self.columns.time_bounds(row)
                self.bounds = (min(low, start), max(high, end))
        anns = self.annotations.get(fid)
        if anns:
            extent = TimeInterval(*self.columns.time_bounds(row))
            self.annotations[fid] = {aid: ann for aid, ann in anns.items()
                                     if _fits(ann, extent)}
        self._reclaim()

    def drop(self, fid: str) -> None:
        i = self.position(fid)
        if self.index is not None:
            self._index_delete(self.rows[i])
        del self.rows[i]
        self.bounds = None
        self.annotations.pop(fid, None)
        self._reclaim()

    def _index_delete(self, row: int) -> None:
        """Drop the row's entry from the built index: its bbox, worked out
        again (a pure function of the row), finds the leaf entry."""
        bbox = self.columns.bbox(row)
        if bbox is not None:
            self.index.delete(row, bbox)

    def _reclaim(self) -> None:
        """Once dead rows (replaced or deleted) outnumber live ones, copy the
        live ones, in fid order, into fresh columns, and renumber the index's
        items to match. The old columns stay as they are, so a FeatureRecord
        on them still builds its document."""
        rows = self.rows
        if len(self.columns) > 2 * len(rows):
            if self.index is not None:
                new_row = array("i", [-1]) * len(self.columns)  # old row -> new; -1 if dead
                for new, old in enumerate(rows):
                    new_row[old] = new
                self.index.relabel(new_row)
            self.columns = self.columns.copy(rows)
            self.rows = array("i", range(len(rows)))

    def annotate(self, fid: str, ann: Annotation) -> None:
        row = self.row(fid)
        if ann.time_range is not None:
            if self.meta.media_type not in media.TIME_RANGE_KINDS:
                raise ParseError("time ranges apply to video annotations only")
            extent = TimeInterval(*self.columns.time_bounds(row))
            if not _fits(ann, extent):
                raise ParseError(
                    f"time range [{ann.time_range.start}, {ann.time_range.end}] "
                    f"outside feature extent [{extent.start}, {extent.end}]"
                )
        self.annotations.setdefault(fid, {})[ann.aid] = ann

    def annotations_of(self, fid: str) -> dict[str, Annotation]:
        self.row(fid)
        return self.annotations.get(fid, {})

    def annotation(self, fid: str, aid: str) -> Annotation:
        try:
            return self.annotations_of(fid)[aid]
        except KeyError:
            raise NotFoundError(f"annotation {aid!r} not on feature {fid!r}") from None


def _fits(ann: Annotation, extent: TimeInterval) -> bool:
    """Whether an annotation's time range, if it has one, lies within extent."""
    return ann.time_range is None or (
        extent.contains(ann.time_range.start) and extent.contains(ann.time_range.end))


class MediaStore:
    """Embedded feature store; stands in for a spatial DBMS layer."""

    def __init__(self, directory: str | Path | None = None):
        self._dir = Path(directory) if directory is not None else None
        self._collections: dict[str, _CollectionState] = {}
        self._lock = threading.RLock()
        self._pending: list[dict] = []  # {"op": method name, **its arguments}, not yet committed
        self._generation = 0  # of the manifest the log extends; 0 before the first flush
        self._snapshot_bytes = 0
        self._log_bytes = 0  # length of the log's whole records; 0 starts a new log

    def _queue(self, op: str, **args) -> None:
        if self._dir is not None:
            self._pending.append({"op": op, **args})

    @property
    def lock(self) -> threading.RLock:
        """The store lock, for a caller that makes one step of several calls."""
        return self._lock

    # -- collections ------------------------------------------------------

    def create_collection(
        self, cid: str, title: str, media_type: str, created: int | None = None
    ) -> Collection:
        with self._lock:
            created = int(time.time() * 1000) if created is None else created
            meta = Collection(cid, title, media_type, created)
            self._add_collection(meta)
            self._queue("create_collection", cid=cid, title=title, media_type=media_type,
                        created=meta.created)
            return meta

    def delete_collection(self, cid: str) -> None:
        with self._lock:
            if cid not in self._collections:
                raise NotFoundError(f"collection {cid!r} does not exist")
            del self._collections[cid]
            self._queue("delete_collection", cid=cid)

    def get_collection(self, cid: str) -> Collection:
        with self._lock:
            return self._state(cid).meta

    def list_collections(self) -> list[Collection]:
        with self._lock:
            return [self._collections[cid].meta for cid in sorted(self._collections)]

    def _add_collection(self, meta: Collection, unparsed: dict | None = None) -> None:
        if meta.id in self._collections:
            raise DuplicateIdError(f"collection {meta.id!r} already exists")
        self._collections[meta.id] = _CollectionState(meta, unparsed)

    def _state(self, cid: str) -> _CollectionState:
        """The collection's state, its snapshot files parsed if they were not yet."""
        try:
            state = self._collections[cid]
        except KeyError:
            raise NotFoundError(f"collection {cid!r} does not exist") from None
        return state if state.unparsed is None else self._parse_collection(state)

    # -- features ----------------------------------------------------------

    def put_feature(self, cid: str, fid: str, doc: GeoMediaDocument) -> FeatureRecord:
        with self._lock:
            state = self._state(cid)
            state.put(fid, doc)
            self._queue("put_feature", cid=cid, fid=fid, doc=doc)
            return state.record(fid)

    def get_feature(self, cid: str, fid: str) -> FeatureRecord:
        with self._lock:
            return self._state(cid).record(fid)

    def delete_feature(self, cid: str, fid: str) -> None:
        with self._lock:
            self._state(cid).drop(fid)
            self._queue("delete_feature", cid=cid, fid=fid)

    def has_feature(self, cid: str, fid: str) -> bool:
        with self._lock:
            return self._state(cid).locate(fid)[1]

    def feature_count(self, cid: str) -> int:
        with self._lock:
            return len(self._state(cid).rows)

    # -- spatial index plus exact time filter ----------------------------------

    def st_query(
        self,
        cid: str,
        bbox: Bbox | list[Bbox] | None = None,
        interval: TimeInterval | tuple[int, int] | None = None,
        visible_from: GeoPoint | None = None,
    ) -> list[FeatureRecord]:
        """Features intersecting bbox (one box, or a list of boxes that a
        feature must each meet) and overlapping interval, ordered by fid.

        visible_from adds the box around that point out to the columns'
        view reach: no camera sees farther than that past its feature's bbox
        (a video's bbox holds its positions, a photo's all it sees), so a
        feature that sees the point meets it.

        The index holds each feature's exact bbox and tests every box,
        smallest first, under the same inclusive test, so its hits need no
        re-check; the interval is checked per hit. The result equals a
        linear scan.
        """
        if isinstance(bbox, list) and all(isinstance(b, (list, tuple)) for b in bbox):
            boxes = [_check_bbox(b) for b in bbox]
        else:
            boxes = [] if bbox is None else [_check_bbox(bbox)]
        interval = _check_interval(interval)
        with self._lock:
            state = self._state(cid)
            columns = state.columns
            if visible_from is not None:
                boxes.append(disk_bbox(visible_from, columns.reach))
            boxes.sort(key=lambda b: (b[2] - b[0]) * (b[3] - b[1]))
            # the index's hits come in no order; the live rows in fid order
            rows = state.spatial_index().search(*boxes) if boxes else state.rows
            if interval is not None:
                rows = columns.meeting(rows, interval.start, interval.end)
            if visible_from is not None:
                rows = [row for row in rows if columns.may_see(row, visible_from)]
            found = zip(map(columns.fid, rows), rows)
            return [FeatureRecord(fid, columns, row)
                    for fid, row in (sorted(found) if boxes else found)]

    def collection_bbox(self, cid: str) -> Bbox | None:
        """Bounds of every feature's bbox: the index root's rectangle."""
        with self._lock:
            return self._state(cid).spatial_index().bounds()

    def collection_extent(self, cid: str) -> TimeInterval | None:
        """The span from the earliest start to the latest end of any feature;
        worked out again only after a replacement or delete."""
        with self._lock:
            state = self._state(cid)
            if not state.rows:
                return None
            if state.bounds is None:
                state.bounds = state.columns.time_span(state.rows)
            return TimeInterval(*state.bounds)

    # -- annotations -----------------------------------------------------------

    def put_annotation(self, cid: str, fid: str, ann: Annotation) -> Annotation:
        with self._lock:
            self._state(cid).annotate(fid, ann)
            self._queue("put_annotation", cid=cid, fid=fid, ann=ann)
            return ann

    def list_annotations(self, cid: str, fid: str) -> list[Annotation]:
        with self._lock:
            anns = self._state(cid).annotations_of(fid)
            return [anns[aid] for aid in sorted(anns)]

    def get_annotation(self, cid: str, fid: str, aid: str) -> Annotation:
        with self._lock:
            return self._state(cid).annotation(fid, aid)

    def delete_annotation(self, cid: str, fid: str, aid: str) -> None:
        with self._lock:
            state = self._state(cid)
            state.annotation(fid, aid)
            del state.annotations[fid][aid]
            self._queue("delete_annotation", cid=cid, fid=fid, aid=aid)

    # -- durability ---------------------------------------------------------------

    def commit(self) -> None:
        """Make every queued mutation durable before returning; with none
        queued (always so for a store without a directory) it does nothing.

        Appends one checksummed record per queued op to the log and fsyncs
        it, and the directory too when the log is new. A store with no
        snapshot of its own yet, or one whose log would outgrow the
        compaction trigger, is flushed instead. On StoreIoError the log is
        cut back to its acknowledged records where it can be, and the store
        reopens itself from its directory with open(), so memory holds what
        a restart would find and each collection is parsed again only when a
        method next needs it; if that reopen fails too, memory stays as it is.
        """
        with self._lock:
            try:
                self._commit_locked()
            except StoreIoError:
                with contextlib.suppress(GeoMediaError):  # unreadable too: keep memory
                    fresh = MediaStore.open(self._dir)
                    fresh._lock = self._lock  # a caller may hold it across this commit
                    vars(self).update(vars(fresh))
                raise

    def _commit_locked(self) -> None:
        if not self._pending:
            return
        if not self._generation:
            self.flush()
            return
        header = b"" if self._log_bytes else disk.log_line({"snapshot": self._generation})
        data = header + b"".join(disk.log_line(_op_obj(op)) for op in self._pending)
        trigger = max(_COMPACT_MIN_BYTES, self._snapshot_bytes // _COMPACT_SHARE)
        if self._log_bytes + len(data) > trigger:
            self.flush()
            return
        try:  # append cuts off a torn tail, or a log that an older flush left
            disk.append(self._dir / disk.LOG, self._log_bytes, data)
            if not self._log_bytes:
                disk.fsync_dir(self._dir)
        except OSError as exc:
            with contextlib.suppress(OSError):  # back to the acknowledged records
                disk.append(self._dir / disk.LOG, self._log_bytes, b"")
            raise StoreIoError(f"commit failed: {exc}") from exc
        self._log_bytes += len(data)
        self._pending.clear()

    def flush(self) -> Path:
        """Compact: write the whole store as a new snapshot and drop the log.

        The files of every parsed collection are staged, fsynced and renamed
        to the next generation's names, which no manifest holds; the
        manifest's rename then commits, and the directory is fsynced. So an
        interruption leaves the old snapshot or the new one. A never-parsed
        collection keeps its files, which must still match their CRC-32s
        (else CorruptStoreError before any rename). Staged files left by a
        failed flush are removed. Memory names the new snapshot once the
        manifest is renamed in; once the directory is fsynced the flush has
        succeeded, even if the old log or data files cannot be removed.
        """
        with self._lock:
            if self._dir is None:
                raise StoreIoError("store has no directory to flush to")
            try:
                self._flush_locked()
            except OSError as exc:
                raise StoreIoError(f"flush failed: {exc}") from exc
            finally:
                # what this flush staged but did not rename, and what an
                # earlier one's crash left
                for stray in self._dir.glob("*.tmp"):
                    with contextlib.suppress(OSError):
                        disk.unlink(stray)
            return self._dir

    def _flush_locked(self) -> None:
        target = self._dir
        target.mkdir(parents=True, exist_ok=True)
        generation = self._generation + 1
        staged: list[tuple[Path, Path]] = []
        entries = []
        size = 0
        for cid in sorted(self._collections):
            state = self._collections[cid]
            if state.unparsed is not None:
                size += self._checked_size(state.unparsed)  # never parsed: as open() checked it
                entries.append(state.unparsed)
                continue
            columns, rows = state.columns, state.rows
            features_path, anns_path = map(target.joinpath, disk.snapshot_names(cid, generation))
            features_tmp, features_crc, features_size = disk.stage(features_path, disk.ndjson_gz(
                {"fid": columns.fid(row), "document": document_to_obj(columns.document(row),
                                                                      "epoch")}
                for row in rows))
            anns_tmp, anns_crc, anns_size = disk.stage(anns_path, disk.ndjson_gz(
                {"fid": fid, **annotation_to_obj(anns[aid], "epoch")}
                for fid, anns in sorted(state.annotations.items())
                for aid in sorted(anns)))
            staged += [(features_tmp, features_path), (anns_tmp, anns_path)]
            meta = state.meta
            entries.append({"id": meta.id, "title": meta.title, "mediaType": meta.media_type,
                            "created": meta.created, "features": len(rows),
                            "generation": generation,
                            "crc32": {"features": features_crc, "annotations": anns_crc}})
            size += features_size + anns_size
        manifest = {"version": _FORMAT_VERSION, "generation": generation, "collections": entries}
        manifest_tmp, _, manifest_size = disk.stage(
            target / _MANIFEST, [(json.dumps(manifest, indent=2) + "\n").encode("utf-8")])
        for tmp, final in staged:
            disk.rename(tmp, final)  # to a name no manifest holds: this commits nothing
        disk.rename(manifest_tmp, target / _MANIFEST)
        # Committed, so memory names the new snapshot before anything else can
        # fail. Failing to remove the old one's garbage does not fail the flush:
        # open ignores a log that names an older generation, and the next commit
        # truncates it; open reads no file that the manifest does not name.
        self._generation = generation
        self._snapshot_bytes = size + manifest_size
        self._log_bytes = 0
        self._pending.clear()
        disk.fsync_dir(target)
        keep = {_MANIFEST}.union(*(disk.snapshot_names(entry["id"], entry["generation"])
                                   for entry in entries))
        for path in [target / disk.LOG, *target.glob("*.ndjson.gz")]:
            if path.name not in keep:
                with contextlib.suppress(OSError):
                    disk.unlink(path, missing_ok=True)

    @classmethod
    def open(cls, directory: str | Path) -> "MediaStore":
        """Open a store from its snapshot plus its log, parsing a collection's
        files only when a method first needs its features.

        Every snapshot file's CRC-32 is checked here, so a missing or
        altered file is CorruptStoreError before anything is parsed; a
        malformed line is CorruptStoreError from the method that parses its
        collection. Reads only: a torn log tail is skipped here and cut off
        by the next commit().
        """
        target = Path(directory)
        manifest_path = target / _MANIFEST
        if not manifest_path.is_file():
            raise StoreIoError(f"no store manifest at {manifest_path}")
        try:
            manifest_bytes = manifest_path.read_bytes()
            manifest = json.loads(manifest_bytes)
        except (OSError, ValueError) as exc:
            raise CorruptStoreError(f"unreadable manifest: {exc}") from None
        version = manifest.get("version") if isinstance(manifest, dict) else None
        if version != _FORMAT_VERSION:
            raise CorruptStoreError(
                f"unsupported store version {version!r} in {manifest_path}: this geomedia "
                f"reads version {_FORMAT_VERSION} (<cid>.<g>.ndjson.gz, checked by CRC-32) only")
        store = cls(target)
        size = len(manifest_bytes)
        generation = store._generation = manifest.get("generation")
        if type(generation) is not int or generation < 1:  # type(), not isinstance: True == 1
            raise CorruptStoreError(f"bad manifest: generation {generation!r} is not an int >= 1")
        entries = manifest.get("collections", [])
        if not isinstance(entries, list):
            raise CorruptStoreError(f"bad manifest: 'collections' must be a list, got {entries!r}")
        for entry in entries:
            size += store._open_collection(entry)
        store._snapshot_bytes = size
        store._replay(target / disk.LOG)
        return store

    @classmethod
    def load(cls, directory: str | Path) -> "MediaStore":
        """Rebuild a store (including indexes) from its snapshot plus its log.

        open() followed by parsing every collection, so a malformed line
        anywhere is CorruptStoreError here.
        """
        store = cls.open(directory)
        for cid in list(store._collections):
            store._state(cid)
        return store

    def _replay(self, path: Path) -> None:
        """Apply the log's whole records through the methods that queued them."""
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return
        except OSError as exc:
            raise CorruptStoreError(f"unreadable {disk.LOG}: {exc}") from None
        records, size = disk.whole_records(data)
        if not records:
            return
        generation = records[0].get("snapshot")
        if type(generation) is not int:
            raise CorruptStoreError(f"{disk.LOG} does not start with its snapshot record")
        if generation != self._generation:
            return  # left by a flush that crashed before dropping it; its ops are in the snapshot
        for n, rec in enumerate(records[1:], 2):
            try:
                _apply(self, rec)
            except CorruptStoreError:
                raise  # from parsing the snapshot files the record touched, not the record
            except _MALFORMED as exc:
                raise CorruptStoreError(f"{disk.LOG} record {n}: {exc}") from None
        self._pending.clear()
        self._log_bytes = size

    def _open_collection(self, entry: dict) -> int:
        """Add one collection unparsed, as create_collection would, and check its
        snapshot files against the manifest entry; returns their size in bytes."""
        try:
            meta = Collection(entry["id"], entry["title"], entry["mediaType"], entry["created"])
            count, generation = entry["features"], entry["generation"]
            if type(count) is not int or count < 0:
                raise ValueError(f"feature count {count!r} is not a non-negative integer")
            if type(generation) is not int or not 0 < generation <= self._generation:
                raise ValueError(f"generation {generation!r} is not an int in 1-{self._generation}")
            self._add_collection(meta, entry)
            return self._checked_size(entry)
        except CorruptStoreError:
            raise  # a file that does not match the entry
        except _MALFORMED as exc:
            raise CorruptStoreError(f"bad manifest entry: {exc}") from None

    def _checked_size(self, entry: dict) -> int:
        """The size of a manifest entry's files, each checked against its CRC-32."""
        return sum(disk.checked_size(self._dir / name, entry["crc32"][kind]) for name, kind in
                   zip(disk.snapshot_names(entry["id"], entry["generation"]),
                       ("features", "annotations")))

    def _parse_collection(self, state: _CollectionState) -> _CollectionState:
        """Parse the snapshot files open() checked, each line through the put or
        annotate that wrote it, into a fresh indexed state that takes state's
        place once whole: after a failed parse the collection stays unparsed."""
        meta, unparsed = state.meta, state.unparsed
        fresh = _CollectionState(meta)
        features_name, anns_name = disk.snapshot_names(meta.id, unparsed["generation"])
        crcs = unparsed["crc32"]
        feature_lines = disk.checked_lines(self._dir / features_name, crcs["features"])
        ann_lines = disk.checked_lines(self._dir / anns_name, crcs["annotations"])
        with contextlib.closing(feature_lines), contextlib.closing(ann_lines):
            for line_no, line in feature_lines:
                try:
                    wrapper = decode_json(line)
                    fresh.put(wrapper["fid"], parse_obj(wrapper["document"]))
                except _MALFORMED as exc:
                    raise CorruptStoreError(f"{features_name} line {line_no}: {exc}") from None
            if len(fresh.rows) != unparsed["features"]:
                raise CorruptStoreError(
                    f"{meta.id}: manifest says {unparsed['features']} features, "
                    f"file has {len(fresh.rows)}"
                )
            for line_no, line in ann_lines:
                try:
                    obj = decode_json(line)
                    fresh.annotate(obj["fid"], annotation_from_obj(obj, "epoch"))
                except _MALFORMED as exc:
                    raise CorruptStoreError(f"{anns_name} line {line_no}: {exc}") from None
        fresh.spatial_index()
        self._collections[meta.id] = fresh
        return fresh


# The MediaStore methods a log record may name; its other fields are their arguments.
_OPS = frozenset({"create_collection", "delete_collection", "put_feature", "delete_feature",
                  "put_annotation", "delete_annotation"})


def _op_obj(op: dict) -> dict:
    """The log record of one queued op: its document or annotation as JSON."""
    rec = dict(op)
    if "doc" in rec:
        rec["doc"] = document_to_obj(rec["doc"], "epoch")
    if "ann" in rec:
        rec["ann"] = annotation_to_obj(rec["ann"], "epoch")
    return rec


def _apply(store: MediaStore, rec: dict) -> None:
    """Replay one log record (see _op_obj) through the method that queued it."""
    op = rec.pop("op")
    if op not in _OPS:
        raise ValueError(f"unknown op {op!r}")
    if "doc" in rec:
        rec["doc"] = parse_obj(rec["doc"])
    if "ann" in rec:
        rec["ann"] = annotation_from_obj(rec["ann"], "epoch")
    getattr(store, op)(**rec)


def _check_bbox(bbox) -> Bbox | None:
    if bbox is None:
        return None
    try:
        min_lon, min_lat, max_lon, max_lat = (float(v) for v in bbox)
    except (TypeError, ValueError, OverflowError):
        raise BadQueryError(f"bbox must be four numbers, got {bbox!r}") from None
    if not all(map(math.isfinite, (min_lon, min_lat, max_lon, max_lat))):
        raise BadQueryError(f"bbox members must be finite, got {bbox!r}")
    if min_lon > max_lon or min_lat > max_lat:
        raise BadQueryError(f"inverted bbox {bbox!r}")
    return (min_lon, min_lat, max_lon, max_lat)


def _check_interval(interval) -> TimeInterval | None:
    if interval is None or isinstance(interval, TimeInterval):
        return interval
    try:
        start, end = interval
        return TimeInterval(int(start), int(end))
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadQueryError(f"bad interval {interval!r}: {exc}") from None
