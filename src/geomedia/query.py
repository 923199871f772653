"""Exact spatio-temporal predicates over stored media, query checks and paging.

evaluate() refines the store's index candidates with exact predicates, so
its results are identical to a linear scan; the index only buys speed.
decode_query_spec() and the parsers beside it turn WFS-style query strings
(the HTTP service's and the CLI's) into checked values.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .codec import geojson_point, geojson_polygon, interval_str, parse_datetime
from .errors import BadQueryError, ParseError, WrongKindError
from .fov import fov_sector_polygon
from .geo import GeoPoint, disk_bbox, geo_distance
from .media import CAMERA_KINDS, TRACK_KINDS, Bbox, FovState, payload_of_kind
from .store import FeatureRecord, MediaStore, _check_bbox, _check_interval
from .temporal import TimeInterval, TimeStamp


@dataclass(frozen=True, slots=True)
class QuerySpec:
    """Declarative feature query: spatial box, time window, proximity, visibility.

    The one place query arguments are checked: bbox shape and inversion,
    interval order (a (start, end) pair becomes a TimeInterval), near
    radius, limit and offset. Bad values raise BadQueryError.
    """

    bbox: Bbox | None = None
    interval: TimeInterval | tuple[int, int] | None = None
    near: tuple[GeoPoint, float] | None = None
    visible_from: GeoPoint | None = None
    limit: int | None = None
    offset: int = 0

    def __post_init__(self):
        object.__setattr__(self, "bbox", _check_bbox(self.bbox))
        object.__setattr__(self, "interval", _check_interval(self.interval))
        if self.near is not None and not 0 < self.near[1] < math.inf:
            raise BadQueryError(f"near radius must be finite and > 0, got {self.near[1]}")
        if self.limit is not None and self.limit < 1:
            raise BadQueryError(f"limit must be >= 1, got {self.limit}")
        if self.offset < 0:
            raise BadQueryError(f"offset must be >= 0, got {self.offset}")


_INT_RE = re.compile(r"-?[0-9]+")  # ASCII only: int() also takes "1_0", " 5" and "١٢"


def _int(raw: str, name: str) -> int:
    """raw, which _INT_RE matches, as an int. int() refuses a string of more
    digits than Python converts (4,300 by default) with ValueError."""
    try:
        return int(raw)
    except ValueError:
        raise BadQueryError(f"{name} has {len(raw.lstrip('-'))} digits, too many to read") from None


def parse_instant(raw: str) -> int:
    if _INT_RE.fullmatch(raw):
        return _int(raw, "time")
    try:
        return parse_datetime(raw)
    except ParseError as exc:
        raise BadQueryError(str(exc)) from None


def _parse_floats(raw: str, n: int, name: str) -> list[float]:
    parts = raw.split(",")
    if len(parts) != n:
        raise BadQueryError(f"{name} needs {n} comma-separated numbers, got {raw!r}")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise BadQueryError(f"{name} needs numbers, got {raw!r}") from None


def parse_lonlat(raw: str, name: str) -> GeoPoint:
    lon, lat = _parse_floats(raw, 2, name)
    try:
        return GeoPoint(lon, lat)
    except ValueError as exc:
        raise BadQueryError(f"bad {name}: {exc}") from None


def _parse_int(raw: str, name: str) -> int:
    if not _INT_RE.fullmatch(raw):
        raise BadQueryError(f"{name} must be an integer, got {raw!r}")
    return _int(raw, name)


def decode_query_spec(params: dict[str, str]) -> QuerySpec:
    """Turn WFS-style query strings into a QuerySpec, which checks the values."""
    bbox = _parse_floats(params["bbox"], 4, "bbox") if "bbox" in params else None
    interval = None
    if "datetime" in params:
        start, sep, end = params["datetime"].partition("/")
        lo = parse_instant(start)
        interval = (lo, parse_instant(end) if sep else lo)
    near = None
    if "near" in params:
        lon, lat, radius = _parse_floats(params["near"], 3, "near")
        try:
            near = (GeoPoint(lon, lat), radius)
        except ValueError as exc:
            raise BadQueryError(f"bad near point: {exc}") from None
    visible_from = None
    if "visibleFrom" in params:
        visible_from = parse_lonlat(params["visibleFrom"], "visibleFrom")
    limit = _parse_int(params["limit"], "limit") if "limit" in params else None
    offset = _parse_int(params["offset"], "offset") if "offset" in params else 0
    return QuerySpec(bbox=bbox, interval=interval, near=near,
                     visible_from=visible_from, limit=limit, offset=offset)


def page(items: list, limit: int | None, offset: int) -> list:
    """items[offset:offset + limit]; no limit means everything from offset on."""
    return items[offset:] if limit is None else items[offset : offset + limit]


def position_at(x, t: TimeStamp) -> GeoPoint:
    """Interpolated position of a trajectory or video at time t."""
    return payload_of_kind(x, TRACK_KINDS, "evaluable position").at(t)


def position_obj(x, t: TimeStamp) -> dict:
    """position_at as a GeoJSON Point: the answer of GET .../position and
    `geomedia at`."""
    return geojson_point(position_at(x, t))


def fov_at(x, t: TimeStamp | None = None) -> FovState:
    """Camera, absolute direction, and FoV of a photo, or of a video at time t.

    A photo's camera is fixed, so t is ignored; a video needs t. Per-sample
    FoV lists select stepwise (the entry of the latest sample at or before
    t); mount-relative directions resolve against the track heading at t.
    """
    return payload_of_kind(x, CAMERA_KINDS, "field of view").fov_at(t)


def fov_obj(x, t: TimeStamp | None = None, arc_step_deg: float = 5.0) -> dict:
    """fov_at's wedge as a GeoJSON Polygon (see fov.fov_sector_polygon): the
    answer of GET .../fov and `geomedia fov`."""
    state = fov_at(x, t)
    return geojson_polygon(
        fov_sector_polygon(state.camera, state.direction, state.fov, arc_step_deg))


def visible_intervals(x, p: GeoPoint, sample_step_ms: int = 100) -> list[TimeInterval]:
    """Maximal time intervals during which p lies inside a photo's or video's FoV.

    A photo sees p at its one instant or never. A video is sampled at its
    track timestamps plus a sample_step_ms grid (MovingVideo.visible_intervals),
    so interval boundaries are accurate to within one step.
    """
    if sample_step_ms < 1:
        raise BadQueryError(f"sample step must be >= 1 ms, got {sample_step_ms}")
    return payload_of_kind(x, CAMERA_KINDS, "field of view").visible_intervals(p, sample_step_ms)


def visible_obj(x, p: GeoPoint) -> dict:
    """visible_intervals as {"intervals": [ISO "start/end", ...]}: the answer
    of GET .../visible and `geomedia visible`."""
    return {"intervals": [interval_str(iv) for iv in visible_intervals(x, p)]}


def evaluate(store: MediaStore, cid: str, spec: QuerySpec) -> list[FeatureRecord]:
    """Run a QuerySpec against one collection; ordered by fid, then paged.

    A feature can only match if its bbox meets every box of the query: the
    given bbox, the box around near's disk (a matching vertex lies inside the
    feature's bbox) and the box around visibleFrom's point out to the
    collection's view reach (no camera sees farther past its bbox; st_query
    builds that box). The store's index is searched with all of them, and the
    exact predicates decide; a document is built only for them. A query with
    none of the boxes reads the whole collection.
    """
    meta = store.get_collection(cid)
    if spec.visible_from is not None and meta.media_type not in CAMERA_KINDS:
        raise WrongKindError(
            f"visibleFrom applies to photo/video collections, not {meta.media_type}"
        )
    boxes = [] if spec.bbox is None else [spec.bbox]
    if spec.near is not None:
        boxes.append(disk_bbox(*spec.near))
    candidates = store.st_query(cid, bbox=boxes, interval=spec.interval,
                                visible_from=spec.visible_from)
    out = []
    for record in candidates:
        if spec.near is not None:
            point, radius = spec.near
            if not any(geo_distance(v, point) <= radius for v in record.doc.payload.vertices()):
                continue
        if (spec.visible_from is not None
                and not visible_intervals(record.doc.payload, spec.visible_from)):
            continue
        out.append(record)
    return page(out, spec.limit, spec.offset)
