"""Exact spatio-temporal predicates and analysis over stored media.

evaluate() refines the store's index candidates with exact predicates, so
its results are identical to a linear scan; the index only buys speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import BadQueryError, NoTemporalOverlapError, WrongKindError
from .fov import FieldOfView, fov_contains, resolve_direction
from .geo import EARTH_RADIUS_M, GeoPoint, geo_distance
from .media import KIND_MOVING_VIDEO, KIND_STPHOTO, Bbox, MovingVideo, STPhoto, payload_of
from .store import FeatureRecord, MediaStore, _check_bbox, _check_interval, _check_page, page
from .temporal import InterpolationMode, MovingPoint, TimeInterval, TimeStamp


@dataclass(frozen=True)
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
        if self.near is not None and self.near[1] <= 0:
            raise BadQueryError(f"near radius must be > 0, got {self.near[1]}")
        _check_page(self.limit, self.offset)


class FovState(NamedTuple):
    """Camera position, resolved absolute direction, and FoV entry at one instant."""

    camera: GeoPoint
    direction: float
    fov: FieldOfView


def position_at(x, t: TimeStamp) -> GeoPoint:
    """Interpolated position of a trajectory or video at time t."""
    payload = payload_of(x)
    if isinstance(payload, MovingPoint):
        return payload.at(t)
    if isinstance(payload, MovingVideo):
        return payload.track.at(t)
    raise WrongKindError(f"{type(payload).__name__} has no evaluable position")


def fov_at(x, t: TimeStamp | None = None) -> FovState:
    """Camera, absolute direction, and FoV of a photo, or of a video at time t.

    A photo's camera is fixed, so t is ignored; a video needs t. Per-sample
    FoV lists select stepwise (the entry of the latest sample at or before
    t); mount-relative directions resolve against the track heading at t.
    """
    payload = payload_of(x)
    if isinstance(payload, STPhoto):
        return FovState(payload.loc, resolve_direction(payload.fov), payload.fov)
    if not isinstance(payload, MovingVideo):
        raise WrongKindError(f"{type(payload).__name__} has no field of view")
    if t is None:
        raise BadQueryError("a time ('at') is required for a moving video")
    camera = payload.track.at(t)
    fov = payload.fovs[payload.fov_index_at(t)]
    if fov.is_relative:
        direction = resolve_direction(fov, payload.track.heading_at(t))
    else:
        direction = resolve_direction(fov)
    return FovState(camera, direction, fov)


def visible_intervals(x, p: GeoPoint, sample_step_ms: int = 100) -> list[TimeInterval]:
    """Maximal time intervals during which p lies inside a photo's or video's FoV.

    A photo sees p at its one instant or never. A video is sampled at every
    track timestamp plus a sample_step_ms grid over the extent; interval
    boundaries are sample times, so they are accurate to within one step. A
    discrete track has positions only at its samples, so only those count.
    """
    if sample_step_ms < 1:
        raise BadQueryError(f"sample step must be >= 1 ms, got {sample_step_ms}")
    payload = payload_of(x)
    if isinstance(payload, STPhoto):
        state = fov_at(payload)
        if fov_contains(state.camera, state.direction, state.fov, p):
            return [TimeInterval(payload.t, payload.t)]
        return []
    if not isinstance(payload, MovingVideo):
        raise WrongKindError(f"{type(payload).__name__} has no field of view")
    if not _maybe_visible(payload, p):
        return []
    track = payload.track
    times = set(track.times)
    if track.mode is not InterpolationMode.DISCRETE:
        times.update(range(track.times[0], track.times[-1] + 1, sample_step_ms))
    out: list[TimeInterval] = []
    run_start = run_end = None
    for t in sorted(times):
        state = fov_at(payload, t)
        if fov_contains(state.camera, state.direction, state.fov, p):
            if run_start is None:
                run_start = t
            run_end = t
        elif run_start is not None:
            out.append(TimeInterval(run_start, run_end))
            run_start = run_end = None
    if run_start is not None:
        out.append(TimeInterval(run_start, run_end))
    return out


def _linear_at(mp: MovingPoint, t: TimeStamp) -> GeoPoint:
    """Linear-mode evaluation regardless of the track's own mode."""
    if mp.mode is not InterpolationMode.LINEAR:
        mp = MovingPoint(mp.times, mp.points, InterpolationMode.LINEAR)
    return mp.at(t)


def trajectory_similarity(a, b) -> float:
    """Mean separation in meters over the tracks' shared time window.

    Sampled at the union of both sample-time sets inside the overlap, with
    linear evaluation; symmetric by construction. A simple synchronized
    distance, not a view-based measure.
    """
    ta = payload_of(a)
    tb = payload_of(b)
    if not isinstance(ta, MovingPoint) or not isinstance(tb, MovingPoint):
        raise WrongKindError("similarity is defined between two trajectories")
    start = max(ta.times[0], tb.times[0])
    end = min(ta.times[-1], tb.times[-1])
    if start > end:
        raise NoTemporalOverlapError(
            f"extents [{ta.times[0]}, {ta.times[-1]}] and "
            f"[{tb.times[0]}, {tb.times[-1]}] do not overlap"
        )
    times = sorted(t for t in set(ta.times) | set(tb.times) if start <= t <= end)
    total = sum(geo_distance(_linear_at(ta, t), _linear_at(tb, t)) for t in times)
    return total / len(times)


def _maybe_visible(payload: MovingVideo, p: GeoPoint) -> bool:
    """Sound quick reject before the sampling sweep.

    The interpolated camera stays within one leg's path length of that leg's
    endpoints; the path length of a degree-space lerp is bounded by the
    meridian+parallel arc sum (raw degree differences, so longitude wrap
    costs what the lerp actually traverses). A point beyond every vertex's
    view distance plus that slack can never be visible.
    """
    pts = payload.track.points
    slack = 0.0
    for a, b in zip(pts, pts[1:]):
        arc = math.radians(abs(a.lat - b.lat)) + math.radians(abs(a.lon - b.lon))
        slack = max(slack, arc * EARTH_RADIUS_M)
    reach = max(f.view_distance for f in payload.fovs) + slack
    return any(geo_distance(v, p) <= reach for v in pts)


def evaluate(store: MediaStore, cid: str, spec: QuerySpec) -> list[FeatureRecord]:
    """Run a QuerySpec against one collection; ordered by fid, then paged."""
    meta = store.get_collection(cid)
    if spec.visible_from is not None and meta.media_type not in (
        KIND_STPHOTO,
        KIND_MOVING_VIDEO,
    ):
        raise WrongKindError(
            f"visibleFrom applies to photo/video collections, not {meta.media_type}"
        )
    out = []
    for record in store.st_query(cid, bbox=spec.bbox, interval=spec.interval):
        payload = record.doc.payload
        if spec.near is not None:
            point, radius = spec.near
            if not any(geo_distance(v, point) <= radius for v in payload.vertices()):
                continue
        if spec.visible_from is not None and not visible_intervals(payload, spec.visible_from):
            continue
        out.append(record)
    return page(out, spec.limit, spec.offset)
