"""Geo-tagged media records, what each kind can answer, and the extent/bbox views.

Four kinds exist: "MovingPoint" (GPS trajectory), "MovingDouble" (sensor
series), "stphoto" (single photo with a field of view), and "MovingVideo"
(track plus per-sample or constant fields of view). The lowercase "stphoto"
tag is intentional; it is the wire spelling.

A kind's behaviour lives here and its wire shape in codec.py; query, store,
service and cli ask this module what a kind can do.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import starmap
from typing import NamedTuple

from .errors import BadQueryError, WrongKindError
from .fov import FieldOfView, fov_contains, resolve_direction
from .geo import EARTH_RADIUS_M, GeoPoint, angle_between, destination, disk_bbox
from .temporal import (MAX_TIME, MIN_TIME, InterpolationMode, MovingDouble, MovingPoint,
                        PositionColumns, TimeInterval, TimeStamp)

KIND_MOVING_POINT = "MovingPoint"
KIND_MOVING_DOUBLE = "MovingDouble"
KIND_STPHOTO = "stphoto"
KIND_MOVING_VIDEO = "MovingVideo"

# What a kind can answer: a camera (its class's fov_at, visible_intervals and
# view_reach), a position track (position_at), and annotations with a time range.
CAMERA_KINDS = frozenset({KIND_STPHOTO, KIND_MOVING_VIDEO})
TRACK_KINDS = frozenset({KIND_MOVING_POINT, KIND_MOVING_VIDEO})
TIME_RANGE_KINDS = frozenset({KIND_MOVING_VIDEO})

Bbox = tuple[float, float, float, float]


class FovState(NamedTuple):
    """Camera position, resolved absolute direction, and FoV entry at one instant."""

    camera: GeoPoint
    direction: float
    fov: FieldOfView


@dataclass(frozen=True, slots=True)
class STPhoto:
    """A geo-tagged photo: image URI, camera position, capture time, field of view.

    Photo directions are absolute compass bearings; a mount-relative
    direction has nothing to resolve against in a single shot.
    """

    imguri: str
    loc: GeoPoint
    t: TimeStamp
    fov: FieldOfView = FieldOfView()

    def __post_init__(self):
        if not self.imguri:
            raise ValueError("imguri must be non-empty")
        if self.fov.is_relative:
            raise ValueError("photo FoV direction must be absolute (>= 0)")
        t = self.t
        if isinstance(t, bool) or not isinstance(t, int) or not MIN_TIME <= t <= MAX_TIME:
            raise ValueError(f"photo time {t!r} is not an integer in years 1-9999")

    def time_extent(self) -> TimeInterval:
        return TimeInterval(*self.time_bounds())

    def time_bounds(self) -> tuple[TimeStamp, TimeStamp]:
        return self.t, self.t

    def vertices(self) -> tuple[GeoPoint, ...]:
        return (self.loc,)

    def spatial_bbox(self) -> Bbox:
        """Bounds of the camera and the whole wedge it sees, in closed form.

        The wedge's extremes lie on its arc or its two radii. Along a radius
        longitude is monotone, and latitude grows as cos(bearing) does, up
        to the great circle's turning point (its vertex). So latitude peaks
        on the radius nearest north (bearing 0 if it is in the wedge) and
        bottoms out on the one nearest south, at the arc or at that radius's
        vertex. Along the arc longitude peaks at the tangent bearings theta*
        and 360 - theta*, cos(theta*) = tan(delta) * tan(phi). A view circle
        that reaches a pole spans every longitude, and so does a wedge that
        crosses the antimeridian, and a view distance of a quarter of the
        earth or more the whole globe.
        """
        camera, fov = self.loc, self.fov
        delta = fov.view_distance / EARTH_RADIUS_M
        if delta >= math.pi / 2:
            return (-180.0, -90.0, 180.0, 90.0)
        direction, half = resolve_direction(fov), fov.h_angle / 2.0
        edges = () if fov.h_angle == 360.0 else (direction - half, direction + half)

        def inside(b: float) -> bool:
            return not edges or angle_between(b, direction) <= half

        def cos_deg(b: float) -> float:
            return math.cos(math.radians(b))

        north = 0.0 if inside(0.0) else max(edges, key=cos_deg)
        south = 180.0 if inside(180.0) else min(edges, key=cos_deg)
        arc = dict.fromkeys((*edges, north, south))
        points = [camera, *(destination(camera, b, fov.view_distance) for b in arc)]
        phi = math.radians(camera.lat)
        for b, turn in ((north, 0.0), (south, math.pi)):
            # the radius's latitude is extreme where tan(s) = cos(phi) cos(b) / sin(phi)
            s = math.atan2(math.cos(phi) * cos_deg(b), math.sin(phi)) + turn
            if 0.0 < s < delta:
                points.append(destination(camera, b, s * EARTH_RADIUS_M))
        lats = [p.lat for p in points]
        tangent = math.tan(delta) * math.tan(phi)
        if abs(tangent) >= 1.0:
            return (-180.0, min(lats), 180.0, max(lats))
        theta = math.degrees(math.acos(tangent))
        points += [destination(camera, b, fov.view_distance) for b in (theta, 360.0 - theta)
                   if inside(b)]
        # east of the camera, in (-180, 180]: no wedge spans half the globe here
        east = [(p.lon - camera.lon + 180.0) % 360.0 - 180.0 for p in points]
        min_lon, max_lon = camera.lon + min(east), camera.lon + max(east)
        if min_lon < -180.0 or max_lon > 180.0:
            return (-180.0, min(lats), 180.0, max(lats))
        lons = [p.lon for p in points]
        return (min(lons), min(lats), max(lons), max(lats))

    def view_reach(self) -> float:
        """How far the camera sees, in meters."""
        return self.fov.view_distance

    def fov_at(self, t: TimeStamp | None = None) -> FovState:
        """The fixed camera; t is ignored."""
        return FovState(self.loc, resolve_direction(self.fov), self.fov)

    def visible_intervals(self, p: GeoPoint, step_ms: int) -> list[TimeInterval]:
        """A photo sees p at its one instant or never; step_ms is not used."""
        if fov_contains(self.loc, resolve_direction(self.fov), self.fov, p):
            return [TimeInterval(self.t, self.t)]
        return []


def _pack_fovs(fovs) -> array:
    """FieldOfViews as one array('d') column: h_angle, v_angle, direction2d
    and view_distance of each in turn."""
    return array("d", [x for f in fovs
                       for x in (f.h_angle, f.v_angle, f.direction2d, f.view_distance)])


@dataclass(frozen=True, slots=True, init=False, repr=False)
class MovingVideo:
    """A geo-tagged video: URI, camera track, and one FoV per sample (or one for all).

    The FoVs are held as one array('d') column (see _pack_fovs), never
    mutated; fovs builds a tuple of FieldOfViews on each access.
    """

    videouri: str
    track: MovingPoint
    _fov_column: array

    def __init__(self, videouri: str, track: MovingPoint,
                 fovs: Iterable[FieldOfView] = (FieldOfView(),)):
        self._set(videouri, track, _pack_fovs(fovs))

    @classmethod
    def from_column(cls, videouri: str, track: MovingPoint, fov_column: array) -> "MovingVideo":
        """A video over a column of valid FoVs (see fov.check_fov), laid out as
        _pack_fovs lays them out, checked as __init__ checks it."""
        video = object.__new__(cls)
        video._set(videouri, track, fov_column)
        return video

    def _set(self, videouri: str, track: MovingPoint, column: array) -> None:
        object.__setattr__(self, "videouri", videouri)
        object.__setattr__(self, "track", track)
        object.__setattr__(self, "_fov_column", column)
        if not videouri:
            raise ValueError("videouri must be non-empty")
        if len(column) // 4 not in (1, len(track)):
            raise ValueError(
                f"fov list length {len(column) // 4} is neither 1 nor the sample count"
            )
        if min(column[2::4]) < 0.0:
            min_lon, min_lat, max_lon, max_lat = track.spatial_bbox()
            if (min_lon, min_lat) == (max_lon, max_lat):
                # the direction resolves against the track heading, which a still track lacks
                raise ValueError("a mount-relative direction needs a moving track")

    @property
    def fovs(self) -> tuple[FieldOfView, ...]:
        return tuple(starmap(FieldOfView, self.fov_rows()))

    def fov_rows(self) -> Iterator[tuple[float, float, float, float]]:
        """h_angle, v_angle, direction2d and view_distance of each FoV in turn,
        without building a FieldOfView."""
        c = self._fov_column
        return zip(c[0::4], c[1::4], c[2::4], c[3::4])

    def __hash__(self):
        return hash((self.videouri, self.track, tuple(self._fov_column)))

    def __repr__(self) -> str:
        return f"MovingVideo(videouri={self.videouri!r}, track={self.track!r}, fovs={self.fovs!r})"

    def time_extent(self) -> TimeInterval:
        return self.track.time_extent()

    def time_bounds(self) -> tuple[TimeStamp, TimeStamp]:
        return self.track.time_bounds()

    def vertices(self) -> tuple[GeoPoint, ...]:
        return self.track.points

    def spatial_bbox(self) -> Bbox:
        return self.track.spatial_bbox()

    def at(self, t: TimeStamp) -> GeoPoint:
        """Camera position at time t."""
        return self.track.at(t)

    def view_reach(self) -> float:
        """The largest view distance of any of its FoVs, in meters."""
        return max(self._fov_column[3::4])

    def fov_at(self, t: TimeStamp | None) -> FovState:
        """Camera, absolute direction and FoV at time t; a video needs t."""
        if t is None:
            raise BadQueryError("a time ('at') is required for a moving video")
        return next(self.fov_states((t,)))

    def fov_states(self, times) -> Iterator[FovState]:
        """fov_at of each of times in turn. The FoV entry and the heading
        change only from one track segment to the next, so the FieldOfView
        and its direction are worked out once per run of times in a segment."""
        track, column = self.track, self._fov_column
        segment = None
        for t in times:
            camera = track.at(t)
            i = bisect_right(track.time_column, t) - 1
            if i != segment:
                segment = i
                j = 4 * i if len(column) > 4 else 0
                fov = FieldOfView(*column[j:j + 4])
                heading = track.heading_at(t) if fov.is_relative else None
                direction = resolve_direction(fov, heading)
            yield FovState(camera, direction, fov)

    def visible_intervals(self, p: GeoPoint, step_ms: int) -> list[TimeInterval]:
        """Maximal runs of the instants tested at which p is in view: the track's
        sample times plus a step_ms grid over its extent, or on a discrete
        track, which has positions only at its samples, those alone."""
        if not _reaches(p, self.view_reach(), self.track.spatial_bbox()):
            return []
        column = self.track.time_column
        times = set(column)
        if self.track.mode is not InterpolationMode.DISCRETE:
            times.update(range(column[0], column[-1] + 1, step_ms))
        times = sorted(times)
        out: list[TimeInterval] = []
        run_start = run_end = None
        for t, state in zip(times, self.fov_states(times)):
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


def _reaches(p: GeoPoint, reach: float, bbox: Bbox) -> bool:
    """Whether a camera that sees no farther than reach past bbox, which holds
    its positions, can see p at all: the box around p out to reach must meet
    bbox (the rule evaluate() searches the index by)."""
    lo_lon, lo_lat, hi_lon, hi_lat = disk_bbox(p, reach)
    min_lon, min_lat, max_lon, max_lat = bbox
    return lo_lon <= max_lon and min_lon <= hi_lon and lo_lat <= max_lat and min_lat <= hi_lat


MediaPayload = MovingPoint | MovingDouble | STPhoto | MovingVideo

_KIND_BY_TYPE = {
    MovingPoint: KIND_MOVING_POINT,
    MovingDouble: KIND_MOVING_DOUBLE,
    STPhoto: KIND_STPHOTO,
    MovingVideo: KIND_MOVING_VIDEO,
}
KINDS = tuple(_KIND_BY_TYPE.values())


def kind_of(payload: MediaPayload) -> str:
    """Wire-format kind tag for a media value."""
    try:
        return _KIND_BY_TYPE[type(payload)]
    except KeyError:
        raise TypeError(f"not a media payload: {type(payload).__name__}") from None


@dataclass(frozen=True, slots=True)
class GeoMediaDocument:
    """A media value plus its kind tag and any unrecognized top-level members."""

    kind: str
    payload: MediaPayload
    extras: tuple[tuple[str, object], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "extras", tuple(self.extras))
        if self.kind != kind_of(self.payload):
            raise ValueError(f"kind {self.kind!r} does not match payload type")


def document_of(payload: MediaPayload) -> GeoMediaDocument:
    return GeoMediaDocument(kind_of(payload), payload)


_MODES = tuple(InterpolationMode)
_MODE_CODES = {mode: code for code, mode in enumerate(_MODES)}


class Columns:
    """The documents of one collection as one set of columns, a row each.

    A row never changes once written: add() appends one, and a collection
    whose rows are mostly dead copies its live ones into fresh Columns (see
    store.py). So (columns, row) names one document for good, and
    document() builds it on request from slices of the columns through each
    kind's own constructor (MovingPoint.from_columns and the like), which
    checks them as it checks any other; a time filter and a bounding box
    read the row's columns (time_bounds, meeting, time_span, bbox) without
    building it.
    add() only appends, so an earlier row's document can be built while
    another thread adds a row: each array operation is atomic under the
    interpreter lock.

    Row r's samples are times[starts[r]:starts[r + 1]] (array('q')), with
    their values (a series) or positions (lons and lats, array('d'); a
    photo has one sample) in step. A run that a row may lack has starts of
    its own and is empty where the row has none: altitudes (alt_starts), a
    series' positions (pos_starts) and a video's FoVs (fov_starts, four
    numbers each; a photo's four are at 4 * r). These four offset columns
    are 4-byte array('i')s: no collection can hold 2**31 samples in memory
    (each takes 24 bytes or more). Each row's feature id, and a camera's
    URI, is UTF-8 in one bytearray (ids, uris) with 8-byte offsets
    (id_starts, uri_starts), so the collection holds no str per row; the
    'surrogatepass' error handler lets every str through, lone surrogates
    too, and UTF-8 bytes sort as the str does, so a list of rows in fid
    order is searched by the bytes (locate). A series has a mode code per
    row, and extras holds the extra members of the rows that have any.
    reach is the farthest that a row ever added sees past its bbox: a
    video's view reach, while a photo's bbox holds all it sees (see
    STPhoto.spatial_bbox), so a photo adds none.
    How each kind packs into these columns sits below, by kind.
    """

    __slots__ = ("kind", "starts", "times", "values", "lons", "lats", "pos_starts",
                 "alts", "alt_starts", "fovs", "fov_starts", "modes", "ids", "id_starts",
                 "uris", "uri_starts", "extras", "reach")

    def __init__(self, kind: str):
        self.kind = kind
        self.starts, self.pos_starts, self.alt_starts, self.fov_starts = (
            array("i", [0]) for _ in range(4))
        self.times = array("q")
        self.values, self.lons, self.lats, self.alts, self.fovs = (array("d") for _ in range(5))
        self.modes = array("B")
        self.ids, self.uris = bytearray(), bytearray()
        self.id_starts, self.uri_starts = array("q", [0]), array("q", [0])
        self.extras: dict[int, tuple] = {}
        self.reach = 0.0

    def __len__(self) -> int:
        return len(self.starts) - 1

    def add(self, fid: str, doc: GeoMediaDocument) -> int:
        """Append doc, whose kind is this collection's, as a new row under
        fid; its number."""
        row = len(self)
        _LAYOUTS[self.kind][0](self, doc.payload)
        _add_text(self.ids, self.id_starts, fid)
        if doc.extras:
            self.extras[row] = doc.extras
        return row

    def document(self, row: int) -> GeoMediaDocument:
        """The row's document, built from its slices of the columns."""
        return GeoMediaDocument(self.kind, _LAYOUTS[self.kind][1](self, row),
                                self.extras.get(row, ()))

    def fid(self, row: int) -> str:
        """The feature id the row was added under."""
        return _text(self.ids, self.id_starts, row)

    def _id_key(self, row: int) -> bytearray:
        return self.ids[self.id_starts[row]:self.id_starts[row + 1]]

    def locate(self, rows: array, fid: str) -> tuple[int, bool]:
        """Where fid's row is in rows, rows of these columns in fid order, or
        where it would go, and whether it is there. The last fid or one that
        sorts after it takes no search: a snapshot's lines are sorted, and
        MediaStore.put_feature looks up the fid it has just put."""
        key, n = fid.encode("utf-8", "surrogatepass"), len(rows)
        if not n:
            return 0, False
        last = self._id_key(rows[n - 1])
        if last <= key:
            return (n - 1, True) if last == key else (n, False)
        i = bisect_left(rows, key, key=self._id_key)
        return i, self._id_key(rows[i]) == key

    def time_bounds(self, row: int) -> tuple[TimeStamp, TimeStamp]:
        return self.times[self.starts[row]], self.times[self.starts[row + 1] - 1]

    def meeting(self, rows: Iterable[int], start: TimeStamp, end: TimeStamp) -> list[int]:
        """The rows, in their order, that meet the time interval [start, end],
        read from the first and last time of each: no document is built."""
        times, starts = self.times, self.starts
        return [row for row in rows if times[starts[row]] <= end
                and start <= times[starts[row + 1] - 1]]

    def time_span(self, rows: Iterable[int]) -> tuple[TimeStamp, TimeStamp]:
        """The earliest first time and the latest last time of rows (a
        collection, so iterable twice), none empty."""
        times, starts = self.times, self.starts
        return (min(times[starts[row]] for row in rows),
                max(times[starts[row + 1] - 1] for row in rows))

    def bbox(self, row: int) -> Bbox | None:
        """spatial_bbox of the row's document."""
        return _LAYOUTS[self.kind][2](self, row)

    def may_see(self, row: int, p: GeoPoint) -> bool:
        """False when the row's video cannot see p (MovingVideo's first test,
        told from the columns without building the video); True otherwise.
        A photo needs no such test: the index is searched around p alone,
        which its bbox holds if it sees p."""
        if self.kind != KIND_MOVING_VIDEO:
            return True
        f, g = self.fov_starts[row], self.fov_starts[row + 1]
        return _reaches(p, max(self.fovs[f + 3:g:4]), self._point_bbox(row))

    def copy(self, rows: Iterable[int]) -> "Columns":
        """Fresh columns of rows, in that order, numbered from 0."""
        fresh = Columns(self.kind)
        for row in rows:
            fresh.add(self.fid(row), self.document(row))
        return fresh

    # -- positions, shared by every kind --------------------------------------

    def _add_positions(self, lons, lats, alts) -> None:
        self.lons.extend(lons)
        self.lats.extend(lats)
        if alts is not None:
            self.alts.extend(alts)
        self.alt_starts.append(len(self.alts))

    def _positions(self, a: int, b: int, row: int) -> PositionColumns:
        """The position columns of samples a to b, which are the row's."""
        p, q = self.alt_starts[row], self.alt_starts[row + 1]
        return self.lons[a:b], self.lats[a:b], self.alts[p:q] if p < q else None

    def _positions_bbox(self, a: int, b: int) -> Bbox | None:
        if a == b:
            return None
        lons, lats = self.lons[a:b], self.lats[a:b]
        return (min(lons), min(lats), max(lons), max(lats))

    def _add_samples(self, series: MovingPoint | MovingDouble) -> None:
        self.times.extend(series.time_column)
        self.starts.append(len(self.times))
        self.modes.append(_MODE_CODES[series.mode])

    # -- MovingPoint: samples and positions in step ------------------------------

    def _add_point(self, mp: MovingPoint) -> None:
        self._add_samples(mp)
        self._add_positions(mp.lons, mp.lats, mp.alts)

    def _point(self, row: int) -> MovingPoint:
        a, b = self.starts[row], self.starts[row + 1]
        return MovingPoint.from_columns(self.times[a:b], self._positions(a, b, row),
                                        _MODES[self.modes[row]])

    def _point_bbox(self, row: int) -> Bbox:
        return self._positions_bbox(self.starts[row], self.starts[row + 1])

    # -- MovingDouble: values in step with samples, positions optional -------------

    def _add_double(self, md: MovingDouble) -> None:
        self._add_samples(md)
        self.values.extend(md.value_column)
        if md.lons is None:
            self.alt_starts.append(len(self.alts))
        else:
            self._add_positions(md.lons, md.lats, md.alts)
        self.pos_starts.append(len(self.lons))

    def _double(self, row: int) -> MovingDouble:
        a, b = self.starts[row], self.starts[row + 1]
        p, q = self.pos_starts[row], self.pos_starts[row + 1]
        return MovingDouble.from_columns(self.times[a:b], self.values[a:b], _MODES[self.modes[row]],
                                         self._positions(p, q, row) if p < q else None)

    def _double_bbox(self, row: int) -> Bbox | None:
        return self._positions_bbox(self.pos_starts[row], self.pos_starts[row + 1])

    # -- stphoto: one sample, four FoV numbers a row -------------------------------

    def _add_photo(self, photo: STPhoto) -> None:
        loc, fov = photo.loc, photo.fov
        self.times.append(photo.t)
        self.starts.append(len(self.times))
        self._add_positions((loc.lon,), (loc.lat,), None if loc.alt is None else (loc.alt,))
        self.fovs.extend((fov.h_angle, fov.v_angle, fov.direction2d, fov.view_distance))
        _add_text(self.uris, self.uri_starts, photo.imguri)

    def _photo(self, row: int) -> STPhoto:
        a, p = self.starts[row], self.alt_starts[row]
        alt = self.alts[p] if p < self.alt_starts[row + 1] else None
        return STPhoto(_text(self.uris, self.uri_starts, row),
                       GeoPoint(self.lons[a], self.lats[a], alt),
                       self.times[a], FieldOfView(*self.fovs[4 * row:4 * row + 4]))

    def _photo_bbox(self, row: int) -> Bbox:
        return self._photo(row).spatial_bbox()

    # -- MovingVideo: a MovingPoint's columns plus a run of FoVs ---------------------

    def _add_video(self, video: MovingVideo) -> None:
        self._add_point(video.track)
        self.fovs.extend(video._fov_column)
        self.fov_starts.append(len(self.fovs))
        _add_text(self.uris, self.uri_starts, video.videouri)
        self.reach = max(self.reach, video.view_reach())

    def _video(self, row: int) -> MovingVideo:
        f, g = self.fov_starts[row], self.fov_starts[row + 1]
        return MovingVideo.from_column(_text(self.uris, self.uri_starts, row), self._point(row),
                                       self.fovs[f:g])


def _add_text(column: bytearray, starts: array, text: str) -> None:
    column += text.encode("utf-8", "surrogatepass")
    starts.append(len(column))


def _text(column: bytearray, starts: array, row: int) -> str:
    return column[starts[row]:starts[row + 1]].decode("utf-8", "surrogatepass")


# Each kind's add, build and bbox on Columns.
_LAYOUTS = {
    KIND_MOVING_POINT: (Columns._add_point, Columns._point, Columns._point_bbox),
    KIND_MOVING_DOUBLE: (Columns._add_double, Columns._double, Columns._double_bbox),
    KIND_STPHOTO: (Columns._add_photo, Columns._photo, Columns._photo_bbox),
    KIND_MOVING_VIDEO: (Columns._add_video, Columns._video, Columns._point_bbox),
}


def payload_of(x) -> MediaPayload:
    """The media value of a document, or x itself when it is already one."""
    return x.payload if isinstance(x, GeoMediaDocument) else x


def payload_of_kind(x, kinds: frozenset[str], lacks: str) -> MediaPayload:
    """The media value of x if its kind is in kinds, else WrongKindError "<type> has no <lacks>"."""
    payload = payload_of(x)
    if _KIND_BY_TYPE.get(type(payload)) not in kinds:
        raise WrongKindError(f"{type(payload).__name__} has no {lacks}")
    return payload


def time_extent(x) -> TimeInterval:
    """[first, last] sample time of a media value or document."""
    return payload_of(x).time_extent()


def spatial_bbox(x) -> Bbox | None:
    """Tight (minLon, minLat, maxLon, maxLat) bounds of a media value.

    Photos cover their whole field-of-view wedge, not just the camera point,
    so "what can see location X" queries hit the spatial index. Sensor
    series without a track have no spatial extent and yield None.
    """
    return payload_of(x).spatial_bbox()
