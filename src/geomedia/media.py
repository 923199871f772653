"""Geo-tagged media records and the generic extent/bbox views over them.

Four kinds exist: "MovingPoint" (GPS trajectory), "MovingDouble" (sensor
series), "stphoto" (single photo with a field of view), and "MovingVideo"
(track plus per-sample or constant fields of view). The lowercase "stphoto"
tag is intentional; it is the wire spelling.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .fov import FieldOfView, fov_sector_polygon
from .geo import GeoPoint
from .temporal import MovingDouble, MovingPoint, TimeInterval, TimeStamp

KIND_MOVING_POINT = "MovingPoint"
KIND_MOVING_DOUBLE = "MovingDouble"
KIND_STPHOTO = "stphoto"
KIND_MOVING_VIDEO = "MovingVideo"
KINDS = (KIND_MOVING_POINT, KIND_MOVING_DOUBLE, KIND_STPHOTO, KIND_MOVING_VIDEO)

Bbox = tuple[float, float, float, float]


@dataclass(frozen=True)
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

    def time_extent(self) -> TimeInterval:
        return TimeInterval(self.t, self.t)

    def vertices(self) -> tuple[GeoPoint, ...]:
        return (self.loc,)


@dataclass(frozen=True)
class MovingVideo:
    """A geo-tagged video: URI, camera track, and one FoV per sample (or one for all)."""

    videouri: str
    track: MovingPoint
    fovs: tuple[FieldOfView, ...] = (FieldOfView(),)

    def __post_init__(self):
        object.__setattr__(self, "fovs", tuple(self.fovs))
        if not self.videouri:
            raise ValueError("videouri must be non-empty")
        if len(self.fovs) not in (1, len(self.track)):
            raise ValueError(
                f"fov list length {len(self.fovs)} is neither 1 nor the sample count"
            )

    def time_extent(self) -> TimeInterval:
        return self.track.time_extent()

    def vertices(self) -> tuple[GeoPoint, ...]:
        return self.track.points

    def fov_index_at(self, t: TimeStamp) -> int:
        """Index of the FoV entry governing time t (stepwise selection)."""
        if len(self.fovs) == 1:
            return 0
        return bisect_right(self.track.times, t) - 1


MediaPayload = MovingPoint | MovingDouble | STPhoto | MovingVideo

_KIND_BY_TYPE = {
    MovingPoint: KIND_MOVING_POINT,
    MovingDouble: KIND_MOVING_DOUBLE,
    STPhoto: KIND_STPHOTO,
    MovingVideo: KIND_MOVING_VIDEO,
}


def kind_of(payload: MediaPayload) -> str:
    """Wire-format kind tag for a media value."""
    try:
        return _KIND_BY_TYPE[type(payload)]
    except KeyError:
        raise TypeError(f"not a media payload: {type(payload).__name__}") from None


@dataclass(frozen=True)
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


def payload_of(x) -> MediaPayload:
    """The media value of a document, or x itself when it is already one."""
    return x.payload if isinstance(x, GeoMediaDocument) else x


def time_extent(x) -> TimeInterval:
    """[first, last] sample time of a media value or document."""
    return payload_of(x).time_extent()


def spatial_bbox(x) -> Bbox | None:
    """Tight (minLon, minLat, maxLon, maxLat) bounds of a media value.

    Photos cover their FoV sector polygon, not just the camera point, so
    "what can see location X" queries hit the spatial index. Sensor series
    without a track have no spatial extent and yield None.
    """
    payload = payload_of(x)
    points = payload.vertices()
    if isinstance(payload, STPhoto):
        points += fov_sector_polygon(payload.loc, payload.fov.direction2d, payload.fov).ring
    if not points:
        return None
    lons = [p.lon for p in points]
    lats = [p.lat for p in points]
    return (min(lons), min(lats), max(lons), max(lats))
