"""Time-varying positions and scalars with discrete/linear/stepwise evaluation.

Timestamps are integers: milliseconds since the Unix epoch, UTC. Tracks hold
strictly increasing timestamps and are immutable after construction, so all
operations are pure and thread-safe. A moving point and a moving double share
one series core, with their timeline, values and positions in flat array
columns; the tuple-valued attributes (times, values, points) build a tuple
per access and are for callers outside this package.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, fields
from enum import Enum
from itertools import chain, islice
from operator import lt

from .errors import BadQueryError, NotASampleError
from .geo import GeoPoint, bearing

TimeStamp = int

# The instants an ISO-8601 datetime can spell (years 1-9999), in epoch
# milliseconds: a time outside them could not be written in both time styles.
MIN_TIME: TimeStamp = -62_135_596_800_000  # 0001-01-01T00:00:00Z
MAX_TIME: TimeStamp = 253_402_300_799_999  # 9999-12-31T23:59:59.999Z


class InterpolationMode(str, Enum):
    DISCRETE = "discrete"
    LINEAR = "linear"
    STEPWISE = "stepwise"


@dataclass(frozen=True, slots=True)
class TimeInterval:
    """Closed interval [start, end] of epoch-millisecond timestamps; instants allowed."""

    start: TimeStamp
    end: TimeStamp

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError(f"interval start {self.start} after end {self.end}")

    def contains(self, t: TimeStamp) -> bool:
        return self.start <= t <= self.end

    def overlaps(self, other: "TimeInterval") -> bool:
        return self.start <= other.end and other.start <= self.end


def _time_column(times) -> array:
    """times as an array('q') column; ValueError unless they are strictly
    increasing integers in years 1-9999, at least one."""
    if not isinstance(times, (list, tuple)):
        times = tuple(times)  # the order check reads the sequence: no int is boxed
    try:
        column = array("q", times)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"timestamps must be 64-bit integers: {exc}") from None
    if not times:
        raise ValueError("at least one sample is required")
    if not all(map(lt, times, islice(times, 1, None))):
        b = next(b for a, b in zip(times, times[1:]) if b <= a)
        raise ValueError(f"timestamps not strictly increasing at {b}")
    if times[0] < MIN_TIME or times[-1] > MAX_TIME:
        raise ValueError("timestamps must lie in years 1-9999")
    return column


def _value_column(values) -> array:
    """values as an array('d') column; ValueError unless they are all finite."""
    column = array("d", list(map(float, values)))  # sized at once: extending over-allocates
    if not all(map(math.isfinite, column)):
        raise ValueError("values must be finite numbers")
    return column


def _locate(times: array, t: TimeStamp, mode: InterpolationMode) -> tuple[int, float]:
    """The sample i at or before t, and how far t is from it towards sample
    i + 1 (0.0 at a sample, and whenever the mode is stepwise)."""
    if t < times[0] or t > times[-1]:
        raise BadQueryError(f"time {t} outside extent [{times[0]}, {times[-1]}]")
    i = bisect_right(times, t) - 1
    if times[i] == t or mode is InterpolationMode.STEPWISE:
        return i, 0.0
    if mode is InterpolationMode.DISCRETE:
        raise NotASampleError(f"time {t} is not a sample time of a discrete track")
    return i, (t - times[i]) / (times[i + 1] - times[i])


# Flat longitude, latitude and altitude columns of a sequence of positions.
# The altitude column is None when no position has an altitude, and holds NaN
# for a position without one (altitudes are finite, so NaN is free).
PositionColumns = tuple[array, array, array | None]


def _columns_of(points) -> PositionColumns:
    """The columns of GeoPoints; each point has been validated by GeoPoint."""
    points = tuple(points)
    lons = array("d", [p.lon for p in points])
    lats = array("d", [p.lat for p in points])
    if all(p.alt is None for p in points):
        return lons, lats, None
    return lons, lats, array("d", [math.nan if p.alt is None else p.alt for p in points])


def _point(lons: array, lats: array, alts: array | None, i: int) -> GeoPoint:
    """Position i of a series' columns, which hold valid positions."""
    alt = None if alts is None or math.isnan(alts[i]) else alts[i]
    return GeoPoint(lons[i], lats[i], alt)


def _same_alts(a: array | None, b: array | None) -> bool:
    """Equal altitude columns, NaN (no altitude) matching NaN."""
    if a is None or b is None:
        return a is b
    return len(a) == len(b) and all(x == y or (x != x and y != y) for x, y in zip(a, b))


@dataclass(frozen=True, slots=True, init=False, repr=False, eq=False)
class _Series:
    """What a moving point and a moving double share: a timeline held as an
    array('q') column, an interpolation rule, and position columns (lons,
    lats, alts; all None without positions), none ever mutated."""

    time_column: array
    mode: InterpolationMode
    lons: array | None
    lats: array | None
    alts: array | None

    def _set(self, time_column: array, mode, columns: PositionColumns | None,
             value_column: array | None = None) -> None:
        """Set every field once; ValueError unless they make a valid series: a
        moving point (no values) has positions, with altitudes on all or none,
        and positions and values match the timeline in length (a moving
        double's positions may mix altitudes). The time and value columns come
        checked (see _time_column and _value_column)."""
        lons, lats, alts = (None, None, None) if columns is None else columns
        object.__setattr__(self, "time_column", time_column)
        object.__setattr__(self, "mode", mode if type(mode) is InterpolationMode
                           else InterpolationMode(mode))
        object.__setattr__(self, "lons", lons)
        object.__setattr__(self, "lats", lats)
        object.__setattr__(self, "alts", alts)
        if value_column is not None:
            object.__setattr__(self, "value_column", value_column)
        if value_column is None:
            if lons is None:
                raise ValueError("a moving point needs positions")
            if alts is not None and any(map(math.isnan, alts)):
                raise ValueError("coordinates mix 2- and 3-component positions")
        elif len(value_column) != len(time_column):
            raise ValueError("values and times differ in length")
        if lons is not None and len(lons) != len(time_column):
            raise ValueError("positions and times differ in length")

    @property
    def times(self) -> tuple[TimeStamp, ...]:
        return tuple(self.time_column)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, f.name) == getattr(other, f.name)
                   for f in fields(self) if f.name != "alts") and _same_alts(self.alts, other.alts)

    def __hash__(self):
        return hash((self.times, self.mode))

    def __len__(self) -> int:
        return len(self.time_column)

    def time_extent(self) -> TimeInterval:
        return TimeInterval(*self.time_bounds())

    def time_bounds(self) -> tuple[TimeStamp, TimeStamp]:
        """time_extent() as a (start, end) pair, built without an interval object."""
        return self.time_column[0], self.time_column[-1]

    def vertices(self) -> tuple[GeoPoint, ...]:
        """Sample positions; empty for a series without positions."""
        if self.lons is None:
            return ()
        return tuple(_point(self.lons, self.lats, self.alts, i) for i in range(len(self.lons)))

    def spatial_bbox(self) -> tuple[float, float, float, float] | None:
        """Bounds of the positions; None for a series without them."""
        if self.lons is None:
            return None
        return (min(self.lons), min(self.lats), max(self.lons), max(self.lats))


@dataclass(frozen=True, slots=True, init=False, repr=False, eq=False)
class MovingPoint(_Series):
    """A trajectory: positions sampled on a timeline plus an interpolation rule."""

    def __init__(self, times, points, mode=InterpolationMode.LINEAR):
        self._set(_time_column(times), mode, _columns_of(points))

    @classmethod
    def from_columns(cls, time_column: array, columns: PositionColumns,
                     mode=InterpolationMode.LINEAR) -> "MovingPoint":
        """A track over a checked time column (see _time_column) and columns
        of valid positions (see geo.check_position), checked as __init__
        checks them."""
        mp = object.__new__(cls)
        mp._set(time_column, mode, columns)
        return mp

    @property
    def points(self) -> tuple[GeoPoint, ...]:
        return self.vertices()

    def __repr__(self) -> str:
        return f"MovingPoint(times={self.times!r}, points={self.points!r}, mode={self.mode!r})"

    def at(self, t: TimeStamp) -> GeoPoint:
        """Position at time t under this track's interpolation mode."""
        i, frac = _locate(self.time_column, t, self.mode)
        lons, lats, alts = self.lons, self.lats, self.alts
        if not frac:
            return _point(lons, lats, alts, i)
        alt = None if alts is None else alts[i] + (alts[i + 1] - alts[i]) * frac
        return GeoPoint(lons[i] + (lons[i + 1] - lons[i]) * frac,
                        lats[i] + (lats[i + 1] - lats[i]) * frac, alt)

    def heading_at(self, t: TimeStamp) -> float:
        """Bearing (degrees clockwise from north) of the segment containing t.

        At an interior vertex the outgoing segment applies; at the final vertex
        the incoming one. Zero-length segments inherit the nearest preceding
        moving segment's bearing (or the nearest following one when the track
        starts without motion).
        """
        times = self.time_column
        if len(times) < 2:
            raise BadQueryError("heading undefined for a single-sample track")
        last_seg = len(times) - 2
        i = min(_locate(times, t, InterpolationMode.LINEAR)[0], last_seg)
        lons, lats = self.lons, self.lats
        for j in chain(range(i, -1, -1), range(i + 1, last_seg + 1)):
            if lons[j] != lons[j + 1] or lats[j] != lats[j + 1]:
                return bearing(_point(lons, lats, None, j), _point(lons, lats, None, j + 1))
        raise BadQueryError("all track points are identical")


@dataclass(frozen=True, slots=True, init=False, repr=False, eq=False)
class MovingDouble(_Series):
    """Scalar sensor values sampled on a timeline, optionally tied to positions.

    The values are held as an array('d') column, never mutated.
    """

    value_column: array

    def __init__(self, times, values, mode=InterpolationMode.LINEAR, track=None):
        self._set(_time_column(times), mode, None if track is None else _columns_of(track),
                  _value_column(values))

    @classmethod
    def from_columns(cls, time_column: array, value_column: array,
                     mode=InterpolationMode.LINEAR,
                     columns: PositionColumns | None = None) -> "MovingDouble":
        """A series over checked time and value columns (see _time_column and
        _value_column) and columns of valid positions (see
        geo.check_position), or none, checked as __init__ checks them."""
        md = object.__new__(cls)
        md._set(time_column, mode, columns, value_column)
        return md

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(self.value_column)

    @property
    def track(self) -> tuple[GeoPoint, ...] | None:
        return self.vertices() or None

    def __repr__(self) -> str:
        return (f"MovingDouble(times={self.times!r}, values={self.values!r}, "
                f"mode={self.mode!r}, track={self.track!r})")

    def at(self, t: TimeStamp) -> float:
        """Scalar value at time t under this series' interpolation mode."""
        i, frac = _locate(self.time_column, t, self.mode)
        values = self.value_column
        if not frac:
            return values[i]
        a, b = values[i], values[i + 1]
        return a + (b - a) * frac
