"""Time-varying positions and scalars with discrete/linear/stepwise evaluation.

Timestamps are integers: milliseconds since the Unix epoch, UTC. Tracks hold
strictly increasing timestamps and are immutable after construction, so all
operations are pure and thread-safe.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum

from .errors import (
    DegenerateTrackError,
    NotASampleError,
    OutOfRangeError,
)
from .geo import GeoPoint, bearing

TimeStamp = int


class InterpolationMode(str, Enum):
    DISCRETE = "discrete"
    LINEAR = "linear"
    STEPWISE = "stepwise"


@dataclass(frozen=True)
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


def _check_times(times: tuple[TimeStamp, ...]) -> None:
    if not times:
        raise ValueError("at least one sample is required")
    for a, b in zip(times, times[1:]):
        if b <= a:
            raise ValueError(f"timestamps not strictly increasing at {b}")


def _locate(times: tuple[TimeStamp, ...], t: TimeStamp, mode: InterpolationMode):
    """Return ("exact", i) or ("between", i, frac) for t within the extent."""
    if t < times[0] or t > times[-1]:
        raise OutOfRangeError(f"time {t} outside extent [{times[0]}, {times[-1]}]")
    i = bisect_right(times, t) - 1
    if times[i] == t:
        return ("exact", i, 0.0)
    if mode is InterpolationMode.DISCRETE:
        raise NotASampleError(f"time {t} is not a sample time of a discrete track")
    if mode is InterpolationMode.STEPWISE:
        return ("exact", i, 0.0)
    frac = (t - times[i]) / (times[i + 1] - times[i])
    return ("between", i, frac)


@dataclass(frozen=True)
class MovingPoint:
    """A trajectory: positions sampled on a timeline plus an interpolation rule."""

    times: tuple[TimeStamp, ...]
    points: tuple[GeoPoint, ...]
    mode: InterpolationMode = InterpolationMode.LINEAR

    def __post_init__(self):
        object.__setattr__(self, "times", tuple(self.times))
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "mode", InterpolationMode(self.mode))
        _check_times(self.times)
        if len(self.points) != len(self.times):
            raise ValueError("points and times differ in length")
        with_alt = sum(1 for p in self.points if p.alt is not None)
        if with_alt not in (0, len(self.points)):
            raise ValueError("either all samples carry altitude or none do")

    def __len__(self) -> int:
        return len(self.times)

    def time_extent(self) -> TimeInterval:
        return TimeInterval(self.times[0], self.times[-1])

    def vertices(self) -> tuple[GeoPoint, ...]:
        return self.points

    def at(self, t: TimeStamp) -> GeoPoint:
        """Position at time t under this track's interpolation mode."""
        where, i, frac = _locate(self.times, t, self.mode)
        if where == "exact":
            return self.points[i]
        a, b = self.points[i], self.points[i + 1]
        alt = None
        if a.alt is not None and b.alt is not None:
            alt = a.alt + (b.alt - a.alt) * frac
        return GeoPoint(a.lon + (b.lon - a.lon) * frac, a.lat + (b.lat - a.lat) * frac, alt)

    def heading_at(self, t: TimeStamp) -> float:
        """Bearing (degrees clockwise from north) of the segment containing t.

        At an interior vertex the outgoing segment applies; at the final vertex
        the incoming one. Zero-length segments inherit the nearest preceding
        moving segment's bearing (or the nearest following one when the track
        starts without motion).
        """
        if len(self.times) < 2:
            raise DegenerateTrackError("heading undefined for a single-sample track")
        if t < self.times[0] or t > self.times[-1]:
            raise OutOfRangeError(f"time {t} outside extent")
        last_seg = len(self.times) - 2
        i = bisect_right(self.times, t) - 1
        if i > last_seg:
            i = last_seg
        for j in range(i, -1, -1):
            if not self.points[j].same_position(self.points[j + 1]):
                return bearing(self.points[j], self.points[j + 1])
        for j in range(i + 1, last_seg + 1):
            if not self.points[j].same_position(self.points[j + 1]):
                return bearing(self.points[j], self.points[j + 1])
        raise DegenerateTrackError("all track points are identical")


@dataclass(frozen=True)
class MovingDouble:
    """Scalar sensor values sampled on a timeline, optionally tied to positions."""

    times: tuple[TimeStamp, ...]
    values: tuple[float, ...]
    mode: InterpolationMode = InterpolationMode.LINEAR
    track: tuple[GeoPoint, ...] | None = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "times", tuple(self.times))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        object.__setattr__(self, "mode", InterpolationMode(self.mode))
        if self.track is not None:
            object.__setattr__(self, "track", tuple(self.track))
        _check_times(self.times)
        if len(self.values) != len(self.times):
            raise ValueError("values and times differ in length")
        if self.track is not None and len(self.track) != len(self.times):
            raise ValueError("track length differs from sample count")

    def __len__(self) -> int:
        return len(self.times)

    def time_extent(self) -> TimeInterval:
        return TimeInterval(self.times[0], self.times[-1])

    def vertices(self) -> tuple[GeoPoint, ...]:
        """Sample positions; empty for a series without a coordinate track."""
        return self.track or ()

    def at(self, t: TimeStamp) -> float:
        """Scalar value at time t under this series' interpolation mode."""
        where, i, frac = _locate(self.times, t, self.mode)
        if where == "exact":
            return self.values[i]
        a, b = self.values[i], self.values[i + 1]
        return a + (b - a) * frac
