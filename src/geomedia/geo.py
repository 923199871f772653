"""Positions and spherical-earth primitives.

All angles are degrees, distances meters, on a sphere of mean radius
6371008.8 m. Longitude/latitude order follows GeoJSON: (lon, lat).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BadQueryError

EARTH_RADIUS_M = 6371008.8


def check_position(lon: float, lat: float, alt: float | None = None) -> None:
    """ValueError unless lon, lat and alt make a valid position."""
    if not -180.0 <= lon <= 180.0:
        raise ValueError(f"longitude {lon} outside [-180, 180]")
    if not -90.0 <= lat <= 90.0:
        raise ValueError(f"latitude {lat} outside [-90, 90]")
    if alt is not None and not math.isfinite(alt):
        raise ValueError(f"altitude {alt} is not finite")


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """A WGS84 position: longitude and latitude in degrees, optional altitude in meters."""

    lon: float
    lat: float
    alt: float | None = None

    def __post_init__(self):
        check_position(self.lon, self.lat, self.alt)

    def same_position(self, other: "GeoPoint") -> bool:
        """True when lon/lat are exactly equal (altitude ignored)."""
        return self.lon == other.lon and self.lat == other.lat


def geo_distance(p: GeoPoint, q: GeoPoint) -> float:
    """Great-circle distance in meters (haversine)."""
    phi1 = math.radians(p.lat)
    phi2 = math.radians(q.lat)
    dphi = math.radians(q.lat - p.lat)
    dlam = math.radians(q.lon - p.lon)
    a = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2) ** 2
    return 2 * EARTH_RADIUS_M * math.atan2(math.sqrt(a), math.sqrt(1 - a))


def disk_bbox(p: GeoPoint, r: float) -> tuple[float, float, float, float]:
    """A (minLon, minLat, maxLon, maxLat) box holding every point within r meters of p.

    Such a point is at most dlat = r / R (in degrees) from p's latitude, and
    the great circle to it stays in that latitude band, so it is at most
    dlat / cos(max |lat| of the band) from p's longitude. Where the band comes
    within 1 degree of a pole, or those longitudes reach +-180, the box spans
    every longitude instead. Latitudes are not clamped to [-90, 90]. dlat
    carries a relative and an absolute slack of 1e-9 against float rounding.
    """
    dlat = min(180.0, math.degrees(r / EARTH_RADIUS_M) * (1 + 1e-9) + 1e-9)
    min_lat, max_lat = p.lat - dlat, p.lat + dlat
    top = max(abs(min_lat), abs(max_lat))
    if top < 89.0:
        dlon = dlat / math.cos(math.radians(top))
        if -180.0 < p.lon - dlon and p.lon + dlon < 180.0:
            return (p.lon - dlon, min_lat, p.lon + dlon, max_lat)
    return (-180.0, min_lat, 180.0, max_lat)


def bearing(p: GeoPoint, q: GeoPoint) -> float:
    """Initial great-circle bearing from p to q, degrees clockwise from north in [0, 360)."""
    if p.same_position(q):
        raise BadQueryError("bearing undefined for coincident points")
    phi1 = math.radians(p.lat)
    phi2 = math.radians(q.lat)
    dlam = math.radians(q.lon - p.lon)
    y = math.sin(dlam) * math.cos(phi2)
    x = math.cos(phi1) * math.sin(phi2) - math.sin(phi1) * math.cos(phi2) * math.cos(dlam)
    return (math.degrees(math.atan2(y, x)) + 360.0) % 360.0


def destination(p: GeoPoint, bearing_deg: float, distance_m: float) -> GeoPoint:
    """Point reached by traveling distance_m along the given initial bearing."""
    if distance_m < 0:
        raise ValueError("distance must be >= 0")
    if distance_m == 0:
        return p
    phi1 = math.radians(p.lat)
    lam1 = math.radians(p.lon)
    theta = math.radians(bearing_deg)
    delta = distance_m / EARTH_RADIUS_M
    # a path over a pole can round the sine of its latitude past +-1
    sin_lat = (math.sin(phi1) * math.cos(delta)
               + math.cos(phi1) * math.sin(delta) * math.cos(theta))
    phi2 = math.asin(max(-1.0, min(1.0, sin_lat)))
    lam2 = lam1 + math.atan2(
        math.sin(theta) * math.sin(delta) * math.cos(phi1),
        math.cos(delta) - math.sin(phi1) * math.sin(phi2),
    )
    lam2 = (lam2 + 3 * math.pi) % (2 * math.pi) - math.pi
    return GeoPoint(math.degrees(lam2), math.degrees(phi2))


def angle_between(a: float, b: float) -> float:
    """Smallest circular difference between two bearings, in [0, 180]."""
    d = abs(a - b) % 360.0
    return 360.0 - d if d > 180.0 else d
