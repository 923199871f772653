"""Camera field-of-view descriptors and their ground-plane geometry.

A field of view is the wedge a camera can see: horizontal/vertical aperture
angles, a 2D direction, and a maximum visible distance. Directions in
[0, 360) are absolute compass bearings; directions in [-360, 0) are
mount-relative and need the carrier's heading to resolve (-360 dead ahead,
-90 right, -180 rear, -270 left). The vertical angle is carried and
validated but plays no part in 2D containment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BadQueryError
from .geo import (
    GeoPoint,
    angle_between,
    bearing,
    destination,
    geo_distance,
)

DEFAULT_H_ANGLE = 63.0   # 35mm lens horizontal aperture
DEFAULT_V_ANGLE = 60.0
DEFAULT_DIRECTION = 0.0  # due north
DEFAULT_VIEW_DISTANCE = 100.0
MAX_ARC_SEGMENTS = 3600  # most arc segments of a sector polygon: 0.1 degrees around a circle


def check_fov(h_angle: float, v_angle: float, direction2d: float, view_distance: float) -> None:
    """ValueError unless the four numbers make a valid field of view."""
    if not 0.0 < h_angle <= 360.0:
        raise ValueError(f"horizontal angle {h_angle} outside (0, 360]")
    if not 0.0 < v_angle <= 180.0:
        raise ValueError(f"vertical angle {v_angle} outside (0, 180]")
    if not -360.0 <= direction2d < 360.0:
        raise ValueError(f"direction2d {direction2d} outside [-360, 360)")
    if not 0.0 < view_distance < math.inf:
        raise ValueError(f"view distance {view_distance} must be finite and > 0")


@dataclass(frozen=True, slots=True)
class FieldOfView:
    """Camera view descriptor: apertures in degrees, view distance in meters."""

    h_angle: float = DEFAULT_H_ANGLE
    v_angle: float = DEFAULT_V_ANGLE
    direction2d: float = DEFAULT_DIRECTION
    view_distance: float = DEFAULT_VIEW_DISTANCE

    def __post_init__(self):
        check_fov(self.h_angle, self.v_angle, self.direction2d, self.view_distance)

    @property
    def is_relative(self) -> bool:
        """True when direction2d encodes a mount-relative (fixed-camera) offset."""
        return self.direction2d < 0.0


@dataclass(frozen=True, slots=True)
class SectorPolygon:
    """Closed ring approximating the visible wedge; first position equals the last."""

    ring: tuple[GeoPoint, ...]

    def __post_init__(self):
        object.__setattr__(self, "ring", tuple(self.ring))
        if len(self.ring) < 4:
            raise ValueError("sector ring needs at least 4 positions")
        if self.ring[0] != self.ring[-1]:
            raise ValueError("sector ring must be closed")


def resolve_direction(fov: FieldOfView, heading: float | None = None) -> float:
    """Absolute camera bearing in [0, 360).

    Absolute directions pass through unchanged. Mount-relative ones are
    clockwise offsets from the heading: -360 dead ahead, -90 right,
    -180 rear, -270 left.
    """
    if fov.direction2d >= 0.0:
        return fov.direction2d % 360.0
    if heading is None:
        raise BadQueryError(
            f"relative direction {fov.direction2d} needs the carrier heading"
        )
    offset = (-fov.direction2d) % 360.0
    return (heading + offset) % 360.0


def fov_sector_polygon(
    camera: GeoPoint,
    abs_direction: float,
    fov: FieldOfView,
    arc_step_deg: float = 5.0,
) -> SectorPolygon:
    """Discretize the visible wedge into a closed ring of ground positions.

    Arc points run from abs_direction - h/2 to abs_direction + h/2 at most
    arc_step_deg apart, both endpoints included, each at view_distance from
    the camera. A 360-degree aperture yields a full circle without the apex.
    """
    if not arc_step_deg > 0:  # NaN too
        raise ValueError("arc step must be > 0")
    if fov.h_angle / arc_step_deg > MAX_ARC_SEGMENTS:  # also where the quotient overflows
        raise ValueError(f"arc step {arc_step_deg} cuts a {fov.h_angle}-degree aperture "
                         f"into more than {MAX_ARC_SEGMENTS} segments")
    segments = max(1, math.ceil(fov.h_angle / arc_step_deg))
    start = abs_direction - fov.h_angle / 2.0
    arc = [
        destination(camera, start + k * fov.h_angle / segments, fov.view_distance)
        for k in range(segments + 1)
    ]
    if fov.h_angle == 360.0:
        arc[-1] = arc[0]
        return SectorPolygon(tuple(arc))
    apex = GeoPoint(camera.lon, camera.lat)
    return SectorPolygon((apex, *arc, apex))


def fov_contains(
    camera: GeoPoint, abs_direction: float, fov: FieldOfView, p: GeoPoint
) -> bool:
    """True when p lies within view distance and the horizontal aperture."""
    d = geo_distance(camera, p)
    if d > fov.view_distance:
        return False
    if d == 0.0:
        return True
    return angle_between(bearing(camera, p), abs_direction % 360.0) <= fov.h_angle / 2.0
