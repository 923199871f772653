"""geomedia: manage, index, and query geo-tagged media.

Media kinds: MovingPoint trajectories, MovingDouble sensor series, STPhoto
geo-tagged photos with a field of view, and MovingVideo tracks whose FoV
varies over a timeline. The package bundles the value types, the GeoMedia
JSON codec, FoV geometry, an embedded feature store (a 2-D spatial R-tree
per collection; time is filtered exactly per candidate), a WFS-3-style HTTP
service, and a CLI.
"""

from .codec import (
    epoch_to_iso,
    parse_datetime,
    parse_document,
    serialize_document,
)
from .errors import GeoMediaError
from .fov import (
    FieldOfView,
    SectorPolygon,
    fov_contains,
    fov_sector_polygon,
    resolve_direction,
)
from .geo import GeoPoint, bearing, destination, geo_distance
from .media import (
    GeoMediaDocument,
    MovingVideo,
    STPhoto,
    document_of,
    spatial_bbox,
    time_extent,
)
from .query import (
    QuerySpec,
    evaluate,
    fov_at,
    position_at,
    visible_intervals,
)
from .store import Annotation, Collection, FeatureRecord, MediaStore
from .temporal import (
    InterpolationMode,
    MovingDouble,
    MovingPoint,
    TimeInterval,
    TimeStamp,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    """GeoMediaApi and GeoMediaServer, imported on first use (PEP 562), so that
    a program that serves nothing loads no HTTP stack."""
    if name in ("GeoMediaApi", "GeoMediaServer"):
        from . import service

        return getattr(service, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Annotation",
    "Collection",
    "FeatureRecord",
    "FieldOfView",
    "GeoMediaApi",
    "GeoMediaDocument",
    "GeoMediaError",
    "GeoMediaServer",
    "GeoPoint",
    "InterpolationMode",
    "MediaStore",
    "MovingDouble",
    "MovingPoint",
    "MovingVideo",
    "QuerySpec",
    "STPhoto",
    "SectorPolygon",
    "TimeInterval",
    "TimeStamp",
    "bearing",
    "destination",
    "document_of",
    "epoch_to_iso",
    "evaluate",
    "fov_at",
    "fov_contains",
    "fov_sector_polygon",
    "geo_distance",
    "parse_datetime",
    "parse_document",
    "position_at",
    "resolve_direction",
    "serialize_document",
    "spatial_bbox",
    "time_extent",
    "visible_intervals",
]
