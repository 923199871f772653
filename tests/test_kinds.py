"""Kind x operation: the outcome of every per-kind operation on the four reference documents.

Each cell is the value an operation returns or the error class it raises, so
moving a kind's behaviour between modules cannot change an answer unnoticed.
"""

from __future__ import annotations

import pytest

from geomedia import (
    Annotation,
    FieldOfView,
    GeoPoint,
    QuerySpec,
    TimeInterval,
    evaluate,
    fov_at,
    parse_document,
    position_at,
    serialize_document,
    spatial_bbox,
    time_extent,
    visible_intervals,
)
from geomedia import codec, media
from geomedia.errors import BadQueryError, GeoMediaError, ParseError, WrongKindError

from conftest import T0, T2, fixture_bytes

FIXTURES = {
    "MovingPoint": "moving_point.json",
    "MovingDouble": "moving_double.json",
    "stphoto": "stphoto.json",
    "MovingVideo": "moving_video.json",
}

PHOTO_CAMERA = GeoPoint(-122.0879583, 37.4184889)
PHOTO_FOV = FieldOfView(63, 60, 90, 30)
VIDEO_FOV = FieldOfView(63, 50, 90, 30)
# About 20 m east of the photo's camera, and about 14 m east of the video's
# first camera position; both cameras look due east with a 30 m reach.
SPOT = {
    "MovingPoint": GeoPoint(150.0002, 50.0),
    "MovingDouble": GeoPoint(150.0002, 50.0),
    "stphoto": GeoPoint(-122.0877, 37.4184889),
    "MovingVideo": GeoPoint(150.0002, 50.0),
}
ACCEPTED = "accepted"

EXPECTED = {
    "MovingPoint": {
        "position_at": GeoPoint(155.0, 55.0, 11.0),
        "fov_at": WrongKindError,
        "fov_at_t": WrongKindError,
        "visible_intervals": WrongKindError,
        "visible_intervals_step_0": BadQueryError,
        "spatial_bbox": (150.0, 50.0, 170.0, 60.0),
        "time_extent": TimeInterval(T0, T2),
        "visible_from": WrongKindError,
        "time_ranged_annotation": ParseError,
    },
    "MovingDouble": {
        "position_at": WrongKindError,
        "fov_at": WrongKindError,
        "fov_at_t": WrongKindError,
        "visible_intervals": WrongKindError,
        "visible_intervals_step_0": BadQueryError,
        "spatial_bbox": None,
        "time_extent": TimeInterval(T0, T2),
        "visible_from": WrongKindError,
        "time_ranged_annotation": ParseError,
    },
    "stphoto": {
        "position_at": WrongKindError,
        "fov_at": (PHOTO_CAMERA, 90.0, PHOTO_FOV),
        "fov_at_t": (PHOTO_CAMERA, 90.0, PHOTO_FOV),
        "visible_intervals": [TimeInterval(T0, T0)],
        "visible_intervals_step_0": BadQueryError,
        "spatial_bbox": (-122.0879583, 37.41834793156691, -122.08761859992923, 37.41862986772647),
        "time_extent": TimeInterval(T0, T0),
        "visible_from": ["f1"],
        "time_ranged_annotation": ParseError,
    },
    "MovingVideo": {
        "position_at": GeoPoint(155.0, 55.0),
        "fov_at": BadQueryError,
        "fov_at_t": (GeoPoint(155.0, 55.0), 90.0, VIDEO_FOV),
        "visible_intervals": [TimeInterval(T0, T0)],
        "visible_intervals_step_0": BadQueryError,
        "spatial_bbox": (150.0, 50.0, 170.0, 60.0),
        "time_extent": TimeInterval(T0, T2),
        "visible_from": ["f1"],
        "time_ranged_annotation": ACCEPTED,
    },
}

# Canonical bytes in both time styles; member order is fixed per kind.
SERIALIZED = {
    "MovingPoint": (
        b'{"type": "MovingPoint", "coordinates": [[150, 50, 10], [160, 60, 12], [170, 60, 11]], '
        b'"timeline": [1533128461000, 1533128462000, 1533128463000], "interpolation": "linear"}',
        b'{"type": "MovingPoint", "coordinates": [[150, 50, 10], [160, 60, 12], [170, 60, 11]], '
        b'"datetimes": ["2018-08-01T13:01:01Z", "2018-08-01T13:01:02Z", "2018-08-01T13:01:03Z"], '
        b'"interpolation": "linear"}',
    ),
    "MovingDouble": (
        b'{"type": "MovingDouble", "values": [5, 9, 6], '
        b'"timeline": [1533128461000, 1533128462000, 1533128463000], "interpolation": "stepwise"}',
        b'{"type": "MovingDouble", "values": [5, 9, 6], '
        b'"datetimes": ["2018-08-01T13:01:01Z", "2018-08-01T13:01:02Z", "2018-08-01T13:01:03Z"], '
        b'"interpolation": "stepwise"}',
    ),
    "stphoto": (
        b'{"type": "stphoto", "uri": "http://u-gis.net/images/mphoto1.jpg", '
        b'"coordinates": [-122.0879583, 37.4184889], "timeline": [1533128461000], '
        b'"fov": {"type": "fov", "horizontalAngle": 63, "verticalAngle": 60, '
        b'"direction2d": 90, "distance": 30}}',
        b'{"type": "stphoto", "uri": "http://u-gis.net/images/mphoto1.jpg", '
        b'"coordinates": [-122.0879583, 37.4184889], "datetimes": ["2018-08-01T13:01:01Z"], '
        b'"fov": {"type": "fov", "horizontalAngle": 63, "verticalAngle": 60, '
        b'"direction2d": 90, "distance": 30}}',
    ),
    "MovingVideo": (
        b'{"type": "MovingVideo", "uri": "http://u-gis.net/videos/video1.mp4", '
        b'"coordinates": [[150, 50], [160, 60], [170, 60]], '
        b'"fov": [{"verticalAngle": 50, "horizontalAngle": 63, "viewDistance": 30, "direction2d": 90}], '
        b'"timeline": [1533128461000, 1533128462000, 1533128463000], "interpolation": "linear"}',
        b'{"type": "MovingVideo", "uri": "http://u-gis.net/videos/video1.mp4", '
        b'"coordinates": [[150, 50], [160, 60], [170, 60]], '
        b'"fov": [{"verticalAngle": 50, "horizontalAngle": 63, "viewDistance": 30, "direction2d": 90}], '
        b'"datetimes": ["2018-08-01T13:01:01Z", "2018-08-01T13:01:02Z", "2018-08-01T13:01:03Z"], '
        b'"interpolation": "linear"}',
    ),
}


def _outcome(fn):
    try:
        return fn()
    except GeoMediaError as exc:
        return type(exc)


def _store_with(store, kind, doc):
    store.create_collection("c", "c", kind)
    store.put_feature("c", "f1", doc)
    return store


OPERATIONS = {
    "position_at": lambda kind, doc, store: position_at(doc, T0 + 500),
    "fov_at": lambda kind, doc, store: tuple(fov_at(doc)),
    "fov_at_t": lambda kind, doc, store: tuple(fov_at(doc, T0 + 500)),
    "visible_intervals": lambda kind, doc, store: visible_intervals(doc, SPOT[kind]),
    "visible_intervals_step_0": lambda kind, doc, store: visible_intervals(doc, SPOT[kind], 0),
    "spatial_bbox": lambda kind, doc, store: spatial_bbox(doc),
    "time_extent": lambda kind, doc, store: time_extent(doc),
    "visible_from": lambda kind, doc, store: [
        r.fid for r in evaluate(_store_with(store, kind, doc), "c", QuerySpec(visible_from=SPOT[kind]))
    ],
    "time_ranged_annotation": lambda kind, doc, store: _store_with(store, kind, doc).put_annotation(
        "c", "f1", Annotation("a1", "text", "x", TimeInterval(T0, T0))
    )
    and ACCEPTED,
}


@pytest.mark.parametrize("operation", sorted(OPERATIONS))
@pytest.mark.parametrize("kind", sorted(FIXTURES))
def test_kind_operation(kind, operation, store):
    doc = parse_document(fixture_bytes(FIXTURES[kind]))
    assert doc.kind == kind
    assert _outcome(lambda: OPERATIONS[operation](kind, doc, store)) == EXPECTED[kind][operation]


@pytest.mark.parametrize("style", ["epoch", "iso"])
@pytest.mark.parametrize("kind", sorted(FIXTURES))
def test_kind_round_trip(kind, style):
    doc = parse_document(fixture_bytes(FIXTURES[kind]))
    data = serialize_document(doc, style)
    assert data == SERIALIZED[kind][style == "iso"]
    assert parse_document(data) == doc


def test_every_kind_has_one_class_and_one_codec():
    assert len(set(media.KINDS)) == len(media.KINDS)
    assert set(codec._CODECS) == set(codec.CANONICAL_KINDS.values()) == set(media.KINDS)
    assert media.CAMERA_KINDS | media.TRACK_KINDS | media.TIME_RANGE_KINDS <= set(media.KINDS)
