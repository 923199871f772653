"""Cross-kind extent and bbox views."""

from __future__ import annotations

import random

import pytest

from geomedia import (
    FieldOfView,
    GeoPoint,
    MovingDouble,
    MovingPoint,
    MovingVideo,
    STPhoto,
    TimeInterval,
    document_of,
    spatial_bbox,
    time_extent,
)

from geomedia.temporal import MAX_TIME, MIN_TIME

from conftest import T0, T2


class TestTimeExtent:
    def test_all_kinds(self, moving_point_doc, moving_double_doc, stphoto_doc, moving_video_doc):
        assert time_extent(moving_point_doc) == TimeInterval(T0, T2)
        assert time_extent(moving_double_doc) == TimeInterval(T0, T2)
        assert time_extent(stphoto_doc) == TimeInterval(T0, T0)
        assert time_extent(moving_video_doc) == TimeInterval(T0, T2)

    def test_accepts_bare_payloads(self, moving_point_doc):
        assert time_extent(moving_point_doc.payload) == TimeInterval(T0, T2)


class TestSpatialBbox:
    def test_reference_track(self, moving_point_doc):
        assert spatial_bbox(moving_point_doc) == (150.0, 50.0, 170.0, 60.0)

    def test_single_point(self):
        mp = MovingPoint((0,), (GeoPoint(5, 5),))
        assert spatial_bbox(mp) == (5.0, 5.0, 5.0, 5.0)

    def test_photo_covers_sector(self):
        # camera at the origin looking north, 100 m: the bbox must reach the
        # sector's far edge, about 0.0009 degrees north: the arc point at
        # bearing 0, at or past every vertex of the 5-degree sector polygon.
        from geomedia import destination, fov_sector_polygon

        camera = GeoPoint(0, 0)
        fov = FieldOfView(h_angle=63, direction2d=0, view_distance=100)
        photo = STPhoto("u:p", camera, 0, fov)
        min_lon, min_lat, max_lon, max_lat = spatial_bbox(photo)
        ring = fov_sector_polygon(camera, 0, fov).ring
        assert min_lat == 0.0
        assert max_lat == destination(camera, 0, 100).lat
        assert all(max_lat >= p.lat for p in ring)
        assert all(min_lon <= p.lon <= max_lon for p in ring)
        assert max_lat == pytest.approx(0.0009, abs=2e-6)
        assert min_lon < 0 < max_lon

    def test_random_photo_boxes_hold_the_arc_and_camera(self):
        # latitudes up to 85, wedges across north or east (or a full circle),
        # view distances up to 200 km; longitudes keep clear of +-180. The
        # radii are swept too: near a pole one bulges past both its ends.
        from geomedia import destination

        rng = random.Random(15)
        for _ in range(12):
            camera = GeoPoint(rng.uniform(-150, 150), rng.uniform(-85, 85))
            h_angle = rng.choice([360.0, rng.uniform(1, 359)])
            across = rng.choice([0.0, 90.0])
            direction = (across + rng.uniform(-h_angle, h_angle) / 2) % 360
            distance = rng.uniform(1, 200_000)
            fov = FieldOfView(h_angle=h_angle, direction2d=direction, view_distance=distance)
            min_lon, min_lat, max_lon, max_lat = spatial_bbox(STPhoto("u:p", camera, 0, fov))
            start, steps = direction - h_angle / 2, int(h_angle / 0.01)
            arc = [destination(camera, start + k * h_angle / steps, distance)
                   for k in range(steps + 1)]
            radii = [destination(camera, b, k * distance / 200)
                     for b in (start, start + h_angle) for k in range(1, 200)]
            for p in [camera, *arc, *radii]:
                assert min_lon <= p.lon <= max_lon and min_lat <= p.lat <= max_lat, (fov, camera, p)

    def test_photo_box_holds_the_turn_of_a_radius(self):
        # at 80 N a radius at bearing 85 turns south after ~100 km, so the
        # wedge's northmost point lies inside it, above the camera and both arc ends
        from geomedia import destination

        camera = GeoPoint(10, 80)
        photo = STPhoto("u:p", camera, 0, FieldOfView(h_angle=10, direction2d=90,
                                                      view_distance=200_000))
        max_lat = spatial_bbox(photo)[3]
        radius = [destination(camera, 85, k * 1000) for k in range(201)]
        assert max_lat >= max(p.lat for p in radius)
        assert max_lat > max(camera.lat, radius[-1].lat, destination(camera, 95, 200_000).lat)

    @pytest.mark.parametrize("lon, direction", [(-179.691, 240.4), (179.691, 60.4)])
    def test_photo_box_across_the_antimeridian_spans_every_longitude(self, lon, direction):
        # the wedge reaches past +-180, where longitudes wrap: a box from
        # the camera to the far side's longitudes would leave out the strip
        # between the camera and the antimeridian, which the camera sees
        from geomedia import destination
        from geomedia.fov import fov_contains

        camera = GeoPoint(lon, -0.402)
        fov = FieldOfView(h_angle=90, direction2d=direction, view_distance=546_500)
        box = spatial_bbox(STPhoto("u:p", camera, 0, fov))
        seen = destination(camera, direction + 30, 1_500)
        assert fov_contains(camera, direction, fov, seen)
        assert abs(seen.lon) > abs(lon)  # between the camera and the antimeridian
        assert (box[0], box[2]) == (-180.0, 180.0)
        assert box[1] <= seen.lat <= box[3]

    def test_photo_box_of_a_view_over_the_pole(self):
        # a radius's turn point over the pole once rounded the sine of its
        # latitude past 1, and the box raised ValueError
        from geomedia import destination

        camera = GeoPoint(179.83423743860223, 89.68269723602516)
        fov = FieldOfView(h_angle=200, direction2d=93.73537090873825,
                          view_distance=171559.73819578547)
        min_lon, min_lat, max_lon, max_lat = spatial_bbox(STPhoto("u:p", camera, 0, fov))
        assert (min_lon, max_lon, max_lat) == (-180.0, 180.0, 90.0)
        assert min_lat <= min(destination(camera, b, fov.view_distance).lat
                              for b in range(-7, 195))

    def test_video_uses_track(self, moving_video_doc):
        assert spatial_bbox(moving_video_doc) == (150.0, 50.0, 170.0, 60.0)

    def test_moving_double_without_track(self, moving_double_doc):
        assert spatial_bbox(moving_double_doc) is None

    def test_moving_double_with_track(self):
        md = MovingDouble((0, 1), (1.0, 2.0), track=(GeoPoint(3, 4), GeoPoint(5, 6)))
        assert spatial_bbox(md) == (3.0, 4.0, 5.0, 6.0)


class TestDocumentInvariants:
    def test_kind_must_match_payload(self, moving_point_doc):
        from geomedia import GeoMediaDocument

        with pytest.raises(ValueError):
            GeoMediaDocument("stphoto", moving_point_doc.payload)

    def test_document_of_derives_kind(self):
        mp = MovingPoint((0,), (GeoPoint(0, 0),))
        assert document_of(mp).kind == "MovingPoint"

    def test_video_fov_arity(self):
        track = MovingPoint((0, 1, 2), (GeoPoint(0, 0), GeoPoint(1, 1), GeoPoint(2, 2)))
        with pytest.raises(ValueError):
            MovingVideo("u:v", track, (FieldOfView(), FieldOfView()))

    def test_photo_relative_direction_rejected(self):
        with pytest.raises(ValueError):
            STPhoto("u:p", GeoPoint(0, 0), 0, FieldOfView(direction2d=-90))

    @pytest.mark.parametrize("t", [MIN_TIME - 1, MAX_TIME + 1, 1.5, "0"],
                             ids=["year-0", "year-10000", "float", "str"])
    def test_photo_time_must_be_an_integer_in_iso_years(self, t):
        with pytest.raises(ValueError, match="is not an integer in years 1-9999"):
            STPhoto("u:p", GeoPoint(0, 0), t)

    def test_video_relative_direction_needs_a_moving_track(self):
        still = MovingPoint((0, 1), (GeoPoint(0, 0), GeoPoint(0, 0)))
        with pytest.raises(ValueError, match="a mount-relative direction needs a moving track"):
            MovingVideo("u:v", still, (FieldOfView(direction2d=90), FieldOfView(direction2d=-180)))
        assert MovingVideo("u:v", still, (FieldOfView(direction2d=90),)).fovs[0].direction2d == 90
