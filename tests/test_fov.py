"""Geodesy and field-of-view geometry against independently coded formulas."""

from __future__ import annotations

import math
import random

import pytest

from geomedia import (
    FieldOfView,
    GeoPoint,
    bearing,
    destination,
    fov_contains,
    fov_sector_polygon,
    geo_distance,
    resolve_direction,
)
from geomedia.errors import BadQueryError
from geomedia.geo import angle_between

RADIUS = 6371008.8


# -- oracles: textbook haversine / forward azimuth, written without looking
#    at the implementation.

def oracle_distance(a: GeoPoint, b: GeoPoint) -> float:
    p1, p2 = math.radians(a.lat), math.radians(b.lat)
    dp = math.radians(b.lat - a.lat)
    dl = math.radians(b.lon - a.lon)
    h = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * RADIUS * math.atan2(math.sqrt(h), math.sqrt(1 - h))


def oracle_bearing(a: GeoPoint, b: GeoPoint) -> float:
    p1, p2 = math.radians(a.lat), math.radians(b.lat)
    dl = math.radians(b.lon - a.lon)
    y = math.sin(dl) * math.cos(p2)
    x = math.cos(p1) * math.sin(p2) - math.sin(p1) * math.cos(p2) * math.cos(dl)
    return (math.degrees(math.atan2(y, x)) + 360) % 360


def oracle_contains(camera, direction, fov, p) -> bool:
    d = oracle_distance(camera, p)
    if d == 0:
        return True
    if d > fov.view_distance:
        return False
    diff = abs(oracle_bearing(camera, p) - direction) % 360
    diff = min(diff, 360 - diff)
    return diff <= fov.h_angle / 2


class TestGeoDistance:
    def test_zero(self):
        p = GeoPoint(12.5, -3.25)
        assert geo_distance(p, p) == 0.0

    def test_one_thousandth_degree_lon_at_equator(self):
        # frozen from oracle_distance
        d = geo_distance(GeoPoint(0, 0), GeoPoint(0.001, 0))
        assert d == pytest.approx(111.19508023353293, rel=1e-12)

    def test_one_thousandth_degree_lat(self):
        d = geo_distance(GeoPoint(0, 0), GeoPoint(0, 0.001))
        assert d == pytest.approx(111.19508023353293, rel=1e-12)

    def test_matches_oracle_randomly(self):
        rng = random.Random("dist")
        for _ in range(200):
            a = GeoPoint(rng.uniform(-180, 180), rng.uniform(-90, 90))
            b = GeoPoint(rng.uniform(-180, 180), rng.uniform(-90, 90))
            assert geo_distance(a, b) == pytest.approx(oracle_distance(a, b), rel=1e-12, abs=1e-9)


class TestBearing:
    def test_cardinal_directions(self):
        origin = GeoPoint(0, 0)
        assert bearing(origin, GeoPoint(0, 1)) == pytest.approx(0.0, abs=1e-9)
        assert bearing(origin, GeoPoint(1, 0)) == pytest.approx(90.0, abs=1e-9)
        assert bearing(origin, GeoPoint(0, -1)) == pytest.approx(180.0, abs=1e-9)
        assert bearing(origin, GeoPoint(-1, 0)) == pytest.approx(270.0, abs=1e-9)

    def test_diagonal_from_oracle(self):
        assert bearing(GeoPoint(0, 0), GeoPoint(1, 1)) == pytest.approx(
            44.99563645534488, abs=1e-9
        )

    def test_coincident_points(self):
        with pytest.raises(BadQueryError, match="bearing undefined for coincident points"):
            bearing(GeoPoint(5, 5), GeoPoint(5, 5))

    def test_range_and_oracle(self):
        rng = random.Random("brg")
        for _ in range(200):
            a = GeoPoint(rng.uniform(-180, 180), rng.uniform(-89, 89))
            b = GeoPoint(rng.uniform(-180, 180), rng.uniform(-89, 89))
            if a.same_position(b):
                continue
            got = bearing(a, b)
            assert 0 <= got < 360
            assert got == pytest.approx(oracle_bearing(a, b), abs=1e-9)


class TestDestination:
    def test_zero_distance_returns_point(self):
        p = GeoPoint(10, 20, 30.0)
        assert destination(p, 137, 0) is p

    def test_east_100m_from_oracle(self):
        q = destination(GeoPoint(0, 0), 90, 100)
        assert q.lon == pytest.approx(0.0008993203637036064, rel=1e-9)
        assert q.lat == pytest.approx(0.0, abs=1e-12)

    def test_round_trip_distance(self):
        rng = random.Random("dest")
        for _ in range(200):
            p = GeoPoint(rng.uniform(-170, 170), rng.uniform(-80, 80))
            d = rng.uniform(0.1, 50_000)
            q = destination(p, rng.uniform(0, 360), d)
            assert geo_distance(p, q) == pytest.approx(d, rel=1e-6)

    def test_bearing_recovered(self):
        p = GeoPoint(5, 5)
        for brg in (0, 45, 90, 133.7, 270):
            q = destination(p, brg, 500)
            diff = abs(bearing(p, q) - brg) % 360
            assert min(diff, 360 - diff) == pytest.approx(0.0, abs=1e-3)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            destination(GeoPoint(0, 0), 90, -1)

    def test_crosses_antimeridian_eastward(self):
        p = GeoPoint(179.9995, 10)
        q = destination(p, 90, 200)
        assert -180 <= q.lon < -179.99
        assert geo_distance(p, q) == pytest.approx(200, rel=1e-6)
        assert oracle_distance(p, q) == pytest.approx(200, rel=1e-6)

    def test_crosses_antimeridian_westward(self):
        p = GeoPoint(-179.9995, -10)
        q = destination(p, 270, 200)
        assert 179.99 < q.lon <= 180
        assert geo_distance(p, q) == pytest.approx(200, rel=1e-6)


class TestGeoPoint:
    @pytest.mark.parametrize("lon, lat", [(-180, 0), (180, 0), (0, -90), (0, 90)])
    def test_range_bounds_are_inclusive(self, lon, lat):
        p = GeoPoint(lon, lat)
        assert (p.lon, p.lat) == (lon, lat)

    @pytest.mark.parametrize("alt", [math.nan, math.inf, -math.inf])
    def test_altitude_must_be_finite(self, alt):
        with pytest.raises(ValueError):
            GeoPoint(0, 0, alt)

    def test_same_position_ignores_altitude(self):
        assert GeoPoint(1, 2, 5.0).same_position(GeoPoint(1, 2))
        assert not GeoPoint(1, 2).same_position(GeoPoint(1, 2.000001))


class TestAngleBetween:
    @pytest.mark.parametrize("a, b, want", [
        (0, 0, 0),
        (10, 350, 20),
        (350, 10, 20),
        (90, 270, 180),
        (725, 0, 5),
        (-30, 30, 60),
        (0, 359.5, 0.5),
    ])
    def test_smallest_circular_difference(self, a, b, want):
        assert angle_between(a, b) == pytest.approx(want, abs=1e-12)
        assert angle_between(b, a) == pytest.approx(want, abs=1e-12)


class TestResolveDirection:
    def test_absolute_passthrough(self):
        fov = FieldOfView(direction2d=90)
        assert resolve_direction(fov) == 90
        assert resolve_direction(fov, heading=215) == 90

    def test_relative_labels(self):
        # -360 front, -90 right, -180 rear, -270 left; checked against the
        # mapping table for both a northbound and an eastbound heading
        for heading in (0.0, 90.0):
            assert resolve_direction(FieldOfView(direction2d=-360), heading) == heading % 360
            assert resolve_direction(FieldOfView(direction2d=-90), heading) == (heading + 90) % 360
            assert resolve_direction(FieldOfView(direction2d=-180), heading) == (heading + 180) % 360
            assert resolve_direction(FieldOfView(direction2d=-270), heading) == (heading + 270) % 360

    def test_front_follows_heading(self):
        assert resolve_direction(FieldOfView(direction2d=-360), heading=37) == 37

    def test_missing_heading(self):
        with pytest.raises(BadQueryError, match="relative direction -90 needs the carrier heading"):
            resolve_direction(FieldOfView(direction2d=-90))

    def test_output_range(self):
        rng = random.Random("dir")
        for _ in range(200):
            d2d = rng.uniform(-360, 360 - 1e-9)
            out = resolve_direction(FieldOfView(direction2d=d2d), heading=rng.uniform(0, 720))
            assert 0 <= out < 360
            if d2d >= 0:
                assert out == d2d


class TestFieldOfViewValidation:
    def test_defaults(self):
        fov = FieldOfView()
        assert (fov.h_angle, fov.v_angle, fov.view_distance) == (63.0, 60.0, 100.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"h_angle": 0}, {"h_angle": 361}, {"v_angle": 0}, {"v_angle": 181},
            {"direction2d": -361}, {"direction2d": 360}, {"view_distance": 0},
            {"view_distance": math.inf},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            FieldOfView(**kwargs)


class TestSectorPolygon:
    def test_arc_vertex_count(self):
        # ceil(63/5) = 13 segments -> 14 arc points -> ring of 16 with apex+closure
        ring = fov_sector_polygon(GeoPoint(0, 0), 0, FieldOfView(h_angle=63), 5).ring
        assert len(ring) == 16
        assert ring[0] == ring[-1]

    @pytest.mark.parametrize("step", [0, -1, float("nan")])
    def test_arc_step_must_be_positive(self, step):
        with pytest.raises(ValueError, match="arc step"):
            fov_sector_polygon(GeoPoint(0, 0), 0, FieldOfView(), step)

    def test_arc_points_at_view_distance(self):
        camera = GeoPoint(8, 47)
        fov = FieldOfView(h_angle=120, view_distance=250)
        ring = fov_sector_polygon(camera, 200, fov).ring
        for p in ring[1:-1]:
            assert geo_distance(camera, p) == pytest.approx(250, rel=1e-6)

    def test_tiny_view_distance_degenerates_to_camera(self):
        camera = GeoPoint(3, 4)
        ring = fov_sector_polygon(camera, 90, FieldOfView(view_distance=1e-6)).ring
        for p in ring:
            assert abs(p.lon - camera.lon) < 1e-9
            assert abs(p.lat - camera.lat) < 1e-9

    def test_reference_photo_sector_lies_east(self):
        camera = GeoPoint(-122.0879583, 37.4184889)
        fov = FieldOfView(h_angle=63, v_angle=60, direction2d=90, view_distance=30)
        ring = fov_sector_polygon(camera, 90, fov).ring
        for p in ring[1:-1]:
            assert p.lon > camera.lon

    def test_full_circle_has_no_apex(self):
        camera = GeoPoint(0, 0)
        ring = fov_sector_polygon(camera, 0, FieldOfView(h_angle=360), 5).ring
        assert len(ring) == 73
        assert ring[0] == ring[-1]
        for p in ring:
            assert geo_distance(camera, p) == pytest.approx(100, rel=1e-6)


class TestFovContains:
    def test_inside_along_axis(self):
        camera = GeoPoint(0, 0)
        fov = FieldOfView(h_angle=63, view_distance=1000)
        assert fov_contains(camera, 90, fov, destination(camera, 90, 100))

    def test_perpendicular_excluded(self):
        camera = GeoPoint(0, 0)
        fov = FieldOfView(h_angle=63, view_distance=1000)
        assert not fov_contains(camera, 90, fov, destination(camera, 0, 100))

    def test_beyond_distance_excluded(self):
        camera = GeoPoint(0, 0)
        fov = FieldOfView(h_angle=63, view_distance=1000)
        assert not fov_contains(camera, 90, fov, destination(camera, 90, 2000))

    def test_camera_itself_visible(self):
        camera = GeoPoint(0, 0)
        assert fov_contains(camera, 90, FieldOfView(), camera)

    def test_matches_brute_force_oracle(self):
        rng = random.Random("contains")
        hits = 0
        for _ in range(1000):
            camera = GeoPoint(rng.uniform(-170, 170), rng.uniform(-80, 80))
            fov = FieldOfView(
                h_angle=rng.uniform(5, 360),
                direction2d=rng.uniform(0, 359.99),
                view_distance=rng.uniform(10, 5000),
            )
            p = destination(
                camera, rng.uniform(0, 360), rng.uniform(0, fov.view_distance * 2)
            )
            want = oracle_contains(camera, fov.direction2d, fov, p)
            got = fov_contains(camera, fov.direction2d, fov, p)
            assert got == want
            hits += got
        assert 0 < hits < 1000  # both outcomes exercised

    def test_sampled_interior_and_exterior(self):
        rng = random.Random("sector-sample")
        camera = GeoPoint(10, 50)
        fov = FieldOfView(h_angle=80, direction2d=45, view_distance=500)
        for _ in range(300):
            inside_bearing = 45 + rng.uniform(-40, 40)
            inside = destination(camera, inside_bearing, rng.uniform(0, 500))
            assert fov_contains(camera, 45, fov, inside)
            outside_far = destination(camera, inside_bearing, 500 * (1 + 1e-4))
            assert not fov_contains(camera, 45, fov, outside_far)
            off_axis = destination(
                camera, 45 + rng.choice([-1, 1]) * (40 + 1 + rng.uniform(0, 120)),
                rng.uniform(1, 500),
            )
            assert not fov_contains(camera, 45, fov, off_axis)
