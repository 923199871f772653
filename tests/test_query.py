"""Query engine: evaluation operators and linear-scan equivalence."""

from __future__ import annotations

import random

import pytest

from geomedia import (
    FieldOfView,
    GeoPoint,
    InterpolationMode,
    MovingPoint,
    MovingVideo,
    QuerySpec,
    destination,
    document_of,
    evaluate,
    fov_at,
    geo_distance,
    position_at,
    visible_intervals,
)
from geomedia.errors import (
    BadQueryError,
    DegenerateTrackError,
    OutOfRangeError,
    WrongKindError,
)

from conftest import T0, T1, T2


def track(coords, times=None, mode=InterpolationMode.LINEAR):
    times = times or tuple(range(0, len(coords) * 1000, 1000))
    return MovingPoint(tuple(times), tuple(GeoPoint(*c) for c in coords), mode)


def eastbound_video(fov, lat=0.0, seconds=100):
    """Straight track heading due east along a parallel, one sample per second."""
    pts = [GeoPoint(i * 0.0001, lat) for i in range(seconds + 1)]
    times = [i * 1000 for i in range(seconds + 1)]
    return MovingVideo("u:video", MovingPoint(tuple(times), tuple(pts)), (fov,))


class TestPositionAt:
    def test_reference_moving_point(self, moving_point_doc):
        assert position_at(moving_point_doc, T1) == GeoPoint(160.0, 60.0, 12.0)

    def test_reference_moving_video(self, moving_video_doc):
        assert position_at(moving_video_doc, T1) == GeoPoint(160.0, 60.0)

    def test_photo_is_wrong_kind(self, stphoto_doc):
        with pytest.raises(WrongKindError):
            position_at(stphoto_doc, T0)

    def test_out_of_range(self, moving_video_doc):
        with pytest.raises(OutOfRangeError):
            position_at(moving_video_doc, T0 - 1)


class TestFovAt:
    def test_absolute_direction_passthrough(self, moving_video_doc):
        for t in (T0, T0 + 500, T1, T2):
            state = fov_at(moving_video_doc, t)
            assert state.direction == 90.0

    def test_fixed_direction_follows_heading(self):
        video = eastbound_video(FieldOfView(direction2d=-360))
        state = fov_at(video, 50_000)
        assert state.direction == pytest.approx(90.0, abs=0.01)

    def test_fixed_right_of_heading(self):
        video = eastbound_video(FieldOfView(direction2d=-90))
        state = fov_at(video, 50_000)
        assert state.direction == pytest.approx(180.0, abs=0.01)

    def test_fixed_direction_needs_motion(self):
        static = MovingVideo(
            "u:v", MovingPoint((0,), (GeoPoint(0, 0),)), (FieldOfView(direction2d=-360),)
        )
        with pytest.raises(DegenerateTrackError):
            fov_at(static, 0)

    def test_per_sample_selection_is_stepwise(self):
        fovs = (
            FieldOfView(direction2d=0),
            FieldOfView(direction2d=90),
            FieldOfView(direction2d=180),
        )
        video = MovingVideo(
            "u:v",
            MovingPoint((0, 1000, 2000), (GeoPoint(0, 0), GeoPoint(0.001, 0), GeoPoint(0.002, 0))),
            fovs,
        )
        assert fov_at(video, 0).direction == 0
        assert fov_at(video, 999).direction == 0
        assert fov_at(video, 1000).direction == 90
        assert fov_at(video, 1500).direction == 90
        assert fov_at(video, 2000).direction == 180

    def test_camera_interpolated(self):
        video = eastbound_video(FieldOfView(direction2d=0))
        camera = fov_at(video, 500).camera
        assert camera.lon == pytest.approx(0.00005, abs=1e-12)


class TestVisibleIntervals:
    def test_never_visible(self):
        video = eastbound_video(FieldOfView(direction2d=0, view_distance=100))
        far = destination(GeoPoint(0.005, 0), 0, 10_000)
        assert visible_intervals(video, far) == []

    def test_static_video_whole_extent(self):
        camera = GeoPoint(0, 0)
        video = MovingVideo(
            "u:v",
            MovingPoint((T0,), (camera,)),
            (FieldOfView(direction2d=0, view_distance=100),),
        )
        p = destination(camera, 0, 50)
        intervals = visible_intervals(video, p)
        assert len(intervals) == 1
        assert (intervals[0].start, intervals[0].end) == (T0, T0)

    def test_boundaries_within_one_step_of_dense_sweep(self):
        fov = FieldOfView(direction2d=0, h_angle=63, view_distance=100)
        video = eastbound_video(fov)
        p = destination(GeoPoint(0.005, 0), 0, 30)  # 30 m north of mid-track
        coarse = visible_intervals(video, p, 100)
        dense = visible_intervals(video, p, 1)
        assert len(coarse) == len(dense) == 1
        assert abs(coarse[0].start - dense[0].start) <= 100
        assert abs(coarse[0].end - dense[0].end) <= 100

    def test_intervals_disjoint_sorted_inside_extent(self):
        # camera sweeping full circles: several visibility windows
        fovs = tuple(
            FieldOfView(direction2d=(i * 60) % 360, h_angle=63, view_distance=200)
            for i in range(21)
        )
        pts = tuple(GeoPoint(i * 0.00001, 0) for i in range(21))
        times = tuple(i * 1000 for i in range(21))
        video = MovingVideo("u:v", MovingPoint(times, pts), fovs)
        p = destination(GeoPoint(0.0001, 0), 0, 50)
        intervals = visible_intervals(video, p, 100)
        assert intervals  # the north-facing entries must see it
        extent = video.time_extent()
        for iv in intervals:
            assert extent.start <= iv.start <= iv.end <= extent.end
        for a, b in zip(intervals, intervals[1:]):
            assert a.end < b.start

    def test_halving_step_keeps_shared_hits(self):
        fov = FieldOfView(direction2d=0, h_angle=40, view_distance=80)
        video = eastbound_video(fov, seconds=20)
        p = destination(GeoPoint(0.001, 0), 0, 40)
        coarse = visible_intervals(video, p, 200)
        fine = visible_intervals(video, p, 100)

        def covered(intervals, t):
            return any(iv.start <= t <= iv.end for iv in intervals)

        extent = video.time_extent()
        for t in range(extent.start, extent.end + 1, 200):
            if covered(coarse, t):
                assert covered(fine, t)

    def test_bad_step(self, moving_video_doc):
        with pytest.raises(BadQueryError):
            visible_intervals(moving_video_doc, GeoPoint(0, 0), 0)

    def test_discrete_track_only_at_samples(self, store):
        # a discrete track has no position between its samples, so neither
        # the sweep nor visibleFrom may evaluate the grid in between
        pts = (GeoPoint(0, 0), GeoPoint(0.001, 0), GeoPoint(0.002, 0))
        video = MovingVideo(
            "u:dashcam",
            MovingPoint((0, 1000, 2000), pts, InterpolationMode.DISCRETE),
            (FieldOfView(direction2d=0, view_distance=100),),
        )
        p = destination(pts[1], 0, 50)  # ahead of the middle sample only
        intervals = visible_intervals(video, p)
        assert [(iv.start, iv.end) for iv in intervals] == [(1000, 1000)]
        store.create_collection("dashcam", "Dashcam", "MovingVideo")
        store.put_feature("dashcam", "d1", document_of(video))
        assert [r.fid for r in evaluate(store, "dashcam", QuerySpec(visible_from=p))] == ["d1"]


class TestEvaluate:
    @pytest.fixture
    def photo_store(self, store, stphoto_doc):
        store.create_collection("pics", "Photos", "stphoto")
        store.put_feature("pics", "p1", stphoto_doc)
        return store

    def test_visible_from_east_of_camera(self, photo_store, stphoto_doc):
        camera = stphoto_doc.payload.loc
        east = destination(camera, 90, 10)
        spec = QuerySpec(visible_from=east)
        assert [r.fid for r in evaluate(photo_store, "pics", spec)] == ["p1"]

    def test_not_visible_behind_camera(self, photo_store, stphoto_doc):
        camera = stphoto_doc.payload.loc
        west = destination(camera, 270, 10)
        assert evaluate(photo_store, "pics", QuerySpec(visible_from=west)) == []

    def test_visible_from_wrong_kind(self, store, moving_point_doc):
        store.create_collection("taxi", "t", "MovingPoint")
        store.put_feature("taxi", "t1", moving_point_doc)
        with pytest.raises(WrongKindError):
            evaluate(store, "taxi", QuerySpec(visible_from=GeoPoint(0, 0)))

    def test_near_trajectory_vertices(self, store, moving_point_doc):
        store.create_collection("taxi", "t", "MovingPoint")
        store.put_feature("taxi", "t1", moving_point_doc)
        near_vertex = (GeoPoint(160.0, 60.0), 5_000.0)
        assert [r.fid for r in evaluate(store, "taxi", QuerySpec(near=near_vertex))] == ["t1"]
        far = (GeoPoint(0.0, 0.0), 5_000.0)
        assert evaluate(store, "taxi", QuerySpec(near=far)) == []

    def test_bad_spec_values(self):
        with pytest.raises(BadQueryError):
            QuerySpec(near=(GeoPoint(0, 0), 0))
        with pytest.raises(BadQueryError):
            QuerySpec(limit=0)
        with pytest.raises(BadQueryError):
            QuerySpec(offset=-1)

    def test_matches_brute_force(self, store):
        rng = random.Random("evaluate")
        store.create_collection("vids", "Videos", "MovingVideo")
        records = {}
        for i in range(60):
            lon0 = rng.uniform(-10, 10)
            lat0 = rng.uniform(-10, 10)
            n = rng.randint(1, 5)
            pts = tuple(GeoPoint(lon0 + k * 0.0001, lat0) for k in range(n))
            start = rng.randint(0, 100_000_000)
            times = tuple(start + k * 1000 for k in range(n))
            fov = FieldOfView(
                direction2d=rng.uniform(0, 359),
                h_angle=rng.uniform(20, 180),
                view_distance=rng.uniform(50, 2000),
            )
            doc = document_of(MovingVideo(f"u:{i}", MovingPoint(times, pts), (fov,)))
            records[f"v{i:02d}"] = doc
            store.put_feature("vids", f"v{i:02d}", doc)
        from geomedia import TimeInterval

        for _ in range(50):
            bbox = interval = near = visible_from = None
            if rng.random() < 0.7:
                lon, lat = rng.uniform(-12, 8), rng.uniform(-12, 8)
                bbox = (lon, lat, lon + rng.uniform(0, 10), lat + rng.uniform(0, 10))
            if rng.random() < 0.7:
                s = rng.randint(0, 100_000_000)
                interval = TimeInterval(s, s + rng.randint(0, 50_000_000))
            if rng.random() < 0.5:
                near = (GeoPoint(rng.uniform(-11, 11), rng.uniform(-11, 11)),
                        rng.uniform(100, 500_000))
            if rng.random() < 0.3:
                visible_from = GeoPoint(rng.uniform(-11, 11), rng.uniform(-11, 11))
            spec = QuerySpec(bbox=bbox, interval=interval, near=near, visible_from=visible_from)
            got = [r.fid for r in evaluate(store, "vids", spec)]
            want = []
            for fid in sorted(records):
                record = store.get_feature("vids", fid)
                if spec.bbox is not None:
                    b, q = record.bbox, spec.bbox
                    if not (b[0] <= q[2] and q[0] <= b[2] and b[1] <= q[3] and q[1] <= b[3]):
                        continue
                if spec.interval is not None and not record.extent.overlaps(spec.interval):
                    continue
                if spec.near is not None:
                    p, radius = spec.near
                    pts = record.doc.payload.track.points
                    if not any(geo_distance(v, p) <= radius for v in pts):
                        continue
                if spec.visible_from is not None:
                    if not visible_intervals(record.doc.payload, spec.visible_from):
                        continue
                want.append(fid)
            assert got == want

    def test_paging_after_refinement(self, store):
        rng = random.Random("page2")
        store.create_collection("taxi", "t", "MovingPoint")
        for i in range(8):
            mp = track([(i * 0.001, 0), (i * 0.001 + 0.0005, 0)])
            store.put_feature("taxi", f"f{i}", document_of(mp))
        all_fids = [r.fid for r in evaluate(store, "taxi", QuerySpec())]
        assert all_fids == [f"f{i}" for i in range(8)]
        page = evaluate(store, "taxi", QuerySpec(limit=3, offset=2))
        assert [r.fid for r in page] == all_fids[2:5]


@pytest.mark.parametrize("spec", [
    dict(bbox=(float("nan"), 0, 1, 1)),
    dict(bbox=(0, 0, 10**400, 1)),
    dict(near=(GeoPoint(0, 0), float("nan"))),
    dict(near=(GeoPoint(0, 0), float("inf"))),
    dict(interval=(0, float("inf"))),
])
def test_query_spec_needs_finite_values(spec):
    with pytest.raises(BadQueryError):
        QuerySpec(**spec)
