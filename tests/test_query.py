"""Query engine: evaluation operators and linear-scan equivalence."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from geomedia import (
    FieldOfView,
    GeoMediaApi,
    GeoPoint,
    InterpolationMode,
    MediaStore,
    MovingDouble,
    MovingPoint,
    MovingVideo,
    QuerySpec,
    STPhoto,
    TimeInterval,
    destination,
    document_of,
    evaluate,
    fov_at,
    fov_contains,
    geo_distance,
    parse_document,
    position_at,
    serialize_document,
    visible_intervals,
)
from geomedia import media, rtree
from geomedia.cli import main
from geomedia.errors import BadQueryError, WrongKindError
from geomedia.query import decode_query_spec

from conftest import T0, T1, T2


def track(coords, times=None, mode=InterpolationMode.LINEAR):
    times = times or tuple(range(0, len(coords) * 1000, 1000))
    return MovingPoint(tuple(times), tuple(GeoPoint(*c) for c in coords), mode)


def eastbound_video(fov, lat=0.0, seconds=100):
    """Straight track heading due east along a parallel, one sample per second."""
    pts = [GeoPoint(i * 0.0001, lat) for i in range(seconds + 1)]
    times = [i * 1000 for i in range(seconds + 1)]
    return MovingVideo("u:video", MovingPoint(tuple(times), tuple(pts)), (fov,))


def boxes_meet(a, b) -> bool:
    return a[0] <= b[2] and b[0] <= a[2] and a[1] <= b[3] and b[1] <= a[3]


def linear_scan(store, cid, spec):
    """The fids evaluate must return: every feature tested with the exact predicates."""
    out = []
    for record in store.st_query(cid):
        payload = record.doc.payload
        if spec.bbox is not None and not (record.bbox and boxes_meet(record.bbox, spec.bbox)):
            continue
        if spec.interval is not None and not record.extent.overlaps(spec.interval):
            continue
        if spec.near is not None:
            point, radius = spec.near
            if not any(geo_distance(v, point) <= radius for v in payload.vertices()):
                continue
        if spec.visible_from is not None and not visible_intervals(payload, spec.visible_from):
            continue
        out.append(record.fid)
    return out


class TestPositionAt:
    def test_reference_moving_point(self, moving_point_doc):
        assert position_at(moving_point_doc, T1) == GeoPoint(160.0, 60.0, 12.0)

    def test_reference_moving_video(self, moving_video_doc):
        assert position_at(moving_video_doc, T1) == GeoPoint(160.0, 60.0)

    def test_photo_is_wrong_kind(self, stphoto_doc):
        with pytest.raises(WrongKindError):
            position_at(stphoto_doc, T0)

    def test_out_of_range(self, moving_video_doc):
        with pytest.raises(BadQueryError, match="outside extent"):
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
        # a still track has no heading to resolve the direction against
        with pytest.raises(ValueError, match="needs a moving track"):
            MovingVideo(
                "u:v", MovingPoint((0,), (GeoPoint(0, 0),)), (FieldOfView(direction2d=-360),)
            )

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

    def test_sweep_states_are_fov_at(self):
        # the sweep works out a segment's FoV and direction once for all its samples
        rng = random.Random("sweep")
        for i in range(40):
            n = rng.randint(2, 6)
            times = tuple(1000 * k for k in range(n))
            points = tuple(random_track(rng, around(rng, rng.choice(ANCHORS)), n))
            fovs = tuple(FieldOfView(direction2d=rng.choice([-360.0, -90.0, rng.uniform(0, 359)]))
                         for _ in range(rng.choice([1, n])))
            video = MovingVideo(f"u:{i}", MovingPoint(times, points), fovs)
            samples = range(0, times[-1] + 1, 250)
            assert list(video.fov_states(samples)) == [video.fov_at(t) for t in samples]


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

    def test_equals_a_sweep_of_fov_at_written_here(self, stphoto_doc):
        """Criteria 6 and 7 compare visible_intervals with itself; this builds
        the documented answer from fov_at and fov_contains alone."""
        rng = random.Random("reference-sweep")
        answers = []
        for i in range(120):
            video = random_city_video(rng, i)
            step = rng.choice((7, 50, 100, 333))
            vertices = video.track.points
            extent = video.time_extent()
            for _ in range(4):
                # around a vertex, or a camera position between two on a moving track
                at = rng.choice(vertices)
                if video.track.mode is not InterpolationMode.DISCRETE and rng.random() < 0.5:
                    at = video.track.at(rng.randint(extent.start, extent.end))
                reach = 1.3 * max(f.view_distance for f in video.fovs)
                p = destination(at, rng.uniform(0, 360), rng.uniform(0, reach))
                answers.append(visible_intervals(video, p, step))
                assert answers[-1] == reference_intervals(video, p, step), (i, p, step)
            far = destination(vertices[0], rng.uniform(0, 360), 5_000)
            assert visible_intervals(video, far, step) == reference_intervals(video, far, step) == []
        assert sum(len(a) > 1 for a in answers) > 20  # runs broken by turns and apertures
        assert sum(a == [] for a in answers) > 20
        photo = stphoto_doc.payload
        seen = []
        for _ in range(200):
            p = destination(photo.loc, rng.uniform(0, 360), rng.uniform(0, 40))
            seen.append(visible_intervals(photo, p, rng.choice((1, 100))))
            assert seen[-1] == reference_intervals(photo, p, 100)
        assert [TimeInterval(photo.t, photo.t)] in seen and [] in seen


def random_city_video(rng, i):
    """A short city-scale video: a linear, stepwise or discrete track of a few
    samples that may stop, with one absolute or mount-relative FoV or one per
    sample, and apertures from 1 to 360 degrees."""
    n = rng.randint(2, 6)
    t = rng.randint(0, 10**9)
    times = [t]
    for _ in range(n - 1):
        times.append(times[-1] + rng.randint(1, 1500))
    points = [GeoPoint(rng.uniform(-170, 170), rng.uniform(-60, 60))]
    for _ in range(n - 1):
        stop = rng.random() < 0.3
        points.append(points[-1] if stop else destination(points[-1], rng.uniform(0, 360),
                                                            rng.uniform(1, 150)))
    if len(set(points)) == 1:
        points[-1] = destination(points[0], rng.uniform(0, 360), 10)

    def fov(direction):
        return FieldOfView(h_angle=rng.choice((1.0, 63.0, 180.0, 270.0, 360.0)),
                           direction2d=direction, view_distance=rng.uniform(20, 120))

    shape = rng.choice(("absolute", "relative", "per-sample"))
    if shape == "absolute":
        fovs = (fov(rng.uniform(0, 359.9)),)
    elif shape == "relative":
        fovs = (fov(rng.uniform(-360, -0.1)),)
    else:
        fovs = tuple(fov(rng.choice((rng.uniform(0, 359.9), rng.uniform(-360, -0.1))))
                     for _ in range(n))
    mode = rng.choice(list(InterpolationMode))
    return MovingVideo(f"u:{i}", MovingPoint(tuple(times), tuple(points), mode), fovs)


def reference_intervals(camera, p, step_ms):
    """visible_intervals as documented: the runs of instants at which p is in
    view, among a photo's one instant, or a video's track times plus the
    step_ms grid (the track times alone on a discrete track)."""
    if isinstance(camera, STPhoto):
        instants = [camera.t]
    else:
        times = camera.track.times
        grid = set(times)
        if camera.track.mode is not InterpolationMode.DISCRETE:
            grid.update(range(times[0], times[-1] + 1, step_ms))
        instants = sorted(grid)
    runs = []
    for i, t in enumerate(instants):
        state = fov_at(camera, t)
        if fov_contains(state.camera, state.direction, state.fov, p):
            if runs and runs[-1][1] == i - 1:
                runs[-1][1] = i
            else:
                runs.append([i, i])
    return [TimeInterval(instants[a], instants[b]) for a, b in runs]


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
            assert got == linear_scan(store, "vids", spec)

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


@pytest.mark.parametrize("params, message", [
    ({"bbox": "1,2,3"}, "bbox needs 4 comma-separated numbers, got '1,2,3'"),
    ({"near": "a,b,c"}, "near needs numbers, got 'a,b,c'"),
    ({"visibleFrom": "200,0"}, "bad visibleFrom: longitude 200.0 outside [-180, 180]"),
    ({"near": "0,95,10"}, "bad near point: latitude 95.0 outside [-90, 90]"),
], ids=["bbox-three-numbers", "near-not-numbers", "visible-from-out-of-range",
        "near-point-out-of-range"])
def test_query_strings_refused_with_their_message(params, message):
    with pytest.raises(BadQueryError) as err:
        decode_query_spec(params)
    assert str(err.value) == message


# -- index push-down: near and visibleFrom search the R-tree ----------------------

# Query anchors at the poles and on the antimeridian, plus one ordinary spot.
ANCHORS = [GeoPoint(179.6, 0.3), GeoPoint(-179.7, -0.4), GeoPoint(10.0, 89.6),
           GeoPoint(-20.0, -89.7), GeoPoint(179.9, 89.9), GeoPoint(-179.9, -89.4),
           GeoPoint(5.0, 45.0)]


def scale(rng) -> float:
    """A distance from 1 m to 1000 km, log-uniform."""
    return 10 ** rng.uniform(0, 6)


def around(rng, p: GeoPoint) -> GeoPoint:
    return destination(p, rng.uniform(0, 360), scale(rng))


def random_fov(rng) -> FieldOfView:
    return FieldOfView(h_angle=rng.choice([30.0, 90.0, 200.0, 360.0]),
                       direction2d=rng.uniform(0, 359.9), view_distance=scale(rng))


def random_track(rng, start: GeoPoint, n: int) -> list[GeoPoint]:
    pts = [start]
    while len(pts) < n:
        pts.append(destination(pts[-1], rng.uniform(0, 360), scale(rng) / 10))
    return pts


def random_payload(rng, kind: str, i: int):
    start = around(rng, rng.choice(ANCHORS))
    n = rng.randint(1, 4)
    times = tuple(1000 * k for k in range(n))
    pts = tuple(random_track(rng, start, n))
    if kind == "MovingPoint":
        return MovingPoint(times, pts)
    if kind == "MovingDouble":
        return MovingDouble(times, tuple(range(n)), track=pts if rng.random() < 0.7 else None)
    if kind == "stphoto":
        return STPhoto(f"u:{i}", start, 0, random_fov(rng))
    mode = rng.choice([InterpolationMode.LINEAR, InterpolationMode.DISCRETE])
    fovs = tuple(random_fov(rng) for _ in range(rng.choice([1, n])))
    return MovingVideo(f"u:{i}", MovingPoint(times, pts, mode), fovs)


def query_point(rng, store, cid) -> GeoPoint:
    """An anchor, a point near one, or a point a camera or vertex could reach."""
    roll = rng.random()
    if roll < 0.2:
        return rng.choice(ANCHORS)
    if roll < 0.5:
        return around(rng, rng.choice(ANCHORS))
    payload = rng.choice(store.st_query(cid)).doc.payload
    vertices = payload.vertices() or (rng.choice(ANCHORS),)
    reach = payload.view_reach() if media.kind_of(payload) in media.CAMERA_KINDS else scale(rng)
    return destination(rng.choice(vertices), rng.uniform(0, 360), rng.uniform(0, 1.2) * reach)


class TestPushDown:
    @pytest.mark.parametrize("kind", ["MovingPoint", "MovingDouble", "stphoto", "MovingVideo"])
    def test_equals_linear_scan_at_poles_and_antimeridian(self, store, kind):
        rng = random.Random(f"push-down {kind}")
        store.create_collection("c", "c", kind)
        for i in range(40):
            store.put_feature("c", f"f{i:02d}", document_of(random_payload(rng, kind, i)))
        is_camera = kind in ("stphoto", "MovingVideo")
        matched = {"near": 0, "visibleFrom": 0}
        for _ in range(60):
            p = query_point(rng, store, "c")
            bbox = None
            if rng.random() < 0.5:
                w, h = 10 ** rng.uniform(-5, 1.5), 10 ** rng.uniform(-5, 1.5)
                bbox = (p.lon - w * rng.random(), p.lat - h * rng.random(),
                        p.lon + w * rng.random(), p.lat + h * rng.random())
            specs = {"near": QuerySpec(bbox=bbox, near=(p, scale(rng)))}
            if is_camera:
                specs["visibleFrom"] = QuerySpec(bbox=bbox, visible_from=p)
            for name, spec in specs.items():
                want = linear_scan(store, "c", spec)
                assert [r.fid for r in evaluate(store, "c", spec)] == want, spec
                matched[name] += len(want)
        assert matched["near"] > 0 and (matched["visibleFrom"] > 0 or not is_camera)

    @pytest.mark.parametrize("center", [GeoPoint(0, 0), GeoPoint(30, 60), GeoPoint(-100, -75),
                                        GeoPoint(179.5, 45), GeoPoint(-179.99, 88.5)])
    @pytest.mark.parametrize("radius", [1.0, 1000.0, 1_000_000.0])
    def test_near_finds_vertices_on_the_edge_of_its_disk(self, store, center, radius):
        store.create_collection("taxi", "t", "MovingPoint")
        for b in range(0, 360, 5):
            edge = destination(center, b, radius * (1 - 1e-6))
            store.put_feature("taxi", f"b{b:03d}", document_of(track([(edge.lon, edge.lat)])))
        spec = QuerySpec(near=(center, radius))
        got = [r.fid for r in evaluate(store, "taxi", spec)]
        assert got == linear_scan(store, "taxi", spec)
        assert len(got) >= 70

    def test_long_track_meets_bbox_and_near_box_but_not_their_overlap(self, store):
        # The track's box (0, 0)-(10, 10) meets the query box only at its
        # north-east corner and the near box only at its north-west corner.
        store.create_collection("taxi", "t", "MovingPoint")
        store.put_feature("taxi", "long", document_of(track([(0, 10), (10, 0)])))
        spec = QuerySpec(bbox=(9, 9, 11, 11), near=(GeoPoint(0, 10), 1000.0))
        assert [r.fid for r in evaluate(store, "taxi", spec)] == ["long"]

    def test_long_video_meets_bbox_and_reach_box_but_not_their_overlap(self, store):
        store.create_collection("vids", "v", "MovingVideo")
        fov = FieldOfView(h_angle=90, direction2d=90, view_distance=1000)
        video = MovingVideo("u:long", track([(0, 10), (10, 0)]), (fov,))
        store.put_feature("vids", "long", document_of(video))
        seen = destination(GeoPoint(0, 10), 90, 500)
        spec = QuerySpec(bbox=(9, 9, 11, 11), visible_from=seen)
        assert [r.fid for r in evaluate(store, "vids", spec)] == ["long"]

    def test_visible_from_refines_only_nearby_photos(self, store, monkeypatch):
        store.create_collection("pics", "p", "stphoto")
        for i in range(1000):
            loc = GeoPoint(-170 + (i % 40) * 8.5, -60 + (i // 40) * 5)
            store.put_feature("pics", f"p{i:04d}", document_of(STPhoto(f"u:{i}", loc, 0)))
        calls = []

        def counted(x, p, *args):
            calls.append(x)
            return visible_intervals(x, p, *args)

        monkeypatch.setattr("geomedia.query.visible_intervals", counted)
        seen = destination(GeoPoint(-170 + 7 * 8.5, -60 + 3 * 5), 0, 50)  # north of p0127
        assert [r.fid for r in evaluate(store, "pics", QuerySpec(visible_from=seen))] == ["p0127"]
        assert len(calls) < 50

    def test_visible_from_builds_only_photos_whose_box_holds_the_point(self, store,
                                                                      monkeypatch):
        # A photo's bbox holds all it sees, so the index is searched around
        # the point alone: a photo that sees 50 km does not widen the search
        # to every photo within 50 km of it.
        store.create_collection("pics", "p", "stphoto")
        for i in range(100):  # ~110 m apart, each seeing 100 m north
            loc = GeoPoint(10 + i * 1e-3, 10)
            store.put_feature("pics", f"p{i:03d}",
                              document_of(STPhoto(f"u:{i}", loc, 0, FieldOfView(direction2d=0))))
        far = FieldOfView(direction2d=180, view_distance=50_000)
        store.put_feature("pics", "far", document_of(STPhoto("u:far", GeoPoint(10.05, 9.99),
                                                             0, far)))
        built = []
        real_document = media.Columns.document
        monkeypatch.setattr(media.Columns, "document",
                            lambda columns, row: built.append(row) or real_document(columns, row))
        seen = destination(GeoPoint(10.05, 10), 0, 50)
        assert [r.fid for r in evaluate(store, "pics", QuerySpec(visible_from=seen))] == ["p050"]
        assert len(built) == 1

    def test_photo_across_the_antimeridian_is_found_by_box_and_by_visible_from(self, store):
        store.create_collection("pics", "p", "stphoto")
        camera = GeoPoint(-179.691, -0.402)
        fov = FieldOfView(h_angle=90, direction2d=240.4, view_distance=546_500)
        store.put_feature("pics", "west", document_of(STPhoto("u:w", camera, 0, fov)))
        seen = destination(camera, 270.4, 1_500)  # between the camera and -180
        box = (seen.lon - 1e-4, seen.lat - 1e-4, seen.lon + 1e-4, seen.lat + 1e-4)
        for spec in (QuerySpec(bbox=box), QuerySpec(visible_from=seen)):
            assert [r.fid for r in evaluate(store, "pics", spec)] == ["west"], spec

    @pytest.mark.parametrize("kind", ["stphoto", "MovingVideo"])
    def test_equals_linear_scan_through_writes_that_repack_the_index(self, store, kind,
                                                                      monkeypatch):
        rng = random.Random(f"writes {kind}")
        store.create_collection("c", "c", kind)
        for i in range(60):
            store.put_feature("c", f"f{i:03d}", document_of(random_payload(rng, kind, i)))
        evaluate(store, "c", QuerySpec(near=(ANCHORS[0], 1.0)))  # builds the index
        packs, matched = [], [0, 0, 0]
        real_pack = rtree._pack
        monkeypatch.setattr(rtree, "_pack", lambda *args: packs.append(1) or real_pack(*args))
        for step in range(150):
            fids = [r.fid for r in store.st_query("c")]
            roll = rng.random()
            if roll < 0.6 or len(fids) < 20:  # a put of a new fid, or a replacement
                fid = f"f{step + 60:03d}" if roll < 0.3 else rng.choice(fids)
                store.put_feature("c", fid, document_of(random_payload(rng, kind, step)))
            else:
                store.delete_feature("c", rng.choice(fids))
            if step % 5 == 4:
                p = query_point(rng, store, "c")
                w, h = 10 ** rng.uniform(-3, 1.5), 10 ** rng.uniform(-3, 1.5)
                start = rng.randint(-1000, 3000)
                specs = [QuerySpec(bbox=(p.lon - w, p.lat - h, p.lon + w, p.lat + h),
                                   interval=TimeInterval(start, start + rng.randint(0, 2000))),
                         QuerySpec(near=(p, scale(rng))), QuerySpec(visible_from=p)]
                for k, spec in enumerate(specs):
                    want = linear_scan(store, "c", spec)
                    assert [r.fid for r in evaluate(store, "c", spec)] == want, spec
                    matched[k] += len(want)
        assert len(packs) >= 3 and min(matched) > 0

    @pytest.mark.parametrize("kind", ["MovingPoint", "MovingDouble", "stphoto", "MovingVideo"])
    def test_equals_linear_scan_through_writes_that_compact_the_rows(self, store, kind,
                                                                      monkeypatch):
        # Replacements and deletes leave dead rows behind; each time they
        # outnumber the live ones the collection copies its live rows into
        # fresh columns.
        rng = random.Random(f"rows {kind}")
        store.create_collection("c", "c", kind)
        for i in range(30):
            store.put_feature("c", f"f{i:03d}", document_of(random_payload(rng, kind, i)))
        evaluate(store, "c", QuerySpec(near=(ANCHORS[0], 1.0)))  # builds the index
        copies, matched = [], [0, 0, 0]
        real_copy = media.Columns.copy
        monkeypatch.setattr(media.Columns, "copy",
                            lambda *args: copies.append(1) or real_copy(*args))
        for step in range(200):
            fids = [r.fid for r in store.st_query("c")]
            roll = rng.random()
            if roll < 0.7 or len(fids) < 10:  # mostly replacements, some new fids
                fid = f"g{rng.randrange(1000):03d}" if roll < 0.15 else rng.choice(fids)
                store.put_feature("c", fid, document_of(random_payload(rng, kind, step)))
            else:
                store.delete_feature("c", rng.choice(fids))
            p = query_point(rng, store, "c")
            w, h = 10 ** rng.uniform(-3, 1.5), 10 ** rng.uniform(-3, 1.5)
            start = rng.randint(-1000, 3000)
            specs = [QuerySpec(bbox=(p.lon - w, p.lat - h, p.lon + w, p.lat + h),
                               interval=TimeInterval(start, start + rng.randint(0, 2000))),
                     QuerySpec(near=(p, scale(rng)))]
            if kind in ("stphoto", "MovingVideo"):
                specs.append(QuerySpec(visible_from=p))
            for k, spec in enumerate(specs):
                want = linear_scan(store, "c", spec)
                assert [r.fid for r in evaluate(store, "c", spec)] == want, (step, spec)
                matched[k] += len(want)
        assert len(copies) >= 3 and min(matched[:len(specs)]) > 0


FAR = 50_000.0  # the far-seeing camera's view distance, 500 times the others'


def camera(kind: str, lon: float, view_distance: float = 100.0):
    """A photo, or a two-sample video, at (lon, 10) looking due east.

    The video sees view_distance only at its last sample, 100 m before it.
    """
    fov = FieldOfView(direction2d=90, view_distance=view_distance)
    if kind == "stphoto":
        return document_of(STPhoto("u:p", GeoPoint(lon, 10), 0, fov))
    fovs = (FieldOfView(direction2d=90), fov)
    return document_of(MovingVideo("u:v", track([(lon, 10), (lon, 10.0001)]), fovs))


class TestViewReach:
    """A camera that sees farther than any other is found as soon as it is stored."""

    SEEN = destination(GeoPoint(20, 10), 90, 0.9 * FAR)  # east of the far camera at (20, 10)

    def visible(self, store, cid):
        return [r.fid for r in evaluate(store, cid, QuerySpec(visible_from=self.SEEN))]

    def test_video_out_of_its_own_reach_is_not_built(self, store, monkeypatch):
        # n1 lies inside the box that the far camera's reach opens around
        # SEEN, ~10 km away, but sees only 100 m: the columns rule it out.
        store.create_collection("c", "c", "MovingVideo")
        store.put_feature("c", "far", camera("MovingVideo", 20, FAR))
        store.put_feature("c", "n1", camera("MovingVideo", 20.5))
        built = []
        real_document = media.Columns.document
        monkeypatch.setattr(media.Columns, "document",
                            lambda columns, row: built.append(row) or real_document(columns, row))
        assert self.visible(store, "c") == ["far"]
        assert built == [0]

    @pytest.mark.parametrize("kind", ["stphoto", "MovingVideo"])
    def test_put_then_load_then_flush(self, tmp_path, kind):
        api = GeoMediaApi(MediaStore(tmp_path / "store"))
        api.handle("POST", "/collections", json.dumps({"id": "c", "mediaType": kind}).encode())
        for i in range(3):
            api.handle("PUT", f"/collections/c/items/n{i}", serialize_document(camera(kind, i)))
        status, body = api.handle("GET", f"/collections/c/items?visibleFrom={self.SEEN.lon},10")
        assert (status, body["numberMatched"]) == (200, 0)  # the index is built by now
        status, _ = api.handle("PUT", "/collections/c/items/far",
                               serialize_document(camera(kind, 20, FAR)))
        assert status == 201
        query = f"visibleFrom={self.SEEN.lon},{self.SEEN.lat}"
        status, body = api.handle("GET", f"/collections/c/items?{query}")
        assert [f["fid"] for f in body["features"]] == ["far"]
        loaded = MediaStore.load(tmp_path / "store")
        assert self.visible(loaded, "c") == ["far"]
        loaded.flush()
        assert self.visible(loaded, "c") == ["far"]
        assert self.visible(MediaStore.load(tmp_path / "store"), "c") == ["far"]
        api.handle("DELETE", "/collections/c/items/far")
        for p in (self.SEEN, destination(GeoPoint(1, 10), 90, 50)):
            spec = QuerySpec(visible_from=p)
            got = [r.fid for r in evaluate(api.store, "c", spec)]
            assert got == linear_scan(api.store, "c", spec)

    @pytest.mark.parametrize("kind", ["stphoto", "MovingVideo"])
    def test_ingested_collection(self, tmp_path, capsys, kind):
        files = []
        for fid, lon, reach in (("n0", 0, 100.0), ("n1", 1, 100.0), ("far", 20, FAR)):
            path = tmp_path / f"{fid}.json"
            path.write_bytes(serialize_document(camera(kind, lon, reach)))
            files.append(str(path))
        target = str(tmp_path / "store")
        assert main(["init", "--store", target]) == 0
        assert main(["ingest", "--store", target, "--collection", "c", "--create",
                     "--media-type", kind, *files]) == 0
        capsys.readouterr()
        assert main(["query", "--store", target, "--collection", "c",
                     "--visible-from", f"{self.SEEN.lon},{self.SEEN.lat}"]) == 0
        assert capsys.readouterr().out.split() == ["far"]
        # Filled as ingest fills a collection: all puts come before its first
        # search, which builds the index and the reach with the far camera in.
        store = MediaStore.load(target)
        store.create_collection("c2", "c2", kind)
        for fid, path in zip(("n0", "n1", "far"), files):
            store.put_feature("c2", fid, parse_document(Path(path).read_bytes()))
        assert self.visible(store, "c2") == ["far"]
        store.delete_feature("c2", "far")
        spec = QuerySpec(visible_from=self.SEEN)
        assert [r.fid for r in evaluate(store, "c2", spec)] == linear_scan(store, "c2", spec) == []
