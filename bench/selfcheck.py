"""Self-check of the oracles on cases computed by hand.

    python3 bench/selfcheck.py

run.py calls check() before every run, so a broken oracle stops the run
instead of judging the program.
"""

from __future__ import annotations

import math

import oracle as o

DEG_M = o.R_EARTH * math.pi / 180      # metres per degree on a great circle: 111195.08


def _east(m: float) -> float:
    """Degrees of longitude for m metres east, at the equator."""
    return m / DEG_M


def _video(coords, fov, mode="linear"):
    return {"type": "MovingVideo", "uri": "u", "coordinates": coords, "fov": [fov],
            "timeline": [1000 * i for i in range(len(coords))], "interpolation": mode}


def check() -> int:
    cases = 0

    def ok(cond, what):
        nonlocal cases
        if not cond:
            raise AssertionError(f"oracle self-check failed: {what}")
        cases += 1

    ok(abs(o.haversine(0, 0, 0, 1) - 111195.08) < 0.01, "one degree of latitude")
    ok(abs(o.haversine(0, 0, 1, 0) - 111195.08) < 0.01, "one degree of longitude at the equator")
    ok(abs(o.haversine(0, 60, 1, 60) - 55597.5) < 1.0, "longitude shrinks by cos 60")
    for lon, lat, want in ((0, 1, 0), (1, 0, 90), (0, -1, 180), (-1, 0, 270)):
        ok(abs(o.initial_bearing(0, 0, lon, lat) - want) < 1e-9, f"bearing to {lon},{lat}")
    ok(o.angle_diff(350, 10) == 20 and o.angle_diff(10, 350) == 20, "angle across north")
    ok(o.iso(1583020800000) == "2020-03-01T00:00:00.000Z", "iso format")
    ok(o.parse_iso("2020-03-01T00:00:01.5Z") == 1583020801500, "iso parse with fraction")
    ok(o.parse_iso("2020-03-01T00:00:00Z") == 1583020800000, "iso parse")

    # A camera at the origin looking east, 60 degree aperture, 100 m.
    cam = (0.0, 0.0, 90.0, 60.0, 100.0)
    ok(o.classify(*cam, _east(50), 0) == o.IN, "50 m ahead is seen")
    ok(o.classify(*cam, 0, _east(50)) == o.OUT, "50 m to the side is not")
    ok(o.classify(*cam, _east(150), 0) == o.OUT, "150 m ahead is too far")
    ok(o.classify(*cam, _east(100), 0) == o.EDGE, "exactly at the view distance")
    b = math.radians(60)                                   # 30 degrees off the axis
    ok(o.classify(*cam, _east(50 * math.sin(b)), _east(50 * math.cos(b))) == o.EDGE,
       "exactly on the aperture edge")

    # A camera driving east at 10 m/s with a right-facing mount, stopping for a second.
    step = _east(10)
    v = _video([[0, 0], [step, 0], [step, 0], [2 * step, 0]],
               {"horizontalAngle": 60, "viewDistance": 100, "direction2d": -90,
                "verticalAngle": 60})
    tr = o.Track(v)
    ok(tr.leg_heading == [90.0, 90.0, 90.0], "a stop keeps the heading")
    lon, lat = tr.position(500)
    ok(abs(lon - step / 2) < 1e-15 and lat == 0, "linear position halfway along a leg")
    ok(abs(tr.state(1500)[2] - 180.0) < 1e-9, "right-facing mount while heading east looks south")
    south = (_east(5), -_east(50))
    ok(tr.within_reach(*south) and tr.must_see(*south), "a point south of the road is seen")
    ok(not tr.within_reach(_east(5), _east(500)), "500 m away is never within reach")
    ok(not tr.must_see(_east(5), _east(50)), "a point north of the road is never seen")
    runs = tr.runs(_east(10), -_east(50), loose=False)
    ok(runs == [(0, 3000)], "seen throughout, stop included")
    late = (_east(45), -_east(50))     # seen once the camera is past 45 - 50 tan 30 = 16.13 m
    runs = tr.runs(*late, loose=False)
    ok(len(runs) == 1 and abs(runs[0][0] - 2613) <= 10 and runs[0][1] == 3000,
       "seen from 2613 ms on")
    ok(o.check_intervals(tr, *late, [(2700, 3000)]) is None, "boundary within the slack")
    ok(o.check_intervals(tr, *late, []) is not None, "a missing run fails")
    ok(o.check_intervals(tr, *late, [(0, 3000)]) is not None,
       "an interval where the point is unseen fails")

    # Discrete tracks are seen at their sample instants only.
    d = o.Track(_video([[0, 0], [step, 0], [2 * step, 0]],
                       {"horizontalAngle": 60, "viewDistance": 100, "direction2d": -360,
                        "verticalAngle": 60}, mode="discrete"))
    ok([t for t, _ in d.scan(_east(60), 0)] == [0, 1000, 2000], "discrete instants")
    ok(d.must_see(_east(60), 0), "ahead of a dashcam at its samples")

    # Windows, near and paging.
    track = {"type": "MovingPoint", "coordinates": [[0, 0], [1, 1]], "timeline": [10, 20],
             "interpolation": "linear"}
    ok(o.window_exact({"a": track}, (1, 1, 2, 2), (20, 30)) == ["a"], "touching box and extent")
    ok(o.window_exact({"a": track}, (1.5, 1.5, 2, 2), None) == [], "disjoint box")
    ok(o.window_exact({"a": track}, (0, 0, 1, 1), (21, 30)) == [], "disjoint time")
    photo = {"type": "stphoto", "uri": "p", "coordinates": [_east(150), 0], "timeline": [5],
             "fov": {"type": "fov", "horizontalAngle": 60, "verticalAngle": 60,
                     "direction2d": 270, "distance": 100}}
    inside = dict(photo, coordinates=[0, 0])
    close = dict(photo, coordinates=[_east(50), 0])
    ok(o.window_photos({"p": inside, "q": close, "r": photo}, (-1e-6, -1e-6, 0, 1e-6), None)
       == ({"p"}, {"p", "q"}), "photo window must and may sets")
    ok(o.near({"a": track}, _east(-100), 0, 150) == ({"a"}, {"a"}), "vertex 100 m away")
    ok(o.near({"a": track}, _east(-100), 0, 50) == (set(), set()), "radius short of it")
    ok(o.visible_photos({"r": photo}, _east(100), 0) == ({"r"}, {"r"}), "photo looking west")
    page = {"numberMatched": 3, "numberReturned": 2,
            "features": [{"fid": "a"}, {"fid": "b"}]}
    ok(o.check_page(page, {"a", "b", "c"}, {"a", "b", "c"}, 2) is None, "a full first page")
    ok(o.check_page(page, {"a", "c"}, {"a", "c"}, 2) is not None, "an unexpected match")
    ok(o.check_page(dict(page, numberMatched=2), {"a"}, {"a", "b"}, 10) is None,
       "an optional match")
    return cases


if __name__ == "__main__":
    print(f"oracle self-check: {check()} cases passed")
