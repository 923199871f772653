"""Reference answers, computed apart from the program from the generated documents.

Geometry is textbook spherical trigonometry on the mean earth radius the
README names: haversine distance and initial great-circle bearing. Tracks
are straight legs in degree space between samples (the README's linear
interpolation); a mount-relative direction is an offset from the direction
of travel, and while a camera stands still it keeps the bearing of its last
moving leg (of its first, before it has moved).

Near a field-of-view boundary either answer is accepted: a point counts as
seen only when it is more than DIST_MARGIN_M inside the view distance and
more than ANGLE_MARGIN_DEG inside the aperture, and as unseen only when it
is that far outside.
"""

from __future__ import annotations

import bisect
import math
from datetime import datetime, timezone

R_EARTH = 6371008.8
DIST_MARGIN_M = 0.01
ANGLE_MARGIN_DEG = 0.001
BOX_MARGIN_M = 0.5          # photo windows: spherical vs per-axis buffer error
REACH_MARGIN_M = 1.0        # video reach: plane vs sphere error at city scale
DENSE_STEP_MS = 10          # dense evaluation grid for videos
MUST_SEE_MS = 200           # a video seeing a point this long must be returned
INTERVAL_SLACK_MS = 100     # visible?point boundaries may differ by this much

IN, EDGE, OUT = 1, 0, -1


def haversine(lon1: float, lat1: float, lon2: float, lat2: float) -> float:
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp, dl = p2 - p1, math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * R_EARTH * math.asin(min(1.0, math.sqrt(a)))


def initial_bearing(lon1: float, lat1: float, lon2: float, lat2: float) -> float:
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dl = math.radians(lon2 - lon1)
    y = math.sin(dl) * math.cos(p2)
    x = math.cos(p1) * math.sin(p2) - math.sin(p1) * math.cos(p2) * math.cos(dl)
    return math.degrees(math.atan2(y, x)) % 360.0


def angle_diff(a: float, b: float) -> float:
    d = abs(a - b) % 360.0
    return 360.0 - d if d > 180.0 else d


def iso(t_ms: int) -> str:
    dt = datetime.fromtimestamp(t_ms / 1000, tz=timezone.utc)
    return dt.strftime("%Y-%m-%dT%H:%M:%S.") + f"{t_ms % 1000:03d}Z"


def parse_iso(s: str) -> int:
    base, _, frac = s.rstrip("Z").partition(".")
    dt = datetime.strptime(base, "%Y-%m-%dT%H:%M:%S").replace(tzinfo=timezone.utc)
    return int(dt.timestamp()) * 1000 + (int(frac.ljust(3, "0")) if frac else 0)


def classify(cam_lon, cam_lat, direction, h_angle, view_distance, lon, lat) -> int:
    """IN, OUT or EDGE for a point against one field of view."""
    d = haversine(cam_lon, cam_lat, lon, lat)
    if d > view_distance + DIST_MARGIN_M:
        return OUT
    if d < DIST_MARGIN_M:
        return EDGE
    off = angle_diff(initial_bearing(cam_lon, cam_lat, lon, lat), direction)
    if off > h_angle / 2 + ANGLE_MARGIN_DEG:
        return OUT
    if d < view_distance - DIST_MARGIN_M and off < h_angle / 2 - ANGLE_MARGIN_DEG:
        return IN
    return EDGE


# -- tracks ---------------------------------------------------------------------


class Track:
    """A video's camera track with the direction of travel per leg."""

    def __init__(self, doc: dict):
        self.doc = doc
        self.times = doc["timeline"]
        self.coords = doc["coordinates"]
        self.fovs = doc["fov"]
        self.discrete = doc["interpolation"] == "discrete"
        n = len(self.times)
        legs = [None] * max(n - 1, 1)
        for i in range(n - 1):
            (a, b), (c, d) = self.coords[i][:2], self.coords[i + 1][:2]
            if (a, b) != (c, d):
                legs[i] = initial_bearing(a, b, c, d)
        last = None
        for i, h in enumerate(legs):          # a stop keeps the previous heading
            if h is None:
                legs[i] = last
            else:
                last = h
        nxt = None
        for i in range(len(legs) - 1, -1, -1):  # ... or the next, before any motion
            if legs[i] is None:
                legs[i] = nxt
            else:
                nxt = legs[i]
        self.leg_heading = legs

    def leg(self, t: int) -> int:
        """Index of the sample at or before t (the last leg at the final sample)."""
        i = bisect.bisect_right(self.times, t) - 1
        return min(max(i, 0), len(self.times) - 1)

    def position(self, t: int) -> tuple[float, float]:
        i = self.leg(t)
        if self.times[i] == t or i == len(self.times) - 1:
            return tuple(self.coords[i][:2])
        f = (t - self.times[i]) / (self.times[i + 1] - self.times[i])
        (a, b), (c, d) = self.coords[i][:2], self.coords[i + 1][:2]
        return a + (c - a) * f, b + (d - b) * f

    def state(self, t: int) -> tuple[float, float, float, float, float]:
        """Camera lon, lat, absolute direction, aperture and view distance at t."""
        i = self.leg(t)
        fov = self.fovs[0] if len(self.fovs) == 1 else self.fovs[i]
        direction = fov["direction2d"]
        if direction < 0:
            heading = self.leg_heading[min(i, len(self.leg_heading) - 1)]
            direction = (heading + (-direction) % 360.0) % 360.0
        lon, lat = self.position(t)
        return lon, lat, direction, fov["horizontalAngle"], fov["viewDistance"]

    def classify_at(self, t: int, lon: float, lat: float) -> int:
        cl, ca, d, h, vd = self.state(t)
        return classify(cl, ca, d, h, vd, lon, lat)

    def scan(self, lon: float, lat: float):
        """(instant, IN/EDGE/OUT) over a DENSE_STEP_MS grid, or over the sample
        instants of a discrete track; legs that never come within reach are OUT."""
        if self.discrete:
            for t in self.times:
                yield t, self.classify_at(t, lon, lat)
            return
        reach = max(f["viewDistance"] for f in self.fovs) + REACH_MARGIN_M
        pts = self._plane(lon, lat)
        times = self.times
        t = times[0]
        for i in range(len(times) - 1):
            near = _seg_dist(pts[i], pts[i + 1]) <= reach
            while t < times[i + 1]:
                yield t, self.classify_at(t, lon, lat) if near else OUT
                t += DENSE_STEP_MS
        if t == times[-1]:
            yield t, self.classify_at(t, lon, lat)

    def _plane(self, lon: float, lat: float) -> list[tuple[float, float]]:
        """Track vertices in metres on a plane tangent at (lon, lat)."""
        kx = math.radians(1) * R_EARTH * math.cos(math.radians(lat))
        ky = math.radians(1) * R_EARTH
        return [((c[0] - lon) * kx, (c[1] - lat) * ky) for c in self.coords]

    def within_reach(self, lon: float, lat: float) -> bool:
        """False only when the point is beyond every view distance of the whole track."""
        reach = max(f["viewDistance"] for f in self.fovs) + REACH_MARGIN_M
        if not _near_box(vertex_box(self.doc), lon, lat, reach):
            return False
        pts = self._plane(lon, lat)
        if len(pts) == 1:
            return math.hypot(*pts[0]) <= reach
        return any(_seg_dist(p, q) <= reach for p, q in zip(pts, pts[1:]))

    def must_see(self, lon: float, lat: float) -> bool:
        """True when some run of IN instants lasts MUST_SEE_MS (any IN instant if discrete)."""
        run_start = None
        for t, c in self.scan(lon, lat):
            if c == IN:
                if self.discrete:
                    return True
                if run_start is None:
                    run_start = t
                if t - run_start >= MUST_SEE_MS:
                    return True
            else:
                run_start = None
        return False

    def runs(self, lon: float, lat: float, loose: bool) -> list[tuple[int, int]]:
        """Maximal runs of instants that see the point (EDGE counts when loose)."""
        out, start, prev = [], None, None
        for t, c in self.scan(lon, lat):
            if c == IN or (loose and c == EDGE):
                if start is None:
                    start = t
                prev = t
            elif start is not None:
                out.append((start, prev))
                start = None
        if start is not None:
            out.append((start, prev))
        return out


def _seg_dist(p, q) -> float:
    (px, py), (qx, qy) = p, q
    dx, dy = qx - px, qy - py
    ll = dx * dx + dy * dy
    f = 0.0 if ll == 0 else max(0.0, min(1.0, -(px * dx + py * dy) / ll))
    return math.hypot(px + f * dx, py + f * dy)


def _covered(inner: list[tuple[int, int]], outer: list[tuple[int, int]], slack: int) -> bool:
    """Every interval of inner lies in the union of outer widened by slack."""
    widened = []
    for a, b in sorted(outer):
        a, b = a - slack, b + slack
        if widened and a <= widened[-1][1]:
            widened[-1][1] = max(widened[-1][1], b)
        else:
            widened.append([a, b])
    return all(any(a <= s and e <= b for a, b in widened) for s, e in inner)


def check_intervals(track: Track, lon: float, lat: float, got: list[tuple[int, int]]) -> str | None:
    """visible?point answer against the dense evaluation; None when it passes.

    Reported instants lie within INTERVAL_SLACK_MS of instants that see the
    point, and every run that sees it for INTERVAL_SLACK_MS or longer is
    reported within that slack (a shorter run may fall between samples).
    """
    slack = INTERVAL_SLACK_MS + DENSE_STEP_MS
    if not _covered(got, track.runs(lon, lat, loose=True), slack):
        return f"interval outside the visible runs: {got}"
    runs = [r for r in track.runs(lon, lat, loose=False) if r[1] - r[0] >= INTERVAL_SLACK_MS]
    if not _covered(runs, got, slack):
        return f"visible runs missing from {got}"
    return None


# -- per-collection answers --------------------------------------------------------


_BOXES: dict[int, tuple[dict, tuple]] = {}   # id -> (document kept alive, its box)


def vertex_box(doc: dict) -> tuple[float, float, float, float]:
    hit = _BOXES.get(id(doc))
    if hit is not None:
        return hit[1]
    c = doc["coordinates"]
    if doc["type"] == "stphoto":
        c = [c]
    lons = [p[0] for p in c]
    lats = [p[1] for p in c]
    box = min(lons), min(lats), max(lons), max(lats)
    _BOXES[id(doc)] = (doc, box)
    return box


def _near_box(box, lon: float, lat: float, metres: float) -> bool:
    """Quick test: the point lies in the box widened by metres (generously)."""
    dlat = math.degrees(metres / R_EARTH) * 1.01
    dlon = dlat / max(math.cos(math.radians(abs(lat) + 1)), 1e-6)
    return box[0] - dlon <= lon <= box[2] + dlon and box[1] - dlat <= lat <= box[3] + dlat


def extent(doc: dict) -> tuple[int, int]:
    return doc["timeline"][0], doc["timeline"][-1]


def _overlaps(a0, a1, b0, b1) -> bool:
    return a0 <= b1 and b0 <= a1


def window_exact(docs: dict, box, interval) -> list[str]:
    """Tracks, sensor series and videos: vertex box meets box, extent meets interval."""
    out = []
    for fid, doc in docs.items():
        b = vertex_box(doc)
        if not (b[0] <= box[2] and box[0] <= b[2] and b[1] <= box[3] and box[1] <= b[3]):
            continue
        if interval is not None and not _overlaps(*extent(doc), *interval):
            continue
        out.append(fid)
    return sorted(out)


def window_photos(docs: dict, box, interval) -> tuple[set[str], set[str]]:
    """(must, may) for photos: camera in box must match; camera within its view
    distance of the box, along each axis, may match."""
    must, may = set(), set()
    for fid, doc in docs.items():
        t = doc["timeline"][0]
        if interval is not None and not interval[0] <= t <= interval[1]:
            continue
        lon, lat = doc["coordinates"][:2]
        if box[0] <= lon <= box[2] and box[1] <= lat <= box[3]:
            must.add(fid)
            may.add(fid)
            continue
        reach = doc["fov"]["distance"] + BOX_MARGIN_M
        dy = math.radians(max(box[1] - lat, 0, lat - box[3])) * R_EARTH
        dx = math.radians(max(box[0] - lon, 0, lon - box[2])) * R_EARTH * math.cos(math.radians(lat))
        if dx <= reach and dy <= reach:
            may.add(fid)
    return must, may


def near(docs: dict, lon: float, lat: float, radius: float) -> tuple[set[str], set[str]]:
    """(must, may): some vertex within the radius."""
    must, may = set(), set()
    for fid, doc in docs.items():
        if not _near_box(vertex_box(doc), lon, lat, radius + 1):
            continue
        d = min(haversine(c[0], c[1], lon, lat) for c in doc["coordinates"])
        if d <= radius + DIST_MARGIN_M:
            may.add(fid)
            if d < radius - DIST_MARGIN_M:
                must.add(fid)
    return must, may


def visible_photos(docs: dict, lon: float, lat: float) -> tuple[set[str], set[str]]:
    must, may = set(), set()
    for fid, doc in docs.items():
        f = doc["fov"]
        if not _near_box(vertex_box(doc), lon, lat, f["distance"] + 1):
            continue
        c = classify(*doc["coordinates"][:2], f["direction2d"], f["horizontalAngle"],
                     f["distance"], lon, lat)
        if c != OUT:
            may.add(fid)
        if c == IN:
            must.add(fid)
    return must, may


def check_page(body: dict, must: set[str], may: set[str], limit: int) -> str | None:
    """A fid-ordered page of the matches: every must-match that sorts before the
    page's end is on it, nothing outside may is, and the count fits both sets."""
    fids = [f["fid"] for f in body["features"]]
    n = body["numberMatched"]
    if fids != sorted(fids) or len(set(fids)) != len(fids):
        return "page not in fid order"
    if len(fids) != min(n, limit) or body["numberReturned"] != len(fids):
        return f"page size {len(fids)} for {n} matches, limit {limit}"
    if not len(must) <= n <= len(may):
        return f"numberMatched {n} outside [{len(must)}, {len(may)}]"
    if not set(fids) <= may:
        return f"unexpected matches {sorted(set(fids) - may)[:5]}"
    end = fids[-1] if len(fids) == limit else None
    missing = [f for f in must if (end is None or f <= end) and f not in fids]
    if missing:
        return f"missing matches {sorted(missing)[:5]}"
    return None


def fov_polygon(track: Track, t: int, polygon: dict) -> str | None:
    """fov?at answer: a closed wedge from the camera, arc at the view distance
    between direction -/+ half the aperture."""
    cl, ca, direction, h, vd = track.state(t)
    ring = polygon["coordinates"][0]
    if polygon["type"] != "Polygon" or ring[0] != ring[-1] or len(ring) < 4:
        return "not a closed ring"
    arc = ring[1:-1] if h < 360 else ring[:-1]
    if h < 360 and (abs(ring[0][0] - cl) > 1e-9 or abs(ring[0][1] - ca) > 1e-9):
        return f"apex {ring[0]} is not the camera {(cl, ca)}"
    for p in arc:
        if abs(haversine(cl, ca, p[0], p[1]) - vd) > 0.05:
            return f"arc point {p} not at the view distance"
    first = initial_bearing(cl, ca, *arc[0][:2])
    last = initial_bearing(cl, ca, *arc[-1][:2])
    if h < 360 and (angle_diff(first, direction - h / 2) > 0.01
                    or angle_diff(last, direction + h / 2) > 0.01):
        return f"arc from {first:.3f} to {last:.3f}, expected {direction:.3f} +/- {h / 2}"
    return None
