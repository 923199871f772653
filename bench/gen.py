"""Seeded inputs: the four collections of a store, the dashcam set and the actions.

Every document is built here as the dict the service returns for it
(epoch-millisecond ``timeline``), so the oracles compare answers against it
directly. The same seed always gives the same documents and actions.
"""

from __future__ import annotations

import math
import random

R_EARTH = 6371008.8
CENTER = (127.0, 37.55)          # lon, lat of the area's centre
HALF_SPAN_M = 8000.0             # the area is a 16 km x 16 km square
DAY0 = 1583020800000             # 2020-03-01T00:00:00Z
DAY_MS = 86_400_000
HOTSPOTS = 6                     # clusters that hold 70 % of the features
CLUSTER_SIGMA_M = 700.0

COLLECTIONS = (
    ("tracks", "MovingPoint"),
    ("sensors", "MovingDouble"),
    ("photos", "stphoto"),
    ("videos", "MovingVideo"),
)
DASHCAM = ("dashcam", "MovingVideo")
DASHCAM_COUNT = 12


def offset(lon: float, lat: float, east_m: float, north_m: float) -> tuple[float, float]:
    """Position east_m / north_m metres away on the local tangent plane."""
    dlat = math.degrees(north_m / R_EARTH)
    dlon = math.degrees(east_m / (R_EARTH * math.cos(math.radians(lat))))
    return lon + dlon, lat + dlat


def _r7(x: float) -> float:
    return round(x, 7)


def _bearing(x: float) -> float:
    """A compass direction in [0, 360) with one decimal."""
    return round(x % 360, 1) % 360


class _Area:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.hotspots = [self.uniform() for _ in range(HOTSPOTS)]

    def uniform(self) -> tuple[float, float]:
        return offset(*CENTER, self.rng.uniform(-HALF_SPAN_M, HALF_SPAN_M),
                      self.rng.uniform(-HALF_SPAN_M, HALF_SPAN_M))

    def place(self) -> tuple[float, float]:
        """A start position: 70 % near a hotspot, 30 % anywhere in the area."""
        if self.rng.random() < 0.7:
            lon, lat = self.rng.choice(self.hotspots)
            return offset(lon, lat, self.rng.gauss(0, CLUSTER_SIGMA_M),
                          self.rng.gauss(0, CLUSTER_SIGMA_M))
        return self.uniform()

    def start_time(self) -> int:
        return DAY0 + 1000 * self.rng.randrange(0, DAY_MS // 1000 - 120)


def _walk(area: _Area, n: int, stops: bool) -> tuple[list, list]:
    """A 1 Hz ground track: n positions, optional stops of 2-4 samples."""
    rng = area.rng
    lon, lat = area.place()
    heading = rng.uniform(0, 360)
    speed = rng.uniform(3.0, 15.0)
    stop_at = set()
    if stops:
        k = rng.randrange(3, n - 6)
        stop_at = set(range(k, k + rng.randrange(2, 5)))
    coords = [[_r7(lon), _r7(lat)]]
    for i in range(1, n):
        if i not in stop_at:
            heading = (heading + rng.gauss(0, 15)) % 360
            h = math.radians(heading)
            lon, lat = offset(lon, lat, speed * math.sin(h), speed * math.cos(h))
        coords.append([_r7(lon), _r7(lat)])
    t0 = area.start_time()
    return coords, [t0 + 1000 * i for i in range(n)]


def _video_fov(rng: random.Random, direction: float) -> dict:
    return {"verticalAngle": 60, "horizontalAngle": rng.choice((50, 63, 75, 90)),
            "viewDistance": rng.choice((60, 80, 100, 120, 150)), "direction2d": direction}


def make_track(area: _Area) -> dict:
    coords, times = _walk(area, area.rng.randrange(6, 13), stops=False)
    return {"type": "MovingPoint", "coordinates": coords, "timeline": times,
            "interpolation": "linear"}


def make_sensor(area: _Area) -> dict:
    rng = area.rng
    coords, times = _walk(area, rng.randrange(6, 13), stops=False)
    base = rng.uniform(5, 30)
    values = [round(base + rng.gauss(0, 0.5), 3) for _ in times]
    return {"type": "MovingDouble", "values": values, "timeline": times,
            "coordinates": coords, "interpolation": "linear"}


def _photo(uri: str, lon: float, lat: float, t: int, direction: float, h: float, d: float) -> dict:
    return {"type": "stphoto", "uri": uri, "coordinates": [_r7(lon), _r7(lat)],
            "timeline": [t],
            "fov": {"type": "fov", "horizontalAngle": h, "verticalAngle": 60,
                    "direction2d": direction, "distance": d}}


def make_photos(area: _Area, count: int, prefix: str) -> dict[str, dict]:
    """Single shots (70 %) and drone sequences of 8-12 shots along a flight line."""
    rng = area.rng
    out: dict[str, dict] = {}
    while len(out) < count:
        fid = f"{prefix}{len(out):05d}"
        if rng.random() < 0.3 and count - len(out) >= 12:
            lon, lat = area.place()
            line = rng.uniform(0, 360)
            look = (line + rng.choice((0, 90, 270))) % 360
            t = area.start_time()
            h, d = rng.choice((60, 75, 90)), rng.choice((80, 120, 150))
            for k in range(rng.randrange(8, 13)):
                fid = f"{prefix}{len(out):05d}"
                out[fid] = _photo(f"https://media.example/drone/{fid}.jpg", lon, lat,
                                  t + 2000 * k, _bearing(look), h, d)
                lon, lat = offset(lon, lat, 20 * math.sin(math.radians(line)),
                                  20 * math.cos(math.radians(line)))
            continue
        lon, lat = area.place()
        out[fid] = _photo(f"https://media.example/photo/{fid}.jpg", lon, lat,
                          area.start_time(), _bearing(rng.uniform(0, 360)),
                          rng.choice((40, 50, 63, 75, 90)), rng.choice((30, 50, 80, 100, 150)))
    return out


def make_video(area: _Area, fid: str, mode: str = "linear", fov_kind: str | None = None) -> dict:
    """FoV mix: 40 % one absolute FoV, 30 % one mount-relative, 30 % per-sample list."""
    rng = area.rng
    coords, times = _walk(area, rng.randrange(10, 21), stops=rng.random() < 0.3)
    if fov_kind is None:
        u = rng.random()
        fov_kind = "absolute" if u < 0.4 else "relative" if u < 0.7 else "per_sample"
    if fov_kind == "absolute":
        fovs = [_video_fov(rng, _bearing(rng.uniform(0, 360)))]
    elif fov_kind == "relative":
        fovs = [_video_fov(rng, rng.choice((-360, -90, -180, -270)))]
    else:
        d = rng.uniform(0, 360)
        first = _video_fov(rng, 0)
        fovs = []
        for _ in times:
            d = (d + rng.gauss(0, 10)) % 360
            fovs.append(dict(first, direction2d=_bearing(d)))
    return {"type": "MovingVideo", "uri": f"https://media.example/video/{fid}.mp4",
            "coordinates": coords, "fov": fovs, "timeline": times, "interpolation": mode}


def make_store(seed: int, per_kind: int) -> dict[str, dict[str, dict]]:
    """The four seeded collections, fid -> document."""
    area = _Area(random.Random(f"store:{seed}:{per_kind}"))
    store: dict[str, dict[str, dict]] = {
        "tracks": {f"t{i:05d}": make_track(area) for i in range(per_kind)},
        "sensors": {f"s{i:05d}": make_sensor(area) for i in range(per_kind)},
        "photos": make_photos(area, per_kind, "p"),
    }
    store["videos"] = {f"v{i:05d}": make_video(area, f"v{i:05d}") for i in range(per_kind)}
    return store


def make_dashcam() -> dict[str, dict]:
    """Discrete-mode, mount-relative videos with stops; the same for every seed."""
    area = _Area(random.Random("dashcam"))
    out = {}
    for i in range(DASHCAM_COUNT):
        fid = f"d{i:03d}"
        rng = area.rng
        coords, times = _walk(area, rng.randrange(20, 31), stops=True)
        out[fid] = {"type": "MovingVideo", "uri": f"https://media.example/dashcam/{fid}.mp4",
                    "coordinates": coords,
                    "fov": [_video_fov(rng, -360)], "timeline": times,
                    "interpolation": "discrete"}
    return out


def dashcam_points(dashcam: dict[str, dict]) -> list[tuple[float, float]]:
    """Fixed query points, each 30 m ahead of a dashcam at one of its samples."""
    out = []
    for fid in sorted(dashcam)[:4]:
        c = dashcam[fid]["coordinates"]
        (lon0, lat0), (lon1, lat1) = c[0], c[1]
        east = math.radians(lon1 - lon0) * math.cos(math.radians(lat0))
        north = math.radians(lat1 - lat0)
        norm = math.hypot(east, north)
        lon, lat = offset(lon0, lat0, 30 * east / norm, 30 * north / norm)
        out.append((_r7(lon), _r7(lat)))
    return out
