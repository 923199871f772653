"""User actions: the requests each one sends and the check of its answers.

An action is built from the client's model of the store at the moment it is
issued, and it carries everything its check needs, so answers can be checked
after the timed loop. Mutations update the model as they are built; the
check then confirms the server acknowledged them as expected.
"""

from __future__ import annotations

import json
import math
import random
from urllib.parse import quote

import gen
import oracle

NOT_A_SAMPLE = "is not a sample time of a discrete track"


class Action:
    __slots__ = ("cls", "requests", "check", "mutation", "expect_failure")

    def __init__(self, cls, requests, check, mutation=False):
        self.cls = cls
        self.requests = requests          # [(method, path, body bytes or None)]
        self.check = check                # responses -> error text or None
        self.mutation = mutation
        self.expect_failure = False       # set when the answer is the known fault


class Model:
    """The client's view of the store: documents and annotations, as acknowledged."""

    def __init__(self, docs: dict[str, dict[str, dict]], writes: bool):
        self.docs = docs
        self.anns: dict[tuple[str, str], dict[str, dict]] = {}
        self.ann_bytes: dict[tuple[str, str, str], int] = {}
        self.writes = writes
        self.uploaded: set[tuple[str, str]] = set()
        self.doc_bytes: dict[tuple[str, str], int] = {}   # submitted size of each live document
        self._tracks: dict[int, oracle.Track] = {}

    def snapshot(self, cid: str) -> dict[str, dict]:
        """The collection as it stands now (a copy only where it will change)."""
        return dict(self.docs[cid]) if self.writes else self.docs[cid]

    def track(self, doc: dict) -> oracle.Track:
        key = id(doc)
        tr = self._tracks.get(key)
        if tr is None:
            tr = self._tracks[key] = oracle.Track(doc)
        return tr


def _json(data: bytes):
    return json.loads(data.decode("utf-8")) if data else None


def _expect(resp, status: int):
    got, data = resp[0], resp[1]
    if got != status:
        return None, f"status {got}, expected {status}: {data[:200]!r}"
    return _json(data), None


def _pt(lon: float, lat: float) -> str:
    return f"{lon:.7f},{lat:.7f}"


def _docs_equal(page: list[dict], docs: dict[str, dict]) -> str | None:
    for f in page:
        if f["document"] != docs[f["fid"]]:
            return f"document of {f['fid']} differs from the submitted one"
    return None


class ActionMaker:
    """Seeded source of the actions of one workload."""

    def __init__(self, seed: int, workload: str, model: Model, dashcam_points):
        self.rng = random.Random(f"actions:{workload}:{seed}")
        self.area = gen._Area(random.Random(f"uploads:{workload}:{seed}"))
        self.model = model
        self.dashcam_points = dashcam_points
        self.counter = 0
        self.labels = 0
        self.rounds = 0

    # -- points ------------------------------------------------------------------

    def _feature_point(self, cid: str) -> tuple[float, float]:
        doc = self.rng.choice(list(self.model.docs[cid].values()))
        c = doc["coordinates"]
        return tuple((c if doc["type"] == "stphoto" else self.rng.choice(c))[:2])

    def _seen_point(self) -> tuple[float, float]:
        """A point inside a known camera's view: a photo's, or a video's at some instant."""
        if self.rng.random() < 0.5:
            doc = self.rng.choice(list(self.model.docs["photos"].values()))
            f = doc["fov"]
            lon, lat, direction, h, d = (*doc["coordinates"][:2], f["direction2d"],
                                         f["horizontalAngle"], f["distance"])
        else:
            doc = self.rng.choice(list(self.model.docs["videos"].values()))
            tr = self.model.track(doc)
            lon, lat, direction, h, d = tr.state(self.rng.randint(tr.times[0], tr.times[-1]))
        return self._ahead(lon, lat, direction, h, d)

    def _ahead(self, lon, lat, direction, h, d) -> tuple[float, float]:
        b = math.radians(direction + self.rng.uniform(-0.6, 0.6) * h / 2)
        r = self.rng.uniform(0.2, 0.8) * d
        return gen.offset(lon, lat, r * math.sin(b), r * math.cos(b))

    # -- read actions ------------------------------------------------------------------

    def window(self) -> Action:
        rng = self.rng
        cid = rng.choice([c for c, _ in gen.COLLECTIONS])
        if rng.random() < 0.7:
            lon, lat = self._feature_point(cid)
        else:
            lon, lat = self.area.uniform()
        side = math.exp(rng.uniform(math.log(100), math.log(10_000)))
        w, h = side * rng.uniform(0.7, 1.4), side * rng.uniform(0.7, 1.4)
        lo = gen.offset(lon, lat, -w / 2, -h / 2)
        hi = gen.offset(lon, lat, w / 2, h / 2)
        box = (round(lo[0], 7), round(lo[1], 7), round(hi[0], 7), round(hi[1], 7))
        limit = rng.choice((10, 25, 50))
        query = f"bbox={box[0]:.7f},{box[1]:.7f},{box[2]:.7f},{box[3]:.7f}&limit={limit}"
        interval = None
        if rng.random() < 0.75:
            span = int(math.exp(rng.uniform(math.log(60_000), math.log(gen.DAY_MS))))
            mid = gen.DAY0 + rng.randrange(gen.DAY_MS)
            interval = (mid - span // 2, mid + span // 2)
            query += f"&datetime={quote(oracle.iso(interval[0]))}/{quote(oracle.iso(interval[1]))}"
        docs = self.model.snapshot(cid)

        def check(resps):
            body, err = _expect(resps[0], 200)
            if err:
                return err
            if cid == "photos":
                must, may = oracle.window_photos(docs, box, interval)
            else:
                must = may = set(oracle.window_exact(docs, box, interval))
            return oracle.check_page(body, must, may, limit) or _docs_equal(body["features"], docs)

        return Action("window", [("GET", f"/collections/{cid}/items?{query}", None)], check)

    def visible(self) -> Action:
        lon, lat = self._seen_point() if self.rng.random() < 0.5 else self.area.uniform()
        lon, lat = round(lon, 7), round(lat, 7)
        q = f"visibleFrom={_pt(lon, lat)}&limit=100"
        photos, videos = self.model.snapshot("photos"), self.model.snapshot("videos")
        model = self.model

        def check(resps):
            body, err = _expect(resps[0], 200)
            if err:
                return err
            must, may = oracle.visible_photos(photos, lon, lat)
            err = oracle.check_page(body, must, may, 100)
            if err:
                return "photos: " + err
            body, err = _expect(resps[1], 200)
            if err:
                return err
            return _check_visible_videos(body, videos, model, lon, lat)

        return Action("visible", [
            ("GET", f"/collections/photos/items?{q}", None),
            ("GET", f"/collections/videos/items?{q}", None),
        ], check)

    def near(self) -> Action:
        rng = self.rng
        if rng.random() < 0.6:
            lon, lat = self._feature_point(rng.choice(("tracks", "videos")))
            lon, lat = gen.offset(lon, lat, rng.uniform(-150, 150), rng.uniform(-150, 150))
        else:
            lon, lat = self.area.uniform()
        radius = round(math.exp(rng.uniform(math.log(20), math.log(500))), 1)
        q = f"near={_pt(lon, lat)},{radius}&limit=100"
        lon, lat = round(lon, 7), round(lat, 7)
        snaps = {cid: self.model.snapshot(cid) for cid in ("tracks", "videos")}

        def check(resps):
            for resp, cid in zip(resps, ("tracks", "videos")):
                body, err = _expect(resp, 200)
                if err:
                    return err
                must, may = oracle.near(snaps[cid], lon, lat, radius)
                err = oracle.check_page(body, must, may, 100)
                if err:
                    return f"{cid}: {err}"
            return None

        return Action("near", [("GET", f"/collections/{cid}/items?{q}", None)
                               for cid in ("tracks", "videos")], check)

    def view(self) -> Action:
        """The label viewer opening one video: document, labels, position, FoV, visibility."""
        rng = self.rng
        fid = rng.choice(sorted(self.model.docs["videos"]))
        doc = self.model.docs["videos"][fid]
        tr = self.model.track(doc)
        t = rng.randint(tr.times[0], tr.times[-1])
        lon, lat = self._ahead(*tr.state(rng.randint(tr.times[0], tr.times[-1])))
        lon, lat = round(lon, 7), round(lat, 7)
        anns = [dict(a) for _, a in sorted(self.model.anns.get(("videos", fid), {}).items())]
        base = f"/collections/videos/items/{fid}"
        at = quote(oracle.iso(t))

        def check(resps):
            body, err = _expect(resps[0], 200)
            if err or body != doc:
                return err or f"{fid}: document differs from the submitted one"
            body, err = _expect(resps[1], 200)
            if err:
                return err
            err = _check_annotations(body["annotations"], anns)
            if err:
                return f"{fid}: {err}"
            body, err = _expect(resps[2], 200)
            if err:
                return err
            want = tr.position(t)
            got = body["coordinates"]
            if abs(got[0] - want[0]) > 1e-9 or abs(got[1] - want[1]) > 1e-9:
                return f"{fid}: position at {t} is {got}, expected {want}"
            body, err = _expect(resps[3], 200)
            if err:
                return err
            err = oracle.fov_polygon(tr, t, body)
            if err:
                return f"{fid} fov at {t}: {err}"
            body, err = _expect(resps[4], 200)
            if err:
                return err
            got = [tuple(oracle.parse_iso(x) for x in iv.split("/")) for iv in body["intervals"]]
            err = oracle.check_intervals(tr, lon, lat, got)
            return f"{fid} visible from {lon},{lat}: {err}" if err else None

        return Action("view", [
            ("GET", base, None),
            ("GET", f"{base}/annotations", None),
            ("GET", f"{base}/position?at={at}", None),
            ("GET", f"{base}/fov?at={at}", None),
            ("GET", f"{base}/visible?point={_pt(lon, lat)}", None),
        ], check)

    def dashcam(self) -> Action:
        """visibleFrom on the discrete-mode dashcam videos; fixed points, every seed."""
        lon, lat = self.dashcam_points[self.rounds % len(self.dashcam_points)]
        docs = self.model.docs["dashcam"]
        model = self.model
        action = Action("dashcam", [(
            "GET", f"/collections/dashcam/items?visibleFrom={_pt(lon, lat)}&limit=100", None)],
            None)

        def check(resps):
            status, data = resps[0][0], resps[0][1]
            if status == 400 and NOT_A_SAMPLE in _json(data).get("message", ""):
                action.expect_failure = True
                return None
            body, err = _expect(resps[0], 200)
            if err:
                return err
            must, may = set(), set()
            for fid, doc in docs.items():
                tr = model.track(doc)
                seen = [tr.classify_at(t, lon, lat) for t in tr.times]
                if oracle.IN in seen:
                    must.add(fid)
                if any(c != oracle.OUT for c in seen):
                    may.add(fid)
            return oracle.check_page(body, must, may, 100)

        action.check = check
        return action

    # -- write actions ---------------------------------------------------------------------

    def upload(self) -> Action:
        """PUT of a new photo or video (201), or a changed copy of an existing one (200)."""
        rng = self.rng
        cid = rng.choice(("photos", "videos"))
        docs = self.model.docs[cid]
        if rng.random() < 0.5:
            self.counter += 1
            fid = f"u{self.counter:05d}"
            if cid == "photos":
                doc = next(iter(gen.make_photos(self.area, 1, fid).values()))
            else:
                doc = gen.make_video(self.area, fid)
            status = 201
        else:
            fid = rng.choice(sorted(docs))
            doc = json.loads(json.dumps(docs[fid]))
            doc["uri"] = doc["uri"].split("?")[0] + f"?rev={rng.randrange(10**6)}"
            dx, dy = rng.uniform(-5, 5), rng.uniform(-5, 5)
            if cid == "photos":
                doc["fov"]["direction2d"] = gen._bearing(rng.uniform(0, 360))
                doc["coordinates"] = [round(v, 7) for v in gen.offset(*doc["coordinates"], dx, dy)]
            else:
                doc["coordinates"] = [[round(v, 7) for v in gen.offset(*c, dx, dy)]
                                      for c in doc["coordinates"]]
            status = 200
        docs[fid] = doc
        self.model.uploaded.add((cid, fid))
        body = json.dumps(doc).encode()
        self.model.doc_bytes[(cid, fid)] = len(body)

        def check(resps):
            got, err = _expect(resps[0], status)
            return err or (None if got == doc else f"{cid}/{fid}: PUT echoed another document")

        return Action("upload", [("PUT", f"/collections/{cid}/items/{fid}", body)], check,
                      mutation=True)

    def label(self) -> Action:
        """An annotation POST (text, icon or image-space polygon); every fourth, a DELETE."""
        rng = self.rng
        self.labels += 1
        live = [(k, aid) for k, anns in sorted(self.model.anns.items()) for aid in sorted(anns)]
        if self.labels % 4 == 0 and live:
            (cid, fid), aid = live[0]
            del self.model.anns[(cid, fid)][aid]
            del self.model.ann_bytes[(cid, fid, aid)]

            def check_delete(resps):
                return _expect(resps[0], 204)[1]

            return Action("label", [
                ("DELETE", f"/collections/{cid}/items/{fid}/annotations/{aid}", None)],
                check_delete, mutation=True)
        cid = rng.choice(("photos", "videos"))
        fid = rng.choice(sorted(self.model.docs[cid]))
        aid = f"L{self.labels:05d}"
        kind = rng.choice(("text", "text", "icon", "polygon"))
        if kind == "text":
            body = f"label {self.labels}: " + rng.choice(("car", "tree", "sign", "person", "shop"))
        elif kind == "icon":
            body = f"icon-{rng.randrange(40)}.png"
        else:
            body = [[float(rng.randrange(1920)), float(rng.randrange(1080))]
                    for _ in range(rng.randrange(3, 7))]
        post = {"aid": aid, "kind": kind, "body": body}
        want = {"aid": aid, "kind": kind, "body": body, "timeRange": None}
        if cid == "videos" and rng.random() < 0.5:
            times = self.model.docs[cid][fid]["timeline"]
            a = rng.randint(times[0], times[-1])
            b = rng.randint(a, times[-1])
            post["timeRange"] = want["timeRange"] = f"{oracle.iso(a)}/{oracle.iso(b)}"
        data = json.dumps(post).encode()
        self.model.anns.setdefault((cid, fid), {})[aid] = want
        self.model.ann_bytes[(cid, fid, aid)] = len(data)

        def check(resps):
            got, err = _expect(resps[0], 201)
            if err:
                return err
            return _check_annotations([got], [want])

        return Action("label", [("POST", f"/collections/{cid}/items/{fid}/annotations", data)],
                      check, mutation=True)

    def round(self, mix: list[tuple[str, int]]) -> list[Action]:
        """One round: the workload's fixed action counts in a seeded order."""
        classes = [cls for cls, n in mix for _ in range(n)]
        self.rng.shuffle(classes)
        out = [getattr(self, cls)() for cls in classes]
        self.rounds += 1
        return out


def _check_visible_videos(body, videos, model: Model, lon, lat) -> str | None:
    """Returned videos are within reach; unreturned ones do not see the point for long."""
    fids = [f["fid"] for f in body["features"]]
    n = body["numberMatched"]
    if fids != sorted(fids) or len(fids) != min(n, 100):
        return f"videos: page of {len(fids)} for {n} matches"
    reach = {fid for fid, doc in videos.items() if model.track(doc).within_reach(lon, lat)}
    if not set(fids) <= reach:
        return f"videos: {sorted(set(fids) - reach)[:5]} returned but never within reach"
    if n > len(reach):
        return f"videos: numberMatched {n} exceeds the {len(reach)} within reach"
    end = fids[-1] if len(fids) == 100 else None
    for fid in sorted(reach - set(fids)):
        if (end is None or fid < end) and model.track(videos[fid]).must_see(lon, lat):
            return f"videos: {fid} sees {lon},{lat} for {oracle.MUST_SEE_MS} ms but is missing"
    return _docs_equal(body["features"], videos)


def _check_annotations(got: list[dict], want: list[dict]) -> str | None:
    if len(got) != len(want):
        return f"{len(got)} annotations, expected {len(want)}"
    for g, w in zip(got, want):
        tr_g, tr_w = g.get("timeRange"), w["timeRange"]
        if (tr_g is None) != (tr_w is None):
            return f"annotation {w['aid']}: time range {tr_g!r}, expected {tr_w!r}"
        if tr_g is not None and [oracle.parse_iso(x) for x in tr_g.split("/")] != \
                [oracle.parse_iso(x) for x in tr_w.split("/")]:
            return f"annotation {w['aid']}: time range {tr_g!r}, expected {tr_w!r}"
        if (g["aid"], g["kind"], g["body"]) != (w["aid"], w["kind"], w["body"]):
            return f"annotation {w['aid']} differs: {g}"
    return None
