"""REST surface: routing, WFS-3-style parameters, error mapping, durability."""

from __future__ import annotations

import json
import re
import socket
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from geomedia import GeoMediaApi, GeoMediaServer, MediaStore, evaluate
from geomedia import service
from geomedia.service import decode_query_spec

from conftest import T0, T1, error_classes, fixture_bytes


@pytest.fixture
def api(tmp_path):
    return GeoMediaApi(MediaStore(tmp_path / "store"))


def put_reference_track(api, cid="taxi", fid="t1"):
    status, _ = api.handle("POST", "/collections",
                           json.dumps({"id": cid, "title": "Taxi GPS",
                                       "mediaType": "MovingPoint"}).encode())
    assert status == 201
    status, body = api.handle("PUT", f"/collections/{cid}/items/{fid}",
                              fixture_bytes("moving_point.json"))
    assert status == 201
    return body


class TestRoot:
    def test_landing_page(self, api):
        status, body = api.handle("GET", "/")
        assert status == 200
        assert any(link["rel"] == "data" for link in body["links"])

    def test_unknown_route(self, api):
        status, body = api.handle("GET", "/nope")
        assert status == 404
        assert body["code"] == "NotFound"
        assert body["path"] == "/nope"


# Every route of the service, with a query and a body that succeed against
# the seeded store: collection "vids", video "v1", annotation "a1".
ROUTE_MATRIX = {
    ("GET", "/"): ("", None),
    ("GET", "/collections"): ("", None),
    ("POST", "/collections"): ("", b'{"id": "new", "mediaType": "MovingPoint"}'),
    ("GET", "/collections/{cid}"): ("", None),
    ("DELETE", "/collections/{cid}"): ("", None),
    ("GET", "/collections/{cid}/items"): ("bbox=140,40,180,70", None),
    ("GET", "/collections/{cid}/items/{fid}"): ("", None),
    ("PUT", "/collections/{cid}/items/{fid}"): ("", fixture_bytes("moving_video.json")),
    ("DELETE", "/collections/{cid}/items/{fid}"): ("", None),
    ("GET", "/collections/{cid}/items/{fid}/position"): (f"at={T1}", None),
    ("GET", "/collections/{cid}/items/{fid}/fov"): (f"at={T1}", None),
    ("GET", "/collections/{cid}/items/{fid}/visible"): ("point=160.0002,60", None),
    ("GET", "/collections/{cid}/items/{fid}/annotations"): ("", None),
    ("POST", "/collections/{cid}/items/{fid}/annotations"): ("", b'{"kind": "text", "body": "x"}'),
    ("GET", "/collections/{cid}/items/{fid}/annotations/{aid}"): ("", None),
    ("DELETE", "/collections/{cid}/items/{fid}/annotations/{aid}"): ("", None),
}
UNDECLARED = [
    (method, template)
    for template in dict.fromkeys(t for _, t in ROUTE_MATRIX)
    for method in ("GET", "POST", "PUT", "DELETE")
    if (method, template) not in ROUTE_MATRIX
]


def route_id(route) -> str:
    return " ".join(route)


def route_target(template: str, query: str = "") -> str:
    path = template.format(cid="vids", fid="v1", aid="a1")
    return f"{path}?{query}" if query else path


@pytest.fixture
def seeded_api(api):
    assert api.handle("POST", "/collections",
                      b'{"id": "vids", "mediaType": "MovingVideo"}')[0] == 201
    assert api.handle("PUT", "/collections/vids/items/v1",
                      fixture_bytes("moving_video.json"))[0] == 201
    assert api.handle("POST", "/collections/vids/items/v1/annotations",
                      b'{"aid": "a1", "kind": "text", "body": "seed"}')[0] == 201
    return api


class TestRouteMatrix:
    @pytest.mark.parametrize("route", ROUTE_MATRIX, ids=route_id)
    def test_declared_route_answers(self, seeded_api, route):
        method, template = route
        query, body = ROUTE_MATRIX[route]
        status, payload = seeded_api.handle(method, route_target(template, query), body)
        assert status != 404, payload
        assert 200 <= status < 300, payload

    @pytest.mark.parametrize("route", UNDECLARED, ids=route_id)
    def test_undeclared_method_is_not_found(self, seeded_api, route):
        method, template = route
        status, payload = seeded_api.handle(method, route_target(template), b"{}")
        assert (status, payload["code"]) == (404, "NotFound")

    @pytest.mark.parametrize("route", ROUTE_MATRIX, ids=route_id)
    def test_unknown_parameter_is_bad_query(self, seeded_api, route):
        method, template = route
        query, body = ROUTE_MATRIX[route]
        target = route_target(template, f"{query}&bogus=1" if query else "bogus=1")
        status, payload = seeded_api.handle(method, target, body)
        assert (status, payload["code"]) == (400, "BadQuery")
        assert "bogus" in payload["message"]


class TestHead:
    """HEAD is answered as GET (RFC 9110 §9.3.2); the socket sends its headers only."""

    @pytest.mark.parametrize("target", [
        "/", "/collections", "/collections/vids/items/v1",
        "/collections/vids/items?bbox=140,40,180,70",
    ])
    def test_same_answer_as_get(self, seeded_api, target):
        assert seeded_api.handle("HEAD", target) == seeded_api.handle("GET", target)

    def test_answered_while_another_thread_holds_the_store_lock(self, api):
        held, release, answers = threading.Event(), threading.Event(), []

        def hold():
            with api.store.lock:
                held.set()
                release.wait(10)

        holder = threading.Thread(target=hold)
        asker = threading.Thread(target=lambda: answers.append(api.handle("HEAD", "/")),
                                 daemon=True)
        holder.start()
        try:
            assert held.wait(10)
            asker.start()
            asker.join(5)
            assert answers == [api.handle("GET", "/")]
        finally:
            release.set()
            holder.join(10)
        assert not holder.is_alive()


def test_readme_lists_the_route_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## HTTP service", 1)[1].split("```", 2)[1]
    listed = []
    for line in block.strip().splitlines():
        method, target = line.split()[:2]
        listed.append((method, re.sub(r"\{\w+\}", "{}", target.partition("?")[0])))
    assert listed == list(service.ROUTES)
    assert set(listed) == {(m, re.sub(r"\{\w+\}", "{}", t)) for m, t in ROUTE_MATRIX}


def test_every_error_code_has_an_http_status():
    # handle() answers a GeoMediaError by its code; a code without a status
    # would raise KeyError there and drop the connection unanswered.
    assert {c.__name__: c.code for c in error_classes()
            if c.code not in service._STATUS_BY_CODE} == {}


class TestCollections:
    def test_create_and_list(self, api):
        status, body = api.handle("POST", "/collections",
                                  b'{"id": "taxi", "title": "T", "mediaType": "MovingPoint"}')
        assert status == 201
        assert body["id"] == "taxi"
        status, body = api.handle("GET", "/collections")
        assert status == 200
        assert [c["id"] for c in body["collections"]] == ["taxi"]

    def test_duplicate_conflict(self, api):
        api.handle("POST", "/collections", b'{"id": "x", "mediaType": "MovingPoint"}')
        status, body = api.handle("POST", "/collections",
                                  b'{"id": "x", "mediaType": "MovingPoint"}')
        assert status == 409
        assert body["code"] == "Conflict"

    def test_bad_body(self, api):
        status, body = api.handle("POST", "/collections", b"{broken")
        assert (status, body["code"]) == (400, "BadBody")
        status, body = api.handle("POST", "/collections", b'{"id": "x", "mediaType": "Nope"}')
        assert (status, body["code"]) == (400, "BadBody")
        status, body = api.handle("POST", "/collections", b'{"id": "bad id!", "mediaType": "MovingPoint"}')
        assert (status, body["code"]) == (400, "BadBody")

    def test_media_type_is_spelled_as_a_document_type(self, api):
        # parse_document takes " MovingPoint " as a document's type; mediaType too
        status, body = api.handle("POST", "/collections",
                                  b'{"id": "x", "mediaType": " movingpoint "}')
        assert (status, body["mediaType"]) == (201, "MovingPoint")

    def test_detail_carries_counts_and_bounds(self, api):
        put_reference_track(api)
        status, body = api.handle("GET", "/collections/taxi")
        assert status == 200
        assert body["featureCount"] == 1
        assert body["bbox"] == [150.0, 50.0, 170.0, 60.0]
        assert body["extent"] == "2018-08-01T13:01:01Z/2018-08-01T13:01:03Z"

    def test_delete(self, api):
        api.handle("POST", "/collections", b'{"id": "x", "mediaType": "MovingPoint"}')
        status, body = api.handle("DELETE", "/collections/x")
        assert (status, body) == (204, None)
        status, _ = api.handle("GET", "/collections/x")
        assert status == 404

    def test_concurrent_delete_leaves_the_listing_whole(self, api, monkeypatch):
        for cid in ("a", "b"):
            api.handle("POST", "/collections",
                       json.dumps({"id": cid, "mediaType": "MovingPoint"}).encode())
        list_collections = MediaStore.list_collections
        replies = []
        deleter = threading.Thread(
            target=lambda: replies.append(api.handle("DELETE", "/collections/b")))

        def slow_list(store):
            metas = list_collections(store)
            deleter.start()
            time.sleep(0.2)  # the DELETE runs meanwhile, unless the listing holds the lock
            return metas

        monkeypatch.setattr(MediaStore, "list_collections", slow_list)
        status, body = api.handle("GET", "/collections")
        deleter.join(5)
        assert not deleter.is_alive()
        assert status == 200
        assert [c["id"] for c in body["collections"]] == ["a", "b"]
        assert replies == [(204, None)]


class TestItems:
    def test_put_get_round_trip(self, api):
        put_reference_track(api)
        status, body = api.handle("GET", "/collections/taxi/items/t1")
        assert status == 200
        assert body["type"] == "MovingPoint"
        assert body["timeline"] == [T0, T0 + 1000, T0 + 2000]
        from geomedia import parse_document

        assert parse_document(json.dumps(body)) == parse_document(fixture_bytes("moving_point.json"))

    def test_put_replace_returns_200(self, api):
        put_reference_track(api)
        status, _ = api.handle("PUT", "/collections/taxi/items/t1",
                               fixture_bytes("moving_point.json"))
        assert status == 200

    def test_bbox_query_hits(self, api):
        put_reference_track(api)
        status, body = api.handle("GET", "/collections/taxi/items?bbox=140,40,180,70")
        assert status == 200
        assert body["numberReturned"] == 1
        assert body["numberMatched"] == 1
        assert body["features"][0]["fid"] == "t1"
        assert body["query"]["bbox"] == "140,40,180,70"

    def test_bbox_query_miss(self, api):
        put_reference_track(api)
        status, body = api.handle("GET", "/collections/taxi/items?bbox=0,0,1,1")
        assert (status, body["numberReturned"]) == (200, 0)

    def test_inverted_bbox_rejected(self, api):
        put_reference_track(api)
        status, body = api.handle("GET", "/collections/taxi/items?bbox=1,2,0,3")
        assert (status, body["code"]) == (400, "BadQuery")

    def test_unknown_parameter_rejected(self, api):
        put_reference_track(api)
        status, body = api.handle("GET", "/collections/taxi/items?bbxo=1,2,3,4")
        assert (status, body["code"]) == (400, "BadQuery")

    def test_repeated_parameter_rejected(self, api):
        put_reference_track(api)
        status, body = api.handle("GET", "/collections/taxi/items?limit=1&limit=2")
        assert (status, body["code"]) == (400, "BadQuery")

    def test_datetime_instant_and_interval(self, api):
        put_reference_track(api)
        status, body = api.handle(
            "GET", "/collections/taxi/items?datetime=2018-08-01T13:01:02Z")
        assert (status, body["numberReturned"]) == (200, 1)
        status, body = api.handle(
            "GET", "/collections/taxi/items?datetime=2018-08-01T13:05:00Z/2018-08-01T13:06:00Z")
        assert (status, body["numberReturned"]) == (200, 0)

    @pytest.mark.parametrize("query", [
        "limit=1_0", "limit=%205", "limit=5%0A", "limit=%2B5", "offset=0_1",
        "datetime=%D9%A1%D9%A2", "datetime=12%0A", "datetime=%2012/1533128463000",
    ])
    def test_integers_are_ascii_digits_only(self, api, query):
        put_reference_track(api)
        status, body = api.handle("GET", f"/collections/taxi/items?{query}")
        assert (status, body["code"]) == (400, "BadQuery")

    @pytest.mark.parametrize("name", ["datetime", "limit", "offset"])
    def test_integer_of_more_digits_than_python_reads_is_a_bad_query(self, api, name):
        put_reference_track(api)
        status, body = api.handle("GET", f"/collections/taxi/items?{name}={'9' * 5000}")
        assert (status, body["code"]) == (400, "BadQuery")
        assert body["message"].endswith("has 5000 digits, too many to read")

    def test_plain_integers_accepted(self, api):
        put_reference_track(api)
        status, body = api.handle(
            "GET", f"/collections/taxi/items?limit=1&offset=0&datetime=-5/{T1}")
        assert (status, body["numberReturned"]) == (200, 1)

    def test_concurrent_puts_of_a_new_fid_create_it_once(self, api, monkeypatch):
        put_reference_track(api)
        real_put = api.store.put_feature
        inside = threading.Event()

        def slow_put(cid, fid, doc):
            inside.set()
            time.sleep(0.2)  # the second PUT decides "existed" meanwhile, unless it waits
            return real_put(cid, fid, doc)

        monkeypatch.setattr(api.store, "put_feature", slow_put)
        statuses = []

        def put():
            status, _ = api.handle("PUT", "/collections/taxi/items/t2",
                                   fixture_bytes("moving_point.json"))
            statuses.append(status)

        first = threading.Thread(target=put)
        first.start()
        assert inside.wait(5)
        second = threading.Thread(target=put)
        second.start()
        first.join(5)
        second.join(5)
        assert not first.is_alive() and not second.is_alive()
        assert sorted(statuses) == [200, 201]

    def test_fid_with_a_slash_refused(self, api):
        put_reference_track(api)
        status, body = api.handle("PUT", "/collections/taxi/items/a%2Fb",
                                  fixture_bytes("moving_point.json"))
        assert (status, body["code"]) == (400, "BadQuery")
        assert "'/'" in body["message"]
        assert api.handle("GET", "/collections/taxi")[1]["featureCount"] == 1

    def test_delete_feature(self, api):
        put_reference_track(api)
        status, _ = api.handle("DELETE", "/collections/taxi/items/t1")
        assert status == 204
        status, _ = api.handle("GET", "/collections/taxi/items/t1")
        assert status == 404

    def test_kind_mismatch_on_put(self, api):
        put_reference_track(api)
        status, body = api.handle("PUT", "/collections/taxi/items/p1",
                                  fixture_bytes("stphoto.json"))
        assert (status, body["code"]) == (422, "KindMismatch")

    def test_malformed_document_rejected_with_pointer(self, api):
        put_reference_track(api)
        bad = b'{"type": "MovingPoint", "coordinates": [[1, 2], [3, 4]], "timeline": [0]}'
        status, body = api.handle("PUT", "/collections/taxi/items/t9", bad)
        assert (status, body["code"]) == (400, "BadBody")
        assert "/timeline" in body["message"]

    def test_items_agree_with_evaluate(self, api):
        put_reference_track(api)
        status, body = api.handle("GET", "/collections/taxi/items?bbox=140,40,180,70&datetime=2018-08-01T13:01:01Z/2018-08-01T13:01:03Z")
        assert status == 200
        spec = decode_query_spec({
            "bbox": "140,40,180,70",
            "datetime": "2018-08-01T13:01:01Z/2018-08-01T13:01:03Z",
        })
        records = evaluate(api.store, "taxi", spec)
        assert [f["fid"] for f in body["features"]] == [r.fid for r in records]


class TestEvaluationRoutes:
    def test_position_at(self, api):
        put_reference_track(api)
        status, body = api.handle(
            "GET", "/collections/taxi/items/t1/position?at=2018-08-01T13:01:02Z")
        assert status == 200
        assert body == {"type": "Point", "coordinates": [160, 60, 12]}

    def test_position_outside_extent(self, api):
        put_reference_track(api)
        status, body = api.handle(
            "GET", "/collections/taxi/items/t1/position?at=2018-08-01T14:00:00Z")
        assert (status, body["code"]) == (400, "BadQuery")

    def test_position_missing_at(self, api):
        put_reference_track(api)
        status, body = api.handle("GET", "/collections/taxi/items/t1/position")
        assert (status, body["code"]) == (400, "BadQuery")

    def test_photo_fov_polygon(self, api):
        api.handle("POST", "/collections", b'{"id": "pics", "mediaType": "stphoto"}')
        api.handle("PUT", "/collections/pics/items/p1", fixture_bytes("stphoto.json"))
        status, body = api.handle("GET", "/collections/pics/items/p1/fov")
        assert status == 200
        assert body["type"] == "Polygon"
        ring = body["coordinates"][0]
        assert ring[0] == ring[-1]
        assert len(ring) == 16

    def test_video_fov_needs_at(self, api):
        api.handle("POST", "/collections", b'{"id": "vids", "mediaType": "MovingVideo"}')
        api.handle("PUT", "/collections/vids/items/v1", fixture_bytes("moving_video.json"))
        status, body = api.handle("GET", "/collections/vids/items/v1/fov")
        assert (status, body["code"]) == (400, "BadQuery")
        status, body = api.handle(
            "GET", f"/collections/vids/items/v1/fov?at={T1}")
        assert status == 200
        assert body["type"] == "Polygon"

    def test_fov_wrong_kind(self, api):
        put_reference_track(api)
        status, body = api.handle("GET", "/collections/taxi/items/t1/fov")
        assert (status, body["code"]) == (422, "KindMismatch")

    def test_visible_on_video(self, api):
        api.handle("POST", "/collections", b'{"id": "vids", "mediaType": "MovingVideo"}')
        api.handle("PUT", "/collections/vids/items/v1", fixture_bytes("moving_video.json"))
        # listing FoV: direction 90 (east), distance 30 m; a point just east
        # of the second sample is visible around T1
        status, body = api.handle(
            "GET", "/collections/vids/items/v1/visible?point=160.0002,60")
        assert status == 200
        assert body["intervals"]  # non-empty
        for iv in body["intervals"]:
            assert "/" in iv

    @pytest.mark.parametrize("coordinates, timeline, fov, pointer", [
        ([[160, 60], [160, 60]], [T0, T1], [{"direction2d": -360}], "/fov/0/direction2d"),
        ([[160, 60]], [T0], [{"direction2d": -90}], "/fov/0/direction2d"),
        ([[160, 60], [160, 60]], [T0, T1],
         [{"direction2d": 90}, {"direction2d": -180}], "/fov/1/direction2d"),
    ])
    def test_stationary_relative_video_refused(self, api, coordinates, timeline, fov, pointer):
        api.handle("POST", "/collections", b'{"id": "vids", "mediaType": "MovingVideo"}')
        api.handle("PUT", "/collections/vids/items/v1", fixture_bytes("moving_video.json"))
        still = {"type": "MovingVideo", "uri": "u:still", "coordinates": coordinates,
                 "timeline": timeline, "fov": fov}
        status, body = api.handle("PUT", "/collections/vids/items/still",
                                  json.dumps(still).encode())
        assert (status, body["code"]) == (400, "BadBody")
        assert pointer in body["message"]
        status, body = api.handle("GET", "/collections/vids/items?visibleFrom=160.0002,60")
        assert status == 200, body
        assert [f["fid"] for f in body["features"]] == ["v1"]

    def test_visible_wrong_kind(self, api):
        put_reference_track(api)
        status, body = api.handle("GET", "/collections/taxi/items/t1/visible?point=0,0")
        assert (status, body["code"]) == (422, "KindMismatch")


class TestAnnotations:
    def test_crud(self, api):
        api.handle("POST", "/collections", b'{"id": "pics", "mediaType": "stphoto"}')
        api.handle("PUT", "/collections/pics/items/p1", fixture_bytes("stphoto.json"))
        status, body = api.handle(
            "POST", "/collections/pics/items/p1/annotations",
            b'{"kind": "text", "body": "stop sign"}')
        assert status == 201
        aid = body["aid"]
        status, body = api.handle("GET", "/collections/pics/items/p1/annotations")
        assert status == 200
        assert [a["aid"] for a in body["annotations"]] == [aid]
        status, body = api.handle(f"GET", f"/collections/pics/items/p1/annotations/{aid}")
        assert (status, body["kind"]) == (200, "text")
        status, _ = api.handle("DELETE", f"/collections/pics/items/p1/annotations/{aid}")
        assert status == 204
        status, body = api.handle("GET", "/collections/pics/items/p1/annotations")
        assert body["annotations"] == []

    def test_post_with_an_existing_aid_replaces_and_answers_200(self, api):
        api.handle("POST", "/collections", b'{"id": "pics", "mediaType": "stphoto"}')
        api.handle("PUT", "/collections/pics/items/p1", fixture_bytes("stphoto.json"))
        target = "/collections/pics/items/p1/annotations"
        status, _ = api.handle("POST", target, b'{"aid": "x", "kind": "text", "body": "one"}')
        assert status == 201
        status, body = api.handle("POST", target, b'{"aid": "x", "kind": "text", "body": "two"}')
        assert (status, body["body"]) == (200, "two")
        status, body = api.handle("POST", target, b'{"aid": "y", "kind": "text", "body": "new"}')
        assert status == 201
        _, body = api.handle("GET", target)
        assert [(a["aid"], a["body"]) for a in body["annotations"]] == [("x", "two"), ("y", "new")]

    def test_polygon_arity_rejected(self, api):
        api.handle("POST", "/collections", b'{"id": "pics", "mediaType": "stphoto"}')
        api.handle("PUT", "/collections/pics/items/p1", fixture_bytes("stphoto.json"))
        status, body = api.handle(
            "POST", "/collections/pics/items/p1/annotations",
            b'{"kind": "polygon", "body": [[0, 0], [1, 1]]}')
        assert (status, body["code"]) == (400, "BadBody")

    def test_video_time_range(self, api):
        api.handle("POST", "/collections", b'{"id": "vids", "mediaType": "MovingVideo"}')
        api.handle("PUT", "/collections/vids/items/v1", fixture_bytes("moving_video.json"))
        status, body = api.handle(
            "POST", "/collections/vids/items/v1/annotations",
            json.dumps({
                "kind": "text", "body": "truck",
                "timeRange": "2018-08-01T13:01:01Z/2018-08-01T13:01:02Z",
            }).encode())
        assert status == 201
        assert body["timeRange"] == "2018-08-01T13:01:01Z/2018-08-01T13:01:02Z"
        status, body = api.handle(
            "POST", "/collections/vids/items/v1/annotations",
            json.dumps({
                "kind": "text", "body": "late",
                "timeRange": "2018-08-01T14:00:00Z/2018-08-01T15:00:00Z",
            }).encode())
        assert (status, body["code"]) == (400, "BadBody")

    def test_concurrent_posts_get_distinct_aids(self, api, monkeypatch):
        api.handle("POST", "/collections", b'{"id": "pics", "mediaType": "stphoto"}')
        api.handle("PUT", "/collections/pics/items/p1", fixture_bytes("stphoto.json"))
        list_annotations = MediaStore.list_annotations

        def slow_list(store, cid, fid):
            anns = list_annotations(store, cid, fid)
            time.sleep(0.2)  # the other request lists too before this one stores its pick
            return anns

        monkeypatch.setattr(MediaStore, "list_annotations", slow_list)
        replies = []

        def post(text):
            replies.append(api.handle("POST", "/collections/pics/items/p1/annotations",
                                      json.dumps({"kind": "text", "body": text}).encode()))

        threads = [threading.Thread(target=post, args=(text,)) for text in ("first", "second")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(status for status, _ in replies) == [201, 201]
        assert sorted(body["aid"] for _, body in replies) == ["a1", "a2"]
        stored = api.store.list_annotations("pics", "p1")
        assert sorted(a.body for a in stored) == ["first", "second"]


class TestDeterminism:
    def test_identical_requests_identical_payloads(self, api):
        put_reference_track(api)
        for target in ("/collections/taxi",
                       "/collections/taxi/items?bbox=140,40,180,70",
                       "/collections/taxi/items/t1"):
            first = json.dumps(api.handle("GET", target))
            second = json.dumps(api.handle("GET", target))
            assert first == second


class TestDurabilityThroughApi:
    def test_mutations_survive_reload(self, tmp_path):
        api = GeoMediaApi(MediaStore(tmp_path / "s"))
        put_reference_track(api)
        api.handle("POST", "/collections/taxi/items/t1/annotations",
                   b'{"kind": "text", "body": "x"}')
        reloaded = GeoMediaApi(MediaStore.load(tmp_path / "s"))
        status, body = reloaded.handle("GET", "/collections/taxi/items/t1")
        assert status == 200
        assert body["timeline"][0] == T0
        status, body = reloaded.handle("GET", "/collections/taxi/items/t1/annotations")
        assert len(body["annotations"]) == 1


    def test_failed_commit_answers_500_and_leaves_nothing_visible(self, tmp_path, disk_faults):
        api = GeoMediaApi(MediaStore(tmp_path / "s"))
        put_reference_track(api)
        with disk_faults("fsync", at=1, every=True):
            status, body = api.handle("PUT", "/collections/taxi/items/t2",
                                      fixture_bytes("moving_point.json"))
        assert (status, body["code"]) == (500, "Internal")
        assert api.handle("GET", "/collections/taxi/items/t2")[0] == 404
        assert api.handle("GET", "/collections/taxi")[1]["featureCount"] == 1

    def test_concurrent_puts_with_failing_commits_stay_consistent(self, tmp_path, disk_faults):
        """Under contention, the fids answered 2xx are exactly those in memory and on disk."""
        api = GeoMediaApi(MediaStore(tmp_path / "s"))
        put_reference_track(api)
        statuses = {}

        def worker(n):
            for i in range(10):
                fid = f"w{n}-{i}"
                statuses[fid], _ = api.handle("PUT", f"/collections/taxi/items/{fid}",
                                              fixture_bytes("moving_point.json"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with disk_faults("fsync", "fsync_dir", at=5, every=True):
                workers = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
                for w in workers:
                    w.start()
                for w in workers:
                    w.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert set(statuses.values()) == {201, 500}
        acknowledged = {fid for fid, status in statuses.items() if status == 201} | {"t1"}
        assert {r.fid for r in api.store.st_query("taxi")} == acknowledged
        assert {r.fid for r in MediaStore.load(tmp_path / "s").st_query("taxi")} == acknowledged


class TestHttpAdapter:
    def test_live_server_round_trip(self, tmp_path):
        server = GeoMediaServer(MediaStore(tmp_path / "s"), "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://{server.address}"
        try:
            req = urllib.request.Request(
                f"{base}/collections",
                data=b'{"id": "taxi", "title": "T", "mediaType": "MovingPoint"}',
                method="POST", headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(req) as resp:
                assert resp.status == 201
            req = urllib.request.Request(
                f"{base}/collections/taxi/items/t1",
                data=fixture_bytes("moving_point.json"), method="PUT")
            with urllib.request.urlopen(req) as resp:
                assert resp.status == 201
            with urllib.request.urlopen(f"{base}/collections/taxi/items?bbox=140,40,180,70") as resp:
                body = json.loads(resp.read())
                assert body["numberReturned"] == 1
            try:
                urllib.request.urlopen(f"{base}/collections/ghost")
                raise AssertionError("expected 404")
            except urllib.error.HTTPError as err:
                assert err.code == 404
                assert json.loads(err.read())["code"] == "NotFound"
        finally:
            server.shutdown()
            server.server_close()

    @pytest.mark.parametrize("length", ["-1", "abc"])
    def test_malformed_content_length(self, tmp_path, length):
        server = GeoMediaServer(MediaStore(tmp_path / "s"), "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            # the timeout turns a hung server into a failure, not a hung test
            with socket.create_connection(server.server_address[:2], timeout=5) as sock:
                sock.sendall(b"POST /collections HTTP/1.1\r\nHost: t\r\n"
                             b"Content-Length: " + length.encode() + b"\r\n\r\n{}")
                chunks = []
                while chunk := sock.recv(65536):  # ends only when the server closes
                    chunks.append(chunk)
        finally:
            server.shutdown()
            server.server_close()
        head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert json.loads(body)["code"] == "BadBody"


def raw_exchange(tmp_path, request: bytes) -> tuple[bytes, bytes]:
    """Send raw bytes to a live server; (head, body) of all it sends before closing."""
    server = GeoMediaServer(MediaStore(tmp_path / "s"), "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        # the timeout turns a hung server into a failure, not a hung test
        with socket.create_connection(server.server_address[:2], timeout=5) as sock:
            sock.sendall(request)
            chunks = []
            while chunk := sock.recv(65536):
                chunks.append(chunk)
    finally:
        server.shutdown()
        server.server_close()
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return head, body


def test_oversized_body_refused_unread(tmp_path):
    length = str(service.MAX_BODY_BYTES + 1).encode()
    head, body = raw_exchange(tmp_path, b"POST /collections HTTP/1.1\r\nHost: t\r\n"
                                        b"Content-Length: " + length + b"\r\n\r\n{}")
    assert head.startswith(b"HTTP/1.1 413 ")
    assert b"Connection: close" in head
    assert json.loads(body)["code"] == "TooLarge"


@pytest.mark.parametrize("spare, status", [(0, 201), (-1, 413)])
def test_body_limit_boundary(tmp_path, monkeypatch, spare, status):
    doc = b'{"id": "taxi", "title": "T", "mediaType": "MovingPoint"}'
    monkeypatch.setattr(service, "MAX_BODY_BYTES", len(doc) + spare)
    head, _ = raw_exchange(tmp_path, b"POST /collections HTTP/1.1\r\nHost: t\r\n"
                                     b"Connection: close\r\nContent-Length: "
                                     + str(len(doc)).encode() + b"\r\n\r\n" + doc)
    assert head.startswith(f"HTTP/1.1 {status} ".encode())


def test_chunked_body_refused_and_connection_closed(tmp_path):
    chunk = b'{"id": "taxi"}'
    head, body = raw_exchange(tmp_path, b"PUT /collections/taxi/items/f1 HTTP/1.1\r\nHost: t\r\n"
                                        b"Transfer-Encoding: chunked\r\n\r\n"
                                        + f"{len(chunk):x}\r\n".encode() + chunk + b"\r\n0\r\n\r\n"
                                        b"GET /collections HTTP/1.1\r\nHost: t\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert b"Connection: close" in head
    # one JSON error and nothing after it: the chunk lines are never read as requests
    assert json.loads(body) == {
        "httpStatus": 400, "code": "BadBody", "path": "/collections/taxi/items/f1",
        "message": "Transfer-Encoding is not supported; send a Content-Length"}


@pytest.mark.parametrize("method", ["HEAD", "PATCH", "OPTIONS"])
def test_undeclared_method_gets_json_error_and_stream_stays_framed(tmp_path, method):
    """The socket answers as handle() does; a HEAD answer carries no body, so
    the pipelined GET after it is still read as the next response."""
    head, rest = raw_exchange(tmp_path, f"{method} /collections HTTP/1.1\r\nHost: t\r\n"
                                        "Content-Length: 0\r\n\r\n".encode()
                                        + b"GET /collections HTTP/1.1\r\nHost: t\r\n"
                                          b"Connection: close\r\n\r\n")
    want_status, want = GeoMediaApi(MediaStore()).handle(method, "/collections")
    assert head.startswith(f"HTTP/1.1 {want_status} ".encode())
    assert b"Content-Type: application/json" in head
    length = int(re.search(rb"Content-Length: (\d+)", head)[1])
    assert length == len(json.dumps(want).encode())
    body = b"" if method == "HEAD" else rest[:length]
    if body:
        assert json.loads(body) == want
    second_head, _, second_body = rest[len(body):].partition(b"\r\n\r\n")
    assert second_head.startswith(b"HTTP/1.1 200 ")
    assert json.loads(second_body) == {"collections": []}


class TestReadTimeout:
    """A client that stops sending holds a server thread for one timeout only."""

    TIMEOUT = 0.2

    def exchange(self, tmp_path, monkeypatch, request: bytes) -> tuple[bytes, float]:
        """Send request on one socket; all the server sends before it closes,
        and the seconds from the send until the close."""
        monkeypatch.setattr(service._Handler, "timeout", self.TIMEOUT)
        server = GeoMediaServer(MediaStore(tmp_path / "s"))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            # the client's own timeout turns a server that never closes into a failure
            with socket.create_connection(server.server_address[:2], timeout=5) as sock:
                sock.sendall(request)
                start = time.monotonic()
                chunks = []
                while chunk := sock.recv(65536):
                    chunks.append(chunk)
                waited = time.monotonic() - start
        finally:
            server.shutdown()
            server.server_close()
        return b"".join(chunks), waited

    def test_half_sent_body_gets_408_then_the_connection_closes(self, tmp_path, monkeypatch):
        data, waited = self.exchange(tmp_path, monkeypatch, b"PUT /collections/c/items/f HTTP/1.1\r\n"
                                               b"Host: t\r\nContent-Length: 100\r\n\r\n1234567")
        head, _, body = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 408 ")
        assert b"Connection: close" in head
        assert json.loads(body) == {
            "httpStatus": 408, "code": "Timeout", "path": "/collections/c/items/f",
            "message": "request body not received within 0.2 s"}
        assert self.TIMEOUT * 0.9 <= waited < 4

    def test_idle_keep_alive_connection_closes_quietly(self, tmp_path, monkeypatch):
        data, waited = self.exchange(tmp_path, monkeypatch, b"GET /collections HTTP/1.1\r\nHost: t\r\n\r\n")
        head, _, body = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 ")
        assert b"Connection: close" not in head
        assert json.loads(body) == {"collections": []}  # and no bytes after it
        assert self.TIMEOUT * 0.9 <= waited < 4


class TestOutsideNumbers:
    @pytest.mark.parametrize("doc, pointer", [
        (b'{"type": "MovingDouble", "values": [NaN, Infinity], "timeline": [0, 1]}', "/values/0"),
        (b'{"type": "MovingDouble", "values": [' + b"7" * 401 + b'], "timeline": [0]}', "/values/0"),
        (b'{"type": "MovingDouble", "values": [1], "timeline": [0],'
         b' "coordinates": [[1, 2, ' + b"7" * 401 + b']]}', "/coordinates/0"),
    ], ids=["nan-values", "long-int-value", "long-int-alt"])
    def test_put_non_finite_is_bad_body(self, api, doc, pointer):
        api.handle("POST", "/collections", b'{"id": "s", "mediaType": "MovingDouble"}')
        status, body = api.handle("PUT", "/collections/s/items/x", doc)
        assert (status, body["code"]) == (400, "BadBody")
        assert body["message"].startswith(pointer + ":")
        assert api.handle("GET", "/collections/s/items/x")[0] == 404

    def test_put_photo_with_infinite_view_distance(self, api):
        api.handle("POST", "/collections", b'{"id": "pics", "mediaType": "stphoto"}')
        status, body = api.handle(
            "PUT", "/collections/pics/items/p1",
            b'{"type": "stphoto", "uri": "u:1", "coordinates": [0, 0], "timeline": [0],'
            b' "fov": {"distance": Infinity}}')
        assert (status, body["code"]) == (400, "BadBody")
        assert body["message"].startswith("/fov/distance:")

    @pytest.mark.parametrize("vertex", [b"[0, NaN]", b"[" + b"1" * 401 + b", 0]"],
                             ids=["nan", "long-int"])
    def test_polygon_annotation_needs_finite_vertices(self, api, vertex):
        api.handle("POST", "/collections", b'{"id": "pics", "mediaType": "stphoto"}')
        api.handle("PUT", "/collections/pics/items/p1", fixture_bytes("stphoto.json"))
        status, body = api.handle(
            "POST", "/collections/pics/items/p1/annotations",
            b'{"kind": "polygon", "body": [[0, 0], [1, 1], ' + vertex + b"]}")
        assert (status, body["code"]) == (400, "BadBody")

    def test_timeline_outside_iso_years_is_bad_body(self, api):
        api.handle("POST", "/collections", b'{"id": "s", "mediaType": "MovingDouble"}')
        status, body = api.handle("PUT", "/collections/s/items/x",
                                  b'{"type": "MovingDouble", "values": [1], "timeline": [100000000000000000000]}')
        assert (status, body["code"]) == (400, "BadBody")
        assert body["message"].startswith("/timeline/0:")
        assert api.handle("GET", "/collections")[0] == 200
        assert api.handle("GET", "/collections/s")[0] == 200

    def test_year_zero_datetime_is_an_error_not_a_crash(self, api):
        put_reference_track(api)
        status, body = api.handle("GET", "/collections/taxi/items?datetime=0000-01-01T00:00:00Z")
        assert (status, body["code"]) == (400, "BadQuery")
        status, body = api.handle("PUT", "/collections/taxi/items/t2",
                                  b'{"type": "MovingPoint", "coordinates": [[1, 2]],'
                                  b' "datetimes": ["0000-01-01T00:00:00Z"]}')
        assert (status, body["code"]) == (400, "BadBody")
        assert body["message"].startswith("/datetimes/0:")

    @pytest.mark.parametrize("query", [
        "bbox=nan,nan,nan,nan", "bbox=0,0,inf,1", "bbox=-inf,0,1,1",
        "near=1,2,nan", "near=1,2,inf",
    ])
    def test_non_finite_query_values_rejected(self, api, query):
        put_reference_track(api)
        status, body = api.handle("GET", f"/collections/taxi/items?{query}")
        assert (status, body["code"]) == (400, "BadQuery")


class TestBodyDecoding:
    def test_duplicate_member_in_collection_body(self, api):
        status, body = api.handle(
            "POST", "/collections", b'{"id": "u", "id": "v", "mediaType": "MovingPoint"}')
        assert (status, body["code"]) == (400, "BadBody")
        assert "duplicate member 'id'" in body["message"]
        assert api.handle("GET", "/collections")[1] == {"collections": []}

    def test_duplicate_member_in_annotation_body(self, api):
        api.handle("POST", "/collections", b'{"id": "pics", "mediaType": "stphoto"}')
        api.handle("PUT", "/collections/pics/items/p1", fixture_bytes("stphoto.json"))
        status, body = api.handle(
            "POST", "/collections/pics/items/p1/annotations",
            b'{"kind": "text", "body": "first", "body": "second"}')
        assert (status, body["code"]) == (400, "BadBody")
        assert api.handle("GET", "/collections/pics/items/p1/annotations")[1] == {"annotations": []}


class TestRequestChecks:
    """Each refused request body gives 400 BadBody and the message that names its fault."""

    @pytest.mark.parametrize("body, message", [
        (b'{"id": 5, "mediaType": "MovingPoint"}', "/id: 'id' must be a string"),
        (b'{"id": "x", "title": 5, "mediaType": "MovingPoint"}',
         "/title: 'title' must be a string"),
        (b'[{"id": "x", "mediaType": "MovingPoint"}]', "body must be a JSON object"),
    ], ids=["id-not-a-string", "title-not-a-string", "array-body"])
    def test_post_collection_refused(self, api, body, message):
        status, answer = api.handle("POST", "/collections", body)
        assert (status, answer["code"], answer["message"]) == (400, "BadBody", message)
        assert api.handle("GET", "/collections")[1] == {"collections": []}

    @pytest.mark.parametrize("body", [None, b""], ids=["none", "empty"])
    def test_put_item_without_a_body_refused(self, api, body):
        api.handle("POST", "/collections", b'{"id": "pics", "mediaType": "stphoto"}')
        status, answer = api.handle("PUT", "/collections/pics/items/p1", body)
        assert (status, answer["code"], answer["message"]) == (400, "BadBody",
                                                               "request body required")
        assert api.handle("GET", "/collections/pics/items/p1")[0] == 404

    @pytest.mark.parametrize("body, message", [
        (b'{"aid": "", "kind": "text", "body": "x"}', "annotation id must be a non-empty string"),
        (b'{"kind": "text", "body": ""}', "text body must be a non-empty string"),
        (b'{"kind": "text", "body": "x", "timeRange": "2018-08-01T13:01:01Z"}',
         "/timeRange: bad timeRange '2018-08-01T13:01:01Z': "
         'expected a "start/end" string of two ISO-8601 instants'),
        (b'{"kind": "text", "body": "x", "timeRange": 5}',
         '/timeRange: bad timeRange 5: expected a "start/end" string of two ISO-8601 instants'),
        (b'{"kind": "text", "body": "x", "timeRange": ["a", "b"]}',
         "/timeRange: bad timeRange ['a', 'b']: "
         'expected a "start/end" string of two ISO-8601 instants'),
        (b'{"kind": "text", "body": "x", "timeRange": "a/b"}',
         "/timeRange: bad timeRange 'a/b': not a UTC ISO-8601 instant: 'a'"),
    ], ids=["empty-aid", "empty-text", "time-range-one-instant", "time-range-number",
            "time-range-list", "time-range-not-instants"])
    def test_post_annotation_refused(self, api, body, message):
        api.handle("POST", "/collections", b'{"id": "pics", "mediaType": "stphoto"}')
        api.handle("PUT", "/collections/pics/items/p1", fixture_bytes("stphoto.json"))
        target = "/collections/pics/items/p1/annotations"
        status, answer = api.handle("POST", target, body)
        assert (status, answer["code"], answer["message"]) == (400, "BadBody", message)
        assert api.handle("GET", target)[1] == {"annotations": []}
