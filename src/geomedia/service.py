"""HTTP query service in the style of the OGC WFS 3.0 draft.

GeoMediaApi is framework-agnostic: handle() maps (method, target, body) to
(status, JSON-serializable payload), which keeps every route testable
without sockets. GeoMediaServer wraps it in a threading stdlib HTTP server.

Contract notes: unknown or repeated query parameters are rejected with 400
(fail-closed against filter typos); a client that sends part of a body and
then nothing for 60 s gets a 408 and the connection closes, and an idle
keep-alive connection is closed after as long; every mutation is appended
to the store's log and fsynced before its response, and one that fails to
commit answers 500 and is gone from memory too; responses contain no
wall-clock values, only stored data, so they are deterministic given store
state.

Every route but a GET changes the store, and no GET does (RFC 9110's safe
methods). So handle() runs any other request and its commit as one step
under the store lock: of two PUTs of a new fid only one sees it new, two
POSTs without an aid never pick the same one, and a failed commit, which
reopens the store, drops no other request's op. A GET takes no lock there,
and neither does a HEAD, which handle() answers as the GET of its target
(RFC 9110 §9.3.2; the HTTP adapter then sends the headers only).
"""

from __future__ import annotations

import dataclasses
import json
import logging
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qsl, unquote, urlsplit

from . import media
from .codec import decode_json, document_to_obj, interval_str, media_kind, parse_document
from .errors import BadQueryError, GeoMediaError, NotFoundError, ParseError
from .query import (
    decode_query_spec,
    evaluate,
    fov_obj,
    page,
    parse_instant,
    parse_lonlat,
    position_obj,
    visible_obj,
)
from .store import MediaStore, annotation_from_obj, annotation_to_obj

LOGGER = logging.getLogger(__name__)

DEFAULT_LIMIT = 10
MAX_BODY_BYTES = 64 * 1024 * 1024  # a larger Content-Length is refused unread

_STATUS_BY_CODE = {
    "NotFound": 404,
    "BadQuery": 400,
    "BadBody": 400,
    "TooLarge": 413,
    "Timeout": 408,
    "KindMismatch": 422,
    "Conflict": 409,
    "Internal": 500,
}


def _api_error(code: str, message: str, path: str) -> tuple[int, dict]:
    status = _STATUS_BY_CODE[code]
    return status, {"httpStatus": status, "code": code, "message": message, "path": path}


class GeoMediaApi:
    """Routes WFS-3-style requests onto a MediaStore."""

    def __init__(self, store: MediaStore):
        self.store = store

    def handle(self, method: str, target: str, body: bytes | None = None) -> tuple[int, object]:
        """Dispatch one request; returns (HTTP status, JSON payload or None).
        HEAD is answered as GET; a request of any other method but GET holds
        the store lock to its commit."""
        parts = urlsplit(target)
        path = parts.path
        try:
            params = _decode_params(parts.query)
            segments = [unquote(s) for s in path.split("/") if s]
            if method in ("GET", "HEAD"):
                return self._route("GET", segments, params, body, path)
            with self.store.lock:
                reply = self._route(method, segments, params, body, path)
                self.store.commit()
            return reply
        except GeoMediaError as exc:
            if exc.code == "Internal":
                LOGGER.error("store failure for %s %s: %s", method, target, exc)
            return _api_error(exc.code, str(exc), path)
        except Exception:  # pragma: no cover - last-resort guard
            LOGGER.exception("unhandled error for %s %s", method, target)
            return _api_error("Internal", "internal error", path)

    # -- routing -----------------------------------------------------------

    def _route(self, method, segments, params, body, path):
        template = "/" + "/".join("{}" if i % 2 else s for i, s in enumerate(segments))
        route = ROUTES.get((method, template))
        if route is None:
            where = f"{method} {path}" if template in _TEMPLATES else path
            raise NotFoundError(f"no route for {where}")
        handler, allowed, required = route
        _allow_params(params, allowed, required)
        return handler(self, params, body, *segments[1::2])

    def _landing(self, params, body):
        return 200, {
            "title": "geomedia",
            "description": "geo-tagged media collections with spatio-temporal queries",
            "links": [
                {"href": "/", "rel": "self", "type": "application/json"},
                {"href": "/collections", "rel": "data", "type": "application/json"},
            ],
        }

    # -- collections ---------------------------------------------------------

    def _collection_obj(self, cid: str) -> dict:
        with self.store.lock:  # every field from one state of the store
            meta = self.store.get_collection(cid)
            bbox = self.store.collection_bbox(cid)
            extent = self.store.collection_extent(cid)
            return {
                "id": meta.id,
                "title": meta.title,
                "mediaType": meta.media_type,
                "created": meta.created,
                "featureCount": self.store.feature_count(cid),
                "bbox": list(bbox) if bbox else None,
                "extent": interval_str(extent) if extent else None,
            }

    def _list_collections(self, params, body):
        with self.store.lock:  # so no listed collection is deleted before it is read
            return 200, {"collections": [self._collection_obj(c.id)
                                         for c in self.store.list_collections()]}

    def _post_collection(self, params, body):
        obj = _decode_body(body)
        cid = obj.get("id")
        if not isinstance(cid, str):
            raise ParseError("'id' must be a string", "/id")
        title = obj.get("title", "")
        if not isinstance(title, str):
            raise ParseError("'title' must be a string", "/title")
        media_type = media_kind(obj.get("mediaType"))
        if media_type is None:
            raise ParseError(f"'mediaType' must be one of {list(media.KINDS)}", "/mediaType")
        try:
            self.store.create_collection(cid, title, media_type)
        except ValueError as exc:
            raise ParseError(str(exc), "/id") from None
        return 201, self._collection_obj(cid)

    def _get_collection(self, params, body, cid):
        return 200, self._collection_obj(cid)

    def _delete_collection(self, params, body, cid):
        self.store.delete_collection(cid)
        return 204, None

    # -- items ------------------------------------------------------------------

    def _list_items(self, params, body, cid):
        spec = decode_query_spec(params)
        matched = evaluate(self.store, cid, dataclasses.replace(spec, limit=None, offset=0))
        returned = page(matched, spec.limit or DEFAULT_LIMIT, spec.offset)
        return 200, {
            "numberMatched": len(matched),
            "numberReturned": len(returned),
            "query": _echo_query(params),
            "features": [
                {"fid": r.fid, "document": document_to_obj(r.doc, "epoch")} for r in returned
            ],
        }

    def _get_item(self, params, body, cid, fid):
        return 200, document_to_obj(self.store.get_feature(cid, fid).doc, "epoch")

    def _put_item(self, params, body, cid, fid):
        doc = parse_document(_required(body))
        existed = self.store.has_feature(cid, fid)
        record = self.store.put_feature(cid, fid, doc)
        return (200 if existed else 201), document_to_obj(record.doc, "epoch")

    def _delete_item(self, params, body, cid, fid):
        self.store.delete_feature(cid, fid)
        return 204, None

    def _position(self, params, body, cid, fid):
        t = parse_instant(params["at"])
        return 200, position_obj(self.store.get_feature(cid, fid).doc, t)

    def _fov(self, params, body, cid, fid):
        doc = self.store.get_feature(cid, fid).doc
        return 200, fov_obj(doc, parse_instant(params["at"]) if "at" in params else None)

    def _visible(self, params, body, cid, fid):
        p = parse_lonlat(params["point"], "point")
        return 200, visible_obj(self.store.get_feature(cid, fid).doc, p)

    # -- annotations ---------------------------------------------------------------

    def _list_annotations(self, params, body, cid, fid):
        anns = self.store.list_annotations(cid, fid)
        return 200, {"annotations": [annotation_to_obj(a, "iso") for a in anns]}

    def _post_annotation(self, params, body, cid, fid):
        obj = _decode_body(body)
        existing = {a.aid for a in self.store.list_annotations(cid, fid)}
        if obj.get("aid") is None:
            n = len(existing) + 1
            while f"a{n}" in existing:
                n += 1
            obj["aid"] = f"a{n}"
        ann = self.store.put_annotation(cid, fid, annotation_from_obj(obj, "iso"))
        return (200 if ann.aid in existing else 201), annotation_to_obj(ann, "iso")

    def _get_annotation(self, params, body, cid, fid, aid):
        return 200, annotation_to_obj(self.store.get_annotation(cid, fid, aid), "iso")

    def _delete_annotation(self, params, body, cid, fid, aid):
        self.store.delete_annotation(cid, fid, aid)
        return 204, None


_NONE = frozenset()

# The service's routes, in the order README lists them: (method, template) ->
# (handler, allowed query parameters, required ones). Ids sit at the odd path
# positions, so a request's template is its path with every odd segment as {}.
ROUTES = {
    ("GET", "/"): (GeoMediaApi._landing, _NONE, _NONE),
    ("GET", "/collections"): (GeoMediaApi._list_collections, _NONE, _NONE),
    ("POST", "/collections"): (GeoMediaApi._post_collection, _NONE, _NONE),
    ("GET", "/collections/{}"): (GeoMediaApi._get_collection, _NONE, _NONE),
    ("DELETE", "/collections/{}"): (GeoMediaApi._delete_collection, _NONE, _NONE),
    ("GET", "/collections/{}/items"): (
        GeoMediaApi._list_items,
        frozenset({"bbox", "datetime", "near", "visibleFrom", "limit", "offset"}),
        _NONE,
    ),
    ("GET", "/collections/{}/items/{}"): (GeoMediaApi._get_item, _NONE, _NONE),
    ("PUT", "/collections/{}/items/{}"): (GeoMediaApi._put_item, _NONE, _NONE),
    ("DELETE", "/collections/{}/items/{}"): (GeoMediaApi._delete_item, _NONE, _NONE),
    ("GET", "/collections/{}/items/{}/position"): (
        GeoMediaApi._position, frozenset({"at"}), frozenset({"at"})),
    ("GET", "/collections/{}/items/{}/fov"): (GeoMediaApi._fov, frozenset({"at"}), _NONE),
    ("GET", "/collections/{}/items/{}/visible"): (
        GeoMediaApi._visible, frozenset({"point"}), frozenset({"point"})),
    ("GET", "/collections/{}/items/{}/annotations"): (
        GeoMediaApi._list_annotations, _NONE, _NONE),
    ("POST", "/collections/{}/items/{}/annotations"): (
        GeoMediaApi._post_annotation, _NONE, _NONE),
    ("GET", "/collections/{}/items/{}/annotations/{}"): (
        GeoMediaApi._get_annotation, _NONE, _NONE),
    ("DELETE", "/collections/{}/items/{}/annotations/{}"): (
        GeoMediaApi._delete_annotation, _NONE, _NONE),
}
_TEMPLATES = {template for _, template in ROUTES}


# -- request decoding helpers -------------------------------------------------------


def _decode_params(query: str) -> dict[str, str]:
    pairs = parse_qsl(query, keep_blank_values=True)
    params: dict[str, str] = {}
    for key, value in pairs:
        if key in params:
            raise BadQueryError(f"repeated query parameter {key!r}")
        params[key] = value
    return params


def _allow_params(params: dict, allowed: frozenset, required: frozenset) -> None:
    unknown = set(params) - allowed
    if unknown:
        raise BadQueryError(f"unknown query parameters: {sorted(unknown)}")
    missing = required - set(params)
    if missing:
        raise BadQueryError(f"missing query parameters: {sorted(missing)}")


def _required(body: bytes | None) -> bytes:
    if not body:
        raise ParseError("request body required")
    return body


def _decode_body(body: bytes | None) -> dict:
    obj = decode_json(_required(body))
    if not isinstance(obj, dict):
        raise ParseError("body must be a JSON object")
    return obj


def _echo_query(params: dict[str, str]) -> dict:
    return {key: params[key] for key in sorted(params)}


# -- stdlib HTTP adapter --------------------------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    server_version = "geomedia/0.1"
    protocol_version = "HTTP/1.1"
    # Seconds each socket read or write may wait (StreamRequestHandler.setup
    # applies it): a body that stops mid-read is answered 408 and an idle
    # keep-alive connection is closed.
    timeout = 60.0

    def _dispatch(self):
        raw_length = (self.headers.get("Content-Length") or "0").strip()
        length = int(raw_length) if raw_length.isascii() and raw_length.isdigit() else None
        chunked = "Transfer-Encoding" in self.headers
        read = length is not None and length <= MAX_BODY_BYTES and not chunked
        if read:
            try:
                body = self.rfile.read(length) if length else None
            except TimeoutError:
                read = False
                message = f"request body not received within {self.timeout:g} s"
                status, payload = _api_error("Timeout", message, urlsplit(self.path).path)
            else:
                status, payload = self.server.api.handle(self.command, self.path, body)
        elif chunked:
            message = "Transfer-Encoding is not supported; send a Content-Length"
            status, payload = _api_error("BadBody", message, urlsplit(self.path).path)
        elif length is not None:
            message = f"body of {length} bytes exceeds the limit of {MAX_BODY_BYTES}"
            status, payload = _api_error("TooLarge", message, urlsplit(self.path).path)
        else:
            message = f"Content-Length must be a byte count, got {raw_length!r}"
            status, payload = _api_error("BadBody", message, urlsplit(self.path).path)
        data = b"" if payload is None else json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if not read:
            self.send_header("Connection", "close")  # the unread body cannot be skipped
        self.end_headers()
        if data and self.command != "HEAD":  # a HEAD answer has headers only
            self.wfile.write(data)

    # Methods no route declares get the same JSON 404 as from handle(),
    # not the stdlib's HTML 501.
    do_GET = do_POST = do_PUT = do_DELETE = _dispatch
    do_HEAD = do_PATCH = do_OPTIONS = _dispatch

    def log_message(self, fmt, *args):
        LOGGER.debug("%s %s", self.address_string(), fmt % args)


class GeoMediaServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, store: MediaStore, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _Handler)
        self.api = GeoMediaApi(store)

    @property
    def address(self) -> str:
        host, port = self.server_address[:2]
        return f"{host}:{port}"
