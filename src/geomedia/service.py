"""HTTP query service in the style of the OGC WFS 3.0 draft.

GeoMediaApi is framework-agnostic: handle() maps (method, target, body) to
(status, JSON-serializable payload), which keeps every route testable
without sockets. GeoMediaServer serves it over HTTP/1.1 with its own framing
(RFC 9112) on socketserver, so a serving process loads no http.server,
http.client, ssl or email.

Contract notes: unknown or repeated query parameters are rejected with 400
(fail-closed against filter typos); a request has 60 s from its first byte
to its last, each read waiting only the time left, and one that is not whole
by then gets a 408 and the connection closes, and an idle keep-alive
connection is closed after as long; the adapter's own errors (a malformed
request line 400, one over 64 KiB 414, more than 100 header fields 431, an
HTTP version other than 1.x 505) come in the same JSON shape as handle()'s;
a fixed pool of worker threads serves the connections, which wait in a
bounded queue, and one that finds the queue full gets 503, while one with
no request in flight gives up its worker to a waiting one; every mutation is
appended to the store's log and fsynced before its response, and one that
fails to commit answers 500 and is gone from memory too; response bodies
contain no wall-clock values, only stored data, so they are deterministic
given store state.

Every route but a GET changes the store, and no GET does (RFC 9110's safe
methods). So handle() runs any other request and its commit as one step
under the store lock: of two PUTs of a new fid only one sees it new, two
POSTs without an aid never pick the same one, and a failed commit, which
reopens the store, drops no other request's op. A GET takes no lock there,
and neither does a HEAD, which handle() answers as the GET of its target
(RFC 9110 §9.3.2; the HTTP adapter then sends the headers only).
"""

from __future__ import annotations

import collections
import dataclasses
import json
import logging
import queue
import socket
import socketserver
import threading
import time
from http import HTTPStatus
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
    "BadRequest": 400,
    "UriTooLong": 414,
    "HeadersTooLarge": 431,
    "VersionNotSupported": 505,
    "Unavailable": 503,
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
        try:
            parts = urlsplit(target)
        except ValueError as exc:  # "http://[" opens an IPv6 host it never closes
            return _api_error("BadQuery", f"malformed request target: {exc}", target)
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


# -- HTTP/1.1 adapter on socketserver ---------------------------------------------------

# The pool's sizes are not measured against any concurrent workload: the
# benchmark drives one keep-alive connection. WORKERS covers the 6 connections
# a browser opens to one host, and a connection with no request in flight
# gives up its worker as soon as another connection waits for one.
WORKERS = 8  # threads that serve connections, each one connection at a time
QUEUE_SLOTS = 32  # accepted connections that wait for a worker; one more gets 503
_IDLE_SLICE = 0.1  # seconds an idle connection waits before it looks at the queue
_LINGER = 1.0  # seconds a refused connection stays open for its client to read the 503
_MAX_LINE = 64 * 1024  # bytes of a request line (414 past it) or a header line (431)
_MAX_HEADERS = 100  # header fields of a request (431 past it)
_READ = 64 * 1024  # bytes asked of one recv
_DAYS = "Mon Tue Wed Thu Fri Sat Sun".split()  # the HTTP date's names, in no locale
_MONTHS = "Jan Feb Mar Apr May Jun Jul Aug Sep Oct Nov Dec".split()


class _Refusal(Exception):
    """A request the adapter answers itself, with a JSON error and a close."""

    def __init__(self, code: str, message: str, path: str = ""):
        super().__init__(message)
        self.reply = _api_error(code, message, path)


def _head(status: int, length: int, close: bool) -> bytes:
    """The status line and header block of a JSON answer of length bytes."""
    t = time.gmtime()  # the date in RFC 9110 §5.6.7's IMF-fixdate form
    date = (f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} "
            f"{time.strftime('%Y %H:%M:%S', t)} GMT")
    lines = [f"HTTP/1.1 {status} {HTTPStatus(status).phrase}", "Server: geomedia/0.1",
             f"Date: {date}", "Content-Type: application/json"]
    if status != 204:  # a 204 carries no Content-Length (RFC 9110 §8.6)
        lines.append(f"Content-Length: {length}")
    if close:
        lines.append("Connection: close")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


class _Handler(socketserver.BaseRequestHandler):
    """Reads HTTP/1.1 requests off one connection (RFC 9112) and answers each
    through GeoMediaApi.handle, until the client or an error closes it."""

    # Seconds from a request's first byte to its last, and that a keep-alive
    # connection may sit idle before its next request. Each read waits only
    # the time left, so a request that is not whole by then gets 408, however
    # its bytes trickle in.
    timeout = 60.0

    def handle(self):
        self._buf = bytearray()  # bytes read and not yet taken by a request
        try:
            try:
                while self._exchange():
                    pass
            except _Refusal as refusal:
                self._send(*refusal.reply, close=True)
                self._linger()
        except OSError:
            pass  # the client hung up, or stopped reading for a whole timeout

    def _exchange(self) -> bool:
        """Read one request and answer it; whether the connection stays open."""
        if not self._buf and not self._await_request():
            return False
        self._deadline = time.monotonic() + self.timeout
        part, path = "line", ""
        try:
            request = self._request_line()
            if request is None:
                return False
            method, target, minor = request
            part, path = "headers", target.partition("?")[0]
            headers: dict[str, list[str]] = {}
            fields = 0
            while line := self._line("HeadersTooLarge", "header line", path):
                name, colon, value = line.decode("latin-1").partition(":")
                if not colon or not name or name != name.strip():
                    raise _Refusal("BadRequest", "malformed header line", path)
                fields += 1
                if fields > _MAX_HEADERS:
                    message = f"more than {_MAX_HEADERS} header fields"
                    raise _Refusal("HeadersTooLarge", message, path)
                headers.setdefault(name.lower(), []).append(value.strip())
            if line is None:
                return False
            length = self._length(headers, path)
            part = "body"
            if length and minor and "100-continue" in map(str.lower, headers.get("expect", ())):
                self._write(b"HTTP/1.1 100 Continue\r\n\r\n")
            while len(self._buf) < length:
                if not self._fill(self._deadline):
                    return False  # a body cut short is incomplete (RFC 9112 §8): not dispatched
        except TimeoutError:
            message = f"request {part} not received within {self.timeout:g} s"
            raise _Refusal("Timeout", message, path) from None
        with memoryview(self._buf) as view:
            body = bytes(view[:length]) if length else None
        del self._buf[:length]
        tokens = {t.strip().lower() for v in headers.get("connection", ()) for t in v.split(",")}
        close = "close" in tokens or (not minor and "keep-alive" not in tokens)
        status, payload = self.server.api.handle(method, target, body)
        close = close or not self.server._queue.empty()  # give the worker to a waiting connection
        self._send(status, payload, close, head_only=method == "HEAD")
        return not close

    def _await_request(self) -> bool:
        """Wait for the first byte of a next request; False if the client
        closes, stays idle for a whole timeout, or stays idle while another
        connection waits for a worker, which then takes this one's place."""
        idle_until = time.monotonic() + self.timeout
        while True:
            try:
                return self._fill(min(idle_until, time.monotonic() + _IDLE_SLICE))
            except TimeoutError:
                if time.monotonic() >= idle_until or not self.server._queue.empty():
                    return False

    def _request_line(self) -> tuple[str, str, int] | None:
        """(method, target, HTTP/1 minor version) of the next request line
        (RFC 9112 §3); None if the stream ends first."""
        line = self._line("UriTooLong", "request line", "")
        if line is None:
            return None
        words = line.decode("latin-1").split()
        version = words[2][5:] if len(words) == 3 and words[2][:5] == "HTTP/" else ""
        major, dot, minor = version.partition(".")
        if not (dot and (major + minor).isascii() and major.isdigit() and minor.isdigit()):
            raise _Refusal("BadRequest", "malformed request line")
        if major != "1":
            raise _Refusal("VersionNotSupported", f"HTTP/{version} is not supported; send HTTP/1.1",
                           words[1].partition("?")[0])
        return words[0], words[1], int(minor)

    @staticmethod
    def _length(headers: dict[str, list[str]], path: str) -> int:
        """The body length the headers declare (RFC 9112 §6.3): a Content-Length
        only, one value, at most MAX_BODY_BYTES."""
        if "transfer-encoding" in headers:
            raise _Refusal("BadBody", "Transfer-Encoding is not supported; send a Content-Length",
                           path)
        values = set(headers.get("content-length", ["0"]))
        if len(values) > 1:
            raise _Refusal("BadBody", f"conflicting Content-Length headers: {sorted(values)}", path)
        raw = values.pop()
        if not (raw.isascii() and raw.isdigit()):
            raise _Refusal("BadBody", f"Content-Length must be a byte count, got {raw!r}", path)
        if int(raw) > MAX_BODY_BYTES:  # refused unread
            raise _Refusal("TooLarge", f"body of {raw} bytes exceeds the limit of {MAX_BODY_BYTES}",
                           path)
        return int(raw)

    def _fill(self, deadline: float) -> bool:
        """Append one read to the buffer, waiting at most until deadline
        (TimeoutError past it); False once the client has stopped sending."""
        left = deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError
        self.request.settimeout(left)
        chunk = self.request.recv(_READ)
        self._buf += chunk
        return bool(chunk)

    def _line(self, code: str, what: str, path: str) -> bytes | None:
        """The next line without its line end; None if the stream ends first."""
        start = 0
        while (end := self._buf.find(b"\n", start)) < 0 and len(self._buf) <= _MAX_LINE:
            start = len(self._buf)
            if not self._fill(self._deadline):
                return None
        if not 0 <= end <= _MAX_LINE:
            raise _Refusal(code, f"{what} longer than {_MAX_LINE} bytes", path)
        line = bytes(self._buf[:end]).rstrip(b"\r")
        del self._buf[:end + 1]
        return line

    def _send(self, status: int, payload, close: bool, head_only: bool = False) -> None:
        """Answer with payload as JSON; close ends the connection after it."""
        data = b"" if payload is None else json.dumps(payload).encode("utf-8")
        self._write(_head(status, len(data), close))
        if data and not head_only:
            # A second write, as the stdlib server made: with Nagle's algorithm
            # on, it waits for the client's delayed ACK of the header block.
            self._write(data)

    def _write(self, data: bytes) -> None:
        self.request.settimeout(self.timeout)  # each write may wait a whole timeout
        self.request.sendall(data)

    def _linger(self) -> None:
        """After an error answer, drop what the client still sends until it
        closes or the request's deadline passes: closing with unread bytes
        would reset the connection, and the client could lose the answer."""
        try:
            self.request.shutdown(socket.SHUT_WR)
            while self._fill(self._deadline):
                self._buf.clear()
        except OSError:  # TimeoutError included
            pass


class _PooledServer(socketserver.TCPServer):
    """A TCP server whose accepted connections wait in a bounded queue for one
    of at most WORKERS threads, started as the first connections come; a
    connection that finds the queue full gets a 503 and is closed _LINGER
    seconds later. Its names are private, so that a tracer that wraps the
    public names of this module finds GeoMediaApi.handle at the bottom of a
    worker's stack."""

    allow_reuse_address = True

    def __init__(self, address, handler):
        self._queue: queue.Queue = queue.Queue(QUEUE_SLOTS)
        self._lock = threading.Lock()
        self._serving: set[socket.socket] = set()
        self._closing = False
        self._workers: list[threading.Thread] = []
        self._refused: collections.deque = collections.deque()  # (time to close, socket)
        super().__init__(address, handler)

    def process_request(self, request, client_address):
        if len(self._workers) < WORKERS:  # one more thread for each of the first connections
            self._workers.append(threading.Thread(target=self._work, daemon=True))
            self._workers[-1].start()
        try:
            self._queue.put_nowait((request, client_address))
        except queue.Full:
            message = f"{WORKERS} connections served and {QUEUE_SLOTS} waiting; retry later"
            status, payload = _api_error("Unavailable", message, "")
            data = json.dumps(payload).encode("utf-8")
            try:
                request.sendall(_head(status, len(data), close=True) + data)
                request.shutdown(socket.SHUT_WR)
            except OSError:
                pass
            # Closed later, not now: a close with the request unread would reset
            # the connection, and the client could lose the answer.
            self._refused.append((time.monotonic() + _LINGER, request))

    def service_actions(self):
        """Close the refused connections whose linger has passed, or past
        QUEUE_SLOTS of them, each after dropping what its client sent."""
        now = time.monotonic()
        while self._refused and (self._refused[0][0] <= now or len(self._refused) > QUEUE_SLOTS):
            request = self._refused.popleft()[1]
            try:
                request.setblocking(False)
                while request.recv(_READ):
                    pass
            except OSError:  # nothing more to read now
                pass
            request.close()

    def _work(self) -> None:
        while (item := self._queue.get()) is not None:
            request, client_address = item
            with self._lock:
                serve = not self._closing
                if serve:
                    self._serving.add(request)
            try:
                if serve:
                    self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                with self._lock:
                    self._serving.discard(request)
                self.shutdown_request(request)

    def server_close(self):
        """Stop listening, end each connection at its next read, and join the workers."""
        super().server_close()
        while self._refused:
            self._refused.popleft()[1].close()
        with self._lock:
            self._closing = True
            for request in self._serving:
                try:
                    request.shutdown(socket.SHUT_RD)
                except OSError:
                    pass
        workers, self._workers = self._workers, []
        for _ in workers:
            self._queue.put(None)
        for worker in workers:
            worker.join()


class GeoMediaServer(_PooledServer):
    def __init__(self, store: MediaStore, host: str = "127.0.0.1", port: int = 0):
        self.api = GeoMediaApi(store)
        super().__init__((host, port), _Handler)

    @property
    def address(self) -> str:
        host, port = self.server_address[:2]
        return f"{host}:{port}"
