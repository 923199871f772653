"""Command-line front door for geomedia stores.

Exit codes: 0 success; 2 usage errors and errors whose code (the one the
HTTP service maps to a status) is BadQuery or KindMismatch, such as a time
outside a track's extent; 1 any other error (missing store/collection, parse
failures). The store directory defaults to the GEOCMS_STORE environment
variable, the serve address to GEOCMS_ADDR.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .codec import (
    geojson_feature,
    geojson_feature_collection,
    media_kind,
    parse_document,
    serialize_document,
)
from .errors import (
    BadQueryError,
    GeoMediaError,
    ParseError,
    StoreIoError,
    WrongKindError,
)
from .media import KINDS
from .query import (
    decode_query_spec,
    evaluate,
    fov_obj,
    parse_instant,
    parse_lonlat,
    position_obj,
    visible_obj,
)
from .store import MediaStore

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
_USAGE_CODES = frozenset({"BadQuery", "KindMismatch"})  # GeoMediaError codes that exit 2


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GeoMediaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        usage = isinstance(exc, GeoMediaError) and exc.code in _USAGE_CODES
        return EXIT_USAGE if usage else EXIT_ERROR


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geomedia",
        description="Manage and query collections of geo-tagged media.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="create an empty store directory")
    _store_flag(p)
    p.set_defaults(func=_cmd_init)

    p = sub.add_parser("ingest", help="insert GeoMedia JSON files into a collection")
    _store_flag(p)
    p.add_argument("--collection", required=True, metavar="CID")
    p.add_argument("--create", action="store_true", help="create the collection first")
    p.add_argument("--media-type", type=_media_type, choices=KINDS, help="kind for --create")
    p.add_argument("files", nargs="+", metavar="[FID=]FILE",
                   help="documents to ingest; fid defaults to the file stem")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("query", help="run a spatio-temporal query")
    _store_flag(p)
    p.add_argument("--collection", required=True, metavar="CID")
    p.add_argument("--bbox", metavar="MINLON,MINLAT,MAXLON,MAXLAT")
    p.add_argument("--datetime", metavar="INSTANT|START/END")
    p.add_argument("--near", metavar="LON,LAT,RADIUS_M")
    p.add_argument("--visible-from", metavar="LON,LAT")
    p.add_argument("--limit", metavar="N")
    p.add_argument("--offset", metavar="N")
    p.add_argument("--format", choices=("ids", "geojson", "geomedia"), default="ids")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("at", help="evaluate a track/video position at a time")
    _selector_flags(p)
    p.add_argument("--at", required=True, metavar="TIME", help="ISO instant or epoch ms")
    p.set_defaults(func=_cmd_at)

    p = sub.add_parser("fov", help="emit the FoV sector polygon as GeoJSON")
    _selector_flags(p)
    p.add_argument("--at", metavar="TIME", help="required for videos")
    p.add_argument("--arc-step", type=float, default=5.0, metavar="DEG")
    p.set_defaults(func=_cmd_fov)

    p = sub.add_parser("visible", help="times during which a point is visible")
    _selector_flags(p)
    p.add_argument("--point", required=True, metavar="LON,LAT")
    p.set_defaults(func=_cmd_visible)

    p = sub.add_parser("convert", help="rewrite a document with iso or epoch times")
    p.add_argument("--to", choices=("iso", "epoch"), required=True)
    p.add_argument("file", metavar="FILE")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("serve", help="run the HTTP service")
    _store_flag(p)
    p.add_argument("--addr", default=os.environ.get("GEOCMS_ADDR", "127.0.0.1:8808"),
                   metavar="HOST:PORT")
    p.set_defaults(func=_cmd_serve)

    return parser


def _store_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--store", default=os.environ.get("GEOCMS_STORE"),
                   metavar="DIR", help="store directory (default: $GEOCMS_STORE)")


def _selector_flags(p: argparse.ArgumentParser) -> None:
    _store_flag(p)
    p.add_argument("--collection", metavar="CID")
    p.add_argument("--fid", metavar="FID")
    p.add_argument("--file", metavar="FILE", help="operate on a document file instead")


def _media_type(value: str) -> str:
    """The kind value names, as HTTP's mediaType takes it (see media_kind)."""
    return media_kind(value) or value


def _require_store(args) -> str:
    if not args.store:
        raise BadQueryError("--store (or GEOCMS_STORE) is required")
    return args.store


def _open_store(args) -> MediaStore:
    """The store, opened so that only the collections a command touches are parsed."""
    return MediaStore.open(_require_store(args))


def _select_document(args):
    if args.file:
        return parse_document(Path(args.file).read_bytes())
    if not (args.collection and args.fid):
        raise BadQueryError("give --file, or --collection and --fid")
    store = _open_store(args)
    return store.get_feature(args.collection, args.fid).doc


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


# -- commands ------------------------------------------------------------------


def _cmd_init(args) -> int:
    target = Path(_require_store(args))
    if (target / "manifest.json").exists():
        raise StoreIoError(f"{target} already holds a store")
    MediaStore(target).flush()
    print(f"initialized empty store at {target}")
    return EXIT_OK


def _cmd_ingest(args) -> int:
    store = _open_store(args)
    if args.create:
        if not args.media_type:
            raise BadQueryError("--create requires --media-type")
        try:
            store.create_collection(args.collection, args.collection, args.media_type)
        except ValueError as exc:  # a malformed id: --media-type is one of KINDS
            raise BadQueryError(str(exc)) from None
    failures = 0
    ingested = 0
    for spec in args.files:
        fid, sep, path = spec.partition("=")
        if not sep:
            fid, path = Path(spec).stem, spec
        try:
            doc = parse_document(Path(path).read_bytes())
            store.put_feature(args.collection, fid, doc)
            ingested += 1
        except (OSError, ParseError, WrongKindError, BadQueryError) as exc:
            failures += 1
            print(f"{path}: {exc}", file=sys.stderr)
    store.flush()
    print(f"{ingested} feature(s) ingested")
    return EXIT_ERROR if failures else EXIT_OK


def _cmd_query(args) -> int:
    store = _open_store(args)
    flags = {"bbox": args.bbox, "datetime": args.datetime, "near": args.near,
             "visibleFrom": args.visible_from, "limit": args.limit, "offset": args.offset}
    spec = decode_query_spec({k: v for k, v in flags.items() if v is not None})
    records = evaluate(store, args.collection, spec)
    if args.format == "ids":
        for record in records:
            print(record.fid)
    elif args.format == "geomedia":
        for record in records:
            print(serialize_document(record.doc, "epoch").decode("utf-8"))
    else:
        features = []
        for record in records:
            geometry = None
            if record.bbox is not None:
                center = [(record.bbox[0] + record.bbox[2]) / 2,
                          (record.bbox[1] + record.bbox[3]) / 2]
                geometry = {"type": "Point", "coordinates": center}
            features.append(geojson_feature(geometry, {"fid": record.fid}))
        _print_json(geojson_feature_collection(features))
    return EXIT_OK


def _cmd_at(args) -> int:
    doc = _select_document(args)
    _print_json(position_obj(doc, parse_instant(args.at)))
    return EXIT_OK


def _cmd_fov(args) -> int:
    if not args.arc_step > 0:
        raise BadQueryError(f"--arc-step must be > 0, got {args.arc_step}")
    doc = _select_document(args)
    at = parse_instant(args.at) if args.at else None
    try:
        polygon = fov_obj(doc, at, args.arc_step)
    except ValueError as exc:  # an arc step too fine for the aperture
        raise BadQueryError(f"--arc-step: {exc}") from None
    _print_json(polygon)
    return EXIT_OK


def _cmd_visible(args) -> int:
    doc = _select_document(args)
    _print_json(visible_obj(doc, parse_lonlat(args.point, "point")))
    return EXIT_OK


def _cmd_convert(args) -> int:
    doc = parse_document(Path(args.file).read_bytes())
    print(serialize_document(doc, args.to).decode("utf-8"))
    return EXIT_OK


def _cmd_serve(args) -> int:
    from .service import GeoMediaServer  # the HTTP stack only for serve

    target = _require_store(args)
    store = MediaStore.load(target)
    host, _, port = args.addr.rpartition(":")
    try:
        server = GeoMediaServer(store, host or "127.0.0.1", int(port))
    except (OSError, ValueError, OverflowError) as exc:  # OverflowError: port out of range
        print(f"error: cannot bind {args.addr}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(f"serving {target} on http://{server.address}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
