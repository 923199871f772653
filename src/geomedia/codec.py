"""GeoMedia JSON codec.

Parses and serializes the four wire formats (MovingPoint, MovingDouble,
stphoto, MovingVideo). Times arrive either as ISO-8601 "datetimes" strings
or as an integer epoch-millisecond "timeline" and are normalized to epoch
milliseconds; the serializer re-emits either style on request. Documents
always round-trip: parse(serialize(doc)) == doc.

Tolerances, chosen to accept real-world producers:
  - type tags match case-insensitively (output uses the canonical spelling,
    including lowercase "stphoto"),
  - member names with stray surrounding whitespace ("datetimes ") are
    treated as their trimmed spelling when unambiguous,
  - datetimes may use single-digit day/month and carry surrounding spaces,
  - FoV view distance is accepted as either "distance" or "viewDistance".

Strictness, chosen to fail loudly: duplicate members and trailing commas
are rejected, only UTC ("Z") datetimes are accepted, and "datetimes" plus
"timeline" in one document is ambiguous and refused.
"""

from __future__ import annotations

import calendar
import json
import math
import re
from array import array
from datetime import datetime, timedelta

from .errors import ParseError
from .fov import (
    DEFAULT_DIRECTION,
    DEFAULT_H_ANGLE,
    DEFAULT_V_ANGLE,
    DEFAULT_VIEW_DISTANCE,
    FieldOfView,
    SectorPolygon,
    check_fov,
)
from .geo import GeoPoint, check_position
from .media import (
    KIND_MOVING_DOUBLE,
    KIND_MOVING_POINT,
    KIND_MOVING_VIDEO,
    KIND_STPHOTO,
    KINDS,
    GeoMediaDocument,
    MovingVideo,
    STPhoto,
)
from .temporal import (
    MAX_TIME,
    MIN_TIME,
    InterpolationMode,
    MovingDouble,
    MovingPoint,
    PositionColumns,
    TimeInterval,
    TimeStamp,
    _time_column,
    _value_column,
)

CANONICAL_KINDS = {kind.lower(): kind for kind in KINDS}


def media_kind(name) -> str | None:
    """The kind a document's "type", a collection's "mediaType" or the CLI's
    --media-type names, in any letter case and with any outer white space."""
    return CANONICAL_KINDS.get(name.strip().lower()) if isinstance(name, str) else None


_DATETIME_RE = re.compile(
    r"^(\d{4})-(\d{1,2})-(\d{1,2})T(\d{2}):(\d{2}):(\d{2})(\.\d{1,3})?Z$"
)

_DAYS_IN_MONTH = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


def parse_datetime(s: str) -> TimeStamp:
    """UTC ISO-8601 instant to epoch milliseconds.

    Requires the Z designator; tolerates single-digit day/month and
    surrounding whitespace (both occur in the wild).
    """
    if not isinstance(s, str):
        raise ParseError(f"datetime must be a string, got {type(s).__name__}")
    m = _DATETIME_RE.match(s.strip())
    if not m:
        raise ParseError(f"not a UTC ISO-8601 instant: {s!r}")
    year, month, day, hour, minute, sec = (int(g) for g in m.groups()[:6])
    frac = m.group(7)
    if year < 1:
        raise ParseError(f"year {year} out of range in {s!r}")
    if not 1 <= month <= 12:
        raise ParseError(f"month {month} out of range in {s!r}")
    days = _DAYS_IN_MONTH[month - 1]
    if month == 2 and (year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)):
        days = 29
    if not 1 <= day <= days:
        raise ParseError(f"day {day} out of range in {s!r}")
    if hour > 23 or minute > 59 or sec > 59:
        raise ParseError(f"time of day out of range in {s!r}")
    seconds = calendar.timegm((year, month, day, hour, minute, sec, 0, 0, 0))
    millis = 0
    if frac:
        millis = int(frac[1:].ljust(3, "0"))
    return seconds * 1000 + millis


_EPOCH = datetime(1970, 1, 1)


def epoch_to_iso(t: TimeStamp) -> str:
    """Epoch milliseconds to zero-padded UTC ISO-8601; ".000" is suppressed."""
    seconds, millis = divmod(int(t), 1000)
    base = (_EPOCH + timedelta(seconds=seconds)).isoformat()
    if millis:
        return f"{base}.{millis:03d}Z"
    return f"{base}Z"


def interval_str(iv: TimeInterval) -> str:
    """ISO-8601 "start/end" form of a time interval."""
    return f"{epoch_to_iso(iv.start)}/{epoch_to_iso(iv.end)}"


# -- parsing -------------------------------------------------------------------


def _reject_duplicates(pairs):
    out = dict(pairs)
    if len(out) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"duplicate member {key!r}")
            seen.add(key)
    return out


_DECODER = json.JSONDecoder(object_pairs_hook=_reject_duplicates)


def decode_json(text: bytes | str):
    """Decode UTF-8 JSON text, rejecting duplicate members at any depth."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8: {exc}") from None
    try:
        if text.startswith("\ufeff"):  # json.loads refuses a BOM by name; so does this
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc.msg} (line {exc.lineno})") from None


_KNOWN_KEYS = {
    "type", "coordinates", "datetimes", "timeline", "interpolation",
    "values", "uri", "fov",
    "horizontalAngle", "verticalAngle", "direction2d", "distance", "viewDistance",
}


def _normalize_keys(obj: dict) -> dict:
    """Trim stray whitespace off member names when the trimmed name is expected."""
    out = {}
    for key, value in obj.items():
        trimmed = key.strip()
        if trimmed != key and trimmed in _KNOWN_KEYS and trimmed not in obj:
            key = trimmed
        if key in out:
            raise ParseError(f"duplicate member {key!r} after trimming whitespace")
        out[key] = value
    return out


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


_NUMBER_TYPES = frozenset({int, float})  # the exact types of JSON numbers; bool is not one


def is_finite_number(x) -> bool:
    """A JSON number a double holds: not NaN, not infinite, not an over-long integer."""
    try:
        return _is_number(x) and math.isfinite(x)
    except OverflowError:
        return False


def _reject_non_finite(value, path: str) -> None:
    """Unrecognized members are re-emitted as they are, so they must be JSON too."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ParseError("numbers must be finite", path)
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            _reject_non_finite(item, f"{path}/{key}")


def _read_position(value) -> tuple[float, float, float | None]:
    """lon, lat and alt (or None) of a valid position; ValueError or OverflowError if not."""
    if isinstance(value, list) and 2 <= len(value) <= 3:
        for c in value:
            if type(c) is not float and not _is_number(c):  # exact float: the common case
                break
        else:
            lon, lat = float(value[0]), float(value[1])
            alt = float(value[2]) if len(value) == 3 else None
            check_position(lon, lat, alt)
            return lon, lat, alt
    raise ValueError("position must be [lon, lat] or [lon, lat, alt]")


def _read_point(value, path: str) -> GeoPoint:
    try:
        return GeoPoint(*_read_position(value))
    except (ValueError, OverflowError) as exc:
        raise ParseError(str(exc), path) from None


def _read_times(obj: dict, count: int | None, path: str = "") -> array:
    """Read "datetimes" or "timeline" into an epoch-millisecond column, checking order."""
    has_dt = "datetimes" in obj
    has_tl = "timeline" in obj
    if has_dt and has_tl:
        raise ParseError("both 'datetimes' and 'timeline' present; ambiguous", f"{path}/timeline")
    if not has_dt and not has_tl:
        raise ParseError("missing 'datetimes' or 'timeline'", path or "/")
    member = "datetimes" if has_dt else "timeline"
    raw = obj[member]
    mpath = f"{path}/{member}"
    if not isinstance(raw, list) or not raw:
        raise ParseError(f"'{member}' must be a non-empty array", mpath)
    if has_dt:
        times = []
        for i, entry in enumerate(raw):
            try:
                times.append(parse_datetime(entry))
            except ParseError as exc:
                raise ParseError(exc.message, f"{mpath}/{i}") from None
    else:
        times = raw
    try:  # one pass on the common path; _time_error looks for the fault only if it fails
        column = None if bool in set(map(type, times)) else _time_column(times)
    except ValueError:
        column = None
    if column is None or (count is not None and len(column) != count):
        raise _time_error(times, count, mpath)
    return column


def _time_error(times: list, count: int | None, mpath: str) -> ParseError:
    """The first fault of times that failed their checks: an entry's type or
    bounds, then their count, then their order."""
    for i, entry in enumerate(times):
        if isinstance(entry, bool) or not isinstance(entry, int):
            return ParseError("timeline entries must be integers", f"{mpath}/{i}")
        if not MIN_TIME <= entry <= MAX_TIME:
            return ParseError("timeline entries must lie in years 1-9999", f"{mpath}/{i}")
    if count is not None and len(times) != count:
        return ParseError(f"{len(times)} times for {count} samples", mpath)
    i = next(i for i in range(1, len(times)) if times[i] <= times[i - 1])
    return ParseError(f"time {times[i]} does not increase past {times[i - 1]}", f"{mpath}/{i}")


def _read_interpolation(obj: dict, path: str = "") -> InterpolationMode:
    raw = obj.get("interpolation", "linear")
    if isinstance(raw, str):
        try:
            return InterpolationMode(raw.strip().lower())
        except ValueError:
            pass
    raise ParseError(
        f"interpolation must be one of discrete/linear/stepwise, got {raw!r}",
        f"{path}/interpolation",
    )


def _read_track(obj: dict, path: str = "") -> PositionColumns:
    """The "coordinates" array as position columns, without a GeoPoint per entry."""
    raw = obj.get("coordinates")
    if not isinstance(raw, list) or not raw:
        raise ParseError("'coordinates' must be a non-empty array", f"{path}/coordinates")
    lons, lats, alts = [], [], []  # lists, so that each column is sized at once
    for i, entry in enumerate(raw):
        try:
            lon, lat, alt = _read_position(entry)
        except (ValueError, OverflowError) as exc:
            raise ParseError(str(exc), f"{path}/coordinates/{i}") from None
        lons.append(lon)
        lats.append(lat)
        alts.append(alt)
    if alts.count(None) == len(alts):
        return array("d", lons), array("d", lats), None
    return array("d", lons), array("d", lats), array(
        "d", [math.nan if alt is None else alt for alt in alts])


def _read_number(obj: dict, member: str, default: float, path: str) -> float:
    value = obj.get(member, default)
    try:
        if type(value) in _NUMBER_TYPES and math.isfinite(value):
            return float(value)
    except OverflowError:  # an integer no double holds
        pass
    raise ParseError(f"'{member}' must be a finite number", f"{path}/{member}")


# The members a "fov" object may spell exactly; any other name is trimmed first.
_FOV_MEMBERS = frozenset({
    "type", "horizontalAngle", "verticalAngle", "direction2d", "distance", "viewDistance",
})


def _read_fov(obj, path: str, column: list) -> None:
    """Append a "fov" object's h_angle, v_angle, direction2d and view_distance
    to column, checked as a FieldOfView checks them (fov.check_fov)."""
    if not isinstance(obj, dict):
        raise ParseError("fov must be an object", path)
    if not _FOV_MEMBERS.issuperset(obj):
        obj = _normalize_keys(obj)
    tag = obj.get("type")
    if tag is not None and (not isinstance(tag, str) or tag.lower() != "fov"):
        raise ParseError(f"fov type tag must be 'fov', got {tag!r}", f"{path}/type")
    if "distance" in obj and "viewDistance" in obj:
        raise ParseError("both 'distance' and 'viewDistance' present", f"{path}/viewDistance")
    distance_member = "viewDistance" if "viewDistance" in obj else "distance"
    h = _read_number(obj, "horizontalAngle", DEFAULT_H_ANGLE, path)
    v = _read_number(obj, "verticalAngle", DEFAULT_V_ANGLE, path)
    d = _read_number(obj, "direction2d", DEFAULT_DIRECTION, path)
    r = _read_number(obj, distance_member, DEFAULT_VIEW_DISTANCE, path)
    try:
        check_fov(h, v, d, r)
    except ValueError as exc:
        raise ParseError(str(exc), path) from None
    column += (h, v, d, r)


def _build_moving_point(obj: dict) -> tuple[MovingPoint, set[str]]:
    """A MovingPoint document, or the track of a MovingVideo one."""
    columns = _read_track(obj)
    times = _read_times(obj, len(columns[0]))
    mode = _read_interpolation(obj)
    try:
        track = MovingPoint.from_columns(times, columns, mode)
    except ValueError as exc:  # times and count are checked above: this is the altitude rule
        raise ParseError(str(exc), "/coordinates") from None
    return track, {"coordinates", "datetimes", "timeline", "interpolation"}


def _read_values(obj: dict) -> array:
    raw = obj.get("values")
    if not isinstance(raw, list) or not raw:
        raise ParseError("'values' must be a non-empty array", "/values")
    try:
        if _NUMBER_TYPES.issuperset(map(type, raw)):
            return _value_column(raw)
    except (ValueError, OverflowError):
        pass
    i = next(i for i, v in enumerate(raw) if not is_finite_number(v))
    raise ParseError("values must be finite numbers", f"/values/{i}")


def _build_moving_double(obj: dict) -> tuple[MovingDouble, set[str]]:
    values = _read_values(obj)
    times = _read_times(obj, len(values))
    mode = _read_interpolation(obj)
    columns = None
    if "coordinates" in obj:
        columns = _read_track(obj)
        if len(columns[0]) != len(values):
            raise ParseError(
                f"{len(columns[0])} coordinates for {len(values)} values", "/coordinates"
            )
    md = MovingDouble.from_columns(times, values, mode, columns)
    return md, {"values", "datetimes", "timeline", "coordinates", "interpolation"}


def _read_uri(obj: dict) -> str:
    uri = obj.get("uri")
    if not isinstance(uri, str) or not uri:
        raise ParseError("'uri' must be a non-empty string", "/uri")
    return uri


def _build_stphoto(obj: dict) -> tuple[STPhoto, set[str]]:
    uri = _read_uri(obj)
    loc = _read_point(obj.get("coordinates"), "/coordinates")
    times = _read_times(obj, None)
    if len(times) != 1:
        raise ParseError(
            f"a photo has exactly one timestamp, got {len(times)}",
            "/datetimes" if "datetimes" in obj else "/timeline",
        )
    fov = FieldOfView()
    if "fov" in obj:
        column = []
        _read_fov(obj["fov"], "/fov", column)
        fov = FieldOfView(*column)
    try:
        photo = STPhoto(uri, loc, times[0], fov)
    except ValueError as exc:
        raise ParseError(str(exc), "/fov/direction2d") from None
    return photo, {"uri", "coordinates", "datetimes", "timeline", "fov"}


def _build_moving_video(obj: dict) -> tuple[MovingVideo, set[str]]:
    uri = _read_uri(obj)
    track, _ = _build_moving_point(obj)
    column = [DEFAULT_H_ANGLE, DEFAULT_V_ANGLE, DEFAULT_DIRECTION, DEFAULT_VIEW_DISTANCE]
    if "fov" in obj:
        raw = obj["fov"]
        if not isinstance(raw, list) or not raw:
            raise ParseError("'fov' must be a non-empty array", "/fov")
        column = []
        for i, entry in enumerate(raw):
            _read_fov(entry, f"/fov/{i}", column)
        if len(raw) not in (1, len(track)):
            raise ParseError(f"{len(raw)} fov entries for {len(track)} samples", "/fov")
    try:
        video = MovingVideo.from_column(uri, track, array("d", column))
    except ValueError as exc:  # uri and fov count are checked above: this is a still track
        first = next(i for i, direction in enumerate(column[2::4]) if direction < 0.0)
        raise ParseError(str(exc), f"/fov/{first}/direction2d") from None
    return video, {
        "uri", "coordinates", "fov", "datetimes", "timeline", "interpolation",
    }


def parse_document(text: bytes | str) -> GeoMediaDocument:
    """Parse one GeoMedia JSON document, normalizing times to epoch milliseconds.

    Unrecognized top-level members are preserved on the returned document and
    re-emitted by serialize_document. Errors carry a JSON-pointer-style path.
    """
    return parse_obj(decode_json(text))


def parse_obj(obj) -> GeoMediaDocument:
    """parse_document for an already decoded JSON value."""
    if not isinstance(obj, dict):
        raise ParseError("document must be a JSON object")
    obj = _normalize_keys(obj)
    tag = obj.get("type")
    if not isinstance(tag, str):
        raise ParseError("missing 'type' member", "/type")
    kind = media_kind(tag)
    if kind is None:
        raise ParseError(f"unknown media type {tag!r}", "/type")
    try:
        payload, consumed = _CODECS[kind][0](obj)
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    extras = tuple((k, v) for k, v in obj.items() if k != "type" and k not in consumed)
    for key, value in extras:
        _reject_non_finite(value, f"/{key}")
    return GeoMediaDocument(kind, payload, extras)


# -- serialization -------------------------------------------------------------


def _num(x: float):
    """Emit integral floats as JSON integers; timelines stay integers anyway."""
    if isinstance(x, float) and x.is_integer():
        return int(x)
    return x


def _coord(p: GeoPoint) -> list:
    if p.alt is None:
        return [_num(p.lon), _num(p.lat)]
    return [_num(p.lon), _num(p.lat), _num(p.alt)]


def _coords(track: MovingPoint | MovingDouble) -> list:
    """Wire positions of a track's position columns; NaN altitude means none."""
    lons, lats, alts = track.lons, track.lats, track.alts
    if alts is None:
        return [[_num(x), _num(y)] for x, y in zip(lons, lats)]
    return [[_num(x), _num(y)] if z != z else [_num(x), _num(y), _num(z)]
            for x, y, z in zip(lons, lats, alts)]


def _time_member(times, time_style: str) -> dict:
    if time_style == "epoch":
        return {"timeline": [int(t) for t in times]}
    if time_style == "iso":
        return {"datetimes": [epoch_to_iso(t) for t in times]}
    raise ValueError(f"time style must be 'iso' or 'epoch', got {time_style!r}")


def _write_moving_point(mp: MovingPoint, time_style: str) -> dict:
    return {"coordinates": _coords(mp), **_time_member(mp.time_column, time_style),
            "interpolation": mp.mode.value}


def _write_moving_double(md: MovingDouble, time_style: str) -> dict:
    out = {"values": [_num(v) for v in md.value_column],
           **_time_member(md.time_column, time_style)}
    if md.lons is not None:
        out["coordinates"] = _coords(md)
    out["interpolation"] = md.mode.value
    return out


def _write_stphoto(photo: STPhoto, time_style: str) -> dict:
    fov = photo.fov
    return {"uri": photo.imguri, "coordinates": _coord(photo.loc),
            **_time_member((photo.t,), time_style),
            "fov": {"type": "fov", "horizontalAngle": _num(fov.h_angle),
                    "verticalAngle": _num(fov.v_angle), "direction2d": _num(fov.direction2d),
                    "distance": _num(fov.view_distance)}}


def _write_moving_video(video: MovingVideo, time_style: str) -> dict:
    fovs = [{"verticalAngle": _num(v), "horizontalAngle": _num(h),
             "viewDistance": _num(r), "direction2d": _num(d)}
            for h, v, d, r in video.fov_rows()]
    return {"uri": video.videouri, "coordinates": _coords(video.track),
            "fov": fovs, **_time_member(video.track.time_column, time_style),
            "interpolation": video.track.mode.value}


# Each kind's wire shape: its reader and its writer (member order fixed per kind).
_CODECS = {
    KIND_MOVING_POINT: (_build_moving_point, _write_moving_point),
    KIND_MOVING_DOUBLE: (_build_moving_double, _write_moving_double),
    KIND_STPHOTO: (_build_stphoto, _write_stphoto),
    KIND_MOVING_VIDEO: (_build_moving_video, _write_moving_video),
}


def document_to_obj(doc: GeoMediaDocument, time_style: str = "epoch") -> dict:
    """Canonical JSON object form of a document (member order fixed per kind)."""
    out = {"type": doc.kind}
    out.update(_CODECS[doc.kind][1](doc.payload, time_style))
    out.update(doc.extras)
    return out


def serialize_document(doc: GeoMediaDocument, time_style: str = "epoch") -> bytes:
    """Serialize to canonical single-line UTF-8 JSON (deterministic bytes)."""
    return json.dumps(document_to_obj(doc, time_style)).encode("utf-8")


# -- GeoJSON interoperability ---------------------------------------------------


def geojson_point(p: GeoPoint) -> dict:
    return {"type": "Point", "coordinates": _coord(p)}


def geojson_polygon(sector: SectorPolygon) -> dict:
    return {"type": "Polygon", "coordinates": [[_coord(p) for p in sector.ring]]}


def geojson_feature(geometry: dict | None, properties: dict | None = None) -> dict:
    return {"type": "Feature", "geometry": geometry, "properties": properties or {}}


def geojson_feature_collection(features) -> dict:
    return {"type": "FeatureCollection", "features": list(features)}
