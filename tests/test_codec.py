"""GeoMedia JSON codec: the reference listings, round trips, and error paths."""

from __future__ import annotations

import json
import random
from datetime import datetime, timezone

import pytest

from geomedia import (
    FieldOfView,
    GeoPoint,
    InterpolationMode,
    epoch_to_iso,
    parse_datetime,
    parse_document,
    serialize_document,
)
from geomedia.codec import parse_obj
from geomedia.errors import ParseError

from conftest import T0, T1, T2, fixture_bytes

_BAD_DATETIME = (
    r"^(not a UTC ISO-8601 instant: |(month|day) \d+ out of range in |time of day out of range in )"
)


class TestParseDatetime:
    def test_reference_unpadded_day(self):
        assert parse_datetime("2018-08-1T13:01:01Z") == T0

    def test_epoch_origin(self):
        assert parse_datetime("1970-01-01T00:00:00Z") == 0

    def test_milliseconds(self):
        assert parse_datetime("2018-08-01T13:01:01.500Z") == T0 + 500

    def test_surrounding_whitespace_tolerated(self):
        assert parse_datetime("2018-08-1T13:01:02Z ") == T1

    def test_offset_rejected(self):
        with pytest.raises(ParseError, match="not a UTC ISO-8601 instant"):
            parse_datetime("2018-08-01T13:01:01+09:00")

    @pytest.mark.parametrize(
        "bad",
        ["", "2018-08-01", "2018-13-01T00:00:00Z", "2018-02-30T00:00:00Z",
         "2018-08-01T24:00:00Z", "2018-08-01T00:60:00Z", "not a date",
         "2018-08-01T00:00:00", "2018-08-01 00:00:00Z"],
    )
    def test_rejects(self, bad):
        with pytest.raises(ParseError, match=_BAD_DATETIME):
            parse_datetime(bad)

    def test_year_zero_rejected(self):
        with pytest.raises(ParseError, match="year 0 out of range"):
            parse_datetime("0000-01-01T00:00:00Z")

    def test_leap_day(self):
        assert parse_datetime("2020-02-29T00:00:00Z") == parse_datetime("2020-02-28T00:00:00Z") + 86_400_000
        with pytest.raises(ParseError, match="day 29 out of range"):
            parse_datetime("2100-02-29T00:00:00Z")  # 2100 is not a leap year


class TestEpochToIso:
    def test_reference_instant(self):
        assert epoch_to_iso(T0) == "2018-08-01T13:01:01Z"

    def test_epoch_origin(self):
        assert epoch_to_iso(0) == "1970-01-01T00:00:00Z"

    def test_millis_emitted(self):
        assert epoch_to_iso(T0 + 500) == "2018-08-01T13:01:01.500Z"

    def test_years_below_1000_zero_padded(self):
        t = parse_datetime("0500-01-01T00:00:00Z")
        assert epoch_to_iso(t) == "0500-01-01T00:00:00Z"
        assert parse_datetime(epoch_to_iso(t)) == t

    def test_first_and_last_spellable_instants(self):
        first = parse_datetime("0001-01-01T00:00:00Z")
        last = parse_datetime("9999-12-31T23:59:59.999Z")
        assert epoch_to_iso(first) == "0001-01-01T00:00:00Z"
        assert epoch_to_iso(last) == "9999-12-31T23:59:59.999Z"

    def test_pre_epoch(self):
        assert epoch_to_iso(-1) == "1969-12-31T23:59:59.999Z"
        assert epoch_to_iso(parse_datetime("1900-01-01T00:00:00Z")) == "1900-01-01T00:00:00Z"
        assert epoch_to_iso(parse_datetime("2100-12-31T23:59:59Z")) == "2100-12-31T23:59:59Z"

    def test_inverse_of_parse_randomly(self):
        rng = random.Random("iso")
        for _ in range(1000):
            t = rng.randint(0, 4_000_000_000_000)
            assert parse_datetime(epoch_to_iso(t)) == t

    def test_matches_stdlib_decomposition(self):
        rng = random.Random("civil")
        for _ in range(200):
            t = rng.randint(-2_000_000_000_000, 4_000_000_000_000)
            dt = datetime.fromtimestamp(t // 1000, tz=timezone.utc)
            want = dt.strftime("%Y-%m-%dT%H:%M:%S")
            if t % 1000:
                want += f".{t % 1000:03d}"
            assert epoch_to_iso(t) == want + "Z"


class TestReferenceListings:
    def test_moving_point(self, moving_point_doc):
        mp = moving_point_doc.payload
        assert moving_point_doc.kind == "MovingPoint"
        assert mp.times == (T0, T1, T2)
        assert mp.points == (
            GeoPoint(150.0, 50.0, 10.0),
            GeoPoint(160.0, 60.0, 12.0),
            GeoPoint(170.0, 60.0, 11.0),
        )
        assert mp.mode is InterpolationMode.LINEAR

    def test_moving_double(self, moving_double_doc):
        md = moving_double_doc.payload
        assert md.values == (5.0, 9.0, 6.0)
        assert md.times == (T0, T1, T2)
        assert md.mode is InterpolationMode.STEPWISE
        assert md.track is None

    def test_stphoto(self, stphoto_doc):
        photo = stphoto_doc.payload
        assert photo.imguri == "http://u-gis.net/images/mphoto1.jpg"
        assert photo.loc == GeoPoint(-122.0879583, 37.4184889)
        assert photo.t == T0
        assert (photo.fov.h_angle, photo.fov.v_angle) == (63.0, 60.0)
        assert (photo.fov.direction2d, photo.fov.view_distance) == (90.0, 30.0)

    def test_moving_video(self, moving_video_doc):
        video = moving_video_doc.payload
        assert video.videouri == "http://u-gis.net/videos/video1.mp4"
        assert video.track.times == (T0, T1, T2)
        assert len(video.fovs) == 1
        fov = video.fovs[0]
        assert (fov.h_angle, fov.v_angle, fov.direction2d, fov.view_distance) == (63.0, 50.0, 90.0, 30.0)

    @pytest.mark.parametrize(
        "name", ["moving_point.json", "moving_double.json", "stphoto.json", "moving_video.json"]
    )
    def test_numeric_values_preserved(self, name):
        doc = parse_document(fixture_bytes(name))
        reread = json.loads(serialize_document(doc, "epoch"))
        original = json.loads(
            fixture_bytes(name).decode("utf-8").replace('"datetimes "', '"datetimes"').replace('"values "', '"values"')
        )
        for member in ("coordinates", "values", "timeline"):
            if member in original:
                assert _flat(reread[member]) == pytest.approx(_flat(original[member]), rel=1e-12)
        if "fov" in original:
            got, want = reread["fov"], original["fov"]
            for g, w in zip(
                got if isinstance(got, list) else [got],
                want if isinstance(want, list) else [want],
            ):
                for key, value in w.items():
                    if isinstance(value, (int, float)):
                        assert g[_CANON_FOV_KEY.get(key, key)] == pytest.approx(value, rel=1e-12)


_CANON_FOV_KEY = {"distance": "distance", "viewDistance": "viewDistance"}


def _flat(x):
    if isinstance(x, list):
        out = []
        for item in x:
            out.extend(_flat(item))
        return out
    return [float(x)] if isinstance(x, (int, float)) else []


class TestRoundTrips:
    @pytest.mark.parametrize(
        "name", ["moving_point.json", "moving_double.json", "stphoto.json", "moving_video.json"]
    )
    @pytest.mark.parametrize("style", ["epoch", "iso"])
    def test_parse_serialize_identity(self, name, style):
        doc = parse_document(fixture_bytes(name))
        again = parse_document(serialize_document(doc, style))
        assert again == doc

    def test_serialization_deterministic(self, moving_video_doc):
        a = serialize_document(moving_video_doc, "iso")
        b = serialize_document(moving_video_doc, "iso")
        assert a == b

    def test_iso_style_uses_datetimes(self, moving_double_doc):
        obj = json.loads(serialize_document(moving_double_doc, "iso"))
        assert obj["datetimes"] == [
            "2018-08-01T13:01:01Z", "2018-08-01T13:01:02Z", "2018-08-01T13:01:03Z",
        ]
        assert "timeline" not in obj

    def test_epoch_style_uses_timeline(self, moving_point_doc):
        obj = json.loads(serialize_document(moving_point_doc, "epoch"))
        assert obj["timeline"] == [T0, T1, T2]
        assert "datetimes" not in obj

    def test_photo_serialization_field_names(self, stphoto_doc):
        raw = serialize_document(stphoto_doc, "epoch").decode("utf-8")
        assert '"horizontalAngle": 63' in raw
        assert '"type": "stphoto"' in raw
        assert '"distance": 30' in raw
        obj = json.loads(raw)
        assert list(obj) == ["type", "uri", "coordinates", "timeline", "fov"]
        assert list(obj["fov"]) == [
            "type", "horizontalAngle", "verticalAngle", "direction2d", "distance",
        ]

    def test_video_fov_field_names(self, moving_video_doc):
        obj = json.loads(serialize_document(moving_video_doc, "epoch"))
        assert list(obj["fov"][0]) == [
            "verticalAngle", "horizontalAngle", "viewDistance", "direction2d",
        ]

    def test_defaults_emitted_explicitly(self):
        doc = parse_document(b'{"type": "stphoto", "uri": "u:1", "coordinates": [1, 2], "timeline": [5]}')
        obj = json.loads(serialize_document(doc))
        assert obj["fov"] == {
            "type": "fov", "horizontalAngle": 63, "verticalAngle": 60,
            "direction2d": 0, "distance": 100,
        }

    def test_unknown_members_preserved(self):
        text = b'{"type": "MovingPoint", "coordinates": [[1, 2]], "timeline": [0], "interpolation": "linear", "vendor": {"x": 1}}'
        doc = parse_document(text)
        assert doc.extras == (("vendor", {"x": 1}),)
        obj = json.loads(serialize_document(doc))
        assert obj["vendor"] == {"x": 1}
        assert parse_document(serialize_document(doc)) == doc

    def test_interpolation_defaults_to_linear(self):
        doc = parse_document(b'{"type": "MovingPoint", "coordinates": [[5, 6]], "timeline": [0]}')
        assert doc.payload.mode is InterpolationMode.LINEAR


class TestParseErrors:
    def test_malformed_json(self):
        with pytest.raises(ParseError, match="malformed JSON"):
            parse_document(b"{not json")

    def test_trailing_comma_rejected(self):
        with pytest.raises(ParseError, match="malformed JSON"):
            parse_document(b'{"type": "MovingDouble", "values": [1.0], "timeline": [0],}')

    def test_duplicate_member_rejected(self):
        # the second reference MovingDouble listing repeats "timeline"
        text = (
            b'{"type": "MovingDouble", "values": [5.0, 9.0, 6.0],'
            b' "timeline": [1, 2, 3], "coordinates": [[1, 1], [2, 2], [3, 3]],'
            b' "timeline": [1, 2, 3], "interpolation": "stepwise"}'
        )
        with pytest.raises(ParseError, match="duplicate member 'timeline'"):
            parse_document(text)

    def test_unknown_type(self):
        with pytest.raises(ParseError, match="unknown media type") as err:
            parse_document(b'{"type": "MovingBlob"}')
        assert err.value.path == "/type"

    def test_type_tags_case_insensitive(self):
        doc = parse_document(b'{"type": "movingpoint", "coordinates": [[1, 2]], "timeline": [0]}')
        assert doc.kind == "MovingPoint"
        doc = parse_document(
            b'{"type": "STPhoto", "uri": "u:1", "coordinates": [0, 0], "timeline": [0]}'
        )
        assert doc.kind == "stphoto"

    def test_length_mismatch_with_path(self):
        text = b'{"type": "MovingPoint", "coordinates": [[1, 1], [2, 2], [3, 3]], "datetimes": ["2018-08-01T00:00:00Z", "2018-08-01T00:00:01Z"]}'
        with pytest.raises(ParseError, match="2 times for 3 samples") as err:
            parse_document(text)
        assert err.value.path == "/datetimes"

    def test_values_timeline_mismatch(self):
        with pytest.raises(ParseError, match="^/timeline: 2 times for 1 samples"):
            parse_document(b'{"type": "MovingDouble", "values": [1.0], "timeline": [0, 1]}')

    def test_fov_list_length(self):
        text = (
            b'{"type": "MovingVideo", "uri": "u:1", "coordinates": [[0, 0], [1, 1], [2, 2]],'
            b' "fov": [{}, {}], "timeline": [0, 1, 2]}'
        )
        with pytest.raises(ParseError, match="2 fov entries for 3 samples") as err:
            parse_document(text)
        assert err.value.path == "/fov"

    def test_non_increasing_time(self):
        with pytest.raises(ParseError, match="does not increase") as err:
            parse_document(b'{"type": "MovingDouble", "values": [1.0, 2.0], "timeline": [5, 5]}')
        assert err.value.path == "/timeline/1"

    def test_both_time_encodings_rejected(self):
        text = (
            b'{"type": "MovingDouble", "values": [1.0], "timeline": [0],'
            b' "datetimes": ["1970-01-01T00:00:00Z"]}'
        )
        with pytest.raises(ParseError, match="^/timeline: both 'datetimes' and 'timeline'"):
            parse_document(text)

    def test_bad_angle_value(self):
        text = (
            b'{"type": "stphoto", "uri": "u:1", "coordinates": [0, 0], "timeline": [0],'
            b' "fov": {"horizontalAngle": 400}}'
        )
        with pytest.raises(ParseError, match="horizontal angle 400.0 outside") as err:
            parse_document(text)
        assert err.value.path.startswith("/fov")

    def test_bad_coordinate_with_path(self):
        with pytest.raises(ParseError, match="longitude 999.0 outside") as err:
            parse_document(b'{"type": "MovingPoint", "coordinates": [[1, 2], [999, 3]], "timeline": [0, 1]}')
        assert err.value.path == "/coordinates/1"

    def test_bad_datetime_with_path(self):
        with pytest.raises(ParseError, match="not a UTC ISO-8601 instant") as err:
            parse_document(b'{"type": "MovingPoint", "coordinates": [[1, 2]], "datetimes": ["nope"]}')
        assert err.value.path == "/datetimes/0"

    def test_relative_direction_on_photo_rejected(self):
        text = (
            b'{"type": "stphoto", "uri": "u:1", "coordinates": [0, 0], "timeline": [0],'
            b' "fov": {"direction2d": -90}}'
        )
        with pytest.raises(ParseError, match="must be absolute") as err:
            parse_document(text)
        assert err.value.path == "/fov/direction2d"

    def test_photo_needs_exactly_one_time(self):
        with pytest.raises(ParseError, match="^/timeline: a photo has exactly one timestamp"):
            parse_document(
                b'{"type": "stphoto", "uri": "u:1", "coordinates": [0, 0], "timeline": [0, 1]}'
            )

    def test_mixed_coordinate_arity_rejected(self):
        with pytest.raises(ParseError, match="^/coordinates: coordinates mix 2- and 3-component"):
            parse_document(
                b'{"type": "MovingPoint", "coordinates": [[1, 2, 3], [4, 5]], "timeline": [0, 1]}'
            )

    def test_video_mixed_coordinate_arity_rejected(self):
        with pytest.raises(ParseError, match="^/coordinates: coordinates mix 2- and 3-component"):
            parse_document(b'{"type": "MovingVideo", "uri": "u:1",'
                           b' "coordinates": [[1, 2, 3], [4, 5]], "timeline": [0, 1]}')

    def test_year_zero_datetime_with_path(self):
        with pytest.raises(ParseError, match="year 0 out of range") as err:
            parse_document(b'{"type": "MovingDouble", "values": [1, 2],'
                           b' "datetimes": ["2018-08-01T13:01:01Z", "0000-01-01T00:00:00Z"]}')
        assert err.value.path == "/datetimes/1"

    @pytest.mark.parametrize("entry", [
        b"100000000000000000000", b"253402300800000", b"-62135596800001",
    ], ids=["huge", "year-10000", "year-0"])
    def test_timeline_outside_iso_years_rejected(self, entry):
        with pytest.raises(ParseError, match="must lie in years 1-9999") as err:
            parse_document(b'{"type": "MovingDouble", "values": [1, 2], "timeline": [0, ' + entry + b"]}")
        assert err.value.path == "/timeline/1"

    def test_timeline_iso_year_bounds_accepted(self):
        doc = parse_document(b'{"type": "MovingDouble", "values": [1, 2],'
                             b' "timeline": [-62135596800000, 253402300799999]}')
        obj = json.loads(serialize_document(doc, "iso"))
        assert obj["datetimes"] == ["0001-01-01T00:00:00Z", "9999-12-31T23:59:59.999Z"]

    def test_timeline_floats_rejected(self):
        with pytest.raises(ParseError, match="must be integers") as err:
            parse_document(b'{"type": "MovingDouble", "values": [1.0], "timeline": [0.5]}')
        assert err.value.path == "/timeline/0"

    def test_bad_interpolation(self):
        with pytest.raises(ParseError, match="^/interpolation: interpolation must be one of"):
            parse_document(
                b'{"type": "MovingPoint", "coordinates": [[1, 2]], "timeline": [0],'
                b' "interpolation": "spline"}'
            )

    def test_empty_uri(self):
        with pytest.raises(ParseError, match="^/uri: 'uri' must be a non-empty string"):
            parse_document(b'{"type": "stphoto", "uri": "", "coordinates": [0, 0], "timeline": [0]}')

    def test_not_utf8(self):
        with pytest.raises(ParseError, match="not UTF-8"):
            parse_document(b"\xff\xfe{}")

    def test_top_level_must_be_object(self):
        with pytest.raises(ParseError, match="document must be a JSON object"):
            parse_document(b"[1, 2, 3]")


class TestMovingDoubleWithTrack:
    def test_track_parsed(self):
        # the second reference MovingDouble listing, with its duplicate
        # timeline collapsed to one
        text = (
            b'{"type": "MovingDouble", "values": [5.0, 9.0, 6.0],'
            b' "timeline": [1533128461000, 1533128462000, 1533128463000],'
            b' "coordinates": [[150.0, 50.0], [160.0, 60.0], [170.0, 60.0]],'
            b' "interpolation": "stepwise"}'
        )
        md = parse_document(text).payload
        assert md.track == (GeoPoint(150.0, 50.0), GeoPoint(160.0, 60.0), GeoPoint(170.0, 60.0))
        assert parse_document(serialize_document(parse_document(text))) == parse_document(text)

    def test_track_length_mismatch(self):
        text = (
            b'{"type": "MovingDouble", "values": [5.0, 9.0],'
            b' "timeline": [0, 1], "coordinates": [[0, 0]]}'
        )
        with pytest.raises(ParseError, match="^/coordinates: 1 coordinates for 2 values"):
            parse_document(text)


class TestVideoFovSpellings:
    def test_distance_spelling_also_accepted(self):
        text = (
            b'{"type": "MovingVideo", "uri": "u:1", "coordinates": [[0, 0]],'
            b' "fov": [{"distance": 42}], "timeline": [0]}'
        )
        video = parse_document(text).payload
        assert video.fovs[0].view_distance == 42.0

    def test_both_distance_spellings_rejected(self):
        text = (
            b'{"type": "MovingVideo", "uri": "u:1", "coordinates": [[0, 0]],'
            b' "fov": [{"distance": 42, "viewDistance": 42}], "timeline": [0]}'
        )
        with pytest.raises(ParseError, match="^/fov/0/viewDistance: both 'distance' and"):
            parse_document(text)

    def test_absent_fov_defaults(self):
        text = b'{"type": "MovingVideo", "uri": "u:1", "coordinates": [[0, 0]], "timeline": [0]}'
        video = parse_document(text).payload
        assert len(video.fovs) == 1
        assert video.fovs[0].view_distance == 100.0


FIXTURE_NAMES = ["moving_point.json", "moving_double.json", "stphoto.json", "moving_video.json"]


class TestParseObj:
    """parse_obj takes the decoded value; it must agree with parse_document."""

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_agrees_with_parse_document(self, name):
        obj = json.loads(fixture_bytes(name))
        assert parse_obj(obj) == parse_document(json.dumps(obj))
        assert parse_obj(obj) == parse_document(fixture_bytes(name))

    @pytest.mark.parametrize("bad", [
        [1, 2, 3],
        "MovingPoint",
        {"type": "MovingBlob"},
        {"coordinates": [[1, 2]], "timeline": [0]},
        {"type": "MovingPoint", "coordinates": [[1, 2], [3, 4]], "timeline": [0]},
        {"type": "MovingPoint", "coordinates": [[1, 2], [3, 4]], "timeline": [5, 5]},
        {"type": "MovingPoint", "coordinates": [[1, 2], [300, 4]], "timeline": [0, 1]},
        {"type": "MovingPoint", "coordinates": [[1, 2], [3, True]], "timeline": [0, 1]},
        {"type": "MovingPoint", "coordinates": [[1, 2], [3]], "timeline": [0, 1]},
        {"type": "MovingPoint", "coordinates": [[1, 2], [3, 4, 5, 6]], "timeline": [0, 1]},
        {"type": "MovingPoint", "coordinates": [[1, 2], "3, 4"], "timeline": [0, 1]},
        {"type": "MovingPoint", "coordinates": [[1, 2], [3, 4, 5]], "timeline": [0, 1]},
        {"type": "stphoto", "uri": "u", "coordinates": [0, 95], "timeline": [0]},
        {"type": "stphoto", "uri": "u", "coordinates": [0, 0], "datetimes": ["2018-13-01T00:00:00Z"]},
        {"type": "MovingVideo", "uri": "u", "coordinates": [[0, 0]], "timeline": [0],
         "fov": [{"horizontalAngle": "wide"}]},
        {"type": "MovingDouble", "values": [1, None], "timeline": [0, 1]},
    ])
    def test_same_errors_as_parse_document(self, bad):
        with pytest.raises(ParseError) as via_obj:
            parse_obj(bad)
        with pytest.raises(ParseError) as via_text:
            parse_document(json.dumps(bad))
        assert type(via_obj.value) is type(via_text.value)
        assert (via_obj.value.message, via_obj.value.path) == (
            via_text.value.message, via_text.value.path)


BIG = "1" + "0" * 400  # a JSON integer past a double's range


class TestNumbersAreFinite:
    @pytest.mark.parametrize("text, path", [
        ('{"type": "MovingPoint", "coordinates": [[1, 2], [%s, 3]], "timeline": [0, 1]}' % BIG,
         "/coordinates/1"),
        ('{"type": "MovingPoint", "coordinates": [[1, 2, %s]], "timeline": [0]}' % BIG,
         "/coordinates/0"),
        ('{"type": "MovingPoint", "coordinates": [[1, 2, NaN]], "timeline": [0]}', "/coordinates/0"),
        ('{"type": "MovingPoint", "coordinates": [[1, 2, -Infinity]], "timeline": [0]}',
         "/coordinates/0"),
        ('{"type": "MovingPoint", "coordinates": [[1, 2, 1e400]], "timeline": [0]}', "/coordinates/0"),
        ('{"type": "MovingDouble", "values": [1, NaN], "timeline": [0, 1]}', "/values/1"),
        ('{"type": "MovingDouble", "values": [Infinity, 1], "timeline": [0, 1]}', "/values/0"),
        ('{"type": "MovingDouble", "values": [1e400], "timeline": [0]}', "/values/0"),
        ('{"type": "MovingDouble", "values": [%s], "timeline": [0]}' % BIG, "/values/0"),
        ('{"type": "stphoto", "uri": "u:1", "coordinates": [0, 0], "timeline": [0],'
         ' "fov": {"distance": Infinity}}', "/fov/distance"),
        ('{"type": "stphoto", "uri": "u:1", "coordinates": [0, 0], "timeline": [0],'
         ' "fov": {"horizontalAngle": %s}}' % BIG, "/fov/horizontalAngle"),
        ('{"type": "MovingVideo", "uri": "u:1", "coordinates": [[0, 0]], "timeline": [0],'
         ' "fov": [{"viewDistance": 1e400}]}', "/fov/0/viewDistance"),
        ('{"type": "MovingPoint", "coordinates": [[1, 2]], "timeline": [0], "note": {"k": [1, NaN]}}',
         "/note/k/1"),
    ], ids=["long-int-lon", "long-int-alt", "nan-alt", "-inf-alt", "1e400-alt", "nan-value",
            "inf-value", "1e400-value", "long-int-value", "inf-photo-distance",
            "long-int-photo-angle", "1e400-video-distance", "nan-in-unknown-member"])
    def test_non_finite_or_unrepresentable_rejected_with_path(self, text, path):
        with pytest.raises(ParseError, match="finite|too large") as err:
            parse_document(text)
        assert err.value.path == path

    def test_large_finite_numbers_kept(self):
        doc = parse_document(
            '{"type": "MovingDouble", "values": [1e308, -%s], "timeline": [0, 1], "note": %s}'
            % ("9" * 300, BIG))
        assert doc.payload.values == (1e308, -float("9" * 300))
        assert dict(doc.extras) == {"note": int(BIG)}


def _video(fov: str, coordinates: str = "[[0, 0], [1, 1], [2, 2]]") -> str:
    """A three-sample MovingVideo whose third fov entry is the JSON text fov."""
    return ('{"type": "MovingVideo", "uri": "u:v", "coordinates": %s, "timeline": [1, 2, 3],'
            ' "fov": [{"direction2d": 10}, {"direction2d": 20}, %s]}' % (coordinates, fov))


def _track(position: str, first: str = "[0, 0], [1, 1]") -> str:
    """A three-sample MovingPoint whose third position is the JSON text position."""
    return ('{"type": "MovingPoint", "coordinates": [%s, %s], "timeline": [1, 2, 3]}'
            % (first, position))


_POSITION = "position must be [lon, lat] or [lon, lat, alt]"
_MIX = "coordinates mix 2- and 3-component positions"


class TestColumnReads:
    """A fault at a later entry of "coordinates" or "fov" gives the same
    message and pointer as before either became a column."""

    @pytest.mark.parametrize("text, message, path", [
        (_video('{"horizontalAngle": true}'),
         "'horizontalAngle' must be a finite number", "/fov/2/horizontalAngle"),
        (_video('{"verticalAngle": "60"}'),
         "'verticalAngle' must be a finite number", "/fov/2/verticalAngle"),
        (_video('{"direction2d": NaN}'),
         "'direction2d' must be a finite number", "/fov/2/direction2d"),
        (_video('{"viewDistance": 1e400}'),
         "'viewDistance' must be a finite number", "/fov/2/viewDistance"),
        (_video('{"distance": %s}' % BIG),
         "'distance' must be a finite number", "/fov/2/distance"),
        (_video('{"horizontalAngle": 0}'), "horizontal angle 0.0 outside (0, 360]", "/fov/2"),
        (_video('{"horizontalAngle": 361}'), "horizontal angle 361.0 outside (0, 360]", "/fov/2"),
        (_video('{"verticalAngle": 181}'), "vertical angle 181.0 outside (0, 180]", "/fov/2"),
        (_video('{"direction2d": 360}'), "direction2d 360.0 outside [-360, 360)", "/fov/2"),
        (_video('{"direction2d": -361}'), "direction2d -361.0 outside [-360, 360)", "/fov/2"),
        (_video('{"viewDistance": 0}'), "view distance 0.0 must be finite and > 0", "/fov/2"),
        (_video('{"distance": 5, "viewDistance": 5}'),
         "both 'distance' and 'viewDistance' present", "/fov/2/viewDistance"),
        (_video('{"type": "camera"}'), "fov type tag must be 'fov', got 'camera'", "/fov/2/type"),
        (_video('{"type": 7}'), "fov type tag must be 'fov', got 7", "/fov/2/type"),
        (_video('{"type": []}'), "fov type tag must be 'fov', got []", "/fov/2/type"),
        (_video('{"type": {}}'), "fov type tag must be 'fov', got {}", "/fov/2/type"),
        (_video("5"), "fov must be an object", "/fov/2"),
        (_video("[1]"), "fov must be an object", "/fov/2"),
        (_video("null"), "fov must be an object", "/fov/2"),
        (_video('{"direction2d": -90}', "[[0, 0], [0, 0], [0, 0]]"),
         "a mount-relative direction needs a moving track", "/fov/2/direction2d"),
        (_video("{}", "[[0, 0], [1, 1], [2, true]]"), _POSITION, "/coordinates/2"),
        (_track("[true, 1]"), _POSITION, "/coordinates/2"),
        (_track('[1, "1"]'), _POSITION, "/coordinates/2"),
        (_track("[NaN, 1]"), "longitude nan outside [-180, 180]", "/coordinates/2"),
        (_track("[1, 1e400]"), "latitude inf outside [-90, 90]", "/coordinates/2"),
        (_track("[%s, 1]" % BIG), "int too large to convert to float", "/coordinates/2"),
        (_track("[1, 1, %s]" % BIG, "[0, 0, 0], [1, 1, 1]"),
         "int too large to convert to float", "/coordinates/2"),
        (_track("[1, 1, NaN]", "[0, 0, 0], [1, 1, 1]"), "altitude nan is not finite",
         "/coordinates/2"),
        (_track("[181, 0]"), "longitude 181.0 outside [-180, 180]", "/coordinates/2"),
        (_track("[0, -91]"), "latitude -91.0 outside [-90, 90]", "/coordinates/2"),
        (_track("[1]"), _POSITION, "/coordinates/2"),
        (_track("[1, 1, 1, 1]"), _POSITION, "/coordinates/2"),
        (_track("[2, 2, 5]"), _MIX, "/coordinates"),
        (_track("[2, 2]", "[0, 0, 0], [1, 1, 1]"), _MIX, "/coordinates"),
        (_track("[true, 2]", "[0, 0], [1, 1, 1]"), _POSITION, "/coordinates/2"),
        (_track('{"lon": 1, "lat": 1}'), _POSITION, "/coordinates/2"),
        (_track('"1, 1"'), _POSITION, "/coordinates/2"),
        (_track("[]"), _POSITION, "/coordinates/2"),
    ], ids=["bool-member", "string-member", "nan-member", "1e400-member", "long-int-member",
            "h-angle-0", "h-angle-361", "v-angle-181", "direction-360", "direction--361",
            "distance-0", "both-distances", "camera-tag", "number-tag", "array-tag",
            "object-tag", "number-entry", "array-entry", "null-entry", "relative-on-still-track",
            "video-bool-position", "bool-lon", "string-lat", "nan-lon", "1e400-lat",
            "long-int-lon", "long-int-alt", "nan-alt", "lon-181", "lat--91", "one-component",
            "four-components", "mix-3-after-2", "mix-2-after-3", "fault-after-mix",
            "object-position", "string-position", "empty-position"])
    def test_fault_at_a_later_entry(self, text, message, path):
        with pytest.raises(ParseError) as err:
            parse_document(text)
        assert (err.value.message, err.value.path) == (message, path)

    @pytest.mark.parametrize("entry, fov", [
        ('{"direction2d ": 30}', FieldOfView(direction2d=30)),
        ('{"direction2d ": 30, "direction2d": 40}', FieldOfView(direction2d=40)),
        ('{"type": "FoV", "distance": 7}', FieldOfView(view_distance=7)),
        ('{"type": null}', FieldOfView()),
        ('{"direction2d": 30, "note": "dropped"}', FieldOfView(direction2d=30)),
    ], ids=["padded-name", "padded-and-plain-name", "tag-case", "null-tag", "unknown-member"])
    def test_fov_spellings_accepted(self, entry, fov):
        video = parse_document(_video(entry)).payload
        assert video.fovs == (FieldOfView(direction2d=10), FieldOfView(direction2d=20), fov)

    def test_sensor_positions_may_mix_altitudes(self):
        doc = parse_document('{"type": "MovingDouble", "values": [1, 2, 3], "timeline": [1, 2, 3],'
                             ' "coordinates": [[0, 0], [1, 1, 5], [2, 2]]}')
        assert doc.payload.track == (GeoPoint(0, 0), GeoPoint(1, 1, 5), GeoPoint(2, 2))


class TestDocumentShapeErrors:
    """Each refused shape gives its message and the pointer to the member at fault."""

    @pytest.mark.parametrize("text, path, message", [
        (b'{"type": "MovingPoint", "coordinates": [[1, 2]], "datetimes": [5]}',
         "/datetimes/0", "datetime must be a string, got int"),
        (b'{"type": "MovingPoint", "coordinates": [[1, 2]]}',
         "/", "missing 'datetimes' or 'timeline'"),
        (b'{"type": "MovingPoint", "coordinates": [[1, 2]], "datetimes": []}',
         "/datetimes", "'datetimes' must be a non-empty array"),
        (b'{"type": "MovingDouble", "values": [], "timeline": [0]}',
         "/values", "'values' must be a non-empty array"),
        (b'{"type": "MovingVideo", "uri": "u:1", "coordinates": [[0, 0], [1, 1]],'
         b' "timeline": [0, 1], "fov": []}',
         "/fov", "'fov' must be a non-empty array"),
        (b'{"type": "stphoto", " uri": "u:1", "uri ": "u:2", "coordinates": [0, 0],'
         b' "timeline": [0]}',
         "", "duplicate member 'uri' after trimming whitespace"),
    ], ids=["datetime-not-a-string", "no-times", "empty-datetimes", "empty-values",
            "empty-video-fov", "duplicate-after-trimming"])
    def test_refused_with_pointer(self, text, path, message):
        with pytest.raises(ParseError) as err:
            parse_document(text)
        assert (err.value.path, err.value.message) == (path, message)

    def test_byte_order_mark_refused(self):
        text = '\ufeff{"type": "MovingPoint", "coordinates": [[1, 2]], "timeline": [0]}'
        for raw in (text, text.encode("utf-8")):
            with pytest.raises(ParseError) as err:
                parse_document(raw)
            assert str(err.value) == (
                "malformed JSON: Unexpected UTF-8 BOM (decode using utf-8-sig) (line 1)")
