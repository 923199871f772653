"""CLI commands end to end, in-process."""

from __future__ import annotations

import json
import shutil
import threading
import urllib.request

import pytest

from geomedia import GeoMediaApi, MediaStore, QuerySpec, codec, evaluate, parse_document
from geomedia import cli
from geomedia import store as store_module
from geomedia.cli import main
from geomedia.errors import CorruptStoreError

from conftest import FIXTURES, T0, edit_snapshot, error_classes, snapshot_path


@pytest.fixture
def store_dir(tmp_path):
    target = tmp_path / "store"
    assert main(["init", "--store", str(target)]) == 0
    return target


def ingest_reference_track(store_dir, tmp_path, capsys=None):
    src = tmp_path / "t1.json"
    shutil.copy(FIXTURES / "moving_point.json", src)
    code = main([
        "ingest", "--store", str(store_dir), "--collection", "taxi",
        "--create", "--media-type", "MovingPoint", str(src),
    ])
    assert code == 0
    if capsys is not None:
        capsys.readouterr()  # drain ingest output before the command under test
    return src


class TestInit:
    def test_creates_manifest(self, tmp_path, capsys):
        target = tmp_path / "s"
        assert main(["init", "--store", str(target)]) == 0
        assert (target / "manifest.json").is_file()
        assert "initialized" in capsys.readouterr().out

    def test_refuses_existing(self, store_dir):
        assert main(["init", "--store", str(store_dir)]) == 1

    def test_store_flag_required(self, monkeypatch):
        monkeypatch.delenv("GEOCMS_STORE", raising=False)
        assert main(["init"]) == 2

    def test_store_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GEOCMS_STORE", str(tmp_path / "env-store"))
        assert main(["init"]) == 0
        assert (tmp_path / "env-store" / "manifest.json").is_file()


class TestIngest:
    def test_single_file(self, store_dir, tmp_path, capsys):
        ingest_reference_track(store_dir, tmp_path)
        out = capsys.readouterr().out
        assert "1 feature(s) ingested" in out
        store = MediaStore.load(store_dir)
        assert [r.fid for r in store.st_query("taxi")] == ["t1"]

    def test_fid_override(self, store_dir, tmp_path):
        src = tmp_path / "whatever.json"
        shutil.copy(FIXTURES / "moving_point.json", src)
        assert main([
            "ingest", "--store", str(store_dir), "--collection", "taxi",
            "--create", "--media-type", "MovingPoint", f"track-9={src}",
        ]) == 0
        store = MediaStore.load(store_dir)
        assert [r.fid for r in store.st_query("taxi")] == ["track-9"]

    def test_kind_mismatch_fails_loud(self, store_dir, tmp_path, capsys):
        ingest_reference_track(store_dir, tmp_path)
        photo = tmp_path / "p1.json"
        shutil.copy(FIXTURES / "stphoto.json", photo)
        code = main(["ingest", "--store", str(store_dir), "--collection", "taxi", str(photo)])
        assert code == 1
        assert "does not match" in capsys.readouterr().err

    def test_partial_failure_ingests_good_files(self, store_dir, tmp_path, capsys):
        good = []
        for i in range(3):
            p = tmp_path / f"g{i}.json"
            shutil.copy(FIXTURES / "moving_point.json", p)
            good.append(str(p))
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code = main([
            "ingest", "--store", str(store_dir), "--collection", "taxi",
            "--create", "--media-type", "MovingPoint", *good, str(bad),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "3 feature(s) ingested" in captured.out
        assert "bad.json" in captured.err
        store = MediaStore.load(store_dir)
        assert store.feature_count("taxi") == 3

    @staticmethod
    def _three_collections(store_dir):
        for cid, kind, name in (("taxi", "MovingPoint", "moving_point.json"),
                                ("pics", "stphoto", "stphoto.json"),
                                ("cams", "MovingVideo", "moving_video.json")):
            assert main(["ingest", "--store", str(store_dir), "--collection", cid, "--create",
                         "--media-type", kind, f"{cid}1={FIXTURES / name}"]) == 0

    @staticmethod
    def _ingest_sensors(store_dir):
        src = FIXTURES / "moving_double.json"
        return main(["ingest", "--store", str(store_dir), "--collection", "sensors", "--create",
                     "--media-type", "MovingDouble", f"d1={src}", f"d2={src}"])

    def test_ingest_parses_only_the_files_it_ingests(self, store_dir, monkeypatch):
        """No line of a collection the ingest does not touch is parsed or rewritten."""
        self._three_collections(store_dir)
        before = {p.name: p.read_bytes() for p in store_dir.glob("*.ndjson.gz")}
        assert len(before) == 6
        parsed = []
        real_parse_obj = codec.parse_obj

        def counting_parse_obj(obj):
            parsed.append(obj.get("type"))
            return real_parse_obj(obj)

        monkeypatch.setattr(codec, "parse_obj", counting_parse_obj)
        monkeypatch.setattr(store_module, "parse_obj", counting_parse_obj)
        assert self._ingest_sensors(store_dir) == 0
        assert parsed == ["MovingDouble", "MovingDouble"]
        assert {name: (store_dir / name).read_bytes() for name in before} == before
        assert MediaStore.load(store_dir).feature_count("sensors") == 2

    def test_malformed_line_in_untouched_collection_survives_ingest(self, store_dir):
        """A bad line whose checksum matches is carried over byte for byte and
        still fails the next load the same way."""
        self._three_collections(store_dir)
        victim = snapshot_path(store_dir, "pics")
        data = edit_snapshot(victim, lambda text: text.replace(
            b'"type": "stphoto"', b'"type": "nophoto"', 1), reseal=True)
        with pytest.raises(CorruptStoreError) as before:
            MediaStore.load(store_dir)
        assert f"{victim.name} line 1" in str(before.value)
        assert self._ingest_sensors(store_dir) == 0
        assert victim.read_bytes() == data
        with pytest.raises(CorruptStoreError) as after:
            MediaStore.load(store_dir)
        assert str(after.value) == str(before.value)

    def test_create_requires_media_type(self, store_dir, tmp_path):
        src = tmp_path / "t1.json"
        shutil.copy(FIXTURES / "moving_point.json", src)
        assert main([
            "ingest", "--store", str(store_dir), "--collection", "c", "--create", str(src),
        ]) == 2

    @pytest.mark.parametrize("spelling", ["MovingPoint", "movingpoint", "MOVINGPOINT",
                                          " MovingPoint "])
    def test_media_type_spellings_are_those_of_http(self, store_dir, spelling):
        assert main(["ingest", "--store", str(store_dir), "--collection", "c", "--create",
                     "--media-type", spelling, f"t1={FIXTURES / 'moving_point.json'}"]) == 0
        status, created = GeoMediaApi(MediaStore()).handle(
            "POST", "/collections", json.dumps({"id": "c", "mediaType": spelling}).encode())
        assert status == 201
        kind = MediaStore.load(store_dir).get_collection("c").media_type
        assert kind == created["mediaType"] == "MovingPoint"

    def test_bad_collection_id_is_a_usage_error(self, store_dir, capsys):
        before = {p.name: p.read_bytes() for p in store_dir.iterdir()}
        assert main(["ingest", "--store", str(store_dir), "--collection", "bad id!", "--create",
                     "--media-type", "MovingPoint", str(FIXTURES / "moving_point.json")]) == 2
        assert capsys.readouterr().err == (
            "error: collection id 'bad id!' must match [A-Za-z0-9_-]{1,64}\n")
        assert {p.name: p.read_bytes() for p in store_dir.iterdir()} == before


class TestQuery:
    def test_bbox_hit_prints_fid(self, store_dir, tmp_path, capsys):
        ingest_reference_track(store_dir, tmp_path, capsys)
        code = main(["query", "--store", str(store_dir), "--collection", "taxi",
                     "--bbox", "140,40,180,70"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "t1"

    def test_empty_result_exits_zero(self, store_dir, tmp_path, capsys):
        ingest_reference_track(store_dir, tmp_path, capsys)
        code = main(["query", "--store", str(store_dir), "--collection", "taxi",
                     "--bbox", "0,0,1,1"])
        assert code == 0
        assert capsys.readouterr().out.strip() == ""

    def test_manifest_without_a_collection_list_exits_one(self, store_dir, capsys):
        manifest = json.loads((store_dir / "manifest.json").read_text())
        manifest["collections"] = None
        (store_dir / "manifest.json").write_text(json.dumps(manifest))
        assert main(["query", "--store", str(store_dir), "--collection", "taxi"]) == 1
        assert "bad manifest" in capsys.readouterr().err

    def test_inverted_bbox_exits_two(self, store_dir, tmp_path):
        ingest_reference_track(store_dir, tmp_path)
        assert main(["query", "--store", str(store_dir), "--collection", "taxi",
                     "--bbox", "1,2,0,3"]) == 2

    def test_missing_collection_exits_one(self, store_dir):
        assert main(["query", "--store", str(store_dir), "--collection", "ghost"]) == 1

    def test_geojson_format(self, store_dir, tmp_path, capsys):
        ingest_reference_track(store_dir, tmp_path, capsys)
        code = main(["query", "--store", str(store_dir), "--collection", "taxi",
                     "--format", "geojson"])
        assert code == 0
        fc = json.loads(capsys.readouterr().out)
        assert fc["type"] == "FeatureCollection"
        assert fc["features"][0]["geometry"]["coordinates"] == [160.0, 55.0]

    def test_geomedia_format_round_trips(self, store_dir, tmp_path, capsys):
        ingest_reference_track(store_dir, tmp_path, capsys)
        code = main(["query", "--store", str(store_dir), "--collection", "taxi",
                     "--format", "geomedia"])
        assert code == 0
        line = capsys.readouterr().out.strip()
        assert parse_document(line) == parse_document((FIXTURES / "moving_point.json").read_bytes())

    def test_matches_library_evaluation(self, store_dir, tmp_path, capsys):
        ingest_reference_track(store_dir, tmp_path, capsys)
        code = main(["query", "--store", str(store_dir), "--collection", "taxi",
                     "--datetime", "2018-08-01T13:01:00Z/2018-08-01T13:02:00Z"])
        assert code == 0
        printed = capsys.readouterr().out.split()
        store = MediaStore.load(store_dir)
        from geomedia import TimeInterval
        from geomedia.codec import parse_datetime

        spec = QuerySpec(interval=TimeInterval(
            parse_datetime("2018-08-01T13:01:00Z"), parse_datetime("2018-08-01T13:02:00Z")))
        assert printed == [r.fid for r in evaluate(store, "taxi", spec)]

    def test_matches_http_query(self, store_dir, tmp_path, capsys):
        """The same predicates through the CLI and the HTTP surface agree."""
        from geomedia import GeoMediaApi

        ingest_reference_track(store_dir, tmp_path, capsys)
        for key, value in (("bbox", "140,40,180,70"),
                           ("datetime", "2018-08-01T13:01:02Z"),
                           ("near", "160,60,5000"),
                           ("bbox", "0,0,1,1")):
            code = main(["query", "--store", str(store_dir), "--collection", "taxi",
                         f"--{key}", value])
            assert code == 0
            cli_fids = capsys.readouterr().out.split()
            api = GeoMediaApi(MediaStore.load(store_dir))
            status, body = api.handle("GET", f"/collections/taxi/items?{key}={value}")
            assert status == 200
            assert cli_fids == [f["fid"] for f in body["features"]]


class TestAtFovVisible:
    def test_at_from_store(self, store_dir, tmp_path, capsys):
        ingest_reference_track(store_dir, tmp_path, capsys)
        code = main(["at", "--store", str(store_dir), "--collection", "taxi",
                     "--fid", "t1", "--at", "2018-08-01T13:01:02Z"])
        assert code == 0
        point = json.loads(capsys.readouterr().out)
        assert point == {"type": "Point", "coordinates": [160, 60, 12]}

    def test_at_from_file(self, capsys):
        code = main(["at", "--file", str(FIXTURES / "moving_point.json"),
                     "--at", str(T0 + 500)])
        assert code == 0
        point = json.loads(capsys.readouterr().out)
        assert point["coordinates"] == [155.0, 55.0, 11.0]

    def test_at_outside_extent_exits_two(self, capsys):
        code = main(["at", "--file", str(FIXTURES / "moving_point.json"),
                     "--at", "2018-08-01T14:00:00Z"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: time 1533132000000 outside extent [1533128461000, 1533128463000]\n")

    def test_at_of_more_digits_than_python_reads_exits_two(self, capsys):
        code = main(["at", "--file", str(FIXTURES / "moving_point.json"), "--at", "9" * 5000])
        assert code == 2
        assert capsys.readouterr().err == "error: time has 5000 digits, too many to read\n"

    def test_fov_photo(self, capsys):
        code = main(["fov", "--file", str(FIXTURES / "stphoto.json")])
        assert code == 0
        poly = json.loads(capsys.readouterr().out)
        assert poly["type"] == "Polygon"
        assert len(poly["coordinates"][0]) == 16

    def test_fov_video_needs_at(self, capsys):
        assert main(["fov", "--file", str(FIXTURES / "moving_video.json")]) == 2
        code = main(["fov", "--file", str(FIXTURES / "moving_video.json"),
                     "--at", str(T0)])
        assert code == 0

    @pytest.mark.parametrize("step", ["0", "-1", "nan"])
    def test_fov_arc_step_must_be_positive(self, capsys, step):
        code = main(["fov", "--file", str(FIXTURES / "stphoto.json"), f"--arc-step={step}"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --arc-step must be > 0")

    def test_fov_arc_step_too_fine_is_a_usage_error(self, capsys):
        code = main(["fov", "--file", str(FIXTURES / "stphoto.json"), "--arc-step=0.001"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --arc-step: arc step 0.001 cuts a 63.0-degree "
                                "aperture into more than 3600 segments\n")

    def test_visible(self, capsys):
        code = main(["visible", "--file", str(FIXTURES / "moving_video.json"),
                     "--point", "160.0002,60"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["intervals"]

    def test_visible_photo_matches_http(self, capsys):
        # 14 m east of a camera facing east with a 30 m view distance
        code = main(["visible", "--file", str(FIXTURES / "stphoto.json"),
                     "--point=-122.0878,37.4184889"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"intervals": ["2018-08-01T13:01:01Z/2018-08-01T13:01:01Z"]}
        from geomedia import GeoMediaApi

        api = GeoMediaApi(MediaStore())
        api.handle("POST", "/collections", b'{"id": "pics", "mediaType": "stphoto"}')
        api.handle("PUT", "/collections/pics/items/p1",
                   (FIXTURES / "stphoto.json").read_bytes())
        status, body = api.handle(
            "GET", "/collections/pics/items/p1/visible?point=-122.0878,37.4184889")
        assert (status, body) == (200, out)

    def test_selector_required(self):
        assert main(["at", "--at", "0"]) == 2


class TestConvert:
    def test_to_epoch_matches_reference_timeline(self, capsys):
        code = main(["convert", "--to", "epoch", str(FIXTURES / "moving_point.json")])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["timeline"] == [1533128461000, 1533128462000, 1533128463000]

    def test_idempotent_normalization(self, tmp_path, capsys):
        code = main(["convert", "--to", "iso", str(FIXTURES / "moving_point.json")])
        assert code == 0
        iso_text = capsys.readouterr().out
        iso_file = tmp_path / "iso.json"
        iso_file.write_text(iso_text)
        assert main(["convert", "--to", "epoch", str(iso_file)]) == 0
        via_iso = capsys.readouterr().out
        assert main(["convert", "--to", "epoch", str(FIXTURES / "moving_point.json")]) == 0
        direct = capsys.readouterr().out
        assert via_iso == direct

    def test_malformed_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"type": "MovingPoint"}')
        assert main(["convert", "--to", "iso", str(bad)]) == 1


class TestServe:
    def test_missing_store_exits_one(self, tmp_path, capsys):
        assert main(["serve", "--store", str(tmp_path / "none"),
                     "--addr", "127.0.0.1:0"]) == 1
        assert "no store" in capsys.readouterr().err

    @pytest.mark.parametrize("port", ["99999", "-5"])
    def test_port_that_cannot_be_bound_exits_one(self, store_dir, capsys, port):
        assert main(["serve", "--store", str(store_dir), "--addr", f"127.0.0.1:{port}"]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot bind 127.0.0.1:{port}: ")

    def test_serve_subprocess_answers_collections(self, store_dir, tmp_path):
        import subprocess
        import sys

        with subprocess.Popen(
            [sys.executable, "-m", "geomedia.cli", "serve",
             "--store", str(store_dir), "--addr", "127.0.0.1:0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ) as proc:  # leaving the block closes both pipes
            try:
                banner = proc.stdout.readline()
                assert "http://" in banner
                base = banner.strip().split("on ", 1)[1]
                with urllib.request.urlopen(f"{base}/collections", timeout=5) as resp:
                    assert resp.status == 200
            finally:
                proc.terminate()
                proc.wait(timeout=5)

    def test_sigkill_keeps_every_acknowledged_write(self, store_dir, tmp_path):
        """Writes answered by a `serve` that is then killed outright are all
        served back by the next `serve`, from the snapshot plus the log."""
        import signal
        import subprocess
        import sys

        ingest_reference_track(store_dir, tmp_path)

        def serve():
            proc = subprocess.Popen(
                [sys.executable, "-m", "geomedia.cli", "serve",
                 "--store", str(store_dir), "--addr", "127.0.0.1:0"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            return proc, proc.stdout.readline().strip().split("on ", 1)[1]

        def call(base, method, path, data=None):
            req = urllib.request.Request(base + path, data=data, method=method)
            with urllib.request.urlopen(req, timeout=5) as resp:
                body = resp.read()
                return resp.status, json.loads(body) if body else None

        proc, base = serve()
        try:
            doc = (FIXTURES / "moving_point.json").read_bytes()
            status, stored = call(base, "PUT", "/collections/taxi/items/t2", doc)
            assert status == 201
            for text in ("keep", "drop"):
                status, _ = call(base, "POST", "/collections/taxi/items/t2/annotations",
                                 json.dumps({"kind": "text", "body": text}).encode())
                assert status == 201
            assert call(base, "DELETE", "/collections/taxi/items/t2/annotations/a2")[0] == 204
            _, want = call(base, "GET", "/collections/taxi/items/t2/annotations")
            assert (store_dir / "wal.log").is_file()
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=5)
            proc.stdout.close()
            proc.stderr.close()
        proc, base = serve()
        try:
            _, listing = call(base, "GET", "/collections/taxi/items")
            assert [f["fid"] for f in listing["features"]] == ["t1", "t2"]
            assert call(base, "GET", "/collections/taxi/items/t2") == (200, stored)
            assert call(base, "GET", "/collections/taxi/items/t2/annotations") == (200, want)
            assert [a["body"] for a in want["annotations"]] == ["keep"]
        finally:
            proc.terminate()
            proc.wait(timeout=5)
            proc.stdout.close()
            proc.stderr.close()

    def test_serve_round_trip_and_durability(self, store_dir, tmp_path, capsys):
        ingest_reference_track(store_dir, tmp_path)

        from geomedia.service import GeoMediaServer

        store = MediaStore.load(store_dir)
        server = GeoMediaServer(store, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://{server.address}"
        try:
            with urllib.request.urlopen(f"{base}/collections") as resp:
                assert resp.status == 200
            req = urllib.request.Request(
                f"{base}/collections/taxi/items/t2",
                data=(FIXTURES / "moving_point.json").read_bytes(), method="PUT")
            with urllib.request.urlopen(req) as resp:
                assert resp.status == 201
        finally:
            server.shutdown()
            server.server_close()
        # restart: the PUT must have been flushed before its response
        restarted = MediaStore.load(store_dir)
        assert {r.fid for r in restarted.st_query("taxi")} == {"t1", "t2"}


@pytest.mark.parametrize("flag, value", [("--bbox", "nan,nan,nan,nan"), ("--near", "1,2,inf")])
def test_non_finite_query_values_exit_two(store_dir, tmp_path, flag, value):
    ingest_reference_track(store_dir, tmp_path)
    assert main(["query", "--store", str(store_dir), "--collection", "taxi", f"{flag}={value}"]) == 2


@pytest.mark.parametrize("error", error_classes(), ids=lambda cls: cls.__name__)
def test_exit_code_follows_the_error_code(monkeypatch, capsys, error):
    """As the HTTP service answers an error by its code, so does the exit code:
    2 for a question asked wrongly (BadQuery, KindMismatch), 1 for the rest."""
    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli, "_cmd_convert", fail)
    assert main(["convert", "--to", "iso", "doc.json"]) == (
        2 if error.code in ("BadQuery", "KindMismatch") else 1)
    assert capsys.readouterr().err == "error: boom\n"


def test_init_ingest_and_query_load_no_http_stack(tmp_path):
    """Only serve (and a caller that names GeoMediaApi or GeoMediaServer)
    imports the HTTP service and the stdlib modules under it."""
    import subprocess
    import sys

    script = """if True:
        import sys
        from geomedia.cli import main
        store, track = sys.argv[1:]
        assert main(["init", "--store", store]) == 0
        assert main(["ingest", "--store", store, "--collection", "taxi", "--create",
                     "--media-type", "MovingPoint", track]) == 0
        assert main(["query", "--store", store, "--collection", "taxi"]) == 0
        heavy = ("geomedia.service", "http.server", "ssl", "email", "logging")
        print(sorted(m for m in heavy if m in sys.modules))
        from geomedia import GeoMediaServer
        print(GeoMediaServer.__module__, "http.server" in sys.modules)
    """
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "s"), str(FIXTURES / "moving_point.json")],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-2:] == ["[]", "geomedia.service False"]


def test_serve_loads_no_http_client_tls_email_or_hashlib(store_dir):
    """serve frames HTTP itself and its store checks files by CRC-32: once it
    has answered a request, the process holds none of http.server,
    http.client, ssl, email, hashlib and _hashlib (which maps OpenSSL's
    libcrypto). The request goes over a raw socket, because urllib would load
    ssl into the process."""
    import socket
    import subprocess
    import sys

    script = """if True:
        import sys, threading
        from geomedia.cli import main
        args = ["serve", "--store", sys.argv[1], "--addr", "127.0.0.1:0"]
        threading.Thread(target=main, args=(args,), daemon=True).start()
        sys.stdin.readline()  # the parent has had its answer
        print(sorted(m for m in ("http.server", "http.client", "ssl", "email", "hashlib",
                                 "_hashlib") if m in sys.modules))
    """
    with subprocess.Popen([sys.executable, "-c", script, str(store_dir)], stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        try:
            banner = proc.stdout.readline()
            assert "http://" in banner, proc.stderr.read()
            host, _, port = banner.strip().rsplit("http://", 1)[1].rpartition(":")
            with socket.create_connection((host, int(port)), timeout=5) as sock:
                sock.sendall(b"GET / HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
                data = b""
                while chunk := sock.recv(65536):
                    data += chunk
            assert data.startswith(b"HTTP/1.1 200 ")
            out, err = proc.communicate("\n", timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    assert proc.returncode == 0, err
    assert out.splitlines() == ["[]"]
