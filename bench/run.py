"""End-to-end benchmark of geomedia through ``geomedia serve``; see README.md.

    python3 bench/run.py --workload map_browse --seed 1 --seconds 8 --trace 0

Run from the root of a source checkout. The benchmark builds a store from
seeded documents with ``geomedia ingest``, starts ``geomedia serve`` and
drives it from one client over one keep-alive connection, one action at a
time. Answers are checked against oracle.py after the timed loop. The last
line of standard output is one JSON object with the run's metrics.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import actions
import gen
import selfcheck

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
HANDLE = "service.GeoMediaApi.handle"
KIND_OF = dict(gen.COLLECTIONS + (gen.DASHCAM,))


@dataclass(frozen=True)
class Workload:
    per_kind: int                     # features per kind in each of the four collections
    mix: tuple[tuple[str, int], ...]  # actions of one round
    query: str                        # the action class behind query_p50_ms / query_tail_ms
    tail: float                       # percentile of query_tail_ms
    restarts: int                     # restarts per untraced run, besides the set-up's start
    dashcam: bool = False
    writes: bool = False


WORKLOADS = {
    "map_browse": Workload(5000, (("window", 12), ("view", 2)), "window", 0.90, 2),
    "spot_search": Workload(1000, (("visible", 10), ("near", 3), ("view", 2), ("dashcam", 1)),
                            "visible", 0.85, 5, dashcam=True),
    "label_upload": Workload(1000, (("upload", 2), ("label", 2), ("window", 12), ("view", 2)),
                             "window", 0.85, 5, writes=True),
}


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def _cli(trace: Path | None) -> list[str]:
    if trace is None:
        return [sys.executable, "-m", "geomedia.cli"]
    return [sys.executable, str(HERE / "traced.py"), str(trace)]


def _proc_field(pid: int, name: str, key: str) -> int:
    with open(f"/proc/{pid}/{name}") as f:
        for line in f:
            if line.startswith(key):
                return int(line.split()[1])
    raise KeyError(key)


def _run_cli(cmd: list[str], log: Path) -> None:
    with open(log, "ab") as err:
        done = subprocess.run(cmd, env=_env(), cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err,
                              timeout=600)
    if done.returncode != 0:
        tail = log.read_text(errors="replace")[-2000:]
        raise RuntimeError(f"geomedia {cmd[cmd.index('--store') - 1]} exited with "
                           f"{done.returncode}:\n{tail}")


class Server:
    """A ``geomedia serve`` subprocess and one keep-alive connection to it."""

    def __init__(self, store: Path, log: Path, trace: Path | None = None):
        self.proc = None
        self.conn = None
        self._log = open(log, "ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            _cli(trace) + ["serve", "--store", str(store), "--addr", "127.0.0.1:0"],
            env=_env(), cwd=ROOT, stdout=subprocess.PIPE, stderr=self._log)
        line = self.proc.stdout.readline().decode()
        if not line.startswith("serving"):
            self.stop()
            raise RuntimeError(f"server did not start (see {log})")
        port = int(line.strip().rsplit(":", 1)[1])
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        status = self.request("GET", "/")[0]
        self.start_s = time.perf_counter() - start
        if status != 200:
            self.stop()
            raise RuntimeError(f"server answered {status} to GET /")

    def request(self, method: str, path: str, body: bytes | None = None):
        """(status, body bytes, seconds) of one exchange."""
        start = time.perf_counter()
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self.conn.request(method, path, body=body, headers=headers)
        resp = self.conn.getresponse()
        data = resp.read()
        return resp.status, data, time.perf_counter() - start

    def get_json(self, path: str):
        status, data, _ = self.request("GET", path)
        return status, json.loads(data) if data else None

    def wchar(self) -> int:
        return _proc_field(self.proc.pid, "io", "wchar:")

    def peak_rss_mb(self) -> float:
        return _proc_field(self.proc.pid, "status", "VmHWM:") / 1024

    def stop(self) -> None:
        if self.conn is not None:
            self.conn.close()
        if self.proc is not None and self.proc.poll() is None:
            # SIGTERM, not SIGINT: a process started in the background of a
            # shell may inherit SIGINT ignored, and would then never stop.
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc is not None:
            self.proc.stdout.close()
        self._log.close()


class Run:
    def __init__(self, name: str, seed: int, seconds: int, trace: bool):
        self.name, self.wl, self.seed = name, WORKLOADS[name], seed
        self.seconds, self.trace = seconds, trace
        self.dir = WORK / f"{name}-{seed}-{os.getpid()}"
        self.servers: list[Server] = []
        self.report: list[str] = []

    # -- set-up ---------------------------------------------------------------------

    def write_documents(self) -> actions.Model:
        docs = {}
        if self.wl.dashcam:          # first, so later ingests reload 12 documents, not 4000
            docs[gen.DASHCAM[0]] = gen.make_dashcam()
        docs.update(gen.make_store(self.seed, self.wl.per_kind))
        model = actions.Model(docs, self.wl.writes)
        for cid, coll in docs.items():
            folder = self.dir / "docs" / cid
            folder.mkdir(parents=True)
            for fid, doc in coll.items():
                data = json.dumps(doc).encode()
                (folder / f"{fid}.json").write_bytes(data)
                model.doc_bytes[(cid, fid)] = len(data)
        return model

    def setup(self, model: actions.Model, store: Path) -> tuple[Server, float]:
        """``geomedia ingest`` of every collection, then serve until the first answer."""
        traces = self.dir / "trace"
        if self.trace:
            traces.mkdir(exist_ok=True)
        log = self.dir / "server.log"
        start = time.perf_counter()
        _run_cli(_cli(None) + ["init", "--store", str(store)], log)
        for cid in model.docs:
            files = sorted((self.dir / "docs" / cid).iterdir())
            trace = traces / f"ingest-{cid}.json" if self.trace else None
            _run_cli(_cli(trace) + ["ingest", "--store", str(store), "--collection", cid,
                                    "--create", "--media-type", KIND_OF[cid],
                                    *map(str, files)], log)
        server = Server(store, log, traces / "server.json" if self.trace else None)
        self.servers.append(server)
        return server, time.perf_counter() - start

    # -- timed loop ------------------------------------------------------------------

    def loop(self, server: Server, maker: actions.ActionMaker, records: list,
             min_rounds: int, seconds: float):
        """Whole rounds, at least min_rounds and until seconds have passed;
        returns (rounds, seconds spent in actions)."""
        begin = time.perf_counter()
        rounds, busy = 0, 0.0
        while rounds < min_rounds or time.perf_counter() - begin < seconds:
            for action in maker.round(self.wl.mix):
                start = time.perf_counter()
                resps = [server.request(*req) for req in action.requests]
                took = time.perf_counter() - start
                busy += took
                records.append((action, resps, took))
            rounds += 1
        return rounds, busy

    def min_rounds(self) -> int:
        """Rounds that give the tail percentile at least ten samples beyond it."""
        per_round = dict(self.wl.mix)[self.wl.query]
        need = math.ceil(10 / (1 - self.wl.tail)) + 1
        return math.ceil(need / per_round)

    # -- checks ------------------------------------------------------------------

    def check(self, records: list) -> tuple[int, list[str]]:
        failed, errors = 0, []
        for action, resps, _ in records:
            err = action.check(resps)
            if action.expect_failure:
                failed += 1
            elif err is not None:
                failed += 1
                errors.append(f"{action.cls}: {err}")
        return failed, errors

    def check_durable(self, server: Server, model: actions.Model) -> list[str]:
        """After a restart every acknowledged write is served back."""
        errors = []
        for cid, docs in model.docs.items():
            status, body = server.get_json(f"/collections/{cid}")
            if status != 200 or body["featureCount"] != len(docs):
                errors.append(f"restart: {cid} holds {body and body.get('featureCount')} "
                              f"features, expected {len(docs)}")
        rng = random.Random(self.seed)
        probe = set(model.uploaded)
        for cid, docs in model.docs.items():
            probe.update((cid, fid) for fid in rng.sample(sorted(docs), 5))
        for cid, fid in sorted(probe):
            status, body = server.get_json(f"/collections/{cid}/items/{fid}")
            if status != 200 or body != model.docs[cid][fid]:
                errors.append(f"restart: {cid}/{fid} differs from the acknowledged write")
        for (cid, fid), anns in sorted(model.anns.items()):
            status, body = server.get_json(f"/collections/{cid}/items/{fid}/annotations")
            want = [anns[aid] for aid in sorted(anns)]
            err = actions._check_annotations(body["annotations"], want) if status == 200 \
                else f"status {status}"
            if err:
                errors.append(f"restart: annotations of {cid}/{fid}: {err}")
        return errors

    # -- the run ----------------------------------------------------------------------

    def execute(self) -> dict:
        clock = time.perf_counter()
        phases = {}

        def phase(name):
            nonlocal clock
            now = time.perf_counter()
            phases[name] = now - clock
            clock = now

        model = self.write_documents()
        phase("documents")
        store = self.dir / "store"
        server, setup = self.setup(model, store)
        restarts = [server.start_s]           # the set-up's first start is a restart too
        phase("setup")
        maker = actions.ActionMaker(self.seed, self.name, model, gen.dashcam_points(
            model.docs.get(gen.DASHCAM[0], {})))
        records: list = []
        segments = 1 if self.trace else self.wl.restarts
        rounds, busy, written, rss = 0, 0.0, 0, 0.0
        for i in range(1, segments + 1):
            # The loop runs in segments with a restart after each, so the
            # restarts sample the whole run rather than one moment of it.
            wchar0 = server.wchar()
            want = math.ceil(self.min_rounds() * i / segments) - rounds
            done, took = self.loop(server, maker, records, want, self.seconds / segments)
            rounds, busy = rounds + done, busy + took
            written += server.wchar() - wchar0
            rss = max(rss, server.peak_rss_mb())
            self.servers.pop().stop()
            server = Server(store, self.dir / "server.log")
            self.servers.append(server)
            restarts.append(server.start_s)
        phase("loop and restarts")
        extra: list = []
        if self.trace:
            _, busy_plain = self.loop(server, maker, extra, rounds, 0)
            phase("untraced loop")
        failed, errors = self.check(records + extra)
        phase("check")
        errors += self.check_durable(server, model)
        size = sum(p.stat().st_size for p in store.iterdir())
        self.servers.pop().stop()
        phase("durability")
        self.report.append("phases: " + ", ".join(f"{k} {v:.1f} s" for k, v in phases.items())
                           + f"; restart_s of {len(restarts)}: "
                           + ", ".join(f"{r:.3f}" for r in restarts))
        user = sum(model.doc_bytes.values()) + sum(model.ann_bytes.values())
        attempted = len(records) + len(extra)
        result = {"correct": not errors, "attempted": attempted, "failed": failed}
        for e in errors[:20]:
            print(f"CHECK FAILED {e}", file=sys.stderr)
        loop = {"records": records, "rounds": rounds, "busy": busy, "failed": failed}
        if self.trace:
            overhead = busy / busy_plain - 1
            result["metrics"] = self.layer_metrics(records, overhead)
        else:
            result["metrics"] = self.end_to_end(loop, setup, restarts, rss, size / user,
                                                written)
        return result

    # -- metrics ------------------------------------------------------------------------

    def _latencies(self, records, cls: str) -> list[float]:
        return sorted(took * 1000 for action, _, took in records
                      if action.cls == cls and not action.expect_failure)

    def _tail(self, samples: list[float]) -> float:
        """Nearest-rank percentile self.wl.tail; at least ten samples lie beyond it."""
        rank = math.ceil(self.wl.tail * len(samples))
        if len(samples) - rank < 10:
            raise RuntimeError(f"{len(samples)} samples give no p{self.wl.tail * 100:g}")
        return samples[rank - 1]

    def end_to_end(self, loop, setup, restarts, rss, space_amp, written) -> dict:
        restart = statistics.median(restarts)
        records = loop["records"]
        query = self._latencies(records, self.wl.query)
        view = self._latencies(records, "view")
        done = len(records) - loop["failed"]
        mutations = sum(1 for a, _, _ in records if a.mutation)
        metrics = {
            "setup_s": (setup, "s"),
            "query_p50_ms": (statistics.median(query), "ms"),
            "query_tail_ms": (self._tail(query), "ms"),
            "view_p50_ms": (statistics.median(view), "ms"),
            "actions_per_s": (done / loop["busy"], "1/s"),
            "space_amp": (space_amp, "ratio"),
            "server_rss_mb": (rss, "MB"),
        }
        # The same figures under the action-class names, with the classes the
        # gated set leaves out (they exist on one workload only).
        pct = f"p{self.wl.tail * 100:g}"
        self.report.append(f"workload {self.name} seed {self.seed}: {loop['rounds']} rounds, "
                           f"{len(records)} actions, {loop['failed']} failed")
        self.report.append(f"setup_s {setup:.3f} s")
        self.report.append(f"restart_s {restart:.3f} s (median of {len(restarts)})")
        for cls in ("window", "visible", "near", "view", "upload", "label", "dashcam"):
            lat = self._latencies(records, cls)
            if not lat:
                continue
            line = f"{cls}_p50_ms {statistics.median(lat):.3f} ms (n={len(lat)})"
            if len(lat) - math.ceil(self.wl.tail * len(lat)) >= 10:
                line += f"  {cls}_tail_ms {self._tail(lat):.3f} ms ({pct})"
            self.report.append(line)
        if mutations:
            self.report.append(f"write_bytes_per_op {written / mutations:.0f} bytes "
                               f"({mutations} mutations)")
        return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    def layer_metrics(self, records, overhead: float) -> dict:
        trace = self.dir / "trace"
        server = json.loads((trace / "server.json").read_text())
        ingests = [json.loads(p.read_text()) for p in sorted(trace.glob("ingest-*.json"))]
        first = 2                                  # request 1 is the set-up's GET /
        loop_rows = [r for r in server["sums"] if r[0] >= first]
        load_rows = [r for r in server["sums"] if r[0] == 0]
        n = len(records)

        def total(rows, name, field):             # field: 3 count, 4 total, 5 self, 6 items, 7 nonempty
            return sum(r[field] for r in rows if r[1] == name)

        def per_action(name, field, scale=1.0):
            return total(loop_rows, name, field) * scale / n

        def ratio(a, b):
            return a / b if b else 0.0

        handles = sorted((s for s in server["spans"] if s[1] == HANDLE and s[5] >= first),
                         key=lambda s: s[5])
        latencies = [took for _, resps, _ in records for _, _, took in resps]
        if len(handles) != len(latencies):
            raise RuntimeError(f"{len(handles)} traced requests for {len(latencies)} sent")
        http_s = sum(lat - (s[3] - s[2]) for lat, s in zip(latencies, handles))
        windows = [len(r[1]) for a, resps, _ in records if a.cls == "window" for r in resps]
        scanned = 0
        requests = {r[0] for r in loop_rows}
        for req in requests:
            rows = [r for r in loop_rows if r[0] == req]
            searched = total(rows, "rtree.RTree.search", 6)
            scanned += searched if total(rows, "rtree.RTree.search", 3) else \
                total(rows, "store.MediaStore.st_query", 6)
        flushes = [s for s in server["spans"] if s[1] == "store.MediaStore.flush" and s[5] >= first]
        parse_rows = [r for t in ingests for r in t["sums"]] + server["sums"]
        ms = 1000.0
        m = {
            "service.handle_ms": (per_action(HANDLE, 5, ms), "ms"),
            "service.http_ms": (http_s * ms / n, "ms"),
            "service.response_bytes": (ratio(sum(windows), len(windows)), "bytes"),
            "rtree.searches": (per_action("rtree.RTree.search", 3), "count"),
            "rtree.search_ms": (per_action("rtree.RTree.search", 5, ms), "ms"),
            "rtree.candidates_per_match": (ratio(total(loop_rows, "rtree.RTree.search", 6),
                                                 total(loop_rows, "query.evaluate", 6)), "ratio"),
            "rtree.inserts": (total(load_rows, "rtree.RTree.insert", 3), "count"),
            "rtree.insert_ms": (total(load_rows, "rtree.RTree.insert", 5) * ms, "ms"),
            "rtree.delete_ms": (per_action("rtree.RTree.delete", 5, ms), "ms"),
            "store.st_query_ms": (per_action("store.MediaStore.st_query", 5, ms), "ms"),
            "store.scanned_per_query": (ratio(scanned, total(loop_rows, "store.MediaStore.st_query", 3)),
                                        "count"),
            "store.load_ms": (total(load_rows, "store.MediaStore.load", 4) * ms, "ms"),
            "store.put_feature_ms": (per_action("store.MediaStore.put_feature", 5, ms), "ms"),
            "store.flushes": (per_action("store.MediaStore.flush", 3), "count"),
            "store.flush_ms": (per_action("store.MediaStore.flush", 5, ms), "ms"),
            "store.flush_bytes": (ratio(sum(s[8] for s in flushes), len(flushes)), "bytes"),
            "codec.parse_docs": (total(parse_rows, "codec.parse_document", 3), "count"),
            "codec.parse_ms": (total(parse_rows, "codec.parse_document", 5) * ms, "ms"),
            "codec.to_obj_docs": (per_action("codec.document_to_obj", 3), "count"),
            "codec.to_obj_ms": (per_action("codec.document_to_obj", 5, ms), "ms"),
            "query.evaluate_ms": (per_action("query.evaluate", 5, ms), "ms"),
            "query.visible_intervals_calls": (per_action("query.visible_intervals", 3), "count"),
            "query.visible_intervals_ms": (per_action("query.visible_intervals", 5, ms), "ms"),
            "query.visible_hit_ratio": (ratio(total(loop_rows, "query.visible_intervals", 7),
                                              total(loop_rows, "query.visible_intervals", 3)),
                                        "ratio"),
            "query.fov_at_calls": (per_action("query.fov_at", 3), "count"),
            "fov.contains_calls": (per_action("fov.fov_contains", 3), "count"),
            "fov.contains_ms": (per_action("fov.fov_contains", 5, ms), "ms"),
            "temporal.at_calls": (per_action("temporal.MovingPoint.at", 3), "count"),
            "temporal.at_ms": (per_action("temporal.MovingPoint.at", 5, ms), "ms"),
            "temporal.heading_at_ms": (per_action("temporal.MovingPoint.heading_at", 5, ms), "ms"),
            "geo.distance_calls": (per_action("geo.geo_distance", 3), "count"),
            "geo.distance_ms": (per_action("geo.geo_distance", 5, ms), "ms"),
            "cli.ingest_s": (sum(total(t["sums"], "cli.main", 4) for t in ingests), "s"),
            "trace.overhead_pct": (overhead * 100, "%"),
        }
        self.report += self.breakdown(records, server, handles, latencies)
        return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}

    def breakdown(self, records, server, handles, latencies) -> list[str]:
        """Self time per action of each class, by module, and the HTTP remainder."""
        cls_of, req = {}, 2
        for action, resps, _ in records:
            for _ in resps:
                cls_of[req] = action.cls
                req += 1
        per: dict[str, dict[str, float]] = {}
        for r in server["sums"]:
            cls = cls_of.get(r[0])
            if cls is not None:
                mod = r[1].split(".", 1)[0]
                per.setdefault(cls, {}).setdefault(mod, 0.0)
                per[cls][mod] += r[5]
        for lat, s in zip(latencies, handles):
            d = per.setdefault(cls_of[s[5]], {})
            d["http"] = d.get("http", 0.0) + lat - (s[3] - s[2])
        counts: dict[str, int] = {}
        for action, _, _ in records:
            counts[action.cls] = counts.get(action.cls, 0) + 1
        lines = []
        for cls, mods in sorted(per.items()):
            parts = ", ".join(f"{k} {v * 1000 / counts[cls]:.2f}"
                              for k, v in sorted(mods.items(), key=lambda kv: -kv[1]))
            lines.append(f"traced ms per {cls} action (n={counts[cls]}): {parts}")
        return lines


def _interrupted(signum, frame):
    raise KeyboardInterrupt(f"signal {signum}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "geomedia" / "cli.py").is_file():
        print(f"error: no geomedia sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    selfcheck.check()
    signal.signal(signal.SIGTERM, _interrupted)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.dir.mkdir(parents=True)
    try:
        result = run.execute()
    finally:
        while run.servers:
            run.servers.pop().stop()
        shutil.rmtree(run.dir, ignore_errors=True)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{name}.json").write_text(json.dumps({"report": run.report, **result}, indent=1))
    for line in run.report:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
