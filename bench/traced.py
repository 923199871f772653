"""Run one geomedia CLI command with spans around the package's public functions.

    python3 bench/traced.py TRACE_OUT CLI_ARG...

Every public function and public method of the modules in MODULES is
replaced by a wrapper, under each name it is looked up by (modules import
functions by name, e.g. ``geomedia.query.geo_distance``). Each call is a
span: name, start, end, parent and request id, where a request is one
``GeoMediaApi.handle`` call. Spans of the layer boundaries in WHOLE are kept
one by one; the many small calls below them are summed per (request, name,
parent): count, total and self time. A span's self time is its duration
minus the time of the spans it caused. Everything stays in memory and is
written to TRACE_OUT as JSON when the command ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import signal
import sys
import threading
import time

MODULES = ("service", "store", "rtree", "codec", "query", "fov", "temporal", "geo", "cli")
HANDLE = "service.GeoMediaApi.handle"
FLUSH = "store.MediaStore.flush"
WHOLE = {HANDLE, FLUSH, "cli.main", "store.MediaStore.load", "store.MediaStore.st_query",
         "store.MediaStore.put_feature", "query.evaluate"}


def _wchar() -> int:
    with open("/proc/self/io") as f:
        for line in f:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    return 0


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.requests = 0
        self._ids = itertools.count(1)
        # [id, name, start, end, parent id, request, self s, list items returned, bytes written]
        self.spans: list[list] = []
        self.sums: dict[tuple, list] = {}  # (request, name, parent) -> [count, total, self, items, nonempty]

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.request = 0
        return stack

    def wrap(self, name: str, fn):
        whole = name in WHOLE
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = tracer._stack()
            if name == HANDLE and not stack:
                with tracer._lock:
                    tracer.requests += 1
                    tracer._local.request = tracer.requests
            parent = stack[-1] if stack else None
            # [name, time of child spans, own id if kept whole, id of the nearest whole ancestor]
            ancestor = None if parent is None else parent[2] or parent[3]
            frame = [name, 0.0, next(tracer._ids) if whole else None, ancestor]
            stack.append(frame)
            wchar = _wchar() if name == FLUSH else 0
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                own = dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                items = len(result) if isinstance(result, list) else 0
                request = tracer._local.request
                if whole:
                    written = _wchar() - wchar if name == FLUSH else 0
                    with tracer._lock:
                        tracer.spans.append([frame[2], name, start, end, ancestor, request,
                                             own, items, written])
                key = (request, name, parent[0] if parent else None)
                with tracer._lock:
                    acc = tracer.sums.get(key)
                    if acc is None:
                        acc = tracer.sums[key] = [0, 0.0, 0.0, 0, 0]
                    acc[0] += 1
                    acc[1] += dur
                    acc[2] += own
                    acc[3] += items
                    acc[4] += 1 if items else 0
            return result

        return span

    def install(self) -> None:
        """Wrap every public function and method, under every name that refers to it."""
        modules = [importlib.import_module(f"geomedia.{m}") for m in MODULES]
        wrapped: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self.wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_class(short, obj)
        for name, mod in list(sys.modules.items()):
            if name == "geomedia" or name.startswith("geomedia."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in wrapped:
                        setattr(mod, attr, wrapped[id(obj)])

    def _wrap_class(self, short: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, obj.__func__)))
            elif isinstance(obj, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, obj.__func__)))
            elif inspect.isfunction(obj):
                setattr(cls, attr, self.wrap(name, obj))

    def dump(self, path: str) -> None:
        with self._lock:
            sums = [[*k, *v] for k, v in self.sums.items()]
            data = {"spans": self.spans, "sums": sums}
        with open(path, "w") as f:
            json.dump(data, f)


def _stop(signum, frame):
    raise KeyboardInterrupt(f"signal {signum}")


def main(argv: list[str]) -> int:
    out, cli_args = argv[0], argv[1:]
    signal.signal(signal.SIGTERM, _stop)    # serve ends its loop and the trace is written
    tracer = Tracer()
    tracer.install()
    from geomedia import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
