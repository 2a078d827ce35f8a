"""Spans around the program's public entry points, for traced runs only.

The benchmark never edits the program.  A traced process (see
``launcher.py``) imports the package, then :func:`install` replaces each
listed entry point with a wrapper that records one span per call: name,
start, end, parent span, request id and thread.  Spans stay in memory
and :meth:`Tracer.dump` writes them out when the process ends.

Request ids come from the ``X-Bench-Id`` header the load generator sends
(read by the HTTP handler wrapper) or, for a CLI process, from the
``PERFBENCH_RID`` environment variable.  Spans opened on a thread with
no current request carry ``None``.

The second half of the module turns span files plus the load
generator's op records into the per-layer metrics and a Chrome
trace-event file.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import sys
import threading
import time

RID_HEADER = "X-Bench-Id"
RID_ENV = "PERFBENCH_RID"


class Tracer:
    """In-memory span recorder shared by every wrapper in one process."""

    def __init__(self, default_rid: str | None = None):
        self.default_rid = default_rid
        self.records: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._seen_lock = threading.Lock()
        self._synced: set[int] = set()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_rid(self) -> str | None:
        return getattr(self._local, "rid", None) or self.default_rid

    def record(self, name: str, t0: float, t1: float, extra=None) -> None:
        """Record a finished span that no wrapper measured (e.g. import)."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        self.records.append((next(self._ids), name, t0, t1, parent,
                             self.current_rid(), threading.get_ident(),
                             extra or {}))

    def first_sync(self, obj) -> bool:
        """True the first time a maintained surface is synced."""
        with self._seen_lock:
            if id(obj) in self._synced:
                return False
            self._synced.add(id(obj))
            return True

    def wrap(self, fn, name: str, rid_from=None, prepare=None, extra=None):
        """``fn`` wrapped in a span called ``name``.

        ``rid_from(args)`` makes the span a request root: it sets the
        thread's request id for the call.  ``prepare(args, kwargs)`` may
        rewrite the arguments before the call (without changing their
        meaning); ``extra(args, kwargs, result)`` returns span attributes.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._local
            stack = tracer._stack()
            if rid_from is not None:
                local.rid = rid_from(args)
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            rid = tracer.current_rid()
            stack.append(sid)
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                attrs = extra(args, kwargs, result) if extra is not None else {}
                tracer.records.append((sid, name, t0, t1, parent, rid,
                                       threading.get_ident(), attrs))
                if rid_from is not None:
                    local.rid = None

        return traced

    def dump(self, path: str, counters: dict) -> None:
        """Write every recorded span plus end-of-run counters as JSON."""
        payload = {"pid": os.getpid(), "spans": self.records,
                   "counters": counters}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


# -- installation --------------------------------------------------------


def _replace_everywhere(fn, wrapped) -> int:
    """Rebind every ``repro`` module attribute that *is* ``fn``.

    Functions imported by name (``from .core.kdv import kde_grid`` in the
    CLI) live on in several modules; patching only the defining module
    would miss those call sites.  Returns how many bindings changed.
    """
    n = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, wrapped)
                n += 1
    return n


def _listify(position: int, keyword: str):
    """``prepare`` hook turning an iterable argument into a list, so the
    wrapper can count tasks without consuming a one-shot iterator."""
    def prepare(args, kwargs):
        if len(args) > position:
            args = args[:position] + (list(args[position]),) + args[position + 1:]
        elif keyword in kwargs:
            kwargs = dict(kwargs, **{keyword: list(kwargs[keyword])})
        return args, kwargs
    return prepare


def _task_count(position: int, keyword: str):
    def extra(args, kwargs, result):
        items = args[position] if len(args) > position else kwargs.get(keyword, ())
        return {"tasks": len(items)}
    return extra


def _arg(args, kwargs, position, keyword, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(keyword, default)


def install(tracer: Tracer) -> None:
    """Wrap every instrumented entry point in a span recorder."""
    import repro.cli  # noqa: F401 - its by-name imports must exist first
    from repro import parallel
    from repro.core import kernels, request, scatter
    from repro.core.kdv import api as kdv_api
    from repro.core.kdv import planner
    from repro.core.kfunction import envelope, planar
    from repro.core.pipeline import HotspotAnalysis
    from repro.data import io as data_io
    from repro.index.grid import GridIndex
    from repro.index.kdtree import KDTree
    from repro.raster import image
    from repro.serve.cache import LRUCache
    from repro.serve.coalesce import Coalescer
    from repro.serve.frontend import ReproRequestHandler
    from repro.serve.service import AnalyticsService, TileResult
    from repro.serve.surfaces import MaintainedSurface
    from repro.stream import StreamingKDV

    def method(cls, attr, name, **kw):
        setattr(cls, attr, tracer.wrap(cls.__dict__[attr], name, **kw))

    def function(module, attr, name, **kw):
        fn = getattr(module, attr)
        if _replace_everywhere(fn, tracer.wrap(fn, name, **kw)) == 0:
            raise RuntimeError(f"no binding of {module.__name__}.{attr} found")

    # frontend
    rid = lambda args: args[0].headers.get(RID_HEADER)  # noqa: E731
    method(ReproRequestHandler, "do_GET", "frontend.handler", rid_from=rid)
    method(ReproRequestHandler, "do_POST", "frontend.handler", rid_from=rid)
    method(TileResult, "to_payload", "frontend.payload")
    # service (+ cache, coalesce)
    method(AnalyticsService, "tile", "service.tile")
    method(AnalyticsService, "ingest", "service.ingest")
    method(AnalyticsService, "query", "service.query")
    method(LRUCache, "get", "service.cache_get")
    method(LRUCache, "put", "service.cache_put")
    method(LRUCache, "invalidate", "service.cache_invalidate")
    method(Coalescer, "run", "service.coalesce")
    # surfaces (+ stream)
    method(MaintainedSurface, "__init__", "surfaces.init",
           extra=lambda a, k, r: {"obj": id(a[0])})
    # A surface's first sync belongs to its build (surfaces.build_ms).
    method(MaintainedSurface, "sync", "surfaces.sync",
           extra=lambda a, k, r: {"obj": id(a[0]), "dirty": len(r or ()),
                                  "first": tracer.first_sync(a[0])})
    method(MaintainedSurface, "tile_values", "surfaces.tile_values")
    method(StreamingKDV, "apply", "surfaces.stream_apply")
    # scatter + kernels
    method(scatter.PatchScatter, "scatter", "scatter.scatter",
           extra=lambda a, k, r: _scatter_attrs(a, r))
    pending, seen = [kernels.Kernel], set()
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        pending.extend(cls.__subclasses__())
        if "evaluate_sq" in cls.__dict__:
            method(cls, "evaluate_sq", "kernels.evaluate_sq")
    # kdv
    function(kdv_api, "kde_grid", "kdv.kde_grid")
    function(planner, "plan_kdv", "kdv.plan")
    # request
    function(request, "plan_request", "request.plan")
    function(request, "execute_request", "request.execute")
    # kfunction (+ index)
    function(envelope, "k_function_plot", "kfunction.plot",
             extra=lambda a, k, r: {"sims": int(_arg(a, k, 3, "n_simulations", 99))})
    function(planar, "k_function", "kfunction.k_function")
    method(GridIndex, "count_within_thresholds", "index.count")
    method(KDTree, "count_within_thresholds", "index.count")
    # hotspot
    method(HotspotAnalysis, "run", "hotspot.run")
    # parallel
    function(parallel, "parallel_map", "parallel.map",
             prepare=_listify(1, "items"), extra=_task_count(1, "items"))
    function(parallel, "parallel_starmap", "parallel.map",
             prepare=_listify(1, "argtuples"), extra=_task_count(1, "argtuples"))
    # data + raster
    function(data_io, "read_dataset_csv", "data.read_csv")
    function(image, "render_rgb", "raster.render")
    function(image, "write_ppm", "raster.write_ppm")


def _scatter_attrs(args, result) -> dict:
    scatterer, values = args[0], args[1]
    patch_pixels = int(result[1]) if result else 0
    surfaces = values.shape[0] if values.ndim == 3 else 1
    return {"patch_pixels": patch_pixels,
            "bytes": patch_pixels * surfaces * scatterer.dtype.itemsize}


def end_counters() -> dict:
    """Counters read once when a traced process ends."""
    from repro.core.kdv import plan_cache_info

    return {"plan_cache": plan_cache_info()}


# -- analysis --------------------------------------------------------------


class SpanSet:
    """Spans of several traced processes, indexed for per-op queries."""

    def __init__(self, files: list[dict]):
        self.spans = []      # dicts
        by_key = {}
        for f_index, payload in enumerate(files):
            for sid, name, t0, t1, parent, rid, tid, extra in payload["spans"]:
                span = {"key": (f_index, sid), "name": name, "t0": t0,
                        "t1": t1, "dur": t1 - t0, "rid": rid, "tid": tid,
                        "pid": payload["pid"], "extra": extra,
                        "parent": None if parent is None else (f_index, parent)}
                by_key[span["key"]] = span
                self.spans.append(span)
        self.by_key = by_key
        self.children: dict = {}
        for span in self.spans:
            if span["parent"] in by_key:
                self.children.setdefault(span["parent"], []).append(span)
        self.by_rid: dict = {}
        for span in self.spans:
            self.by_rid.setdefault(span["rid"], []).append(span)
        self.counters = [f.get("counters", {}) for f in files]

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def outermost(self, span) -> bool:
        parent = self.by_key.get(span["parent"])
        while parent is not None:
            if parent["name"] == span["name"]:
                return False
            parent = self.by_key.get(parent["parent"])
        return True

    def self_seconds(self, span) -> float:
        return span["dur"] - sum(c["dur"] for c in self.children.get(span["key"], ()))

    def op_spans(self, rid, name) -> list:
        return [s for s in self.by_rid.get(rid, ()) if s["name"] == name
                and self.outermost(s)]


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _mean(values) -> float:
    return float(statistics.fmean(values)) if values else 0.0


#: ``*_ms`` layer metrics: (metric, span name, op kind or None for any).
#: Value: median over the measured ops of that kind which entered the
#: span, of the op's total time in its outermost spans of that name.
#: Kind ``"*"``: median over every span of that name, in any phase.
SPAN_MS = (
    ("frontend.handler_ms", "frontend.handler", "primary"),
    ("frontend.payload_ms", "frontend.payload", "tile"),
    ("service.tile_ms", "service.tile", "tile"),
    ("service.ingest_ms", "service.ingest", "ingest"),
    ("service.query_ms", "service.query", "query"),
    ("surfaces.sync_ms", "surfaces.sync", "ingest"),
    ("surfaces.tile_values_ms", "surfaces.tile_values", "tile"),
    ("scatter.scatter_ms", "scatter.scatter", None),
    ("kernels.evaluate_sq_ms", "kernels.evaluate_sq", None),
    ("kdv.kde_grid_ms", "kdv.kde_grid", None),
    ("kdv.plan_ms", "kdv.plan", None),
    ("data.read_csv_ms", "data.read_csv", None),
    ("raster.render_ms", "raster.render", None),
    ("raster.write_ppm_ms", "raster.write_ppm", None),
    ("cli.import_ms", "cli.import", "*"),
    ("request.plan_ms", "request.plan", None),
    ("request.execute_ms", "request.execute", None),
    ("kfunction.plot_ms", "kfunction.plot", None),
    ("kfunction.observed_ms", "kfunction.k_function", None),
    ("kfunction.index_ms", "index.count", None),
    ("hotspot.run_ms", "hotspot.run", None),
    ("parallel.map_ms", "parallel.map", None),
)

#: Per-op counts: (metric, span name, attribute or None for calls).
#: Value: mean over measured ops that entered the span.
SPAN_COUNTS = (
    ("scatter.calls", "scatter.scatter", None),
    ("scatter.patch_pixels", "scatter.scatter", "patch_pixels"),
    ("scatter.bytes_computed", "scatter.scatter", "bytes"),
    ("kfunction.simulations", "kfunction.plot", "sims"),
    ("parallel.tasks", "parallel.map", "tasks"),
)

#: Span names a traced run must record on the workload where that layer
#: is predicted to do most of its work; zero spans fail the run (a
#: wrapper patched onto a binding nobody calls records nothing).
REQUIRED_SPANS = {
    "serve-warm": ("frontend.handler", "frontend.payload", "service.tile",
                   "service.cache_get",
                   # the analyst session: queries, then `repro kdv` runs
                   "service.query", "request.plan", "request.execute",
                   "kfunction.plot", "kfunction.k_function", "index.count",
                   "hotspot.run", "parallel.map", "cli.import",
                   "data.read_csv", "kdv.kde_grid", "kdv.plan",
                   "scatter.scatter", "kernels.evaluate_sq", "raster.render",
                   "raster.write_ppm"),
    "serve-ingest": ("surfaces.sync", "surfaces.tile_values",
                     "surfaces.init",
                     "service.ingest", "scatter.scatter"),
}


def layer_metrics(spans: SpanSet, ops: list[dict], primary: str,
                  stats_delta: dict) -> dict[str, float]:
    """Every per-layer metric from one traced run's timed load and its
    analyst session (serve-warm's queries and CLI runs)."""
    measured = [op for op in ops if op["phase"] in ("measure", "analyst")
                and op["ok"]]
    out: dict[str, float] = {}

    def ops_of(kind):
        if kind is None:
            return measured
        kind = primary if kind == "primary" else kind
        return [op for op in measured if op["kind"] == kind]

    for metric, name, kind in SPAN_MS:
        if kind == "*":
            out[metric] = _median([s["dur"] * 1e3 for s in spans.spans
                                   if s["name"] == name])
            continue
        totals = []
        for op in ops_of(kind):
            found = spans.op_spans(op["rid"], name)
            if found:
                totals.append(sum(s["dur"] for s in found) * 1e3)
        out[metric] = _median(totals)

    for metric, name, attr in SPAN_COUNTS:
        per_op = []
        for op in measured:
            found = spans.op_spans(op["rid"], name)
            if found:
                per_op.append(len(found) if attr is None
                              else sum(s["extra"].get(attr, 0) for s in found))
        out[metric] = _mean(per_op)

    primaries = ops_of("primary")
    wire, handler_self = [], []
    for op in primaries:
        handler = spans.op_spans(op["rid"], "frontend.handler")
        if handler:
            wire.append((op["latency"] - handler[0]["dur"]) * 1e3)
    out["frontend.wire_ms"] = _median(wire)
    tiles = ops_of("tile")
    out["frontend.body_bytes"] = _mean([op["bytes"] for op in tiles])

    for metric, name, kind in (("service.tile_self_ms", "service.tile", "tile"),
                               ("service.ingest_self_ms", "service.ingest",
                                "ingest")):
        selfs = []
        for op in ops_of(kind):
            for span in spans.op_spans(op["rid"], name):
                selfs.append(spans.self_seconds(span) * 1e3)
        out[metric] = _median(selfs)

    sync_calls, dirty = [], []
    for op in ops_of("ingest"):
        found = spans.op_spans(op["rid"], "surfaces.sync")
        sync_calls.append(len(found))
        dirty.extend(s["extra"].get("dirty", 0) for s in found)
    out["surfaces.sync_calls"] = _mean(sync_calls)
    out["surfaces.dirty_tiles_per_sync"] = _mean(dirty)

    build: dict = {}
    for span in spans.spans:
        if span["name"] == "surfaces.init" or span["extra"].get("first"):
            obj = (span["pid"], span["extra"].get("obj"))
            build[obj] = build.get(obj, 0.0) + span["dur"] * 1e3
    out["surfaces.build_ms"] = _median(list(build.values()))

    hits = sum(c.get("plan_cache", {}).get("hits", 0) for c in spans.counters)
    misses = sum(c.get("plan_cache", {}).get("misses", 0) for c in spans.counters)
    out["kdv.plan_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

    out.update(stats_delta)
    return out


def service_stats_delta(before: dict | None, after: dict | None) -> dict:
    """Layer metrics read from the server's public ``/stats`` payload,
    as the difference across the timed load and the analyst session.
    ``surfaces`` is the count at the end, and ``coalesced`` the total over
    the server's life, set-up included: the serve-warm set-up is where
    identical requests overlap."""
    keys = ("service.tile_hit_ratio", "service.invalidated_per_ingest",
            "service.tile_evictions", "service.coalesced",
            "service.query_hit_ratio", "service.surfaces")
    if not before or not after:
        return {k: 0.0 for k in keys}

    def counter(snap, name):
        return snap["counters"].get(name, 0)

    def diff(name):
        return counter(after, name) - counter(before, name)

    def ratio(num, den):
        return num / den if den else 0.0

    hits, misses = diff("tile.cache_hit"), diff("tile.cache_miss")
    q_hits, q_misses = diff("query.cache_hit"), diff("query.cache_miss")
    return {
        "service.tile_hit_ratio": ratio(hits, hits + misses),
        "service.invalidated_per_ingest": ratio(diff("tile.invalidated"),
                                                diff("ingest.batches")),
        "service.tile_evictions": float(after["tile_cache"]["evictions"]
                                        - before["tile_cache"]["evictions"]),
        "service.coalesced": float(after["coalescer"]["coalesced"]),
        "service.query_hit_ratio": ratio(q_hits, q_hits + q_misses),
        "service.surfaces": float(after["surfaces"]),
    }


def chrome_trace(spans: SpanSet, ops: list[dict]) -> dict:
    """Spans and client ops as Chrome trace-event JSON (opens in Perfetto).

    ``perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, shared by every
    process on the host, so server, CLI and client spans line up.
    """
    stamps = [s["t0"] for s in spans.spans] + [op["t0"] for op in ops]
    origin = min(stamps) if stamps else 0.0
    events = []
    for s in spans.spans:
        args = {"rid": s["rid"], **{k: v for k, v in s["extra"].items()
                                    if k != "obj"}}
        if s["parent"] is not None:
            args["parent"] = s["parent"][1]
        events.append({"name": s["name"], "ph": "X", "pid": s["pid"],
                       "tid": s["tid"], "ts": (s["t0"] - origin) * 1e6,
                       "dur": s["dur"] * 1e6, "args": args})
    for op in ops:
        events.append({"name": f"client.{op['kind']}", "ph": "X",
                       "pid": "loadgen", "tid": op["client"],
                       "ts": (op["t0"] - origin) * 1e6,
                       "dur": op["latency"] * 1e6,
                       "args": {"rid": op["rid"], "phase": op["phase"],
                                "ok": op["ok"]}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}
