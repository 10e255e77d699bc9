"""Span tracing for the benchmark's traced pass, from outside the program.

:func:`install` wraps the program's layer entry points — at their
definition and at every module that imported them by name, e.g.
``repro.litho.fullchip.find_hotspots`` as well as
``repro.litho.hotspots.find_hotspots`` — with wrappers that record one
span per call into a :class:`Recorder`.  Nothing under ``src/`` changes.

A span is ``(trace_id, span_id, parent_id, name, layer, pid, t0, t1,
n)``: ``t0``/``t1`` are ``time.perf_counter`` readings, which on Linux
come from the system-wide monotonic clock, so spans from different
processes share one time axis; ``n`` is an optional size (the rect
count a store window query returned).  Spans are kept in memory per
thread and appended to ``<trace_dir>/<pid>.jsonl`` whenever the
thread's outermost span closes, so a pool worker killed between tiles
has already written everything it finished.  The recorder resets itself
in forked children, which therefore start with empty stacks and write
their own file.

:func:`load` and :func:`analyze` rebuild the span forest: in-process
parents come from ``parent_id``; a root span (a forked worker's, a
daemon job's, or another thread's) is attached to the innermost
*container* span — a benchmark span, a service job, or a pool run —
of its own or its parent process whose interval contains it and whose
trace id agrees.  A span's self time is its duration minus the part of
that interval its children cover.  A daemon job's wait in the queue is
recorded as a ``service.wait`` span from its submit time to its start.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

# (module[:class], attribute, span name) — the layer is the name's prefix.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.gdsii.io", "read_gds", "gdsii.parse"),
    ("repro.gdsii.stream", "scan_gds", "gdsii.parse"),
    ("repro.gdsii.stream", "flatten", "gdsii.flatten"),
    ("repro.layout.cell:Cell", "region", "layout.flatten"),
    ("repro.layout.store", "ingest", "layout.ingest"),
    ("repro.layout.store:StoreLayer", "window", "layout.window"),
    ("repro.geometry.region:Region", "__init__", "geometry.region"),
    ("repro.geometry.region:Region", "__or__", "geometry.region"),
    ("repro.geometry.region:Region", "__and__", "geometry.region"),
    ("repro.geometry.region:Region", "__sub__", "geometry.region"),
    ("repro.geometry.region:Region", "__xor__", "geometry.region"),
    ("repro.geometry.region:Region", "overlaps", "geometry.region"),
    ("repro.geometry.region:Region", "grown", "geometry.region"),
    ("repro.geometry.region:Region", "scaled", "geometry.region"),
    ("repro.geometry.region:Region", "components", "geometry.region"),
    ("repro.geometry.region:Region", "digest", "geometry.digest"),
    ("repro.geometry.index:GridIndex", "query_into", "geometry.index"),
    ("repro.litho.hotspots", "find_hotspots", "litho.hotspots"),
    ("repro.litho.process", "sweep_contours", "litho.simulate"),
    ("repro.litho.raster", "rasterize", "litho.rasterize"),
    ("repro.litho.raster", "raster_to_region", "litho.contour"),
    ("repro.litho.model:SimCache", "_raster_for", "litho.raster_access"),
    ("repro.drc.checks", "check_width", "drc.check.width"),
    ("repro.drc.checks", "check_spacing", "drc.check.spacing"),
    ("repro.drc.checks", "check_layer_spacing", "drc.check.layer_spacing"),
    ("repro.drc.checks", "check_enclosure", "drc.check.enclosure"),
    ("repro.drc.checks", "check_area", "drc.check.area"),
    ("repro.drc.checks", "check_density", "drc.check.density"),
    ("repro.drc.checks", "check_extension", "drc.check.extension"),
    ("repro.litho.fullchip", "_scan_tile", "parallel.task"),
    ("repro.drc.engine", "_drc_task", "parallel.task"),
    ("repro.parallel.pool:TileExecutor", "run", "parallel.run"),
    ("repro.parallel.pool:TileExecutor", "map", "parallel.run"),
    ("repro.parallel.shm:ShmArena", "pack", "parallel.share"),
    ("repro.parallel.cache", "digest_parts", "parallel.digest"),
    ("repro.service.session:LayoutSession", "__init__", "service.session_load"),
    ("repro.service.core:VerificationService", "_run_job", "service.job"),
    ("repro.matrix.scenarios", "enumerate_scenarios", "matrix.enumerate"),
    ("repro.matrix.report", "build_report", "matrix.report"),
    ("repro.matrix.engine", "run_scenario_check", "matrix.check"),
    ("repro.dpt.decompose", "decompose_dpt", "dpt.decompose"),
)

# A daemon job span carries its client's name as trace id, so it joins
# the benchmark span of the request that submitted it.
_TRACE_OF: dict[str, Callable[[tuple], Any]] = {
    "service.job": lambda args: args[1].client,
}
# Spans whose call was preceded by a wait the program timestamps: the
# job's time in the queue, from submit to dispatch, becomes a
# ``service.wait`` span.  The job's ``time.monotonic`` stamps and
# ``perf_counter`` read the same clock on Linux.
_WAITED_SINCE: dict[str, Callable[[tuple], float]] = {
    "service.job": lambda args: args[1].submitted_monotonic,
}
_SIZE_OF: dict[str, Callable[[Any], int]] = {
    "layout.window": len,
}

# Spans other processes' (and threads') root spans may attach under.
_CONTAINERS = ("parallel.run", "service.job")


def _is_container(name: str) -> bool:
    return name.startswith("bench.") or name in _CONTAINERS


class Recorder:
    """Per-process span sink writing ``<trace_dir>/<pid>.jsonl``."""

    def __init__(self, trace_dir: str) -> None:
        self.trace_dir = trace_dir
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        # runs at construction and in a freshly forked child: either way
        # no other thread can reach this recorder yet
        self._pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._wrote_header = False  # repro-lint: disable=RL008

    def _state(self) -> tuple[list, list]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [])  # (open stack, finished)
        return state

    def _flush(self, done: list) -> None:
        lines = [json.dumps(rec, separators=(",", ":")) for rec in done]
        done.clear()
        with self._lock:
            with open(os.path.join(self.trace_dir, f"{self._pid}.jsonl"), "a") as fh:
                if not self._wrote_header:
                    fh.write(json.dumps({"pid": self._pid, "ppid": os.getppid()}) + "\n")
                    self._wrote_header = True
                fh.write("\n".join(lines) + "\n")

    def _begin(self, trace_id: str | None) -> tuple:
        stack, _ = self._state()
        sid = (self._pid << 32) | next(self._ids)
        parent, inherited = stack[-1] if stack else (None, None)
        trace_id = trace_id if trace_id is not None else inherited
        stack.append((sid, trace_id))
        return sid, parent, trace_id, time.perf_counter()

    def _end(self, token: tuple, name: str, layer: str, size: int | None = None) -> None:
        t1 = time.perf_counter()
        sid, parent, trace_id, t0 = token
        stack, done = self._state()
        stack.pop()
        done.append((trace_id, sid, parent, name, layer, self._pid, t0, t1, size))
        if not stack:
            self._flush(done)

    def _record_root(self, trace_id: str | None, name: str, layer: str,
                     t0: float, t1: float) -> None:
        """A finished span with no in-process parent; called while an
        outer span is open, so it is written when that one closes."""
        _, done = self._state()
        sid = (self._pid << 32) | next(self._ids)
        done.append((trace_id, sid, None, name, layer, self._pid, t0, t1, None))

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` recording one span per call.

        A generator function gets one span per resumption instead, so
        the work done between its yields is charged to it and the
        consumer's work in between is not.
        """
        layer = name.split(".", 1)[0]
        trace_of = _TRACE_OF.get(name)
        size_of = _SIZE_OF.get(name)
        waited_since = _WAITED_SINCE.get(name)
        rec = self

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    token = rec._begin(None)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        rec._end(token, name, layer)
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = rec._begin(trace_of(args) if trace_of is not None else None)
            if waited_since is not None:
                rec._record_root(token[2], f"{layer}.wait", layer, waited_since(args), token[3])
            size = None
            try:
                result = fn(*args, **kwargs)
                if size_of is not None:
                    size = size_of(result)
                return result
            finally:
                rec._end(token, name, layer, size)

        return traced

    @contextmanager
    def span(self, name: str, trace_id: str | None = None) -> Iterator[None]:
        """A benchmark-side span (layer ``bench``)."""
        token = self._begin(trace_id)
        try:
            yield
        finally:
            self._end(token, name, "bench")


def _resolve(owner: str) -> Any:
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def install(recorder: Recorder) -> list[tuple[Any, str, Any]]:
    """Wrap every target; returns the patch list :func:`uninstall` undoes.

    Module-level functions are replaced in every loaded ``repro`` module
    that holds them, so call sites that imported the name directly see
    the wrapper too; methods are replaced under every alias in their
    class (``Region.intersection`` is ``Region.__and__``).
    """
    for module_name in ("repro.api", "repro.cli", "repro.service", "repro.matrix"):
        importlib.import_module(module_name)
    modules = [
        m for n, m in sys.modules.items() if n == "repro" or n.startswith("repro.")
    ]
    patches: list[tuple[Any, str, Any]] = []
    for owner_name, attr, name in TARGETS:
        owner = _resolve(owner_name)
        raw = vars(owner)[attr]
        if isinstance(owner, type):
            if isinstance(raw, classmethod):
                new: Any = classmethod(recorder.wrap(raw.__func__, name))
            else:
                new = recorder.wrap(raw, name)
            holders = [owner]
        else:
            new = recorder.wrap(raw, name)
            holders = modules
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is raw:
                    setattr(holder, key, new)
                    patches.append((holder, key, raw))
    return patches


def uninstall(patches: list[tuple[Any, str, Any]]) -> None:
    for holder, key, original in reversed(patches):
        setattr(holder, key, original)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


@dataclass
class Span:
    trace_id: str | None
    sid: int
    parent: int | None
    name: str
    layer: str
    pid: int
    t0: float
    t1: float
    size: int | None
    children: list["Span"] = field(default_factory=list)
    self_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


def load(trace_dir: str) -> tuple[list[Span], dict[int, int]]:
    """Every span under ``trace_dir`` plus each process's parent pid."""
    spans: list[Span] = []
    ppids: dict[int, int] = {}
    for entry in sorted(os.listdir(trace_dir)):
        if not entry.endswith(".jsonl"):
            continue
        with open(os.path.join(trace_dir, entry)) as fh:
            for line in fh:
                rec = json.loads(line)
                if isinstance(rec, dict):
                    ppids[rec["pid"]] = rec["ppid"]
                else:
                    spans.append(Span(*rec))
    return spans, ppids


def _covered(span: Span) -> float:
    """Length of the union of the children's intervals inside ``span``."""
    total = 0.0
    end = span.t0
    for child in sorted(span.children, key=lambda c: c.t0):
        lo = max(child.t0, end)
        hi = min(child.t1, span.t1)
        if hi > lo:
            total += hi - lo
            end = hi
    return total


def analyze(spans: list[Span], ppids: dict[int, int]) -> list[Span]:
    """Link the forest, attach foreign roots, set self times.

    Returns the spans that stay roots.  Trace ids flow down from a
    span to children that have none, so after this every span of a
    batch rep carries the rep's id and every span of a daemon job its
    client's.
    """
    by_id = {s.sid: s for s in spans}
    roots: list[Span] = []
    for s in spans:
        parent = by_id.get(s.parent) if s.parent is not None else None
        if parent is not None:
            parent.children.append(s)
        else:
            roots.append(s)
    containers: dict[int, list[Span]] = {}
    for s in spans:
        if _is_container(s.name):
            containers.setdefault(s.pid, []).append(s)
    top: list[Span] = []
    for root in roots:
        best: Span | None = None
        for pid in (root.pid, ppids.get(root.pid)):
            for c in containers.get(pid, ()):
                if c is root or not (c.t0 <= root.t0 and root.t1 <= c.t1):
                    continue
                if c.duration < root.duration:
                    continue
                if c.duration == root.duration and c.pid == root.pid:
                    continue  # may be the root's own descendant
                if root.trace_id is not None and c.trace_id not in (None, root.trace_id):
                    continue
                if best is None or c.duration < best.duration:
                    best = c
        if best is None:
            top.append(root)
        else:
            best.children.append(root)
            root.parent = best.sid
    stack = list(top)
    while stack:
        s = stack.pop()
        s.self_s = s.duration - _covered(s)
        for child in s.children:
            if child.trace_id is None:
                child.trace_id = s.trace_id
            stack.append(child)
    return top


def walk(root: Span) -> list[Span]:
    """``root`` and every span below it."""
    out: list[Span] = []
    stack = [root]
    while stack:
        s = stack.pop()
        out.append(s)
        stack.extend(s.children)
    return out


def coverage(roots: list[Span]) -> float:
    """The share of the ``roots``' wall time that program spans cover.

    The benchmark's own spans sit at the top of each tree, so their
    self time is exactly the time no layer span accounts for; time in
    which pool workers run side by side counts once.
    """
    wall = sum(r.duration for r in roots)
    uncovered = sum(s.self_s for r in roots for s in walk(r) if s.layer == "bench")
    return 1.0 - uncovered / wall if wall else 0.0


@dataclass
class Totals:
    count: int = 0
    incl: float = 0.0
    self_s: float = 0.0
    size: int = 0


def totals(spans: list[Span]) -> dict[str, Totals]:
    """Per-span-name call count, inclusive time, self time, and size.

    One derived entry: ``litho.raster_miss`` counts the raster accesses
    that had to rasterize (the rest were served from the cached raster).
    """
    out: dict[str, Totals] = {}
    misses = Totals()
    for s in spans:
        t = out.get(s.name)
        if t is None:
            t = out[s.name] = Totals()
        t.count += 1
        t.incl += s.duration
        t.self_s += s.self_s
        t.size += s.size or 0
        if s.name == "litho.raster_access" and any(
            c.name == "litho.rasterize" for c in s.children
        ):
            misses.count += 1
    out["litho.raster_miss"] = misses
    return out


# Per-layer values that are levels, not sums of work: never rescaled.
NON_ADDITIVE = frozenset({"parallel.payload_bytes", "parallel.workers_peak_rss_mb"})


def additive(name: str) -> bool:
    return name not in NON_ADDITIVE and not name.endswith("_ratio")


def _counter(snapshot: dict, name: str) -> float:
    return float(snapshot.get("counters", {}).get(name, 0))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(by_name: dict[str, Totals], registry: dict, jobs: int) -> dict[str, float]:
    """The per-layer metrics of one group of spans (a rep, or a phase).

    Times come from the spans.  ``registry`` is the
    :class:`repro.obs.MetricsRegistry` snapshot the same work produced;
    it supplies the counts the program already keeps (DRC tasks and
    violations, retries, payload size, service counters).  Service- and
    matrix-side values the benchmark process observes (queue waits, dedup) are
    added by the workload.
    """

    def t(name: str) -> Totals:
        return by_name.get(name) or Totals()

    reg = registry
    task_s = t("parallel.task").incl
    run_s = t("parallel.run").incl
    accesses = t("litho.raster_access").count
    hits = _counter(reg, "tilecache.hits")
    misses = _counter(reg, "tilecache.misses")
    out = {
        "gdsii.parse_s": t("gdsii.parse").incl,
        "gdsii.parse_calls": t("gdsii.parse").count,
        "gdsii.flatten_s": t("gdsii.flatten").incl,
        "layout.flatten_s": t("layout.flatten").incl,
        "layout.flatten_calls": t("layout.flatten").count,
        "layout.ingest_sort_s": t("layout.ingest").self_s,
        "layout.window_calls": t("layout.window").count,
        "layout.window_s": t("layout.window").incl,
        "layout.window_rects": t("layout.window").size,
        "geometry.region_ops": t("geometry.region").count,
        "geometry.region_s": t("geometry.region").self_s,
        "geometry.index_queries": t("geometry.index").count,
        "geometry.index_s": t("geometry.index").self_s,
        "geometry.digest_calls": t("geometry.digest").count,
        "geometry.digest_s": t("geometry.digest").self_s,
        "litho.tiles": t("litho.hotspots").count,
        "litho.hotspots_s": t("litho.hotspots").incl,
        "litho.simulate_s": t("litho.simulate").incl,
        "litho.rasterize_s": t("litho.rasterize").incl,
        "litho.contour_s": t("litho.contour").incl,
        "litho.classify_s": t("litho.hotspots").self_s,
        "litho.raster_reuse_ratio": _ratio(accesses - t("litho.raster_miss").count, accesses),
        "drc.tasks": sum(
            float(v)
            for k, v in reg.get("counters", {}).items()
            if k.startswith("drc.tasks.")
        ),
        "drc.violations": _counter(reg, "drc.violations"),
        "parallel.run_s": run_s,
        "parallel.task_s": task_s,
        "parallel.worker_busy_ratio": _ratio(task_s, run_s * jobs),
        "parallel.share_s": t("parallel.share").incl,
        "parallel.payload_bytes": float(reg.get("gauges", {}).get("pool.payload_bytes", 0)),
        "parallel.digest_s": t("parallel.digest").incl,
        "parallel.cache_hits": hits,
        "parallel.cache_misses": misses,
        "parallel.cache_hit_ratio": _ratio(hits, hits + misses),
        "parallel.retries": _counter(reg, "pool.retries"),
        "parallel.quarantined": _counter(reg, "pool.quarantined"),
        "service.session_reloads": _counter(reg, "service.sessions_reloaded"),
        "service.session_load_s": t("service.session_load").incl,
        "service.store_hit_ratio": _ratio(
            _counter(reg, "store.hits"),
            _counter(reg, "store.hits") + _counter(reg, "store.misses"),
        ),
        "service.shed": _counter(reg, "service.shed"),
        "service.jobs_failed": _counter(reg, "service.jobs_failed"),
        "matrix.enumerate_s": t("matrix.enumerate").incl,
        "matrix.report_s": t("matrix.report").incl,
        "matrix.check_s": t("matrix.check").incl,
        "dpt.decompose_s": t("dpt.decompose").incl,
        "obs.spans": float(
            sum(v.count for k, v in by_name.items() if k != "litho.raster_miss")
        ),
    }
    for check in ("width", "spacing", "layer_spacing", "enclosure", "area", "density", "extension"):
        out[f"drc.check_s.{check}"] = t(f"drc.check.{check}").incl
    return out


def group_by_trace(spans: list[Span]) -> dict[str | None, list[Span]]:
    out: dict[str | None, list[Span]] = {}
    for s in spans:
        out.setdefault(s.trace_id, []).append(s)
    return out
