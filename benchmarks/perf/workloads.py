"""The four reference workloads of the perf benchmark.

The program only ever sees generated GDSII files and requests; the seed
generates the designs, the edit sequence, the think times, and the
matrix window sizes.  Load comes from the benchmark process alone:

* ``block_serial`` / ``block_pooled`` — one-shot scan and DRC of a
  seeded logic block at jobs=1 and jobs=2;
* ``sram_outofcore`` — streaming ingest of an SRAM array into a layout
  store, then store-backed scan and DRC of a seed-chosen window;
* ``service_mixed`` — a live ``repro serve`` daemon under a closed loop
  of one-tile edits (interactive) plus compliance-matrix batches
  (background).

Each batch rep runs in a fresh process, forked from a ``child.py reps``
process that has imported the program and does nothing else, and times
itself, so caches start cold and its peak memory is its own.  Timings
are taken at a fixed host speed (:class:`HostClock`).  Every output is
checked against a reference computed through a different execution
path; a mismatch is a failed operation.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import json
import os
import random
import resource
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import metrics
import trace

from repro import api, gdsii
from repro.designgen import (
    LogicBlockSpec,
    generate_logic_block,
    generate_sram_array,
    make_sram_bitcell,
)
from repro.geometry import Rect
from repro.layout import Layout
from repro.obs import get_registry
from repro.tech import make_node

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
NODE = 45


@dataclass(frozen=True)
class Sizes:
    """Input sizes and pacing; ``FULL`` is the benchmark, ``QUICK`` a smoke test."""

    block_rows: int
    block_width_nm: int
    block_nets: int
    block_weak_spots: int
    tile_nm: int
    sram_cells: int  # rows = columns
    sram_window_nm: int
    churn_grid: int  # tiles per side
    churn_tile_nm: int
    churn_weak_tiles: int
    think_mean_s: float
    matrix_pause_s: float
    batch_setups: int  # before the reference run and before every rep
    service_setups: int
    min_reps: int
    max_reps: int


FULL = Sizes(
    block_rows=4,
    block_width_nm=12000,
    block_nets=24,
    block_weak_spots=16,
    tile_nm=3000,
    sram_cells=128,
    sram_window_nm=6000,
    churn_grid=8,
    churn_tile_nm=2000,
    churn_weak_tiles=8,
    think_mean_s=0.2,
    matrix_pause_s=5.0,
    batch_setups=3,
    service_setups=3,
    min_reps=3,
    max_reps=1000,
)

QUICK = replace(
    FULL,
    block_rows=2,
    block_width_nm=6000,
    block_nets=8,
    block_weak_spots=4,
    sram_cells=32,
    sram_window_nm=3000,
    churn_grid=4,
    churn_weak_tiles=2,
    matrix_pause_s=2.0,
    batch_setups=1,
    service_setups=1,
    min_reps=1,
    max_reps=1,
)

WHY = {
    "block_serial": "geometry sweeps, litho kernels and DRC checks at jobs=1 with no pool, IPC "
    "or cache: the single-threaded baseline",
    "block_pooled": "the same inputs at jobs=2, adding shm payload packing, pool dispatch, "
    "chunk merge and load imbalance",
    "sram_outofcore": "streaming GDSII flatten, the store's external sort and slab writes, and "
    "windowed mmap queries; in-RAM flatten and shm are bypassed",
    "service_mixed": "per-edit session reload, tile-key digests and result-store traffic on a "
    "live daemon, with background matrix batches sharing the dispatcher",
}

WORKLOADS = tuple(WHY)


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a wrong program output)."""


@dataclass
class Outcome:
    """What one workload measurement produced."""

    correct: bool = True
    attempted: int = 0
    failed: int = 0
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    info: dict[str, Any] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.correct = False
        if len(self.problems) < 20:
            self.problems.append(problem)


def _digest(lines: Any) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(str(line).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()[:16]


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _child_env() -> dict[str, str]:
    src = os.path.dirname(os.path.dirname(sys.modules["repro"].__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _median_metric(values: list[float]) -> float:
    return metrics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# host-speed normalisation
# ---------------------------------------------------------------------------

REF_ITERATIONS = 100_000
REF_REPEATS = 3
# What reference_loop_s() reads on the host the bounds were measured on
# (a two-vCPU virtual machine, Python 3.11) when that host runs at speed.
REF_NOMINAL_S = 0.007


def reference_loop_s() -> float:
    """Seconds a fixed pure-Python loop, independent of the program, takes
    now: the fastest of a few back-to-back runs, so that an interrupt
    landing in one of them does not count as a slow host."""
    best = float("inf")
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(REF_ITERATIONS):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


class HostClock:
    """Times intervals at a fixed host speed.

    On a shared host the CPU's speed switches between levels a third
    apart every few seconds, in CPU time as much as in wall time, and
    identical work speeds up and slows down with it.  ``mark()`` runs
    the reference loop; an interval between two marks is reported as
    its wall time and as that wall time scaled by ``REF_NOMINAL_S`` over
    the mean loop time at its two ends: what the interval would have
    taken at the reference speed.  An interval spanning several marks
    is scaled piece by piece.  Neither value includes the loops.

    A disabled clock runs no loop and scales nothing (traced runs,
    whose timings are not end-to-end metrics).
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._marks: list[tuple[float, float, float]] = []  # start, end, loop seconds

    def mark(self) -> int:
        t0 = time.perf_counter()
        ref = reference_loop_s() if self.enabled else REF_NOMINAL_S
        self._marks.append((t0, time.perf_counter(), ref))
        return len(self._marks) - 1

    def _pieces(self, a: int, b: int):
        """(wall seconds, scale) of each piece between marks ``a`` and ``b``."""
        for (_, end, ref0), (start, _, ref1) in zip(self._marks[a:b], self._marks[a + 1:b + 1]):
            yield start - end, 2.0 * REF_NOMINAL_S / (ref0 + ref1)

    def wall(self, a: int, b: int) -> float:
        return sum(dt for dt, _ in self._pieces(a, b))

    def scaled(self, a: int, b: int) -> float:
        return sum(dt * scale for dt, scale in self._pieces(a, b))

    def loops_s(self) -> float:
        """Seconds spent in reference loops so far."""
        return sum(end - start for start, end, _ in self._marks) if self.enabled else 0.0

    def scale(self) -> float:
        """The scale at the median loop time over every mark (for totals
        that marks cannot split, such as CPU time)."""
        return REF_NOMINAL_S / metrics.median([ref for _, _, ref in self._marks])


def _proc_status_mb(pid: int, key: str) -> float:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


# ---------------------------------------------------------------------------
# batch reps (run inside child.py)
# ---------------------------------------------------------------------------


def run_rep(spec: dict) -> dict:
    """One batch rep: the timed engine calls plus their output digests.

    Runs in a fresh interpreter; with ``trace_dir`` set, the span
    wrappers and the metrics registry are on for the whole rep.
    """
    tech = make_node(NODE)
    deck = tech.rules.minimum()
    m1 = tech.layers.metal1
    jobs, tile = spec["jobs"], spec["tile_nm"]
    recorder = trace.Recorder(spec["trace_dir"]) if spec.get("trace_dir") else None
    if recorder is not None:
        trace.install(recorder)
        get_registry().enable()

    def span(name: str, trace_id: str | None = None):
        return recorder.span(name, trace_id) if recorder else contextlib.nullcontext()

    # the reference loops run between the timed steps, outside every span
    clock = HostClock(enabled=recorder is None)
    out: dict[str, Any] = {}
    cpu0 = _cpu_s()
    first = clock.mark()
    with span("bench.rep", f"rep{spec['rep']}"):
        if spec["kind"] == "block":
            with span("bench.scan"):
                cell = gdsii.read_gds(spec["gds"]).top_cell()
                scan = api.scan_full_chip(
                    tech, cell.region(m1), tile_nm=tile,
                    pinch_limit=tech.metal_width // 2, jobs=jobs,
                )
            scanned = clock.mark()
            with span("bench.drc"):
                cell = gdsii.read_gds(spec["gds"]).top_cell()
                drc = api.run_drc(cell, deck, jobs=jobs, tile_nm=tile)
            last = clock.mark()
            started = first
        else:
            window = Rect(*spec["window"])
            with span("bench.ingest"):
                view = api.ingest_store(spec["gds"], spec["store"], force=True)
            started = clock.mark()
            out["ingest_s"] = clock.scaled(first, started)
            out["rects"] = view.total_rects
            with span("bench.scan"):
                scan = api.scan_full_chip(
                    tech, view.layer_for(m1), extent=window, tile_nm=tile,
                    pinch_limit=tech.metal_width // 2, jobs=jobs,
                )
            scanned = clock.mark()
            with span("bench.drc"):
                drc = api.run_drc(None, deck, window=window, jobs=jobs, tile_nm=tile, store=view)
            last = clock.mark()
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    out.update(
        wall_s=clock.wall(first, last),
        job_s=clock.scaled(first, last),
        scan_s=clock.scaled(started, scanned),
        drc_s=clock.scaled(scanned, last),
        scan_tiles=scan.tiles,
        drc_tiles=drc.tiles,
        scan_digest=_digest(scan.hotspots),
        drc_digest=_digest(drc.violations),
        quarantined=len(scan.quarantined) + len(drc.quarantined),
        cpu_s=(_cpu_s() - cpu0 - clock.loops_s()) * clock.scale(),
        # VmHWM, not ru_maxrss: the latter keeps the launching process's
        # high-water mark across exec
        rss_mb=_proc_status_mb(os.getpid(), "VmHWM"),
        workers_rss_mb=kids.ru_maxrss / 1024.0,
        registry=get_registry().snapshot() if recorder is not None else None,
    )
    return out


def serve_reps(requests: Any, replies: Any) -> int:
    """Fork one batch rep per spec path read from ``requests``.

    This process has imported the program and does nothing but fork, so
    each rep is a fresh process that starts after the imports with no
    state from any other rep, without paying for an interpreter start.
    A rep writes its result to ``<spec>.out``; its exit status goes to
    ``replies``, one line per rep.
    """
    for line in requests:
        spec_path = line.strip()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.dup2(2, 1)  # keep the replies channel to this process
                with open(spec_path) as fh:
                    result = run_rep(json.load(fh))
                with open(spec_path + ".out", "w") as fh:
                    json.dump(result, fh)
                code = 0
            except Exception:  # repro-lint: disable=RL004
                # reported to the benchmark as the exit status
                traceback.print_exc()
            finally:
                _stop_resource_tracker()
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        replies.write(f"{os.waitstatus_to_exitcode(status)}\n")
        replies.flush()
    return 0


# ---------------------------------------------------------------------------
# batch workloads (benchmark-process side)
# ---------------------------------------------------------------------------


class RepServer:
    """The ``child.py reps`` process that forks the batch reps."""

    def __init__(self, work: str) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, CHILD, "reps"], env=_child_env(), cwd=work,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, spec_path: str, timeout_s: float) -> dict:
        self.proc.stdin.write(spec_path + "\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout_s)
        status = self.proc.stdout.readline() if ready else ""
        if not status:
            raise BenchError(f"rep {spec_path} gave no exit status within {timeout_s:.0f} s")
        if int(status) != 0:
            raise BenchError(f"rep {spec_path} exited {int(status)} (traceback on stderr)")
        with open(spec_path + ".out") as fh:
            return json.load(fh)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
        self.proc.stdout.close()


class BatchWorkload:
    """block_serial, block_pooled and sram_outofcore."""

    def __init__(self, name: str, seed: int, sizes: Sizes, work: str) -> None:
        self.name = name
        self.seed = seed
        self.sizes = sizes
        self.work = work
        self.kind = "sram" if name == "sram_outofcore" else "block"
        self.jobs = 1 if name == "block_serial" else 2
        self.gds = os.path.join(work, f"{self.kind}.gds")
        self.store = os.path.join(work, "sram.lstore")
        self.window: Rect | None = None
        self.ref: dict[str, Any] = {}
        self.server: RepServer | None = None

    # -- inputs ---------------------------------------------------------
    def setup(self) -> None:
        """Generate the design from the seed and write it as GDSII."""
        tech = make_node(NODE)
        s = self.sizes
        if self.kind == "block":
            spec = LogicBlockSpec(
                rows=s.block_rows,
                row_width_nm=s.block_width_nm,
                net_count=s.block_nets,
                weak_spots=s.block_weak_spots,
                seed=self.seed,
            )
            layout = generate_logic_block(tech, spec).layout
        else:
            layout = generate_sram_array(tech, rows=s.sram_cells, cols=s.sram_cells)
            # the window sits on the bitcell lattice: every seed's window
            # holds the same content, so the seed moves which part of the
            # store is read, not how much work the window is
            pitch = make_sram_bitcell(tech).bbox
            rng = random.Random(f"{self.seed}-window")
            span_cells = -(-s.sram_window_nm // min(pitch.width, pitch.height))
            x0 = pitch.width * rng.randrange(s.sram_cells - span_cells)
            y0 = pitch.height * rng.randrange(s.sram_cells - span_cells)
            self.window = Rect(x0, y0, x0 + s.sram_window_nm, y0 + s.sram_window_nm)
        gdsii.write_gds(layout, self.gds)

    def reference(self) -> None:
        """Digests through a different path than the reps take.

        The blocks cross-check serial against pooled execution (each
        workload computes the other's path); the SRAM checks the
        store-backed reps against one in-RAM windowed run.
        """
        tech = make_node(NODE)
        m1 = tech.layers.metal1
        deck = tech.rules.minimum()
        tile = self.sizes.tile_nm
        cell = gdsii.read_gds(self.gds).top_cell()
        if self.kind == "block":
            jobs = 2 if self.jobs == 1 else 1
            scan = api.scan_full_chip(
                tech, cell.region(m1), tile_nm=tile,
                pinch_limit=tech.metal_width // 2, jobs=jobs,
            )
            drc = api.run_drc(cell, deck, jobs=jobs, tile_nm=tile)
        else:
            scan = api.scan_full_chip(
                tech, cell.region(m1), extent=self.window, tile_nm=tile,
                pinch_limit=tech.metal_width // 2, jobs=self.jobs,
            )
            drc = api.run_drc(cell, deck, window=self.window, jobs=self.jobs, tile_nm=tile)
        self.ref = {
            "scan_digest": _digest(scan.hotspots),
            "drc_digest": _digest(drc.violations),
            "scan_tiles": scan.tiles,
            "drc_tiles": drc.tiles,
            "hotspots": len(scan.hotspots),
            "violations": len(drc.violations),
        }

    # -- reps -----------------------------------------------------------
    def _run_rep(self, index: int, trace_dir: str | None) -> dict:
        spec = {
            "kind": self.kind,
            "gds": self.gds,
            "store": self.store,
            "jobs": self.jobs,
            "tile_nm": self.sizes.tile_nm,
            "window": list(self.window.as_tuple()) if self.window else None,
            "trace_dir": trace_dir,
            "rep": index,
        }
        spec_path = os.path.join(self.work, "rep.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        return self.server.run(spec_path, timeout_s=150)

    def _setups(self, clock: HostClock, times: list[float]) -> None:
        """Set up ``batch_setups`` times, appending each one's scaled duration.

        A set-up takes milliseconds, so the runs set up again before
        every rep: the median then spans the run like the reps do,
        instead of one instant at its start.
        """
        mark = clock.mark()
        for _ in range(self.sizes.batch_setups):
            self.setup()
            done = clock.mark()
            times.append(clock.scaled(mark, done))
            mark = done

    def _reps(self, seconds: float, out: Outcome, trace_dir: str | None = None,
              before: Callable[[], None] | None = None) -> list[list[dict]]:
        """Reps until ``seconds`` are used: a rep starts only while half a
        typical rep still fits, so the phase rarely overruns.

        With ``trace_dir`` the reps alternate untraced and traced, so
        both halves see the same drift in host speed; returns the
        untraced reps and, when tracing, the traced ones.  ``before``
        runs at the start of each cycle.
        """
        modes = [None, trace_dir] if trace_dir else [None]
        reps: list[list[dict]] = [[] for _ in modes]
        cycles: list[float] = []
        t_end = time.perf_counter() + seconds
        while True:
            t0 = time.perf_counter()
            if before is not None:
                before()
            for mode, done in zip(modes, reps):
                rep = self._run_rep(len(done), mode)
                done.append(rep)
                self._check(rep, out)
            cycles.append(time.perf_counter() - t0)
            n = len(cycles)
            if n >= self.sizes.max_reps or (
                n >= self.sizes.min_reps
                and time.perf_counter() + metrics.median(cycles) / 2 > t_end
            ):
                return reps

    def _check(self, rep: dict, out: Outcome) -> None:
        ops = 3 if self.kind == "sram" else 2
        out.attempted += ops
        ref = self.ref
        if rep["quarantined"]:
            out.fail(ops, f"{rep['quarantined']} quarantined tasks")
            return
        if rep["scan_digest"] != ref["scan_digest"] or rep["scan_tiles"] != ref["scan_tiles"]:
            out.fail(1, f"scan output differs from the reference ({rep['scan_digest']})")
        if rep["drc_digest"] != ref["drc_digest"] or rep["drc_tiles"] != ref["drc_tiles"]:
            out.fail(1, f"DRC output differs from the reference ({rep['drc_digest']})")

    # -- measurement ----------------------------------------------------
    def measure(self, seconds: float, traced: bool) -> Outcome:
        self.server = RepServer(self.work)
        try:
            return self._measure(seconds, traced)
        finally:
            self.server.close()

    def _measure(self, seconds: float, traced: bool) -> Outcome:
        out = Outcome()
        clock = HostClock(enabled=not traced)
        setups: list[float] = []
        self._setups(clock, setups)
        self.reference()
        out.info["reference"] = self.ref
        if not traced:
            [reps] = self._reps(seconds, out, before=lambda: self._setups(clock, setups))
            out.end_to_end = self._end_to_end(reps)
            out.end_to_end["setup_s"] = metrics.median(setups)
            out.info["setups"] = len(setups)
            out.info["reps"] = len(reps)
            out.info["rep_seconds"] = [
                {k: round(r[k], 4) for k in ("wall_s", "job_s", "ingest_s", "scan_s", "drc_s")
                 if k in r}
                for r in reps
            ]
        else:
            trace_dir = os.path.join(self.work, "trace")
            os.makedirs(trace_dir, exist_ok=True)
            recorder = trace.Recorder(trace_dir)
            with recorder.span("bench.traced"):
                plain, traced_reps = self._reps(seconds, out, trace_dir)
            out.per_layer = self._per_layer(trace_dir, traced_reps)
            out.per_layer["obs.trace_overhead_ratio"] = metrics.median(
                [r["wall_s"] for r in traced_reps]
            ) / metrics.median([r["wall_s"] for r in plain])
            out.info["reps"] = len(plain)
            out.info["traced_reps"] = len(traced_reps)
        out.end_to_end["failed_ratio"] = out.failed / max(out.attempted, 1)
        return out

    def _end_to_end(self, reps: list[dict]) -> dict[str, float]:
        """Medians over the run's reps, at the reference host speed."""
        med = metrics.median
        e2e = {
            "job_ms": med([r["job_s"] * 1000.0 for r in reps]),
            "scan_tiles_per_s": med([r["scan_tiles"] / r["scan_s"] for r in reps]),
            "drc_tiles_per_s": med([r["drc_tiles"] / r["drc_s"] for r in reps]),
            "peak_rss_mb": med([r["rss_mb"] for r in reps]),
            "cpu_s": med([r["cpu_s"] for r in reps]),
        }
        if self.kind == "sram":
            e2e["ingest_rects_per_s"] = med([r["rects"] / r["ingest_s"] for r in reps])
        return e2e

    def _per_layer(self, trace_dir: str, reps: list[dict]) -> dict[str, float]:
        spans, ppids = trace.load(trace_dir)
        roots = trace.analyze(spans, ppids)
        phase = _phase_spans(roots)
        groups = trace.group_by_trace(phase)
        per_rep: list[dict[str, float]] = []
        for index, rep in enumerate(reps):
            layer = trace.layer_metrics(
                trace.totals(groups.get(f"rep{index}", [])), rep["registry"] or {}, self.jobs
            )
            layer["parallel.workers_peak_rss_mb"] = rep["workers_rss_mb"] if self.jobs > 1 else 0.0
            per_rep.append(layer)
        out = {name: metrics.median([r[name] for r in per_rep]) for name in per_rep[0]}
        out["obs.self_time_coverage"] = trace.coverage([s for s in phase if s.name == "bench.rep"])
        return out


def _phase_spans(roots: list[trace.Span]) -> list[trace.Span]:
    """Every span under the ``bench.traced`` root, and under the batch
    reps' roots (a rep's parent process, the rep server, records none)."""
    return [s for r in roots if r.name in ("bench.traced", "bench.rep") for s in trace.walk(r)]


# ---------------------------------------------------------------------------
# service workload
# ---------------------------------------------------------------------------

# Matrix abutment half-widths the seed draws per batch (default 360).
MATRIX_WINDOWS = (340, 350, 360, 370, 380)
EDIT_LENGTHS = (600, 700, 800)


def churn_layout(grid: int, tile: int, weak: frozenset[int], edit: tuple | None) -> Layout:
    """An ``grid`` x ``grid``-tile M1 block: three wires per tile, a
    sub-minimum wire pair (pinch hotspots, a spacing violation) in each
    ``weak`` tile, and at most one edit wire.

    Edits land in the free band above a tile's wires and at least 100 nm
    from any weak pair, so they change which tiles are dirty but never
    the findings — every served result has a known answer.
    """
    tech = make_node(NODE)
    m1 = tech.layers.metal1
    lib = Layout("CHURN")
    top = lib.new_cell("TOP")
    for t in range(grid * grid):
        x0, y0 = (t % grid) * tile, (t // grid) * tile
        for i in range(3):
            y = y0 + 400 + 400 * i
            top.add_rect(m1, Rect(x0 + 400, y, x0 + 1400, y + 120))
        if t in weak:
            top.add_rect(m1, Rect(x0 + 1500, y0 + 400, x0 + 1560, y0 + 1300))
            top.add_rect(m1, Rect(x0 + 1600, y0 + 400, x0 + 1660, y0 + 1300))
    if edit is not None:
        t, dx, dy, length = edit
        x0 = (t % grid) * tile + 400 + dx
        y0 = (t // grid) * tile + 1600 + dy
        top.add_rect(m1, Rect(x0, y0, x0 + length, y0 + 120))
    return lib


class _EditPlan:
    """Seeded, never-repeating one-tile edits."""

    def __init__(self, seed: int, tiles: int) -> None:
        self.rng = random.Random(f"{seed}-edits")
        self.tiles = tiles
        self.used: set[tuple] = set()

    def next(self) -> tuple:
        while True:
            length = self.rng.choice(EDIT_LENGTHS)
            edit = (
                self.rng.randrange(self.tiles),
                20 * self.rng.randrange((1000 - length) // 20 + 1),
                20 * self.rng.randrange(4),
                length,
            )
            if edit not in self.used:
                self.used.add(edit)
                return edit


def _children(pid: int) -> list[int]:
    out: list[int] = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out.extend(int(p) for p in fh.read().split())
    except OSError:
        pass
    return out


PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Become the reaper of this process's orphaned descendants (Linux).

    A shared-memory resource tracker outlives the process that started
    it (this one, a pooled batch rep, the daemon).  Orphaned, it is
    re-parented here instead of to init, so :func:`reap_children` can
    wait for it.
    """
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _stop_resource_tracker() -> None:
    """End this process's shared-memory resource tracker, if it started one."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def reap_children(grace_s: float = 10.0) -> None:
    """Wait until every child of this process has ended and been reaped.

    Stops this process's own resource tracker first; a child still
    running after ``grace_s`` is killed.
    """
    _stop_resource_tracker()
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _children(os.getpid()):
                with contextlib.suppress(ProcessLookupError):
                    os.kill(child, signal.SIGKILL)
        time.sleep(0.02)


class Daemon:
    """One ``repro serve`` process (traced through ``child.py serve``)."""

    def __init__(self, work: str, index: int, trace_dir: str | None = None) -> None:
        self.work = work
        self.state_file = os.path.join(work, f"svc{index}.json")
        self.manifest = os.path.join(work, f"svc{index}-manifest.json")
        self.log = os.path.join(work, f"svc{index}.log")
        serve = ["serve", "--port", "0", "--jobs", "2", "--max-depth", "1024",
                 "--state-file", self.state_file]
        if trace_dir is None:
            cmd = [sys.executable, "-m", "repro", *serve]
        else:
            cmd = [sys.executable, CHILD, "serve", trace_dir, *serve,
                   "--metrics-out", self.manifest]
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                cmd, env=_child_env(), cwd=work, stdout=log, stderr=subprocess.STDOUT
            )
        deadline = time.perf_counter() + 60.0
        while not os.path.exists(self.state_file):
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise BenchError(f"daemon did not start:\n{self._log_tail()}")
            time.sleep(0.01)

    def _log_tail(self) -> str:
        with open(self.log) as fh:
            return fh.read()[-2000:]

    def client(self):
        from repro.service import SocketClient

        return SocketClient.from_state_file(path=self.state_file, timeout=60.0)

    def peak_rss_mb(self) -> float:
        return _proc_status_mb(self.proc.pid, "VmHWM")

    def workers_peak_rss_mb(self) -> float:
        return max((_proc_status_mb(p, "VmHWM") for p in _children(self.proc.pid)), default=0.0)

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.client().shutdown()
                self.proc.wait(timeout=30)
            except Exception:  # repro-lint: disable=RL004
                # unreachable or wedged: make sure it dies either way
                self.proc.kill()
                self.proc.wait(timeout=30)


class _RecordingClient:
    """Passes a socket client through, keeping the batch's job events."""

    def __init__(self, inner: Any) -> None:
        self.inner = inner
        self.events: list[dict] = []

    def submit_batch(self, items, **kwargs):
        for event in self.inner.submit_batch(items, **kwargs):
            self.events.append(event)
            yield event


@dataclass
class _Phase:
    edits: list[dict] = field(default_factory=list)
    batches: list[dict] = field(default_factory=list)
    errors: list[BaseException] = field(default_factory=list)


class ServiceWorkload:
    """A live daemon under edit churn plus background matrix batches."""

    name = "service_mixed"

    def __init__(self, seed: int, sizes: Sizes, work: str) -> None:
        self.seed = seed
        self.sizes = sizes
        self.work = work
        self.gds = os.path.join(work, "churn.gds")
        rng = random.Random(f"{seed}-service")
        tiles = sizes.churn_grid ** 2
        self.weak = frozenset(rng.sample(range(tiles), sizes.churn_weak_tiles))
        self.windows = [rng.choice(MATRIX_WINDOWS) for _ in range(256)]
        self.edits = _EditPlan(seed, tiles)
        self.think = random.Random(f"{seed}-think")
        self.ref: dict[str, Any] = {}
        self._daemons = 0

    # -- inputs and references ------------------------------------------
    def _write(self, edit: tuple | None) -> None:
        s = self.sizes
        tmp = self.gds + ".tmp"
        gdsii.write_gds(churn_layout(s.churn_grid, s.churn_tile_nm, self.weak, edit), tmp)
        os.replace(tmp, self.gds)

    def reference(self) -> None:
        """One-shot scan and DRC of the base block, and batch 0 of the
        matrix, all in process."""
        tech = make_node(NODE)
        self._write(None)
        cell = gdsii.read_gds(self.gds).top_cell()
        tile = self.sizes.churn_tile_nm
        scan = api.scan_full_chip(
            tech, cell.region(tech.layers.metal1), tile_nm=tile,
            pinch_limit=tech.metal_width // 2, jobs=2,
        )
        drc = api.run_drc(cell, tech.rules.minimum(), jobs=2, tile_nm=tile)
        matrix = api.run_compliance_matrix(cells=None, window_nm=self.windows[0], jobs=1)
        self.ref = {
            "scan_summary": scan.summary(),
            "scan_listing": [str(h) for h in scan.hotspots],
            "scan_tiles": scan.tiles,
            "hotspots": len(scan.hotspots),
            "drc_tiles": drc.tiles,
            "violations": len(drc.violations),
            "matrix": matrix.comparable(),
            "scenarios": matrix.scenario_count,
        }

    def _start(self, out: Outcome, trace_dir: str | None = None) -> Daemon:
        """Inputs written, daemon up, first ping, cold 64-tile scan."""
        self._write(None)
        daemon = Daemon(self.work, self._daemons, trace_dir)
        self._daemons += 1
        try:
            client = daemon.client()
            client.ping()
            job = client.submit(
                "scan",
                {"gds": self.gds, "tile": self.sizes.churn_tile_nm, "limit": 1 << 20},
                client="setup",
            )
        except BaseException:
            daemon.stop()
            raise
        out.attempted += 1
        result = job.get("result") or {}
        if (
            job.get("state") != "done"
            or result.get("summary") != self.ref["scan_summary"]
            or result.get("listing") != self.ref["scan_listing"]
        ):
            out.fail(1, f"first served scan differs from the one-shot scan: {job}")
        return daemon

    # -- load -----------------------------------------------------------
    def _interactive(self, daemon: Daemon, stop: threading.Event, phase: _Phase,
                     recorder: trace.Recorder | None) -> None:
        from repro.service import QueueFullError, ServiceError

        tile = self.sizes.churn_tile_nm
        clock = HostClock(enabled=recorder is None)
        with daemon.client() as client:
            i = 0
            while not stop.is_set():
                self._write(self.edits.next())
                kind = "drc" if i % 4 == 3 else "scan"
                name = f"u{i % 2}"
                sample: dict[str, Any] = {"kind": kind}
                span = recorder.span("bench.edit", name) if recorder else contextlib.nullcontext()
                sent = clock.mark()
                try:
                    with span:
                        sample["job"] = client.submit(
                            kind, {"gds": self.gds, "tile": tile, "limit": 0},
                            client=name, priority="interactive",
                        )
                except QueueFullError:
                    sample["shed"] = True
                except ServiceError as exc:
                    sample["error"] = str(exc)
                replied = clock.mark()
                sample["latency_s"] = clock.wall(sent, replied)
                sample["scaled_s"] = clock.scaled(sent, replied)
                phase.edits.append(sample)
                i += 1
                stop.wait(self.think.expovariate(1.0 / self.sizes.think_mean_s))

    def _background(self, daemon: Daemon, stop: threading.Event, phase: _Phase,
                    recorder: trace.Recorder | None) -> None:
        clock = HostClock(enabled=recorder is None)
        with daemon.client() as socket_client:
            b = 0
            while not stop.is_set():
                client = _RecordingClient(socket_client)
                window = self.windows[b % len(self.windows)]
                batch: dict[str, Any] = {"index": b, "window": window}
                # run_compliance_matrix submits as SocketClient's default
                # client name, "cli": the daemon's job spans carry it
                span = (
                    recorder.span("bench.matrix", "cli") if recorder else contextlib.nullcontext()
                )
                sent = clock.mark()
                try:
                    with span:
                        batch["report"] = api.run_compliance_matrix(
                            cells=None, client=client, window_nm=window
                        )
                except RuntimeError as exc:  # some scenarios failed or were shed
                    batch["error"] = str(exc)
                batch["scaled_s"] = clock.scaled(sent, clock.mark())
                batch["events"] = client.events
                phase.batches.append(batch)
                b += 1
                stop.wait(self.sizes.matrix_pause_s)

    def _load(self, daemon: Daemon, seconds: float, recorder: trace.Recorder | None) -> _Phase:
        phase = _Phase()
        stop = threading.Event()

        def guarded(fn):
            def body() -> None:
                try:
                    fn(daemon, stop, phase, recorder)
                # handed to the main thread, which re-raises it after join
                except BaseException as exc:  # repro-lint: disable=RL004
                    phase.errors.append(exc)
                    stop.set()
            return body

        threads = [
            threading.Thread(target=guarded(self._interactive), name="interactive"),
            threading.Thread(target=guarded(self._background), name="background"),
        ]
        for t in threads:
            t.start()
        try:
            stop.wait(seconds)
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=120)
        if phase.errors:
            raise BenchError(f"load thread failed: {phase.errors[0]!r}") from phase.errors[0]
        return phase

    def _check(self, phase: _Phase, out: Outcome) -> None:
        ref = self.ref
        for sample in phase.edits:
            out.attempted += 1
            job = sample.get("job")
            if job is None:
                out.fail(1, f"edit request {'shed' if sample.get('shed') else sample.get('error')}")
                continue
            result = job.get("result") or {}
            kind = sample["kind"]
            want = (ref["scan_tiles"], ref["hotspots"]) if kind == "scan" else (
                ref["drc_tiles"], ref["violations"])
            if (
                job.get("state") != "done"
                or (result.get("tiles"), result.get("findings")) != want
                or result.get("quarantined")
                or not result.get("tiles_computed")  # the edit must have been seen
            ):
                out.fail(1, f"served {kind} differs from the reference: {job}")
        for batch in phase.batches:
            out.attempted += self.ref["scenarios"]
            report = batch.get("report")
            if report is None:
                bad = sum(1 for e in batch["events"] if "error" in e or
                          (e.get("job") or {}).get("state") != "done")
                out.fail(max(bad, 1), f"matrix batch {batch['index']}: {batch.get('error')}")
            elif report.scenario_count != ref["scenarios"]:
                out.fail(ref["scenarios"], f"matrix batch {batch['index']} lost scenarios")
            elif batch["index"] == 0 and report.comparable() != ref["matrix"]:
                out.fail(ref["scenarios"], "matrix batch 0 differs from the in-process matrix")

    def _end_to_end(self, phase: _Phase, daemon_rss: float) -> dict[str, float]:
        """Medians over the run's requests (and batches), at the reference
        host speed."""

        def ok(kind: str) -> list[dict]:
            return [s for s in phase.edits if s["kind"] == kind and "job" in s]

        edit_ms = [s["scaled_s"] * 1000.0 for s in phase.edits if "job" in s]
        e2e = {
            "job_ms": _median_metric(edit_ms),
            "scan_tiles_per_s": _median_metric(
                [s["job"]["result"]["tiles"] / s["scaled_s"] for s in ok("scan")]),
            "drc_tiles_per_s": _median_metric(
                [s["job"]["result"]["tiles"] / s["scaled_s"] for s in ok("drc")]),
            "peak_rss_mb": daemon_rss,
            "edit_p50_ms": _median_metric(edit_ms),
            "matrix_scenarios_per_s": _median_metric([
                b["report"].scenario_count / b["scaled_s"] for b in phase.batches if "report" in b
            ]),
        }
        tail = metrics.tail_percentile(edit_ms)
        if tail is not None:
            e2e["edit_tail_ms"] = tail[1]
        return e2e

    def _service_layer(self, phase: _Phase) -> dict[str, float]:
        waits, runs, wires, bg_waits = [], [], [], []
        for s in phase.edits:
            job = s.get("job")
            if job is None:
                continue
            waits.append(job["wait_s"] * 1000.0)
            runs.append(job["service_s"] * 1000.0)
            wires.append((s["latency_s"] - job["wait_s"] - job["service_s"]) * 1000.0)
        scenarios = hits = 0
        for b in phase.batches:
            for e in b["events"]:
                job = e.get("job") or {}
                if job.get("state") == "done":
                    bg_waits.append(job["wait_s"] * 1000.0)
                    scenarios += 1
                    hits += bool(job["result"].get("store_hit"))
        tail = metrics.tail_percentile
        return {
            "service.wait_ms_p50": _median_metric(waits),
            "service.wait_ms_tail": (tail(waits) or (0, 0.0))[1],
            "service.run_ms_p50": _median_metric(runs),
            "service.run_ms_tail": (tail(runs) or (0, 0.0))[1],
            "service.wire_ms_p50": _median_metric(wires),
            "service.bg_wait_ms_p50": _median_metric(bg_waits),
            "matrix.scenarios": scenarios / max(len(phase.batches), 1),  # per batch
            "matrix.dedup_ratio": hits / scenarios if scenarios else 0.0,
        }

    # -- measurement ----------------------------------------------------
    def measure(self, seconds: float, traced: bool) -> Outcome:
        out = Outcome()
        self.reference()
        out.info["reference"] = {k: v for k, v in self.ref.items()
                                 if k in ("scan_tiles", "hotspots", "drc_tiles", "violations")}
        if not traced:
            setups = []
            clock = HostClock()
            daemon = None
            for k in range(self.sizes.service_setups):
                begun = clock.mark()
                daemon = self._start(out)
                setups.append(clock.scaled(begun, clock.mark()))
                if k < self.sizes.service_setups - 1:
                    daemon.stop()
            try:
                phase = self._load(daemon, seconds, None)
                rss = daemon.peak_rss_mb()
            finally:
                daemon.stop()
            self._check(phase, out)
            out.end_to_end = self._end_to_end(phase, rss)
            out.end_to_end["setup_s"] = metrics.median(setups)
            out.info["edit_samples"] = len(phase.edits)
            out.info["latency_ms"] = {
                kind: [round(e["latency_s"] * 1000.0, 2) for e in phase.edits
                       if e["kind"] == kind and "job" in e]
                for kind in ("scan", "drc")
            }
            out.info["matrix_batches"] = len(phase.batches)
            tail = metrics.tail_percentile([s["latency_s"] for s in phase.edits if "job" in s])
            out.info["edit_tail_pct"] = tail[0] if tail else None
        else:
            daemon = self._start(out)
            try:
                plain = self._load(daemon, seconds / 2, None)
            finally:
                daemon.stop()
            self._check(plain, out)
            out.per_layer = self._traced(seconds / 2, out, plain)
        out.end_to_end["failed_ratio"] = out.failed / max(out.attempted, 1)
        return out

    def _traced(self, seconds: float, out: Outcome, plain: _Phase) -> dict[str, float]:
        trace_dir = os.path.join(self.work, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        daemon = self._start(out, trace_dir)
        recorder = trace.Recorder(trace_dir)
        patches = trace.install(recorder)
        try:
            store0 = daemon.client().metrics()["store"]
            with recorder.span("bench.traced"):
                phase = self._load(daemon, seconds, recorder)
            store1 = daemon.client().metrics()["store"]
            workers_rss = daemon.workers_peak_rss_mb()
        finally:
            trace.uninstall(patches)
            daemon.stop()
        self._check(phase, out)
        with open(daemon.manifest) as fh:
            manifest = json.load(fh)
        # the daemon's registry spans its whole life; the set-up scan adds
        # nothing to the counts read from it (no DRC, retries or sheds)
        registry = {"counters": manifest["counters"], "gauges": manifest["gauges"]}
        spans, ppids = trace.load(trace_dir)
        phase_spans = _phase_spans(trace.analyze(spans, ppids))
        layer = trace.layer_metrics(trace.totals(phase_spans), registry, 2)
        served = [s["job"]["result"] for s in phase.edits if "job" in s]
        hits = float(sum(r.get("tiles_cached", 0) for r in served))
        misses = float(sum(r.get("tiles_computed", 0) for r in served))
        store_hits = store1["hits"] - store0["hits"]
        store_misses = store1["misses"] - store0["misses"]
        layer.update({
            "parallel.cache_hits": hits,
            "parallel.cache_misses": misses,
            "parallel.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "service.store_hit_ratio": store_hits / max(store_hits + store_misses, 1),
        })
        # per interactive request, the background share included
        requests = max(len(phase.edits), 1)
        layer = {k: v / requests if trace.additive(k) else v for k, v in layer.items()}
        layer.update(self._service_layer(phase))
        layer["parallel.workers_peak_rss_mb"] = workers_rss
        # over the requests: think time and the pause between batches
        # are the load generator idling, not work of any layer
        layer["obs.self_time_coverage"] = trace.coverage(
            [s for s in phase_spans if s.name in ("bench.edit", "bench.matrix")])
        traced_p50 = _median_metric([s["latency_s"] for s in phase.edits if "job" in s])
        plain_p50 = _median_metric([s["latency_s"] for s in plain.edits if "job" in s])
        layer["obs.trace_overhead_ratio"] = traced_p50 / plain_p50 if plain_p50 else 0.0
        return layer


def make(name: str, seed: int, sizes: Sizes, work: str) -> "BatchWorkload | ServiceWorkload":
    if name == "service_mixed":
        return ServiceWorkload(seed, sizes, work)
    return BatchWorkload(name, seed, sizes, work)


def measure(
    name: str, seed: int, seconds: float, traced: bool, sizes: Sizes, work_root: str
) -> Outcome:
    """Run one workload in a private directory under ``work_root``."""
    work = os.path.join(work_root, f"{name}-{os.getpid()}-{int(traced)}")
    os.makedirs(work, exist_ok=True)
    try:
        return make(name, seed, sizes, work).measure(seconds, traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)
