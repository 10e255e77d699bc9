"""Metric definitions, order statistics, and the compare verdicts.

Every end-to-end metric the benchmark prints is declared once in
:data:`END_TO_END` with its unit, its direction, and its regression
bound (the share of the parent's median by which it may worsen before a
change counts as a regression).  :data:`GATED_END_TO_END` and
:data:`GATED_PER_LAYER` are the subsets every workload reports and
``BENCHMARK.json`` lists; the rest are workload-specific and appear in
the full ``--out`` result and in ``--compare``.  ``failed_ratio`` reads
zero in a correct run, so it is gated by the exit status instead: any
failed or wrong operation makes a run exit 1.

This module imports nothing from the program, so the compare mode and
the unit tests run without building any input.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    unit: str
    better: str  # "lower" or "higher"
    bound: float


# README.md gives the measured run-to-run spread behind each bound.
# Timings are taken at the reference host speed (workloads.HostClock);
# even so they spread 4-18% over ten seeds on a shared two-vCPU host, so
# they get 0.25.  Memory repeats to within 3% and gets 0.10.  A timing
# whose parent spread is wider than its bound still shows up as
# "unresolved" in --compare.
TIMING_BOUND = 0.25
END_TO_END: dict[str, Metric] = {
    "setup_s": Metric("s", "lower", TIMING_BOUND),
    "job_ms": Metric("ms", "lower", TIMING_BOUND),
    "scan_tiles_per_s": Metric("tiles/s", "higher", TIMING_BOUND),
    "drc_tiles_per_s": Metric("tiles/s", "higher", TIMING_BOUND),
    "peak_rss_mb": Metric("MB", "lower", 0.10),
    "cpu_s": Metric("s", "lower", TIMING_BOUND),
    "ingest_rects_per_s": Metric("rects/s", "higher", TIMING_BOUND),
    "edit_p50_ms": Metric("ms", "lower", TIMING_BOUND),
    "edit_tail_ms": Metric("ms", "lower", TIMING_BOUND),
    "matrix_scenarios_per_s": Metric("1/s", "higher", TIMING_BOUND),
    "failed_ratio": Metric("fraction", "lower", 0.0),
}

# Reported by every workload and never zero: the subset BENCHMARK.json lists.
GATED_END_TO_END = ("setup_s", "job_ms", "scan_tiles_per_s", "drc_tiles_per_s", "peak_rss_mb")

# Per-layer metrics: name -> unit.  Values are per rep for the batch
# workloads and per interactive request for the service workload.
PER_LAYER: dict[str, str] = {
    "gdsii.parse_s": "s",
    "gdsii.parse_calls": "count",
    "gdsii.flatten_s": "s",
    "layout.flatten_s": "s",
    "layout.flatten_calls": "count",
    "layout.ingest_sort_s": "s",
    "layout.window_calls": "count",
    "layout.window_s": "s",
    "layout.window_rects": "count",
    "geometry.region_ops": "count",
    "geometry.region_s": "s",
    "geometry.index_queries": "count",
    "geometry.index_s": "s",
    "geometry.digest_calls": "count",
    "geometry.digest_s": "s",
    "litho.tiles": "count",
    "litho.hotspots_s": "s",
    "litho.simulate_s": "s",
    "litho.rasterize_s": "s",
    "litho.contour_s": "s",
    "litho.classify_s": "s",
    "litho.raster_reuse_ratio": "ratio",
    "drc.check_s.width": "s",
    "drc.check_s.spacing": "s",
    "drc.check_s.layer_spacing": "s",
    "drc.check_s.enclosure": "s",
    "drc.check_s.area": "s",
    "drc.check_s.density": "s",
    "drc.check_s.extension": "s",
    "drc.tasks": "count",
    "drc.violations": "count",
    "parallel.run_s": "s",
    "parallel.task_s": "s",
    "parallel.worker_busy_ratio": "ratio",
    "parallel.share_s": "s",
    "parallel.payload_bytes": "bytes",
    "parallel.workers_peak_rss_mb": "MB",
    "parallel.digest_s": "s",
    "parallel.cache_hits": "count",
    "parallel.cache_misses": "count",
    "parallel.cache_hit_ratio": "ratio",
    "parallel.retries": "count",
    "parallel.quarantined": "count",
    "service.wait_ms_p50": "ms",
    "service.wait_ms_tail": "ms",
    "service.run_ms_p50": "ms",
    "service.run_ms_tail": "ms",
    "service.wire_ms_p50": "ms",
    "service.session_reloads": "count",
    "service.session_load_s": "s",
    "service.store_hit_ratio": "ratio",
    "service.bg_wait_ms_p50": "ms",
    "service.shed": "count",
    "service.jobs_failed": "count",
    "matrix.enumerate_s": "s",
    "matrix.report_s": "s",
    "matrix.check_s": "s",
    "matrix.dedup_ratio": "ratio",
    "matrix.scenarios": "count",
    "dpt.decompose_s": "s",
    "obs.trace_overhead_ratio": "ratio",
    "obs.spans": "count",
    "obs.self_time_coverage": "ratio",
}

# Per-layer metrics where more is better; for the rest (time, work
# done, overhead) less is.
PER_LAYER_HIGHER = frozenset({
    "litho.raster_reuse_ratio",
    "parallel.worker_busy_ratio",
    "parallel.cache_hit_ratio",
    "service.store_hit_ratio",
    "matrix.dedup_ratio",
    "obs.self_time_coverage",
})

# Non-zero on every workload; ordered by how likely an optimization in
# that layer is to move them.
GATED_PER_LAYER = (
    "geometry.region_s",
    "geometry.region_ops",
    "litho.hotspots_s",
    "litho.classify_s",
    "litho.simulate_s",
    "litho.rasterize_s",
    "litho.contour_s",
    "litho.tiles",
    "litho.raster_reuse_ratio",
    "drc.check_s.enclosure",
    "drc.check_s.width",
    "drc.check_s.spacing",
    "drc.check_s.area",
    "drc.check_s.extension",
    "drc.tasks",
    "geometry.index_s",
    "geometry.index_queries",
    "gdsii.parse_s",
    "gdsii.parse_calls",
    "parallel.run_s",
    "parallel.task_s",
    "parallel.worker_busy_ratio",
    "obs.trace_overhead_ratio",
    "obs.spans",
)


# ---------------------------------------------------------------------------
# order statistics
# ---------------------------------------------------------------------------


def median(values: list[float]) -> float:
    return statistics.median(values)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it.

    Nearest-rank: the p-th percentile of n sorted samples is the one at
    rank ``ceil(p * n / 100)``.  Ten samples lie beyond it exactly when
    that rank is at most ``n - 10``, so p is ``floor(100 * (n - 10) / n)``
    — p90 at 100 samples, p95 at 200, p99 at 1000.  Below 20 samples no
    percentile above the median qualifies and ``None`` is returned.
    """
    n = len(values)
    if n < 20:
        return None
    pct = (100 * (n - 10)) // n
    rank = math.ceil(pct * n / 100)
    return pct, sorted(values)[rank - 1]


# ---------------------------------------------------------------------------
# compare verdicts
# ---------------------------------------------------------------------------


MIN_RUNS_FOR_GAIN = 10


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    """``improved``, ``no-worse``, ``worse`` or ``unresolved``.

    * ``unresolved``: the parent's own spread (its quartile distance as
      a share of its median) is wider than the bound, so a regression of
      the bound's size could hide in it — unless every new run reads
      better than every parent run.
    * ``worse``: the new median is worse than the parent's by more than
      the bound.
    * ``improved``: at least ten runs on each side, the new runs win
      at least nine tenths of the (parent, new) pairs, ties counting
      for neither, and the medians differ by more than the parent's
      quartile distance.
    * ``no-worse``: anything else.
    """
    sign = 1.0 if better == "higher" else -1.0
    base_median, new_median = median(base), median(new)
    q1, _, q3 = quartiles(base)
    spread = q3 - q1
    pairs = [(b, n) for b in base for n in new]
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    scale = abs(base_median)
    if scale and spread / scale > bound and wins < len(pairs):
        return "unresolved"
    gain = sign * (new_median - base_median)
    if -gain > bound * scale:
        return "worse"
    enough = min(len(base), len(new)) >= MIN_RUNS_FOR_GAIN
    if enough and gain > spread and wins >= 0.9 * len(pairs):
        return "improved"
    return "no-worse"
