"""Tests of the perf benchmark itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf/test_perf.py``
from the repo root (``benchmarks/conftest.py`` imports the program).  The last test runs every workload at ``--quick`` size (about a
minute); deselect it with ``-k "not quick"``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import metrics  # noqa: E402
import run  # noqa: E402
import trace  # noqa: E402  (the benchmark's own module, not the stdlib one)


# -- the percentile rule --------------------------------------------------


@pytest.mark.parametrize("n,pct", [(20, 50), (100, 90), (200, 95), (1000, 99), (150, 93)])
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    values = [float(v) for v in range(n, 0, -1)]  # unsorted input
    got_pct, value = metrics.tail_percentile(values)
    assert got_pct == pct
    assert sum(1 for v in values if v > value) >= 10
    # one percentile higher would leave fewer than ten beyond it
    higher = sorted(values)[-(-(pct + 1) * n // 100) - 1]
    assert sum(1 for v in values if v > higher) < 10


def test_tail_percentile_needs_twenty_samples():
    assert metrics.tail_percentile([1.0] * 19) is None


# -- self time ------------------------------------------------------------


def _span(sid, parent, name, pid, t0, t1, trace_id=None):
    return trace.Span(trace_id, sid, parent, name, name.split(".")[0], pid, t0, t1, None)


def test_self_time_nested_spans():
    spans = [
        _span(1, None, "bench.rep", 10, 0.0, 10.0),
        _span(2, 1, "litho.hotspots", 10, 2.0, 5.0),
        _span(3, 2, "litho.simulate", 10, 3.0, 4.0),
        _span(4, 1, "drc.check.width", 10, 4.0, 8.0),  # overlaps span 2
    ]
    roots = trace.analyze(spans, {})
    by = {s.sid: s for s in spans}
    assert [r.sid for r in roots] == [1]
    assert by[1].self_s == pytest.approx(10.0 - 6.0)  # children cover [2, 8]
    assert by[2].self_s == pytest.approx(2.0)
    assert by[3].self_s == pytest.approx(1.0)
    assert sum(s.self_s for s in spans) >= by[1].duration


def test_cross_process_spans_attach_by_interval_and_trace():
    bench, rep, worker, daemon = 100, 200, 300, 400
    ppids = {rep: bench, worker: rep, daemon: bench}
    spans = [
        _span(1, None, "bench.traced", bench, 0.0, 20.0),
        _span(2, None, "bench.rep", rep, 1.0, 9.0, "rep0"),
        _span(3, 2, "parallel.run", rep, 2.0, 8.0),
        _span(4, None, "parallel.task", worker, 3.0, 6.0),
        _span(5, 4, "litho.hotspots", worker, 3.5, 5.5),
        # a second benchmark thread's edit and a background batch, both
        # covering a daemon job: the job joins the span of its client
        _span(6, None, "bench.edit", bench, 10.0, 12.0, "u0"),
        _span(7, None, "bench.matrix", bench, 10.5, 11.8, "cli"),
        _span(8, None, "service.job", daemon, 11.0, 11.5, "u0"),
    ]
    roots = trace.analyze(spans, ppids)
    by = {s.sid: s for s in spans}
    assert [r.sid for r in roots] == [1]
    assert by[4] in by[3].children  # worker task under the pool run
    assert by[4].trace_id == "rep0" and by[5].trace_id == "rep0"
    assert by[8] in by[6].children and by[8] not in by[7].children
    assert by[3].self_s == pytest.approx(6.0 - 3.0)
    assert by[4].self_s == pytest.approx(1.0)


def test_coverage_counts_only_program_spans():
    bench, worker = 100, 300
    spans = [
        _span(1, None, "bench.rep", bench, 0.0, 10.0, "rep0"),
        _span(2, 1, "bench.scan", bench, 1.0, 9.0),
        _span(3, 2, "gdsii.parse", bench, 1.0, 2.0),
        _span(4, 2, "parallel.run", bench, 3.0, 7.0),
        # two pool workers side by side: their time counts once
        _span(5, None, "parallel.task", worker, 3.0, 6.0),
        _span(6, None, "parallel.task", worker + 1, 3.5, 6.5),
    ]
    trace.analyze(spans, {worker: bench, worker + 1: bench})
    # covered: [1, 2] and [3, 7]; bench self time: 2 (rep) + 3 (scan)
    assert trace.coverage([spans[0]]) == pytest.approx(0.5)
    assert trace.coverage([]) == 0.0


def test_daemon_job_records_its_queue_wait(tmp_path):
    rec = trace.Recorder(str(tmp_path))

    class Job:
        client = "u0"

    def run_job(service, job):
        time.sleep(0.01)

    run_w = rec.wrap(run_job, "service.job")
    with rec.span("bench.edit", "u0"):
        Job.submitted_monotonic = time.perf_counter()
        time.sleep(0.02)  # queued behind another job
        run_w(None, Job())
    spans, ppids = trace.load(str(tmp_path))
    roots = trace.analyze(spans, ppids)
    by = {s.name: s for s in spans}
    assert by["service.wait"].trace_id == "u0"
    assert by["service.wait"] in by["bench.edit"].children
    assert by["service.wait"].t1 <= by["service.job"].t0
    assert trace.coverage(roots) > 0.9


def test_recorder_wraps_functions_and_generators(tmp_path):
    rec = trace.Recorder(str(tmp_path))

    def leaf(x):
        return [x] * x

    def gen(n):
        for i in range(n):
            yield leaf(i)

    leaf_w = rec.wrap(leaf, "geometry.region")
    gen_w = rec.wrap(gen, "litho.simulate")
    assert gen_w.__name__ == "gen"
    with rec.span("bench.rep", "rep0"):
        assert list(gen_w(3)) == [[], [1], [2, 2]]
        assert leaf_w(2) == [2, 2]
    spans, ppids = trace.load(str(tmp_path))
    assert ppids == {os.getpid(): os.getppid()}
    names = sorted(s.name for s in spans)
    # one span per resumption: three items plus the final StopIteration
    assert names.count("litho.simulate") == 4
    assert names.count("geometry.region") == 1
    trace.analyze(spans, ppids)
    assert {s.trace_id for s in spans} == {"rep0"}


# -- host-speed normalisation ---------------------------------------------


def test_host_clock_scales_each_piece_by_its_own_loops():
    import workloads

    nominal = workloads.REF_NOMINAL_S
    clock = workloads.HostClock()
    # (loop start, loop end, loop seconds): at speed, at half speed, at speed
    clock._marks = [(0.0, 0.1, nominal), (1.1, 1.2, 2 * nominal), (3.2, 3.3, nominal)]
    assert clock.wall(0, 2) == pytest.approx(3.0)  # the loops themselves excluded
    assert clock.scaled(0, 1) == pytest.approx(1.0 / 1.5)
    assert clock.scaled(1, 2) == pytest.approx(2.0 / 1.5)
    assert clock.scaled(0, 2) == pytest.approx(2.0)
    assert clock.scale() == pytest.approx(1.0)


def test_disabled_host_clock_runs_no_loop_and_scales_nothing():
    import workloads

    clock = workloads.HostClock(enabled=False)
    first = clock.mark()
    time.sleep(0.01)
    last = clock.mark()
    assert clock.scaled(first, last) == pytest.approx(clock.wall(first, last))
    assert clock.loops_s() == 0.0


# -- compare verdicts -----------------------------------------------------


TEN = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
WIDE = [60, 140, 100, 80, 120, 70, 130, 90, 110, 100]


@pytest.mark.parametrize(
    "base,new,better,expected",
    [
        (TEN, [v + 20 for v in TEN], "higher", "improved"),
        (TEN, [v + 20 for v in TEN[:4]], "higher", "no-worse"),  # too few runs to claim
        (TEN, [101, 100, 99, 100], "higher", "no-worse"),
        (TEN, [80, 81, 79, 80], "higher", "worse"),
        (TEN, [v - 20 for v in TEN], "lower", "improved"),
        (WIDE, [98, 99, 101], "higher", "unresolved"),
        (WIDE, [v + 100 for v in WIDE], "higher", "improved"),
        ([0.0, 0.0], [0.0, 0.01], "lower", "worse"),
    ],
)
def test_verdicts(base, new, better, expected):
    assert metrics.verdict(base, new, better, 0.1 if any(base) else 0.0) == expected


def _result(path, scan, failed_ratio=0.0):
    e2e = {
        "scan_tiles_per_s": {"value": scan, "unit": "tiles/s"},
        "failed_ratio": {"value": failed_ratio, "unit": "fraction"},
    }
    path.write_text(json.dumps({"workloads": {"block_serial": {"end_to_end": e2e}}}))
    return str(path)


def test_compare_exit_codes(tmp_path):
    base = tmp_path / "base.json"
    base.write_text(json.dumps({"sets": [
        json.loads(open(_result(tmp_path / "a.json", 3.0)).read()),
        json.loads(open(_result(tmp_path / "b.json", 3.05)).read()),
    ]}))

    def compare(*files):
        return subprocess.run([sys.executable, RUN, "--compare", str(base), *files],
                              capture_output=True, text=True)

    same = compare(_result(tmp_path / "same.json", 3.02))
    assert same.returncode == 0, same.stdout
    assert "no-worse" in same.stdout
    slow = compare(_result(tmp_path / "slow.json", 2.0))
    assert slow.returncode == 1 and "worse" in slow.stdout
    failing = compare(_result(tmp_path / "fail.json", 3.02, failed_ratio=0.01))
    assert failing.returncode == 1


# -- the benchmark contract -----------------------------------------------


def test_benchmark_json_matches_the_metric_tables():
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert bench["paths"] == ["benchmarks/perf"]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == list(metrics.GATED_END_TO_END)
    for m in bench["end_to_end"]:
        spec = metrics.END_TO_END[m["name"]]
        assert (m["unit"], m["better"], m["bound"]) == (spec.unit, spec.better, spec.bound)
    assert [m["name"] for m in bench["per_layer"]] == list(metrics.GATED_PER_LAYER)
    for m in bench["per_layer"]:
        assert m["unit"] == metrics.PER_LAYER[m["name"]]
        higher = m["name"] in metrics.PER_LAYER_HIGHER
        assert m["better"] == ("higher" if higher else "lower")
    assert bench["run_seconds"] == run.RUN_SECONDS


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "block_serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_quick_end_to_end(tmp_path):
    out = tmp_path / "quick.json"
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, RUN, "--quick", "--seed", "3", "--out", str(out)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] > 0
    result = json.loads(out.read_text())
    for name, workload in result["workloads"].items():
        for metric in metrics.GATED_END_TO_END:
            assert workload["end_to_end"][metric]["value"] > 0, (name, metric)
        for metric in metrics.GATED_PER_LAYER:
            assert metric in workload["per_layer"], (name, metric)
        assert 0.0 < workload["per_layer"]["obs.self_time_coverage"]["value"] <= 1.0
    assert elapsed < 90, f"--quick took {elapsed:.0f} s"
