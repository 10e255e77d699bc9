"""The repo benchmark: four reference workloads, end to end and per layer.

One workload in one mode (the last stdout line is the result object)::

    python benchmarks/perf/run.py --workload block_serial --seed 7 --seconds 18 --trace 0

Every workload — an untraced run for the end-to-end metrics, then a
traced run for the per-layer metrics — with a full result file::

    python benchmarks/perf/run.py --seed 7 --out result.json
    python benchmarks/perf/run.py --quick            # smoke size, under a minute

Compare result files (a baseline may hold several sets)::

    python benchmarks/perf/run.py --compare benchmarks/perf/baseline.json result.json

Exit status: 0 when every output was correct (and, comparing, nothing
regressed); 1 on a wrong output, a failed operation or a regression;
2 when the program's sources are missing or the arguments are bad.
See README.md in this directory for the metric -> layer -> workload map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import time
import traceback

import metrics  # pure: imports nothing from the program

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perf_work")
RUN_SECONDS = 18


def _result_line(correct: bool, attempted: int, failed: int, values: dict[str, tuple]) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
    })


def _unit(name: str) -> str:
    if name in metrics.END_TO_END:
        return metrics.END_TO_END[name].unit
    return metrics.PER_LAYER[name]


def _table(rows: list[tuple[str, str, float, str]]) -> str:
    width = max((len(r[1]) for r in rows), default=10)
    return "\n".join(f"  {w:<15} {n:<{width}} {v:>14.6g} {u}" for w, n, v, u in rows)


def _with_units(values: dict[str, float]) -> dict:
    return {k: {"value": v, "unit": _unit(k)} for k, v in sorted(values.items())}


def _outcome_dict(out) -> dict:
    return {
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "problems": out.problems,
        "end_to_end": _with_units(out.end_to_end),
        "per_layer": _with_units(out.per_layer),
        "info": out.info,
    }


def _env(args) -> dict:
    return {
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "created_unix": int(time.time()),
    }


def run_one(args, workloads) -> int:
    """One workload, one mode, one result line."""
    sizes = workloads.QUICK if args.quick else workloads.FULL
    out = workloads.measure(
        args.workload, args.seed, args.seconds, bool(args.trace), sizes, WORK_ROOT
    )
    names = metrics.GATED_PER_LAYER if args.trace else metrics.GATED_END_TO_END
    source = out.per_layer if args.trace else out.end_to_end
    values = {n: (float(source.get(n, 0.0)), _unit(n)) for n in names}
    print(_table([(args.workload, n, v, u) for n, (v, u) in values.items()]))
    for problem in out.problems:
        print(f"  WRONG: {problem}", file=sys.stderr)
    if args.out:
        _write(args.out, {"schema": "perfbench-v1", "env": _env(args),
                          "workloads": {args.workload: _outcome_dict(out)}})
    print(_result_line(out.correct, out.attempted, out.failed, values))
    return 0 if out.correct else 1


def run_all(args, workloads) -> int:
    """Every workload, untraced then traced; prints every metric."""
    sizes = workloads.QUICK if args.quick else workloads.FULL
    result = {"schema": "perfbench-v1", "env": _env(args), "workloads": {}}
    attempted = failed = 0
    correct = True
    values: dict[str, tuple] = {}
    for name in workloads.WORKLOADS:
        plain = workloads.measure(name, args.seed, args.seconds, False, sizes, WORK_ROOT)
        traced = workloads.measure(name, args.seed, args.seconds, True, sizes, WORK_ROOT)
        merged = plain
        merged.per_layer = traced.per_layer
        merged.attempted += traced.attempted
        merged.failed += traced.failed
        merged.correct = plain.correct and traced.correct
        merged.problems += traced.problems
        merged.end_to_end["failed_ratio"] = merged.failed / max(merged.attempted, 1)
        merged.info["traced"] = traced.info
        result["workloads"][name] = _outcome_dict(merged)
        attempted += merged.attempted
        failed += merged.failed
        correct = correct and merged.correct
        rows = [(name, k, v, _unit(k)) for k, v in sorted(merged.end_to_end.items())]
        rows += [(name, k, v, _unit(k)) for k, v in sorted(merged.per_layer.items())]
        print(f"{name}: {merged.attempted} operations, {merged.failed} failed, "
              f"info {json.dumps(merged.info, default=str)[:300]}")
        print(_table(rows), flush=True)
        for problem in merged.problems:
            print(f"  WRONG: {problem}", file=sys.stderr)
        values.update({f"{name}/{k}": (v, u) for _, k, v, u in rows})
    if args.out:
        _write(args.out, result)
    print(_result_line(correct, attempted, failed, values))
    return 0 if correct else 1


def _write(path: str, data: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True, default=str)
        fh.write("\n")
    os.replace(tmp, path)


def _sets(path: str) -> list[dict]:
    """The result sets in a file: a baseline holds ``sets``, a run is one."""
    with open(path) as fh:
        data = json.load(fh)
    return data["sets"] if "sets" in data else [data]


def compare(base_path: str, run_paths: list[str]) -> int:
    """One row per workload and metric: medians, quartiles, verdict."""
    base_sets = _sets(base_path)
    new_sets = [s for p in run_paths for s in _sets(p)]
    regressed = False

    def cell(q: tuple[float, float, float]) -> str:
        return f"{q[1]:.5g} [{q[0]:.4g}, {q[2]:.4g}]"

    print(f"{'workload':<15} {'metric':<23} {'unit':<9} {'base median [q1, q3]':<32} "
          f"{'new median [q1, q3]':<32} {'change':>7}  verdict")
    for name in sorted({w for s in base_sets for w in s["workloads"]}):
        for metric_name, spec in metrics.END_TO_END.items():
            base = [s["workloads"][name]["end_to_end"][metric_name]["value"]
                    for s in base_sets
                    if metric_name in s["workloads"].get(name, {}).get("end_to_end", {})]
            new = [s["workloads"][name]["end_to_end"][metric_name]["value"]
                   for s in new_sets
                   if metric_name in s["workloads"].get(name, {}).get("end_to_end", {})]
            if not base:
                continue
            if not new:
                print(f"{name:<15} {metric_name:<23} {spec.unit:<9} missing from the new run")
                regressed = True
                continue
            verdict = metrics.verdict(base, new, spec.better, spec.bound)
            if metric_name == "failed_ratio" and metrics.median(new) > metrics.median(base):
                verdict = "worse"
            regressed = regressed or verdict == "worse"
            bq, nq = metrics.quartiles(base), metrics.quartiles(new)
            change = (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            print(f"{name:<15} {metric_name:<23} {spec.unit:<9} {cell(bq):<32} "
                  f"{cell(nq):<32} {change:>+7.1%}  {verdict}")
    return 1 if regressed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help=f"measured seconds per run (default {RUN_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 0 end-to-end metrics, 1 per-layer metrics")
    parser.add_argument("--out", help="write the full result JSON here")
    parser.add_argument("--quick", action="store_true", help="smoke-test sizes")
    parser.add_argument("--compare", nargs="+", metavar="FILE",
                        help="BASE.json [RUN.json ...]: compare result files")
    args = parser.parse_args(argv)

    if args.compare:
        if len(args.compare) < 2:
            parser.error("--compare needs a base file and at least one run file")
        return compare(args.compare[0], args.compare[1:])
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"run.py: the program's sources are missing ({SRC}/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload is not None and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(expected one of {', '.join(workloads.WORKLOADS)})")
    if args.quick and args.seconds == RUN_SECONDS:
        args.seconds = 10.0
    os.makedirs(WORK_ROOT, exist_ok=True)
    workloads.adopt_orphans()
    # a terminated run unwinds too, so the cleanup below still runs
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.workload is not None:
            return run_one(args, workloads)
        return run_all(args, workloads)
    except Exception:  # repro-lint: disable=RL004
        # a broken benchmark run prints no result line
        traceback.print_exc()
        return 1
    finally:
        # no process the run started may outlive it
        workloads.reap_children()
        if not os.listdir(WORK_ROOT):
            shutil.rmtree(WORK_ROOT, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
