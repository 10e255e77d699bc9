"""Execution paths for the compliance matrix.

One worker function — :func:`run_scenario_check` — serves every path:

* in-process: deduplicated scenario items fan out over a
  :class:`~repro.parallel.TileExecutor` (``jobs=1`` is the serial path);
* service: each scenario becomes a ``matrix`` job; the daemon's shared
  :class:`~repro.parallel.cache.ResultStore` deduplicates across jobs,
  clients, and batches (:func:`execute_matrix_job` is the branch
  :class:`~repro.service.core.VerificationService` dispatches to).

The function takes and returns only JSON-pure values, so a result that
rode the wire is byte-identical to one computed in process — the basis
of the path-independence guarantee the matrix report asserts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

from repro import __version__
from repro.dpt import decompose_dpt
from repro.geometry import Rect, Region
from repro.litho.hotspots import find_hotspots
from repro.litho.model import LithoModel
from repro.litho.process import ProcessCondition
from repro.obs import get_registry, names
from repro.parallel import ResultStore, TileExecutor
from repro.tech import make_node
from repro.tech.technology import LithoSettings

from repro.matrix.report import LibraryComplianceReport, build_report
from repro.matrix.scenarios import (
    CHECKS,
    MatrixSpec,
    Scenario,
    enumerate_scenarios,
)


@dataclass(frozen=True)
class MatrixPayload:
    """Per-node check parameters: the read-only payload every scenario
    check receives."""

    # (node, litho settings, pinch limit nm, dpt same-mask space nm)
    nodes: tuple[tuple[int, LithoSettings, int, int], ...]

    def params_for(self, node: int) -> tuple[LithoSettings, int, int]:
        for entry, litho, pinch, space in self.nodes:
            if entry == node:
                return litho, pinch, space
        raise KeyError(f"node {node} not in payload")


def payload_for_nodes(nodes: tuple[int, ...]) -> MatrixPayload:
    entries = []
    for node in sorted(set(int(n) for n in nodes)):
        tech = make_node(node)
        entries.append(
            (node, tech.litho, tech.metal_width // 2, 2 * tech.metal_space)
        )
    return MatrixPayload(nodes=tuple(entries))


@dataclass(frozen=True)
class _CornerWindow:
    """Duck-typed single-corner stand-in for ``ProcessWindow``."""

    dose: float
    defocus_nm: float

    def corners(self) -> list[ProcessCondition]:
        return [ProcessCondition(self.dose, self.defocus_nm)]


_MODELS: dict[LithoSettings, LithoModel] = {}


def _model(settings: LithoSettings) -> LithoModel:
    model = _MODELS.get(settings)
    if model is None:
        model = _MODELS[settings] = LithoModel(settings)
    return model


def run_scenario_check(payload: MatrixPayload, item: dict) -> dict:
    """Execute one scenario item; JSON-pure in, JSON-pure out."""
    check = item["check"]
    if check not in CHECKS:
        raise ValueError(f"unknown check {check!r}")
    litho, pinch_limit, dpt_space = payload.params_for(int(item["node"]))
    region = Region([Rect(*r) for r in item["rects"]])
    window = Rect(0, 0, int(item["window_w"]), int(item["window_h"]))
    if check == "litho":
        dose, defocus = item["corner"]
        spots = find_hotspots(
            _model(litho),
            region,
            window,
            _CornerWindow(float(dose), float(defocus)),
            pinch_limit=pinch_limit,
        )
        kinds: dict[str, int] = {}
        for spot in spots:
            kinds[spot.kind.value] = kinds.get(spot.kind.value, 0) + 1
        return {
            "check": "litho",
            "findings": len(spots),
            "worst_severity": round(
                max((s.severity for s in spots), default=0.0), 3
            ),
            "kinds": kinds,
        }
    result = decompose_dpt(region, dpt_space)
    return {
        "check": "dpt",
        "findings": result.findings_count,
        "conflict_features": [int(i) for i in result.findings],
        "conflict_cycles": len(result.conflict_cycles),
    }


def scenario_namespace(node: int, check: str) -> str:
    """The store namespace one scenario's result lives in: keyed by code
    version, node, and check kind — the key itself addresses geometry."""
    return ResultStore.namespace("matrix", __version__, int(node), check)


def validate_item(params: Any) -> dict:
    """Validate a wire-shaped scenario item; raises ``ValueError`` with a
    message suitable for a typed bad-request."""
    if not isinstance(params, dict):
        raise ValueError("matrix params must be an object")
    for field_name in ("key", "check", "node", "window_w", "window_h", "rects"):
        if field_name not in params:
            raise ValueError(f"matrix params missing {field_name!r}")
    if params["check"] not in CHECKS:
        raise ValueError(f"unknown check {params['check']!r}")
    if params["check"] == "litho" and not params.get("corner"):
        raise ValueError("litho scenario requires a corner")
    return params


def execute_matrix_job(params: Any, *, store: ResultStore) -> dict:
    """Run one scenario item against a shared store (the service path)."""
    item = validate_item(params)
    ns = scenario_namespace(item["node"], item["check"])
    cached = store.get(ns, item["key"])
    hit = cached is not None
    if hit:
        result = cached
    else:
        result = run_scenario_check(payload_for_nodes((item["node"],)), item)
        store.put(ns, item["key"], result)
    findings = int(result["findings"])
    return {
        "ok": findings == 0,
        "findings": findings,
        "key": item["key"],
        "store_hit": hit,
        "summary": (
            f"matrix {item['check']} @ {item['node']}nm: "
            f"{findings} findings" + (" (store hit)" if hit else "")
        ),
        "scenario": result,
    }


def _run_in_process(
    scenarios: list[Scenario],
    payload: MatrixPayload,
    store: ResultStore,
    *,
    jobs: int,
) -> list[dict]:
    """Execute scenarios with store dedup, mirroring the sequential
    service semantics: first occurrence of a window misses and computes,
    every later duplicate hits."""
    results_by_key: dict[str, dict] = {}
    pending: list[dict] = []
    for scenario in scenarios:
        if scenario.key in results_by_key:
            continue
        cached = store.get(
            scenario_namespace(scenario.node, scenario.check), scenario.key
        )
        if cached is not None:
            results_by_key[scenario.key] = cached
        else:
            results_by_key[scenario.key] = {}  # placeholder: computed below
            pending.append(scenario.item())

    computed = TileExecutor(jobs=jobs).map(run_scenario_check, payload, pending)
    for item, result in zip(pending, computed):
        store.put(
            scenario_namespace(item["node"], item["check"]), item["key"], result
        )
        results_by_key[item["key"]] = result

    out: list[dict] = []
    seen: set[str] = set()
    for scenario in scenarios:
        if scenario.key in seen:
            # duplicate window: serve it from the store, like the
            # sequential service path would (counts a hit)
            out.append(
                store.get(
                    scenario_namespace(scenario.node, scenario.check),
                    scenario.key,
                )
            )
        else:
            seen.add(scenario.key)
            out.append(results_by_key[scenario.key])
    return out


def _run_via_client(scenarios: list[Scenario], client: Any) -> list[dict]:
    """Execute scenarios as a batch of ``matrix`` jobs through a client
    (in-process ``ServiceClient`` or socket ``SocketClient``): one batch,
    streamed results, background band so interactive submits preempt."""
    items = [{"kind": "matrix", "params": s.item()} for s in scenarios]
    results: list[dict | None] = [None] * len(scenarios)
    failures: list[str] = []
    for event in client.submit_batch(items, priority="background"):
        index = event["index"]
        if "error" in event:
            failures.append(f"#{index}: {event['error'].get('message')}")
            continue
        job = event["job"]
        if job.get("state") != "done" or not job.get("result"):
            failures.append(f"#{index}: job {job.get('state')}: {job.get('error')}")
            continue
        results[index] = job["result"]["scenario"]
    if failures:
        raise RuntimeError(
            f"{len(failures)} of {len(scenarios)} matrix scenarios failed: "
            + "; ".join(failures[:3])
        )
    return [r for r in results if r is not None]


def run_matrix(
    spec: MatrixSpec,
    *,
    jobs: int = 1,
    store: ResultStore | None = None,
    client: Any | None = None,
) -> LibraryComplianceReport:
    """Enumerate and execute the matrix, reduce to the library report.

    With ``client`` the scenarios run as batched service jobs (the
    daemon's store deduplicates); otherwise they run in process over a
    ``TileExecutor`` against ``store`` (fresh per run by default).
    """
    registry = get_registry()
    t0 = time.perf_counter()
    scenarios = enumerate_scenarios(spec)
    registry.inc(names.MATRIX_RUNS)
    registry.inc(names.MATRIX_SCENARIOS, len(scenarios))

    if client is not None:
        results = _run_via_client(scenarios, client)
        store_stats = {"mode": "service"}
    else:
        local_store = store if store is not None else ResultStore()
        hits0, misses0 = local_store.hits, local_store.misses
        payload = payload_for_nodes(tuple(spec.nodes))
        results = _run_in_process(scenarios, payload, local_store, jobs=jobs)
        hits = local_store.hits - hits0
        misses = local_store.misses - misses0
        store_stats = {
            "mode": "in-process",
            "hits": hits,
            "misses": misses,
            "hit_rate": round(hits / max(hits + misses, 1), 4),
        }
        registry.inc(names.MATRIX_SCENARIOS_EXECUTED, misses)
        registry.inc(names.MATRIX_SCENARIOS_CACHED, hits)

    cells: tuple[str, ...]
    if spec.cells is not None:
        cells = tuple(spec.cells)
    else:
        from repro.designgen import make_stdcell_library

        cells = tuple(make_stdcell_library(make_node(spec.nodes[0])).names())

    report = build_report(
        spec,
        scenarios,
        results,
        cells=cells,
        store_stats=store_stats,
        elapsed_s=time.perf_counter() - t0,
    )
    registry.inc(names.MATRIX_FINDINGS, report.findings_count)
    registry.inc(names.MATRIX_WINDOWS_UNIQUE, report.unique_windows)
    return report
