"""The rule-deck runner.

Two execution modes share one rule dispatcher:

* the classic single-pass mode (``run_drc_regions``) — every rule over
  the whole extent, unchanged default;
* a tiled parallel + incremental mode (``run_drc_tiled``) — *local*
  rules (width, spacing, extension), whose interaction distance is
  bounded by the rule value, fan out per tile over a worker pool with a
  halo window and seam-ownership filtering, while *global* rules
  (enclosure, area, density), which reason about whole connected
  components or the whole extent, fan out one task per rule.  With a
  :class:`~repro.parallel.TileCache`, every task is keyed by a content
  hash of the geometry it can see, so a re-run after a local edit
  re-checks only dirty tiles.

Tiled mode reports the same violation *population* as single-pass mode,
except that a violation spanning a tile seam is reported per owning
tile (markers split at seams) — the standard tiled-DRC contract.  For a
fixed tiling, serial and parallel runs are identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.drc import checks
from repro.drc.violations import DrcReport, Violation
from repro.geometry import Rect, Region
from repro.layout import Cell, Layer
from repro.layout.store import StoreLayer, StoreView
from repro.obs import get_registry, names, span
from repro.parallel import (
    FaultPlan,
    Tile,
    TileCache,
    TileExecutor,
    digest_parts,
    tile_grid,
)
from repro.parallel.cache import open_checkpoint
from repro.tech.rules import (
    AreaRule,
    DensityRule,
    EnclosureRule,
    ExtensionRule,
    Rule,
    RuleDeck,
    SpacingRule,
    WidthRule,
)

# Rules whose result at a point depends only on geometry within the rule
# value of that point: safe to evaluate on halo-clipped tiles.
_LOCAL_KINDS = (WidthRule, SpacingRule, ExtensionRule)

_EMPTY = Region()


def _rule_layers(rule: Rule) -> list[Layer]:
    out = []
    for attr in ("layer", "other", "inner", "outer"):
        layer = getattr(rule, attr, None)
        if layer is not None:
            out.append(layer)
    return out


def _rule_reach(rule: Rule) -> int:
    """Interaction distance of a local rule."""
    if isinstance(rule, WidthRule):
        return rule.min_width
    if isinstance(rule, SpacingRule):
        return rule.min_space
    if isinstance(rule, ExtensionRule):
        return rule.min_extension
    return 0


def _check_rule(
    rule: Rule, get: Callable[[Layer], Region], extent: Rect
) -> list[Violation]:
    if isinstance(rule, WidthRule):
        return checks.check_width(get(rule.layer), rule)
    if isinstance(rule, SpacingRule):
        if rule.other is None:
            return checks.check_spacing(get(rule.layer), rule)
        return checks.check_layer_spacing(get(rule.layer), get(rule.other), rule)
    if isinstance(rule, EnclosureRule):
        return checks.check_enclosure(get(rule.inner), get(rule.outer), rule)
    if isinstance(rule, AreaRule):
        return checks.check_area(get(rule.layer), rule)
    if isinstance(rule, DensityRule):
        return checks.check_density(get(rule.layer), rule, extent)
    if isinstance(rule, ExtensionRule):
        return checks.check_extension(get(rule.layer), get(rule.other), rule)
    raise TypeError(f"no check implemented for {type(rule).__name__}")  # pragma: no cover


def run_drc(
    cell: Cell | None,
    deck: RuleDeck,
    window: Rect | None = None,
    *,
    jobs: int = 1,
    tile_nm: int | None = None,
    cache: TileCache | None = None,
    timeout: float | None = None,
    max_retries: int = 2,
    fault_plan: FaultPlan | None = None,
    checkpoint_file: str | None = None,
    resume: bool = False,
    executor: TileExecutor | None = None,
    store: StoreView | None = None,
) -> DrcReport:
    """Flatten ``cell`` and run every rule in ``deck``.

    ``window`` restricts checking (and flattening) to a clip region, the
    standard way to DRC a block out of a larger chip.  ``jobs``,
    ``tile_nm``, ``cache``, or any fault-tolerance option switches to
    the tiled parallel/incremental engine (see :func:`run_drc_tiled`);
    the default stays the classic single-pass run.

    Fault tolerance follows :meth:`TileExecutor.run
    <repro.parallel.TileExecutor.run>`: tasks failing more than
    ``max_retries`` times are quarantined on ``report.quarantined``,
    ``timeout`` bounds each chunk's wall time, and ``checkpoint_file``
    (+ ``resume``) lets an interrupted run restart where it left off.

    Every layer the deck reads is flattened in one
    :meth:`Cell.regions <repro.layout.Cell.regions>` walk.  As in
    :func:`repro.litho.fullchip.scan_full_chip`, ``executor`` runs the
    tasks on a caller-owned :class:`TileExecutor` (the service's, which
    carries each job's cancel event), with results and cache keys
    byte-identical either way.

    ``store`` runs the deck against an out-of-core layout store instead
    of flattening ``cell`` (which may then be ``None``): each layer is
    a :class:`~repro.layout.store.StoreLayer`, tile tasks window their
    rects straight out of the mmapped file, workers get the layers as
    file handles instead of geometry, and the report, cache keys and
    checkpoint signature stay bit-identical to the in-RAM run over the
    same layout.  With a ``window``, each layer is clipped once, up
    front, as the in-RAM flatten clips it.
    """
    if cell is None and store is None:
        raise ValueError("run_drc needs a cell or a store")
    layers_needed: set[Layer] = set()
    for rule in deck:
        layers_needed.update(_rule_layers(rule))
    regions: "Mapping[Layer, Region | StoreLayer]"
    if store is None:
        with span("drc.flatten"):
            regions = cell.regions(layers_needed, window)
    elif window is None:
        # no up-front flatten: tile tasks window rects straight out of
        # the store; global rules materialize their layers on first use
        regions = {layer: store.layer_for(layer) for layer in layers_needed}
    else:
        with span("drc.flatten"):
            regions = {
                layer: store.layer_for(layer).clipped(window) for layer in layers_needed
            }
    if window is not None:
        extent = window
    else:
        bbox = cell.bbox if cell is not None else store.extent
        extent = bbox or Rect(0, 0, 1, 1)
    fault_tolerant = (
        timeout is not None
        or fault_plan is not None
        or checkpoint_file is not None
    )
    tiled = (
        jobs > 1
        or tile_nm is not None
        or cache is not None
        or fault_tolerant
        or executor is not None
    )
    with span("drc.check"):
        if not tiled:
            report = run_drc_regions(regions, deck, extent)
        else:
            report = run_drc_tiled(
                regions,
                deck,
                extent,
                jobs=jobs,
                tile_nm=tile_nm or 4000,
                cache=cache,
                timeout=timeout,
                max_retries=max_retries,
                fault_plan=fault_plan,
                checkpoint_file=checkpoint_file,
                resume=resume,
                executor=executor,
            )
    report.cell_name = cell.name if cell is not None else store.cell_name
    registry = get_registry()
    registry.inc(names.DRC_RUNS)
    registry.inc(names.DRC_RULES_RUN, report.rules_run)
    registry.inc(names.DRC_VIOLATIONS, len(report.violations))
    return report


def run_drc_regions(
    regions: "Mapping[Layer, Region | StoreLayer]",
    deck: RuleDeck,
    extent: Rect,
) -> DrcReport:
    """Run a deck against per-layer regions or store layers (single
    pass); a store layer is materialized once, on first use."""
    report = DrcReport(rules_run=len(deck))

    def get(layer: Layer) -> Region:
        return _whole(regions.get(layer, _EMPTY))

    for rule in deck:
        report.extend(_check_rule(rule, get, extent))
    return report


def _whole(layer: "Region | StoreLayer") -> Region:
    """The whole layer as a region (a store layer's memoized one)."""
    return layer.region() if isinstance(layer, StoreLayer) else layer


@dataclass(frozen=True)
class _DrcPayload:
    """Read-only per-run state handed to each worker once.

    ``regions`` maps each layer the deck reads to its region, which
    fork workers inherit from the parent, or (store-backed runs) to its
    :class:`~repro.layout.store.StoreLayer`, which pickles as a file
    handle.  Tile tasks clip either kind with its own ``clipped``; a
    store layer reads only the window's rects from the mmapped file.
    """

    regions: "Mapping[Layer, Region | StoreLayer]"
    local_rules: tuple[Rule, ...]
    global_rules: tuple[Rule, ...]
    extent: Rect


# A task is ("tile", Tile) for the local deck over one tile window, or
# ("rule", i) for global_rules[i] over the full extent.
_Task = tuple[str, "Tile | int"]


def _drc_task(payload: _DrcPayload, task: _Task) -> tuple[list[Violation], float]:
    registry = get_registry()
    t0 = time.perf_counter()
    tag, obj = task
    if tag == "tile":
        tile: Tile = obj
        clipped: dict[Layer, Region] = {}

        def get(layer: Layer) -> Region:
            if layer not in clipped:
                clipped[layer] = payload.regions.get(layer, _EMPTY).clipped(tile.window)
            return clipped[layer]

        found: list[Violation] = []
        for rule in payload.local_rules:
            found.extend(_check_rule(rule, get, tile.window))
        out = [v for v in found if tile.owns(v.marker.center.x, v.marker.center.y)]
    else:
        rule = payload.global_rules[obj]
        out = _check_rule(
            rule, lambda layer: _whole(payload.regions.get(layer, _EMPTY)), payload.extent
        )
    seconds = time.perf_counter() - t0
    registry.inc(names.drc_task(tag))
    registry.inc(names.DRC_VIOLATIONS_OWNED, len(out))
    registry.observe(names.DRC_TASK_TIMER, seconds)
    registry.observe_hist(names.DRC_TASK_SECONDS_HIST, seconds)
    return out, seconds


def _task_key(payload: _DrcPayload, task: _Task) -> str:
    tag, obj = task
    if tag == "tile":
        tile: Tile = obj
        layers = sorted(
            {l for rule in payload.local_rules for l in _rule_layers(rule)},
            key=repr,
        )
        return digest_parts(
            "drc-tile-v1",
            tuple(repr(r) for r in payload.local_rules),
            tile.core.as_tuple(),
            tile.window.as_tuple(),
            tile.x_edge,
            tile.y_edge,
            tuple(
                payload.regions.get(l, _EMPTY).clipped(tile.window).digest()
                for l in layers
            ),
        )
    rule = payload.global_rules[obj]
    return digest_parts(
        "drc-rule-v1",
        repr(rule),
        payload.extent.as_tuple(),
        tuple(payload.regions.get(l, _EMPTY).digest() for l in _rule_layers(rule)),
    )


def run_drc_tiled(
    regions: "Mapping[Layer, Region | StoreLayer]",
    deck: RuleDeck,
    extent: Rect,
    *,
    tile_nm: int = 4000,
    jobs: int = 1,
    cache: TileCache | None = None,
    timeout: float | None = None,
    max_retries: int = 2,
    fault_plan: FaultPlan | None = None,
    checkpoint_file: str | None = None,
    resume: bool = False,
    executor: TileExecutor | None = None,
) -> DrcReport:
    """Tiled parallel/incremental deck run over per-layer regions.

    Local rules run per tile with a halo window of twice the largest
    rule reach (clip artefacts hug the window boundary, so ownership
    filtering by marker centre discards them); global rules run as one
    whole-extent task each.  The report's ``tiles*`` counters cover all
    tasks — geometry tiles plus whole-extent rule tasks.

    Fault tolerance is the executor's (:meth:`TileExecutor.run
    <repro.parallel.TileExecutor.run>`): exhausted tasks land on
    ``report.quarantined`` instead of raising, and ``checkpoint_file``
    (+ ``resume``) persists completed tasks for interrupted runs.

    A pooled run hands its payload to the pool as it is: on Linux the
    workers fork from this process and inherit in-RAM regions, and
    store layers pickle as file handles.
    """
    t_start = time.perf_counter()
    local = tuple(r for r in deck if isinstance(r, _LOCAL_KINDS))
    global_rules = tuple(r for r in deck if not isinstance(r, _LOCAL_KINDS))
    payload = _DrcPayload(regions, local, global_rules, extent)

    halo = max((_rule_reach(r) for r in local), default=0) * 2
    halo = max(-(-halo // 64) * 64, 64)
    tiles = tile_grid(extent, tile_nm, halo) if local else []
    tasks: list[_Task] = [("tile", t) for t in tiles]
    tasks += [("rule", i) for i in range(len(global_rules))]

    report = DrcReport(rules_run=len(deck), tiles=len(tasks))
    results: dict[int, list[Violation]] = {}
    pending: list[tuple[int, _Task]] = list(enumerate(tasks))
    keys: dict[int, str] = {}
    if cache is not None:
        with span("drc.key"):
            pending = []
            for i, task in enumerate(tasks):
                key = _task_key(payload, task)
                keys[i] = key
                hit = cache.get(key)
                if hit is None:
                    pending.append((i, task))
                else:
                    results[i] = hit

    checkpoint: TileCache | None = None
    if checkpoint_file is not None:
        signature = digest_parts(
            "drc-ckpt-v1",
            tuple(repr(r) for r in deck),
            extent.as_tuple(),
            tile_nm,
            tuple(
                (layer, region.digest())
                for layer, region in sorted(regions.items(), key=lambda kv: repr(kv[0]))
            ),
        )
        checkpoint = open_checkpoint(checkpoint_file, signature, resume=resume)

    with span("drc.compute"):
        tile_executor = executor if executor is not None else TileExecutor(jobs)
        outcome = tile_executor.run(
            _drc_task,
            payload,
            [t for _, t in pending],
            keys=[i for i, _ in pending],
            timeout=timeout,
            max_retries=max_retries,
            fault_plan=fault_plan,
            checkpoint=checkpoint,
        )
    for (i, _), value in zip(pending, outcome.results):
        if value is None:  # quarantined: no result for this task
            continue
        violations, seconds = value
        results[i] = violations
        if cache is not None:
            cache.put(keys[i], violations)
        if i not in outcome.resumed_keys:
            # a task replayed from the checkpoint cost the prior run
            report.compute_s += seconds

    report.quarantined = outcome.quarantined
    report.tiles_resumed = len(outcome.resumed_keys)
    report.tiles_computed = outcome.computed
    report.tiles_cached = report.tiles - len(pending)
    for i in range(len(tasks)):
        report.extend(results.get(i, []))
    report.elapsed_s = time.perf_counter() - t_start
    if checkpoint is not None:
        # the run completed (quarantine included): nothing left to resume
        checkpoint.clear()
    registry = get_registry()
    registry.inc(names.DRC_TILES, report.tiles)
    registry.inc(names.DRC_TILES_COMPUTED, report.tiles_computed)
    registry.inc(names.DRC_TILES_CACHED, report.tiles_cached)
    registry.inc(names.DRC_TILES_RESUMED, report.tiles_resumed)
    registry.inc(names.DRC_TILES_QUARANTINED, len(report.quarantined))
    return report
