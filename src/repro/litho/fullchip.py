"""Tiled full-chip litho verification.

Hotspot detection simulates a raster whose cost grows with window area,
so full-chip scans tile the layout into windows with an optical halo —
every pixel inside a tile sees its true neighbourhood, and hotspots are
deduplicated across tile seams.  This is the "layout printability
verification" flow run at tape-out.

The tile loop is built on :mod:`repro.parallel`: tiles fan out across a
worker pool (``jobs``) and, when a :class:`~repro.parallel.TileCache`
is supplied, each tile's result is cached under a content hash of the
geometry inside its optical influence window — so a re-scan after a
local edit re-simulates only the dirty tiles, which is what makes
in-design (rather than tape-out-only) full-chip scanning affordable.

The loop is fault-tolerant: a tile that keeps failing is quarantined
(recorded on the report) instead of killing the scan, hung chunks can
be timed out, and ``checkpoint_file``/``resume`` let an interrupted
scan pick up from its last checkpoint with byte-identical results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.report import BaseReport
from repro.geometry import Rect, Region
from repro.layout.store import StoreLayer
from repro.litho.hotspots import Hotspot, _merge_across_corners, find_hotspots
from repro.litho.model import LithoModel
from repro.litho.process import ProcessWindow
from repro.obs import get_registry, names, span
from repro.parallel import (
    FaultPlan,
    QuarantinedTile,
    Tile,
    TileCache,
    TileExecutor,
    digest_parts,
    tile_grid,
)
from repro.parallel.cache import open_checkpoint


@dataclass
class FullChipScanReport(BaseReport):
    tiles: int = 0
    simulated_area_nm2: int = 0
    hotspots: list[Hotspot] = field(default_factory=list)
    tiles_computed: int = 0
    tiles_cached: int = 0
    tiles_resumed: int = 0
    quarantined: list[QuarantinedTile] = field(default_factory=list)
    compute_s: float = 0.0
    elapsed_s: float = 0.0

    @property
    def findings(self) -> list[Hotspot]:
        return self.hotspots

    @property
    def cache_hit_rate(self) -> float:
        return self.tiles_cached / self.tiles if self.tiles else 0.0

    def by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for h in self.hotspots:
            out[h.kind.value] = out.get(h.kind.value, 0) + 1
        return out

    def summary(self) -> str:
        kinds = ", ".join(f"{k}: {n}" for k, n in sorted(self.by_kind().items()))
        line = (
            f"full-chip scan: {self.tiles} tiles, {len(self.hotspots)} hotspots "
            f"({kinds or 'clean'})"
        )
        if self.tiles_cached:
            line += (
                f" [incremental: {self.tiles_cached}/{self.tiles} cached, "
                f"{self.cache_hit_rate:.0%} hit rate]"
            )
        if self.tiles_resumed:
            line += f" [resumed: {self.tiles_resumed} tiles from checkpoint]"
        if self.quarantined:
            line += f" [QUARANTINED: {len(self.quarantined)} tiles failed]"
        return line


@dataclass(frozen=True, slots=True)
class _ScanPayload:
    """Read-only per-scan state handed to each worker once.

    ``drawn``/``mask`` are the layers themselves: a region, which fork
    workers inherit from the parent, or a
    :class:`~repro.layout.store.StoreLayer`, which pickles as a handle
    on the mmapped store.  Both answer the same windowed queries
    (``window`` and ``clipped``) in canonical rect order, so clips and
    digests are identical on either.  ``halo_nm`` is the widest corner
    halo (pixel-aligned): each tile simulates from the geometry inside
    its influence window only.
    """

    model: LithoModel
    drawn: "Region | StoreLayer"
    mask: "Region | StoreLayer | None"
    process: ProcessWindow
    pinch_limit: int | None
    grid: int | None
    halo_nm: int = 0


def _scan_tile(payload: _ScanPayload, tile: Tile) -> tuple[list[Hotspot], float]:
    """Detect hotspots over one tile window and keep the owned ones."""
    registry = get_registry()
    t0 = time.perf_counter()
    # geometry local to the tile's optical influence window; exact
    # because rects beyond it cannot affect the rasterized halo
    influence = tile.window.expanded(payload.halo_nm)
    drawn_local = payload.drawn.window(influence)
    registry.inc(names.SCAN_CLIP_CANDIDATES, len(drawn_local))
    drawn = Region(drawn_local)
    mask = None
    if payload.mask is not None:
        mask_local = payload.mask.window(influence)
        registry.inc(names.SCAN_CLIP_CANDIDATES, len(mask_local))
        mask = Region(mask_local)
    found = find_hotspots(
        payload.model,
        drawn,
        tile.window,
        process=payload.process,
        pinch_limit=payload.pinch_limit,
        grid=payload.grid,
        mask=mask,
    )
    owned = [
        h for h in found if tile.owns(h.marker.center.x, h.marker.center.y)
    ]
    seconds = time.perf_counter() - t0
    registry.inc(names.SCAN_TILES_SIMULATED)
    registry.inc(names.SCAN_HOTSPOTS_RAW, len(found))
    registry.inc(names.SCAN_HOTSPOTS_OWNED, len(owned))
    registry.observe(names.SCAN_TILE_TIMER, seconds)
    registry.observe_hist(names.SCAN_TILE_SECONDS_HIST, seconds)
    return owned, seconds


def _tile_key(payload: _ScanPayload, tile: Tile, params: str, halo_nm: int) -> str:
    """Content hash of everything that can change this tile's result.

    The geometry is clipped to the tile window expanded by the optical
    halo — the full influence region rasterized by the aerial-image
    model — so any edit outside that window leaves the key (and the
    cached result) valid.  The clip reads only the layer's geometry
    near the window (a region bisects its slabs, a store layer windows
    its file), which keeps cache-hit tiles O(local area) instead of
    O(full chip); its digest — hence the key — is that of the
    whole-chip region clipped to the same window.
    """
    influence = tile.window.expanded(halo_nm)
    parts = [
        "scan-v1",
        params,
        tile.core.as_tuple(),
        tile.window.as_tuple(),
        tile.x_edge,
        tile.y_edge,
        payload.drawn.clipped(influence).digest(),
    ]
    if payload.mask is not None:
        parts.append(payload.mask.clipped(influence).digest())
    return digest_parts(*parts)


def _scan_params(payload: _ScanPayload, pinch_limit: int | None, grid: int | None) -> str:
    model = payload.model
    return digest_parts(
        model.settings,
        model.flare,
        model.flare_ratio,
        tuple(payload.process.corners()),
        pinch_limit,
        grid,
    )


def scan_full_chip(
    model: LithoModel,
    drawn: "Region | StoreLayer",
    extent: Rect | None = None,
    tile_nm: int = 4000,
    process: ProcessWindow | None = None,
    pinch_limit: int | None = None,
    mask: "Region | StoreLayer | None" = None,
    grid: int | None = None,
    overlap_nm: int = 200,
    jobs: int = 1,
    cache: TileCache | None = None,
    timeout: float | None = None,
    max_retries: int = 2,
    fault_plan: FaultPlan | None = None,
    checkpoint_file: str | None = None,
    resume: bool = False,
    executor: TileExecutor | None = None,
) -> FullChipScanReport:
    """Scan an entire layout tile by tile.

    Tiles are detected over a window expanded by ``overlap_nm`` (so
    geometry clipped at a seam is seen whole by the tile that owns it)
    and each hotspot is attributed to the tile that owns its marker
    centre (see :meth:`repro.parallel.Tile.owns`) — the combination
    that makes the result tiling-invariant.  The optical halo itself is
    handled inside :func:`find_hotspots`.

    ``jobs > 1`` fans tiles out over a process pool; results are
    reassembled in tile order, so the hotspot population is identical
    to a serial scan.  Passing a :class:`~repro.parallel.TileCache`
    makes the scan incremental: clean tiles replay their cached result
    and only dirty tiles are re-simulated.

    Execution is fault-tolerant (see :meth:`TileExecutor.run
    <repro.parallel.TileExecutor.run>`): a tile failing more than
    ``max_retries`` times is quarantined on ``report.quarantined``
    rather than aborting the scan, ``timeout`` bounds each chunk's wall
    time, and ``checkpoint_file`` (+ ``resume``) persists completed
    tiles so an interrupted scan restarts where it left off.  The
    checkpoint is signature-guarded: it is only replayed against the
    same geometry and scan parameters, and is deleted once the scan
    completes.

    Each tile reads only the layer's rects touching its optical
    influence window (:meth:`Region.window
    <repro.geometry.Region.window>` bisects the region's slabs), and
    each tile's
    corner sweep reuses one mask raster, held as its constant cells, and
    one blurred image per unique blur sigma, factored over the raster's
    runs of identical lines (see :class:`~repro.litho.model.SimCache`).
    A negative ``grid`` raises ``ValueError`` before any tile runs, as
    building a :class:`ProcessWindow` with a non-positive dose or a
    non-finite defocus does.  The report
    is bit-identical to the serial whole-chip scan of
    ``tests/litho_reference.py``, which runs every tile over the whole
    chip with one independent simulation per corner.

    ``executor`` lets a long-lived caller (the verification service)
    supply its own :class:`TileExecutor`, whose ``cancel_event`` stops
    the run between chunks, instead of a per-run one; its ``jobs``
    takes precedence, and results and cache keys are byte-identical
    either way.  A pooled in-RAM run hands its payload to the pool as
    it is: on Linux the workers fork from this process and inherit the
    geometry.

    ``drawn`` (and ``mask``) may be a
    :class:`~repro.layout.store.StoreLayer` instead of a region, absent
    layers included: the scan then runs out of core — workers mmap the
    layout store read-only and window it per tile (the layer pickles as
    a constant-size handle), and hotspots, counters, tile-cache keys and
    the checkpoint signature are bit-identical to the in-RAM path
    because the store serves the same canonical rects and digests.
    """
    t_start = time.perf_counter()
    report = FullChipScanReport()
    g = grid or model.settings.grid_nm
    if g <= 0:
        raise ValueError("grid must be positive")
    if extent is None:
        bb = drawn.bbox
        if bb is None:
            return report
        extent = bb
    process = process or ProcessWindow()
    halo = max(model.halo_nm(c.defocus_nm) for c in process.corners())
    halo = -(-halo // g) * g  # pixel-grid round-up, as in aerial_image
    payload = _ScanPayload(model, drawn, mask, process, pinch_limit, grid, halo)
    checkpoint: TileCache | None = None
    with span("scan.plan"):
        tiles = tile_grid(extent, tile_nm, overlap_nm)
        report.tiles = len(tiles)
        report.simulated_area_nm2 = sum(t.window.area for t in tiles)

        if checkpoint_file is not None:
            signature = digest_parts(
                "scan-ckpt-v1",
                _scan_params(payload, pinch_limit, grid),
                extent.as_tuple(),
                tile_nm,
                overlap_nm,
                drawn.digest(),
                mask.digest() if mask is not None else None,
            )
            checkpoint = open_checkpoint(checkpoint_file, signature, resume=resume)

        owned_by_tile: dict[int, list[Hotspot]] = {}
        pending: list[Tile] = tiles
        keys: dict[int, str] = {}
        if cache is not None:
            params = _scan_params(payload, pinch_limit, grid)
            pending = []
            for tile in tiles:
                key = _tile_key(payload, tile, params, halo)
                keys[tile.index] = key
                hit = cache.get(key)
                if hit is None:
                    pending.append(tile)
                else:
                    owned_by_tile[tile.index] = hit

    with span("scan.compute"):
        tile_executor = executor if executor is not None else TileExecutor(jobs)
        outcome = tile_executor.run(
            _scan_tile,
            payload,
            pending,
            keys=[t.index for t in pending],
            timeout=timeout,
            max_retries=max_retries,
            fault_plan=fault_plan,
            checkpoint=checkpoint,
        )
    for tile, value in zip(pending, outcome.results):
        if value is None:  # quarantined: no result for this tile
            continue
        owned, seconds = value
        owned_by_tile[tile.index] = owned
        if cache is not None:
            cache.put(keys[tile.index], owned)
        if tile.index not in outcome.resumed_keys:
            # a tile replayed from the checkpoint cost the prior run
            report.compute_s += seconds

    report.quarantined = outcome.quarantined
    report.tiles_resumed = len(outcome.resumed_keys)
    report.tiles_computed = outcome.computed
    report.tiles_cached = report.tiles - len(pending)
    with span("scan.merge"):
        raw = [h for tile in tiles for h in owned_by_tile.get(tile.index, [])]
        # residual duplicates (markers straddling a seam) merge here
        report.hotspots = _merge_across_corners(raw)
    report.elapsed_s = time.perf_counter() - t_start
    if checkpoint is not None:
        # the run completed (quarantine included): nothing left to resume
        checkpoint.clear()
    registry = get_registry()
    registry.inc(names.SCAN_RUNS)
    registry.inc(names.SCAN_TILES, report.tiles)
    registry.inc(names.SCAN_TILES_COMPUTED, report.tiles_computed)
    registry.inc(names.SCAN_TILES_CACHED, report.tiles_cached)
    registry.inc(names.SCAN_TILES_RESUMED, report.tiles_resumed)
    registry.inc(names.SCAN_TILES_QUARANTINED, len(report.quarantined))
    registry.inc(names.SCAN_HOTSPOTS, len(report.hotspots))
    return report
