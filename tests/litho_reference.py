"""The litho reference engine: the oracle the hotspot engine of
:mod:`repro.litho.hotspots` and :mod:`repro.litho.fullchip` is compared
against.

It is the straightforward engine the fast path replaced: one
independent simulation per process condition (:func:`print_image`: the
dense rasterization below over the window grown by the model's halo,
scipy's blur :meth:`LithoModel._blur <repro.litho.model.LithoModel._blur>`
and the threshold; no :class:`~repro.litho.model.SimCache`, no raster
cells and no factored blur), the corner classifier as plain loops over
:class:`~repro.geometry.Region` components (pinch by the
``grown(-r).grown(r)`` opening), the pairwise-rescan cross-corner merge,
and a serial scan that runs every tile over the whole-chip regions (no
spatial index, shared memory or cache).  Only the merge's tie-break is
new: of members tying on severity, the earliest in its input wins, as
in the program's merge.

:func:`rasterize` is the dense rasterizer the program's constant-cell
one (:func:`repro.litho.raster.raster_cells`) replaced: every rect's
profile scattered into a full-resolution difference array, two
cumulative sums, one division per pixel.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.geometry import Rect, Region
from repro.litho.fullchip import FullChipScanReport
from repro.litho.hotspots import Hotspot, HotspotKind, _min_feature_width
from repro.litho.model import LithoModel
from repro.litho.process import ProcessCondition, ProcessWindow
from repro.litho.raster import raster_to_region
from repro.parallel import tile_grid


def _axis_profile(
    lo: np.ndarray, hi: np.ndarray, grid: int
) -> tuple[np.ndarray, np.ndarray]:
    """Difference-array form of per-pixel covered length along one axis.

    ``lo``/``hi`` are window-relative integer coordinates (already
    clipped to ``[0, n*grid]``).  Returns ``(positions, values)`` of
    shape ``(R, 4)``: scattering ``values`` at ``positions`` into a
    length ``n+1`` array and prefix-summing yields, for every pixel, the
    integer length of ``[lo, hi]`` covering it.  The four-entry form
    ``(+a at c0, g-a at c0+1, b-g at c1-1, -b at c1)`` is exact for
    single-pixel spans too: the inverted middle range cancels the
    double-counted partial weights.
    """
    c0 = lo // grid
    c1 = -(-hi // grid)
    a = (c0 + 1) * grid - lo  # covered length in the first pixel column
    b = hi - (c1 - 1) * grid  # covered length in the last pixel column
    positions = np.stack([c0, c0 + 1, c1 - 1, c1], axis=1)
    values = np.stack([a, grid - a, b - grid, -b], axis=1)
    return positions, values


def rasterize(region: Region, window: Rect, grid: int) -> np.ndarray:
    """Rasterize a region into a float array of per-pixel coverage.

    Pixel (row j, col i) covers ``[x0 + i*grid, x0 + (i+1)*grid] x
    [y0 + j*grid, ...]``; values are exact covered-area fractions in
    [0, 1].  The array shape is (ny, nx), row 0 at the window bottom.
    """
    if grid <= 0:
        raise ValueError("grid must be positive")
    nx = -(-(window.x1 - window.x0) // grid)
    ny = -(-(window.y1 - window.y0) // grid)
    clipped = region & Region(window)
    if clipped.is_empty:
        return np.zeros((ny, nx))
    boxes = np.array(
        [(r.x0, r.y0, r.x1, r.y1) for r in clipped.rects()], dtype=np.int64
    )
    px, vx = _axis_profile(boxes[:, 0] - window.x0, boxes[:, 2] - window.x0, grid)
    py, vy = _axis_profile(boxes[:, 1] - window.y0, boxes[:, 3] - window.y0, grid)
    # separable 2-D scatter: the outer product of the two axis profiles
    diff = np.zeros((ny + 1, nx + 1), dtype=np.int64)
    rows = np.broadcast_to(py[:, :, None], (len(boxes), 4, 4))
    cols = np.broadcast_to(px[:, None, :], (len(boxes), 4, 4))
    vals = vy[:, :, None] * vx[:, None, :]
    np.add.at(diff, (rows.ravel(), cols.ravel()), vals.ravel())
    area = diff.cumsum(axis=0).cumsum(axis=1)[:ny, :nx]
    img = area / float(grid * grid)
    np.clip(img, 0.0, 1.0, out=img)
    return img


def print_image(
    model: LithoModel,
    mask: Region,
    window: Rect,
    dose: float,
    defocus_nm: float,
    grid: int,
) -> np.ndarray:
    """The printed raster at one condition: the mask rasterized over the
    window grown by the halo, blurred by scipy, cropped, thresholded."""
    trim = model._halo_px(defocus_nm, grid)
    halo = trim * grid
    big = Rect(window.x0 - halo, window.y0 - halo, window.x1 + halo, window.y1 + halo)
    image = model._blur(rasterize(mask, big, grid), model.blur_sigma_nm(defocus_nm) / grid)
    image = image[trim:-trim or None, trim:-trim or None]
    return image * dose >= model.settings.resist_threshold


def sweep_contours(
    model: LithoModel,
    mask: Region,
    window: Rect,
    conditions: Iterable[ProcessCondition],
    grid: int | None = None,
) -> Iterator[tuple[ProcessCondition, Region]]:
    """Printed contours at each condition, one simulation apiece."""
    g = grid or model.settings.grid_nm
    for condition in conditions:
        printed = print_image(model, mask, window, condition.dose, condition.defocus_nm, g)
        yield condition, raster_to_region(printed, window, g)


def pv_bands(
    model: LithoModel,
    mask: Region,
    window: Rect,
    process: ProcessWindow | None = None,
    grid: int | None = None,
    conditions: Iterable[ProcessCondition] | None = None,
) -> tuple[Region, Region]:
    """``(inner, outer)``: printed under all and under any condition."""
    process = process or ProcessWindow()
    if conditions is None:
        conditions = process.corners()
    inner: Region | None = None
    outer = Region()
    for _, printed in sweep_contours(model, mask, window, conditions, grid):
        inner = printed if inner is None else (inner & printed)
        outer = outer | printed
    if inner is None:
        raise ValueError("pv_bands needs at least one process condition")
    return inner, outer


def find_hotspots(
    model: LithoModel,
    drawn: Region,
    window: Rect,
    process: ProcessWindow | None = None,
    pinch_limit: int | None = None,
    grid: int | None = None,
    mask: Region | None = None,
    min_severity: float = 50.0,
) -> list[Hotspot]:
    """Pinch/bridge/missing hotspots over the process corners."""
    process = process or ProcessWindow()
    g = grid or model.settings.grid_nm
    exposed = mask if mask is not None else drawn
    drawn_in_window = drawn & Region(window)
    if drawn_in_window.is_empty:
        return []
    min_width = _min_feature_width(drawn_in_window)
    pinch_limit = pinch_limit if pinch_limit is not None else max(min_width // 2, g)

    raw: list[Hotspot] = []
    for condition, printed in sweep_contours(model, exposed, window, process.corners(), g):
        raw.extend(
            h
            for h in hotspots_at_condition(printed, drawn_in_window, condition, pinch_limit)
            if h.severity >= min_severity
        )
    return merge_across_corners(raw)


def merge_across_corners(raw: list[Hotspot]) -> list[Hotspot]:
    """Coalesce same-kind hotspots whose markers overlap or touch, and
    keep the worst: every absorption rescans the whole remaining list.
    Members that tie on severity go to the one earliest in ``raw``."""
    out: list[Hotspot] = []
    by_kind: dict[HotspotKind, list[tuple[int, Hotspot]]] = {}
    for i, h in enumerate(raw):
        by_kind.setdefault(h.kind, []).append((i, h))
    for kind, remaining in by_kind.items():
        while remaining:
            seed = remaining.pop(0)
            cluster = [seed]
            marker = seed[1].marker
            changed = True
            while changed:
                changed = False
                for other in list(remaining):
                    if marker.expanded(1).touches(other[1].marker):
                        cluster.append(other)
                        remaining.remove(other)
                        marker = marker.union_bbox(other[1].marker)
                        changed = True
            _, worst = min(cluster, key=lambda m: (-m[1].severity, m[0]))
            out.append(Hotspot(kind, marker, worst.severity, worst.condition))
    out.sort(key=lambda h: (-h.severity, h.marker.as_tuple()))
    return out


def hotspots_at_condition(
    printed: Region,
    drawn: Region,
    condition: ProcessCondition,
    pinch_limit: int,
    boundary_tol: int = 6,
) -> list[Hotspot]:
    """One corner's hotspots by plain pairwise loops over components."""
    out: list[Hotspot] = []
    drawn_components = drawn.components()

    # pinch: printed & drawn, opened by erode-then-dilate in the doubled
    # lattice; a neck counts when it reaches the drawn feature core
    printed_on_drawn = printed & drawn
    doubled = printed_on_drawn.scaled(2)
    r = max(pinch_limit - 1, 1)
    necked = doubled - doubled.grown(-r).grown(r)
    core = drawn.grown(-min(boundary_tol, _min_feature_width(drawn) // 2 - 1)).scaled(2) if not drawn.is_empty else Region()
    for comp in necked.components():
        if (comp & core).is_empty:
            continue
        bb = comp.bbox
        marker = Rect(bb.x0 // 2, bb.y0 // 2, -(-bb.x1 // 2), -(-bb.y1 // 2))
        out.append(Hotspot(HotspotKind.PINCH, marker, comp.area / 4.0, condition))

    # bridge: every (printed, drawn) component pair pays an exact test
    for comp in printed.components():
        touched = [d for d in drawn_components if comp.overlaps(d)]
        if len(touched) >= 2:
            gap_fill = comp - drawn
            marker_src = gap_fill if not gap_fill.is_empty else comp
            out.append(
                Hotspot(HotspotKind.BRIDGE, marker_src.bbox, marker_src.area, condition)
            )

    # missing: an entire drawn component printed nothing
    for comp in drawn_components:
        if (printed & comp).is_empty:
            out.append(Hotspot(HotspotKind.MISSING, comp.bbox, comp.area, condition))
    return out


def scan_full_chip(
    model: LithoModel,
    drawn: Region,
    extent: Rect | None = None,
    tile_nm: int = 4000,
    process: ProcessWindow | None = None,
    pinch_limit: int | None = None,
    mask: Region | None = None,
    grid: int | None = None,
    overlap_nm: int = 200,
) -> FullChipScanReport:
    """Serial tiled scan: each tile runs :func:`find_hotspots` over the
    whole-chip regions, keeps the hotspots it owns, and the owned lists
    merge across tile seams.  The report carries ``tiles`` and
    ``hotspots`` only."""
    if extent is None:
        extent = drawn.bbox
        if extent is None:
            return FullChipScanReport()
    tiles = tile_grid(extent, tile_nm, overlap_nm)
    raw: list[Hotspot] = []
    for tile in tiles:
        found = find_hotspots(
            model, drawn, tile.window, process=process, pinch_limit=pinch_limit,
            grid=grid, mask=mask,
        )
        raw.extend(h for h in found if tile.owns(h.marker.center.x, h.marker.center.y))
    return FullChipScanReport(tiles=len(tiles), hotspots=merge_across_corners(raw))
