"""Model-based hotspot detection: pinching, bridging, and CD failures.

A hotspot is a location where the printed image departs from the drawn
intent badly enough to threaten yield:

* **PINCH** — drawn metal whose printed image locally necks below the
  pinch limit (open-circuit risk).
* **BRIDGE** — printed material in the gap between distinct drawn
  features (short-circuit risk).
* **MISSING** — a drawn feature that failed to print at all.

Detection runs at the worst process corners so marginal sites are caught.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.geometry import GridIndex, Rect, Region, slabarrays
from repro.litho.model import LithoModel
from repro.litho.process import ProcessCondition, ProcessWindow, _sweep_masks


class HotspotKind(Enum):
    PINCH = "pinch"
    BRIDGE = "bridge"
    MISSING = "missing"


@dataclass(frozen=True, slots=True)
class Hotspot:
    kind: HotspotKind
    marker: Rect
    severity: float  # violation area in nm^2 (bigger = worse)
    condition: ProcessCondition

    def __str__(self) -> str:
        return (
            f"{self.kind.value} @ {self.marker.as_tuple()} "
            f"severity={self.severity:g} [{self.condition}]"
        )


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
    """Detect pinch/bridge/missing hotspots over the process corners.

    ``pinch_limit`` defaults to half the smallest drawn feature width in
    the window (estimated from the drawn region).  Bridging is defined by
    connectivity: a printed component touching two or more distinct drawn
    features shorts them.  ``mask`` is what gets exposed (defaults to the
    drawn layer itself — i.e. no OPC); hotspots are always judged against
    the drawn intent.

    ``min_severity`` drops sub-threshold detections (area in nm^2):
    contour micro-necks at the raster noise floor are metrology noise,
    and filtering them keeps results window- and tiling-invariant.

    The corner sweep runs through a :class:`~repro.litho.model.SimCache`
    (one rasterization, one blurred image per unique blur sigma: the
    factored product over runs of identical lines), and each
    corner's printed raster is classified on canonical slab arrays
    (:mod:`repro.geometry.slabarrays`) without becoming a region: one
    sweep intersects it with the drawn window, component labels and
    point location stand in for per-component regions, and the
    cross-corner merge is bbox-indexed.  A site seen at several corners
    reports the first corner, in :meth:`ProcessWindow.corners` order,
    that reaches its worst severity.  ``tests/litho_reference.py`` holds
    the reference engine this must agree with: one independent
    simulation per corner, and pairwise detection and merge loops over
    regions.
    """
    process = process or ProcessWindow()
    g = grid or model.settings.grid_nm
    exposed = mask if mask is not None else drawn
    drawn_in_window = drawn & Region(window)
    if drawn_in_window.is_empty:
        return []
    min_width = _min_feature_width(drawn_in_window)
    pinch_limit = pinch_limit if pinch_limit is not None else max(min_width // 2, g)

    # everything derived from the drawn layer alone is corner-invariant:
    # compute it once here instead of once per corner
    ctx = _DrawnContext(drawn_in_window, min_width)
    raw: list[Hotspot] = []
    for condition, printed in _sweep_masks(model, exposed, window, process.corners(), g):
        raw.extend(
            h
            for h in _hotspots_at_condition(printed, window, g, condition, pinch_limit, ctx)
            if h.severity >= min_severity
        )
    return _merge_across_corners(raw)


def _merge_across_corners(raw: list[Hotspot]) -> list[Hotspot]:
    """Coalesce hotspots of the same kind whose markers overlap or touch
    (the same physical site seen at several corners); keep the worst.

    Clustering is the closure of "touches the cluster's growing bounding
    box (expanded by 1)" — a bbox-indexed frontier walk, so merging n
    markers costs near-linear index queries instead of the O(n²)
    pairwise rescans the naive loop needs.  The merged hotspot takes
    the severity and condition of its worst member; members that tie
    on severity go to the one earliest in ``raw``, so the result does
    not depend on the order the walk gathers them.
    """
    out: list[Hotspot] = []
    by_kind: dict[HotspotKind, list[Hotspot]] = {}
    for h in raw:
        by_kind.setdefault(h.kind, []).append(h)
    buf: list[int] = []
    for kind, group in by_kind.items():
        index: GridIndex[int] = GridIndex(cell_size=512)
        for i, h in enumerate(group):
            index.insert(h.marker, i)
        claimed = [False] * len(group)
        for seed in range(len(group)):
            if claimed[seed]:
                continue
            claimed[seed] = True
            cluster = [seed]
            marker = group[seed].marker
            changed = True
            while changed:
                changed = False
                # query == "bbox touches the probe window", exactly the
                # reference's absorption test, so the closure is identical
                for j in index.query_into(marker.expanded(1), buf):
                    if not claimed[j]:
                        claimed[j] = True
                        cluster.append(j)
                        marker = marker.union_bbox(group[j].marker)
                        changed = True
            # a kind's group keeps raw order, so its index breaks ties
            worst = group[min(cluster, key=lambda i: (-group[i].severity, i))]
            out.append(Hotspot(kind, marker, worst.severity, worst.condition))
    out.sort(key=lambda h: (-h.severity, h.marker.as_tuple()))
    return out


def _min_feature_width(region: Region) -> int:
    """Smallest drawn feature width in the region.

    The canonical slab decomposition slices wide features at every x
    coordinate where *any* feature's boundary changes, so the raw rect
    list understates widths (a 1000-wide bar crossed by another
    feature's edges decomposes into arbitrarily narrow slab rects).
    Re-merge x-adjacent rects that carry an identical y-interval — the
    pieces of one horizontal run — and take the min caliper of the
    merged extents instead.
    """
    best: int | None = None
    run: tuple[int, int, int, int] | None = None  # (x0, y0, x1, y1)
    for r in sorted(region.rects(), key=lambda r: (r.y0, r.y1, r.x0)):
        if run is not None and r.y0 == run[1] and r.y1 == run[3] and r.x0 == run[2]:
            run = (run[0], run[1], r.x1, run[3])  # continues the current run
        else:
            if run is not None:
                w = min(run[2] - run[0], run[3] - run[1])
                best = w if best is None else min(best, w)
            run = (r.x0, r.y0, r.x1, r.y1)
    assert run is not None  # callers guard against empty regions
    w = min(run[2] - run[0], run[3] - run[1])
    return w if best is None else min(best, w)


class _DrawnContext:
    """Corner-invariant precomputation for one drawn window.

    The corner sweep classifies every process corner against the *same*
    drawn region, so what depends on it alone is computed once per
    window here, as canonical slab arrays (:mod:`repro.geometry.
    slabarrays`): the drawn slabs, a component label per interval, each
    component's bbox and area (the MISSING markers), and the pinch core
    (drawn shrunk by the boundary tolerance, on the doubled lattice).
    """

    __slots__ = ("drawn", "slabs", "labels", "components", "core")

    def __init__(self, drawn: Region, min_width: int, boundary_tol: int = 6):
        self.drawn = drawn
        self.slabs = slabarrays.from_region(drawn)
        self.labels, count = slabarrays.label(self.slabs)
        x0, y0, x1, y1, area = slabarrays.extents(self.slabs, self.labels, count)
        self.components = [
            (Rect(*box), a)
            for *box, a in zip(x0.tolist(), y0.tolist(), x1.tolist(), y1.tolist(), area.tolist())
        ]
        core = drawn.grown(-min(boundary_tol, min_width // 2 - 1)).scaled(2)
        self.core = slabarrays.from_region(core)


def _hotspots_at_condition(
    mask: np.ndarray,
    window: Rect,
    grid: int,
    condition: ProcessCondition,
    pinch_limit: int,
    ctx: _DrawnContext,
) -> list[Hotspot]:
    """Classify one corner's printed raster against the drawn window.

    Works on canonical slab arrays throughout; only a bridging printed
    component becomes a :class:`Region`.  Hotspots come in the reference
    engine's order: pinches, bridges, then missing features, each in
    component order.
    """
    out: list[Hotspot] = []
    printed = slabarrays.from_raster(mask, window, grid)
    # the pieces: printed & drawn, per elementary column
    cuts, col, py0, py1 = slabarrays.pieces(printed, ctx.slabs)

    # pinch: printed image of drawn features necks below the limit.
    # Work in the doubled lattice for parity-free opening.  Necks that
    # never reach the feature core (drawn shrunk by the tolerance) are
    # contour staircase artefacts at the boundary, not electrical necks.
    doubled = slabarrays.scaled(slabarrays.join_columns(cuts, col, py0, py1), 2)
    necked = slabarrays.difference(doubled, slabarrays.opened(doubled, max(pinch_limit - 1, 1)))
    ncuts, ncol, ny0, _ = slabarrays.pieces(necked, ctx.core)
    if len(ncol):
        labels, count = slabarrays.label(necked)
        hit = np.zeros(count, dtype=bool)
        hit[labels[slabarrays.locate(necked, ncuts[ncol], ny0)]] = True
        x0, y0, x1, y1, area = (v[hit].tolist() for v in slabarrays.extents(necked, labels, count))
        for bx0, by0, bx1, by1, a in zip(x0, y0, x1, y1, area):
            marker = Rect(bx0 // 2, by0 // 2, -(-bx1 // 2), -(-by1 // 2))
            out.append(Hotspot(HotspotKind.PINCH, marker, a / 4.0, condition))

    # bridge: one printed component shorting >= 2 distinct drawn features;
    # missing: a drawn component no piece falls in
    printed_any = np.zeros(len(ctx.components), dtype=bool)
    if len(col):
        x = cuts[col]
        drawn_of = ctx.labels[slabarrays.locate(ctx.slabs, x, py0)]
        printed_any[drawn_of] = True
        if np.count_nonzero(printed_any) >= 2:
            labels, count = slabarrays.label(printed)
            printed_of = labels[slabarrays.locate(printed, x, py0)]
            # a printed component bridges when its pieces fall in two or
            # more drawn components: two distinct pairs of one component
            pairs = np.unique(printed_of * len(ctx.components) + drawn_of) // len(ctx.components)
            bridging = np.zeros(count, dtype=bool)
            bridging[pairs[1:][pairs[1:] == pairs[:-1]]] = True
            for comp_label in bridging.nonzero()[0].tolist():
                comp = slabarrays.to_region(slabarrays.select(printed, labels == comp_label))
                gap_fill = comp - ctx.drawn
                marker_src = gap_fill if not gap_fill.is_empty else comp
                out.append(
                    Hotspot(HotspotKind.BRIDGE, marker_src.bbox, marker_src.area, condition)
                )
    for i in np.flatnonzero(~printed_any).tolist():
        bbox, a = ctx.components[i]
        out.append(Hotspot(HotspotKind.MISSING, bbox, a, condition))
    return out
