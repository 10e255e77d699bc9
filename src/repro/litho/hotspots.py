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

from repro.geometry import Rect, Region, slabarrays
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
    (one raster, held as its constant cells, and one blurred image per
    unique blur sigma: the factored product over runs of identical
    lines), and each corner's printed raster is classified on canonical
    slab arrays (:mod:`repro.geometry.slabarrays`) without becoming a
    region: one sweep intersects it with the drawn window, component
    labels and point location stand in for per-component regions, and
    the cross-corner merge closes its clusters in arrays
    (:func:`_merge_across_corners`).  A site seen at several corners
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
    box (expanded by 1)", walked seed by seed in ``raw`` order, as the
    reference engine's pairwise rescan does.  Per kind, it is closed in
    arrays (:func:`_clusters`): touching markers link into chains,
    chains whose bounding boxes touch join into groups, a group of one
    chain is one cluster, and only a group of several chains runs the
    walk, over its own members.  Each cluster's box is a reduction.
    The merged hotspot takes the severity and condition of its worst
    member; members that tie on severity go to the one earliest in
    ``raw``.  Clusters are listed by kind (in order of first
    appearance), then by seed, before the final sort.
    """
    out: list[Hotspot] = []
    by_kind: dict[HotspotKind, list[Hotspot]] = {}
    for h in raw:
        by_kind.setdefault(h.kind, []).append(h)
    for kind, group in by_kind.items():
        boxes = np.array([h.marker.as_tuple() for h in group], dtype=np.int64)
        seed = _clusters(*boxes.T)
        # severities are areas in nm² (or quarters of them), far below
        # 2**53: float64 orders them exactly
        severity = np.array([h.severity for h in group], dtype=np.float64)
        # by seed, worst first, earliest first among ties
        order = np.lexsort((np.arange(len(group)), -severity, seed))
        starts = np.flatnonzero(np.concatenate(([True], np.diff(seed[order]) != 0)))
        x0, y0 = (np.minimum.reduceat(boxes[order, k], starts).tolist() for k in (0, 1))
        x1, y1 = (np.maximum.reduceat(boxes[order, k], starts).tolist() for k in (2, 3))
        for w, *box in zip(order[starts].tolist(), x0, y0, x1, y1):
            out.append(Hotspot(kind, Rect(*box), group[w].severity, group[w].condition))
    out.sort(key=lambda h: (-h.severity, h.marker.as_tuple()))
    return out


# candidate pairs one block of the touching-pair sweep expands
_PAIRS_AT = 1 << 18
_BIG = np.iinfo(np.int64)


def _linked(
    parent: np.ndarray, x0: np.ndarray, y0: np.ndarray, x1: np.ndarray, y1: np.ndarray
) -> np.ndarray:
    """``parent`` (:func:`repro.geometry.slabarrays.link`) with every two
    boxes that come within 1 nm of each other linked: the walk's own
    test, ``a.expanded(1).touches(b)``, closed.

    An x0-sorted sweep: a box's candidates are the boxes after it in x0
    order that start by its ``x1 + 1``, and a candidate touches it when
    the y-ranges come within 1 nm as well.  Candidates are expanded in
    blocks of about ``_PAIRS_AT`` pairs.
    """
    order = np.argsort(x0, kind="stable")
    n = len(order)
    count = x0[order].searchsorted(x1[order] + 1, "right") - np.arange(1, n + 1)
    ends = count.cumsum()
    lo = 0
    while lo < n:
        hi = max(int(ends.searchsorted(ends[lo] - count[lo] + _PAIRS_AT, "right")), lo + 1)
        c = count[lo:hi]
        first = np.arange(lo, hi).repeat(c)
        second = first + 1 + np.arange(len(first)) - (c.cumsum() - c).repeat(c)
        u, v = order[first], order[second]
        near = (y0[v] <= y1[u] + 1) & (y0[u] <= y1[v] + 1)
        parent = slabarrays.link(parent, u[near], v[near])
        lo = hi
    return parent


def _clusters(x0: np.ndarray, y0: np.ndarray, x1: np.ndarray, y1: np.ndarray) -> np.ndarray:
    """The cluster of each marker under the merge's walk, as its seed:
    the cluster's first marker.

    * Touching markers (:func:`_linked`) link into chains.
    * Chains whose bounding boxes touch join into groups, until no two
      groups' boxes touch.  Every cluster lies inside one group: a
      marker the walk absorbs touches the cluster's box, and that box
      lies inside the group's box.
    * A group that is one chain is one cluster: from the group's first
      marker the walk absorbs the chain, pair by touching pair.
    * A group of several chains is one where bbox growth reaches a
      marker that touches no member, so raw order decides the
      clusters: only there the walk runs (:func:`_walk`), over the
      group's members.
    """
    n = len(x0)
    chain = _linked(np.arange(n), x0, y0, x1, y1)
    group = chain
    while True:
        ids, member = np.unique(group, return_inverse=True)
        k = len(ids)
        bx0, by0 = np.full(k, _BIG.max), np.full(k, _BIG.max)
        bx1, by1 = np.full(k, _BIG.min), np.full(k, _BIG.min)
        np.minimum.at(bx0, member, x0)
        np.minimum.at(by0, member, y0)
        np.maximum.at(bx1, member, x1)
        np.maximum.at(by1, member, y1)
        joined = _linked(np.arange(k), bx0, by0, bx1, by1)
        if np.array_equal(joined, np.arange(k)):
            break
        group = ids[joined][member]
    seed = group.copy()
    chains = np.bincount(group[chain == np.arange(n)], minlength=n)
    for g in np.flatnonzero(chains > 1).tolist():
        members = np.flatnonzero(group == g)
        seed[members] = members[_walk(x0[members], y0[members], x1[members], y1[members])]
    return seed


def _walk(x0: np.ndarray, y0: np.ndarray, x1: np.ndarray, y1: np.ndarray) -> np.ndarray:
    """The merge's frontier walk over a few markers in raw order: each
    marker's seed, as an index into them.  Each unclaimed seed claims
    every unclaimed marker within 1 nm of its cluster's growing box,
    until none is left."""
    seed = np.full(len(x0), -1)
    for s in range(len(x0)):
        if seed[s] >= 0:
            continue
        seed[s] = s
        box = (x0[s], y0[s], x1[s], y1[s])
        while True:
            hit = (
                (seed < 0)
                & (x0 <= box[2] + 1)
                & (x1 >= box[0] - 1)
                & (y0 <= box[3] + 1)
                & (y1 >= box[1] - 1)
            )
            if not hit.any():
                break
            seed[hit] = s
            box = (
                min(box[0], x0[hit].min()),
                min(box[1], y0[hit].min()),
                max(box[2], x1[hit].max()),
                max(box[3], y1[hit].max()),
            )
    return seed


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
