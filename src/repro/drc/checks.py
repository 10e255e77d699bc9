"""Geometric check primitives.

Distance semantics: all checks use the Chebyshev (square) metric, the
natural metric for Manhattan morphology.  Width and spacing are measured in
the scaled-by-2 lattice so that "exactly at the limit" passes and anything
strictly below fails, with no parity restrictions on rule values.

Every check but density runs on canonical slab arrays
(:mod:`repro.geometry.slabarrays`): it converts its regions once, then
answers with a few sorts and searches over whole arrays, plus one
labelling pass where it needs components, instead of Python interval
algebra per edge, via or crossing.  Violations carry Python ints and
come in the order the ``Region`` algebra gave them.  Density stays on
:class:`~repro.geometry.Region`: it is a whole-extent rule of the
recommended deck, one ``&`` and an area per window.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.drc.violations import Violation
from repro.geometry import Rect, Region, slabarrays
from repro.tech.rules import (
    AreaRule,
    DensityRule,
    EnclosureRule,
    ExtensionRule,
    Rule,
    SpacingRule,
    WidthRule,
)


def _violations(
    rule: Rule, message: str, boxes: Sequence[np.ndarray], measured: np.ndarray | None = None
) -> list[Violation]:
    """One violation per entry of the ``(x0, y0, x1, y1)`` arrays
    ``boxes``, built from Python ints (NumPy scalars print differently)."""
    markers = map(Rect, *(v.tolist() for v in boxes))
    if measured is None:
        return [Violation(rule, marker, message=message) for marker in markers]
    return [
        Violation(rule, marker, measured=m, message=message)
        for marker, m in zip(markers, measured.tolist())
    ]


def _component_violations(
    rule: Rule, slabs: slabarrays.Slabs, message: str, halve: bool = False
) -> list[Violation]:
    """One violation per 4-connected component, marked by its bbox
    (mapped back from the x2 lattice when ``halve``)."""
    labels, count = slabarrays.label(slabs)
    x0, y0, x1, y1, _ = slabarrays.extents(slabs, labels, count)
    if halve:
        # outward-rounded, so markers never shrink away
        x0, y0, x1, y1 = x0 // 2, y0 // 2, -(-x1 // 2), -(-y1 // 2)
    return _violations(rule, message, (x0, y0, x1, y1))


def _holding(
    slabs: slabarrays.Slabs,
    labels: np.ndarray,
    count: int,
    found: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> np.ndarray:
    """Per component of ``slabs``: does it hold one of the pieces
    ``found``, a :func:`~repro.geometry.slabarrays.pieces` output lying
    inside ``slabs``?"""
    cuts, col, y0, _ = found
    hit = np.zeros(count, dtype=bool)
    hit[labels[slabarrays.locate(slabs, cuts[col], y0)]] = True
    return hit


def check_width(region: Region, rule: WidthRule) -> list[Violation]:
    """Flag any part of ``region`` locally narrower than ``min_width``.

    Implemented as a morphological opening in the doubled lattice: a
    feature of width exactly ``min_width`` survives, ``min_width - 1``
    does not.
    """
    if region.is_empty or rule.min_width <= 1:
        return []
    doubled = slabarrays.scaled(slabarrays.from_region(region), 2)
    d = rule.min_width - 1  # erode/dilate amount in x2 lattice
    wide = slabarrays.opened(doubled, d)
    if wide is doubled:
        # the opening kept every interval
        return []
    narrow = slabarrays.difference(doubled, wide)
    return _component_violations(rule, narrow, "narrow feature", halve=True)


def check_spacing(region: Region, rule: SpacingRule) -> list[Violation]:
    """Same-layer spacing, projection metric: two boundary edges that
    *face* each other (antiparallel outward normals, overlapping
    projection) across an empty gap narrower than ``min_space``.

    This is how production edge-based DRC measures spacing.  It covers
    separate features and same-feature notches alike, does not flag
    concave corners of a merged polygon (where perpendicular edges meet),
    and ignores pairs shielded by interposed geometry.  Corner-to-corner
    diagonal separations are not checked (the standard projection-rule
    simplification).  Pairs of vertical edges come first, then pairs of
    horizontal ones.
    """
    if region.is_empty:
        return []
    slabs = slabarrays.from_region(region)
    return _vertical_pairs(slabs, rule) + _horizontal_pairs(slabs, rule)


def _vertical_pairs(slabs: slabarrays.Slabs, rule: SpacingRule) -> list[Violation]:
    """Each boundary facing +x, joined to the boundaries facing -x across
    a gap narrower than ``min_space`` (:func:`slabarrays.facing
    <repro.geometry.slabarrays.facing>`), minus the pairs whose gap box
    meets the region: those are shielded, and the interposed geometry
    forms its own pairs.

    One boundary's partners come sorted by ``x // cell``, then the first
    ``y // cell`` row both span, then rank, with ``cell = max(4 * s,
    256)``: the order a uniform grid index of that cell size returns
    them in.
    """
    s = rule.min_space
    near, far = slabarrays.boundaries(slabs)
    i, j = slabarrays.facing(near, far, s)
    if not len(i):
        return []
    (x, a0, a1), (ox, b0, b1) = near, far
    cell = max(4 * s, 256)
    row = np.maximum(a0[i] // cell, b0[j] // cell)
    order = np.lexsort((j, row, ox[j] // cell, i))
    i, j = i[order], j[order]
    box = (x[i], np.maximum(a0[i], b0[j]), ox[j], np.minimum(a1[i], b1[j]))
    keep = ~slabarrays.meets(slabs, *box)
    box = tuple(v[keep] for v in box)
    return _violations(rule, "spacing", box, measured=box[2] - box[0])


def _horizontal_pairs(slabs: slabarrays.Slabs, rule: SpacingRule) -> list[Violation]:
    """Consecutive intervals of one slab closer than ``min_space``, slab by
    slab.  Horizontal boundaries are each one slab's, so two of them
    overlap in x only inside one slab, and any interval between them
    shields them: these are the only unshielded horizontal pairs."""
    xa, xb, n, y0, y1 = slabs
    slab = np.arange(len(n)).repeat(n)
    gap = y0[1:] - y1[:-1]
    lower = ((gap < rule.min_space) & (slab[1:] == slab[:-1])).nonzero()[0]
    if not len(lower):
        return []
    box = (xa[slab[lower]], y1[lower], xb[slab[lower]], y0[lower + 1])
    return _violations(rule, "spacing", box, measured=gap[lower])


def check_layer_spacing(region: Region, other: Region, rule: SpacingRule) -> list[Violation]:
    """Spacing between two different layers: ``other`` may not come within
    ``min_space`` of ``region`` (overlap also flags)."""
    if region.is_empty or other.is_empty:
        return []
    s = rule.min_space
    halo = slabarrays.grown(slabarrays.from_region(region), s, s)
    close = slabarrays.join_columns(*slabarrays.pieces(halo, slabarrays.from_region(other)))
    return _component_violations(rule, close, "inter-layer spacing")


def check_enclosure(inner: Region, outer: Region, rule: EnclosureRule) -> list[Violation]:
    """Every point of ``inner`` must lie at least ``min_enclosure`` inside
    ``outer``.  A conditional rule only checks inner features that overlap
    the outer layer at all (e.g. poly contacts vs diffusion contacts).

    A component of ``inner`` overlaps (or leaves) a region when it holds
    a piece of their intersection (or of ``inner`` minus it); labels and
    point location give each piece its component.
    """
    if inner.is_empty:
        return []
    slabs = slabarrays.from_region(inner)
    around = slabarrays.from_region(outer)
    if rule.conditional:
        labels, count = slabarrays.label(slabs)
        kept = _holding(slabs, labels, count, slabarrays.pieces(slabs, around))
        if not kept.any():
            return []
        slabs = slabarrays.select(slabs, kept[labels])
    e = rule.min_enclosure
    if not rule.two_sided:
        safe = slabarrays.grown(around, -e, -e) if e > 0 else around
        exposed = slabarrays.difference(slabs, safe)
        return _component_violations(rule, exposed, "insufficient enclosure")
    # two-sided: each inner feature passes if enclosed by e along at least
    # one axis; both safe regions lie inside outer, so it is also covered
    labels, count = slabarrays.label(slabs)
    safe_x = slabarrays.grown(around, -e, 0) if e > 0 else around
    safe_y = slabarrays.grown(around, 0, -e) if e > 0 else around
    fails = _holding(slabs, labels, count, slabarrays.pieces(slabs, safe_x, subtract=True))
    fails &= _holding(slabs, labels, count, slabarrays.pieces(slabs, safe_y, subtract=True))
    box = slabarrays.extents(slabs, labels, count)[:4]
    return _violations(rule, "insufficient enclosure", [v[fails] for v in box])


def check_area(region: Region, rule: AreaRule) -> list[Violation]:
    """Connected components smaller than ``min_area``."""
    if region.is_empty:
        return []
    slabs = slabarrays.from_region(region)
    labels, count = slabarrays.label(slabs)
    *box, area = slabarrays.extents(slabs, labels, count)
    small = area < rule.min_area
    return _violations(rule, "small feature", [v[small] for v in box], measured=area[small])


def _density_origins(lo: int, hi: int, w: int, step: int) -> list[int]:
    """Window origins stepped by ``step``, with the last origin clamped
    to ``hi - w`` so every evaluated window is full size (sub-window
    slivers at the high edge have noisy fill fractions and would raise
    spurious violations).  An extent smaller than the window yields one
    clipped window — there is no full-size placement to clamp to."""
    out: list[int] = []
    x = lo
    while x + w <= hi:
        out.append(x)
        x += step
    last = max(lo, hi - w)
    if not out or out[-1] != last:
        out.append(last)
    return out


def check_density(region: Region, rule: DensityRule, extent: Rect) -> list[Violation]:
    """Tile the extent with ``rule.window`` squares (half-window step,
    high-edge windows clamped inward to stay full size) and flag tiles
    whose fill fraction leaves [min_density, max_density]."""
    out: list[Violation] = []
    w = rule.window
    step = max(w // 2, 1)
    for x in _density_origins(extent.x0, extent.x1, w, step):
        for y in _density_origins(extent.y0, extent.y1, w, step):
            tile = Rect(x, y, min(x + w, extent.x1), min(y + w, extent.y1))
            if tile.area > 0:
                density = (region & Region(tile)).area / tile.area
                if density < rule.min_density or density > rule.max_density:
                    out.append(
                        Violation(rule, tile, measured=density, message="density")
                    )
    return out


def check_extension(layer: Region, other: Region, rule: ExtensionRule) -> list[Violation]:
    """``layer`` must extend at least ``min_extension`` beyond ``other``
    wherever it crosses it (e.g. poly endcap past active).

    For each crossing rect the extension direction is inferred from which
    sides of the crossing the ``layer`` continues on, probed 1 nm past
    each side.
    """
    if layer.is_empty or other.is_empty:
        return []
    slabs = slabarrays.from_region(layer)
    xa, xb, n, y0, y1 = slabarrays.join_columns(
        *slabarrays.pieces(slabs, slabarrays.from_region(other))
    )
    if not len(y0):
        return []
    x0, x1 = xa.repeat(n), xb.repeat(n)
    ext = rule.min_extension
    # probes above, below, right and left of each crossing rect
    probe = slabarrays.meets(
        slabs,
        np.concatenate((x0, x0, x1, x0 - 1)),
        np.concatenate((y1, y0 - 1, y0, y0)),
        np.concatenate((x1, x1, x1 + 1, x0)),
        np.concatenate((y1 + 1, y0, y1, y1)),
    ).reshape(4, -1)
    # a crossing continued only sideways needs its right and left boxes;
    # an ambiguous or isolated one, like a vertical one, the boxes above
    # and below it: the common gate orientation
    sideways = (probe[2] | probe[3]) & ~(probe[0] | probe[1])
    # each crossing's two required boxes, one after the other
    box = [
        np.where(sideways, pair, other_pair).T.ravel()
        for pair, other_pair in (
            ((x1, x0 - ext), (x0, x0)),
            ((y0, y0), (y1, y0 - ext)),
            ((x1 + ext, x0), (x1, x1)),
            ((y1, y1), (y1 + ext, y0)),
        )
    ]
    short = ~slabarrays.covers(slabs, *box)
    return _violations(rule, "short extension", [v[short] for v in box])
