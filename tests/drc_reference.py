"""The DRC checks as interval algebra over :class:`~repro.geometry.Region`:
the oracle the array-native checks of :mod:`repro.drc.checks` are
compared against.

The bodies are the ``Region`` implementations the array checks replaced,
kept unchanged; density is not here, since :mod:`repro.drc.checks`
still runs it on regions.  :func:`check_rule` dispatches a rule to them
as :mod:`repro.drc.engine` dispatches it to the array checks.
"""

from __future__ import annotations

from typing import Callable

from repro.drc import checks
from repro.drc.violations import Violation
from repro.geometry import GridIndex, Rect, Region
from repro.layout import Layer
from repro.tech.rules import (
    AreaRule,
    DensityRule,
    EnclosureRule,
    ExtensionRule,
    Rule,
    SpacingRule,
    WidthRule,
)


def _downscale_rect(r: Rect) -> Rect:
    """Map a rect from the x2 lattice back to layout coordinates
    (outward-rounded so markers never shrink away)."""
    return Rect(r.x0 // 2, r.y0 // 2, -(-r.x1 // 2), -(-r.y1 // 2))


def check_width(region: Region, rule: WidthRule) -> list[Violation]:
    """Flag any part of ``region`` locally narrower than ``min_width``.

    Implemented as a morphological opening in the doubled lattice: a
    feature of width exactly ``min_width`` survives, ``min_width - 1``
    does not.
    """
    if region.is_empty or rule.min_width <= 1:
        return []
    doubled = region.scaled(2)
    d = rule.min_width - 1  # erode/dilate amount in x2 lattice
    narrow = doubled - doubled.opened(d)
    return [
        Violation(rule, _downscale_rect(c.bbox), message="narrow feature")
        for c in narrow.components()
    ]


def check_spacing(region: Region, rule: SpacingRule) -> list[Violation]:
    """Same-layer spacing, projection metric: two boundary edges that
    *face* each other (antiparallel outward normals, overlapping
    projection) across an empty gap narrower than ``min_space``.

    This is how production edge-based DRC measures spacing.  It covers
    separate features and same-feature notches alike, does not flag
    concave corners of a merged polygon (where perpendicular edges meet),
    and ignores pairs shielded by interposed geometry.  Corner-to-corner
    diagonal separations are not checked (the standard projection-rule
    simplification).
    """
    if region.is_empty:
        return []
    s = rule.min_space
    # classify boundary edges by outward normal (edges() orients the
    # interior to the left of travel)
    right_bounds: list[tuple[int, int, int]] = []   # outward +x: (x, y0, y1)
    left_bounds: list[tuple[int, int, int]] = []    # outward -x
    top_bounds: list[tuple[int, int, int]] = []     # outward +y: (y, x0, x1)
    bottom_bounds: list[tuple[int, int, int]] = []  # outward -y
    for a, b in region.edges():
        if a.x == b.x:
            if b.y > a.y:
                right_bounds.append((a.x, a.y, b.y))
            else:
                left_bounds.append((a.x, b.y, a.y))
        else:
            if b.x > a.x:
                bottom_bounds.append((a.y, a.x, b.x))
            else:
                top_bounds.append((a.y, b.x, a.x))

    out: list[Violation] = []
    out.extend(_facing_violations(region, rule, right_bounds, left_bounds, s, vertical=True))
    out.extend(_facing_violations(region, rule, top_bounds, bottom_bounds, s, vertical=False))
    return out


def _facing_violations(
    region: Region,
    rule: SpacingRule,
    low_edges: list[tuple[int, int, int]],
    high_edges: list[tuple[int, int, int]],
    s: int,
    vertical: bool,
) -> list[Violation]:
    """Pairs (low outward+, high outward-) with high.pos - low.pos in
    (0, s), overlapping spans, and an empty gap box."""
    index: GridIndex[tuple[int, int, int]] = GridIndex(cell_size=max(4 * s, 256))
    for edge in high_edges:
        pos, a0, a1 = edge
        bbox = Rect(pos, a0, pos, a1) if vertical else Rect(a0, pos, a1, pos)
        index.insert(bbox, edge)
    out: list[Violation] = []
    seen: set[tuple] = set()
    for pos, a0, a1 in low_edges:
        if vertical:
            window = Rect(pos + 1, a0, pos + s, a1)
        else:
            window = Rect(a0, pos + 1, a1, pos + s)
        for other in index.query(window):
            opos, b0, b1 = other
            gap = opos - pos
            if not (0 < gap < s):
                continue
            o0, o1 = max(a0, b0), min(a1, b1)
            if o0 >= o1:
                continue
            key = (pos, opos, o0, o1)
            if key in seen:
                continue
            seen.add(key)
            marker = Rect(pos, o0, opos, o1) if vertical else Rect(o0, pos, o1, opos)
            # shielded pairs (metal in between) are measured to the
            # interposed geometry instead, which forms its own pair
            if region.overlaps(Region(marker)):
                continue
            out.append(Violation(rule, marker, measured=gap, message="spacing"))
    return out


def check_layer_spacing(region: Region, other: Region, rule: SpacingRule) -> list[Violation]:
    """Spacing between two different layers: ``other`` may not come within
    ``min_space`` of ``region`` (overlap also flags)."""
    if region.is_empty or other.is_empty:
        return []
    halo = region.grown(rule.min_space)
    close = halo & other
    return [
        Violation(rule, c.bbox, message="inter-layer spacing")
        for c in close.components()
    ]


def check_enclosure(inner: Region, outer: Region, rule: EnclosureRule) -> list[Violation]:
    """Every point of ``inner`` must lie at least ``min_enclosure`` inside
    ``outer``.  A conditional rule only checks inner features that overlap
    the outer layer at all (e.g. poly contacts vs diffusion contacts)."""
    if inner.is_empty:
        return []
    if rule.conditional:
        kept = [c for c in inner.components() if c.overlaps(outer)]
        if not kept:
            return []
        # one-pass union of the kept components (their canonical rects
        # are already disjoint) — repeated `merged | c` is O(n^2)
        inner = Region([r for c in kept for r in c.rects()])
    e = rule.min_enclosure
    if not rule.two_sided:
        safe = outer.grown(-e) if e > 0 else outer
        exposed = inner - safe
        return [
            Violation(rule, c.bbox, message="insufficient enclosure")
            for c in exposed.components()
        ]
    # two-sided: each inner feature passes if fully covered AND enclosed
    # by e along at least one axis
    safe_x = outer.grown(-e, 0) if e > 0 else outer
    safe_y = outer.grown(0, -e) if e > 0 else outer
    out: list[Violation] = []
    for comp in inner.components():
        if not (safe_x.covers(comp) or safe_y.covers(comp)) or not outer.covers(comp):
            out.append(Violation(rule, comp.bbox, message="insufficient enclosure"))
    return out


def check_area(region: Region, rule: AreaRule) -> list[Violation]:
    """Connected components smaller than ``min_area``."""
    out: list[Violation] = []
    for comp in region.components():
        if comp.area < rule.min_area:
            out.append(
                Violation(rule, comp.bbox, measured=comp.area, message="small feature")
            )
    return out


def check_extension(layer: Region, other: Region, rule: ExtensionRule) -> list[Violation]:
    """``layer`` must extend at least ``min_extension`` beyond ``other``
    wherever it crosses it (e.g. poly endcap past active).

    For each crossing rect the extension direction is inferred from which
    sides of the crossing the ``layer`` continues on.
    """
    crossing = layer & other
    out: list[Violation] = []
    ext = rule.min_extension
    for g in crossing.rects():
        above = Rect(g.x0, g.y1, g.x1, g.y1 + ext)
        below = Rect(g.x0, g.y0 - ext, g.x1, g.y0)
        right = Rect(g.x1, g.y0, g.x1 + ext, g.y1)
        left = Rect(g.x0 - ext, g.y0, g.x0, g.y1)
        continues_v = layer.overlaps(Region(Rect(g.x0, g.y1, g.x1, g.y1 + 1))) or layer.overlaps(
            Region(Rect(g.x0, g.y0 - 1, g.x1, g.y0))
        )
        continues_h = layer.overlaps(Region(Rect(g.x1, g.y0, g.x1 + 1, g.y1))) or layer.overlaps(
            Region(Rect(g.x0 - 1, g.y0, g.x0, g.y1))
        )
        if continues_v and not continues_h:
            required = [above, below]
        elif continues_h and not continues_v:
            required = [right, left]
        else:
            # ambiguous or isolated crossing: demand the vertical pair,
            # the common gate orientation
            required = [above, below]
        for req in required:
            if not layer.covers(Region(req)):
                out.append(Violation(rule, req, message="short extension"))
    return out


def check_rule(rule: Rule, get: Callable[[Layer], Region], extent: Rect) -> list[Violation]:
    """Run ``rule`` on the layers ``get`` returns, through the oracle."""
    if isinstance(rule, WidthRule):
        return check_width(get(rule.layer), rule)
    if isinstance(rule, SpacingRule):
        if rule.other is None:
            return check_spacing(get(rule.layer), rule)
        return check_layer_spacing(get(rule.layer), get(rule.other), rule)
    if isinstance(rule, EnclosureRule):
        return check_enclosure(get(rule.inner), get(rule.outer), rule)
    if isinstance(rule, AreaRule):
        return check_area(get(rule.layer), rule)
    if isinstance(rule, DensityRule):
        return checks.check_density(get(rule.layer), rule, extent)
    if isinstance(rule, ExtensionRule):
        return check_extension(get(rule.layer), get(rule.other), rule)
    raise TypeError(f"no check implemented for {type(rule).__name__}")
