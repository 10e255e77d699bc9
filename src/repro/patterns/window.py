"""Snippet extraction: fixed-radius clips of one or more layers around an
anchor point, recentred to the origin so snippets compare directly."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geometry import Point, Rect, Region
from repro.layout import Cell, Layer


@dataclass(frozen=True)
class Snippet:
    """A recentred square clip of layout around an anchor.

    ``regions`` maps each layer to its clipped region translated so the
    anchor sits at the origin; the window spans ``[-radius, +radius]``.
    """

    anchor: Point
    radius: int
    regions: dict[Layer, Region] = field(hash=False)

    @property
    def window(self) -> Rect:
        return Rect(-self.radius, -self.radius, self.radius, self.radius)

    @property
    def layers(self) -> list[Layer]:
        return sorted(self.regions, key=lambda l: (l.gds_layer, l.gds_datatype))

    def total_area(self) -> int:
        return sum(r.area for r in self.regions.values())

    def is_blank(self) -> bool:
        return all(r.is_empty for r in self.regions.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Snippet):
            return NotImplemented
        return (
            self.anchor == other.anchor
            and self.radius == other.radius
            and self.regions == other.regions
        )

    def __hash__(self) -> int:
        entries = [
            (layer.gds_layer, layer.gds_datatype, region)
            for layer, region in self.regions.items()
        ]
        entries.sort(key=lambda t: (t[0], t[1]))
        return hash((self.anchor, self.radius, tuple(entries)))


def extract_snippet(
    regions: dict[Layer, Region], anchor: Point, radius: int
) -> Snippet:
    """Clip pre-extracted layer regions around ``anchor``."""
    window = Rect(anchor.x - radius, anchor.y - radius, anchor.x + radius, anchor.y + radius)
    clipped = {
        layer: (region & Region(window)).translated(-anchor.x, -anchor.y)
        for layer, region in regions.items()
    }
    return Snippet(anchor=anchor, radius=radius, regions=clipped)


def extract_snippets(
    cell: Cell, layers: list[Layer], anchors: list[Point], radius: int
) -> list[Snippet]:
    """Extract one snippet per anchor from a cell (flattening once)."""
    regions = cell.regions(layers)
    return [extract_snippet(regions, a, radius) for a in anchors]


def via_anchors(cell: Cell, via_layer: Layer) -> list[Point]:
    """Anchor points at the centre of every via/cut shape."""
    return [r.center for r in cell.region(via_layer).rects()]


def grid_anchors(extent: Rect, step: int) -> list[Point]:
    """A regular grid of anchors covering ``extent`` (full-chip scans)."""
    if step <= 0:
        raise ValueError("step must be positive")
    out: list[Point] = []
    y = extent.y0 + step // 2
    while y < extent.y1:
        x = extent.x0 + step // 2
        while x < extent.x1:
            out.append(Point(x, y))
            x += step
        y += step
    return out
