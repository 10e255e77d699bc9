"""Redundant-via insertion.

For every single cut, try to place a second cut next to it such that the
result is DRC-clean: the new cut must keep via-to-via spacing, stay
enclosed by both routing layers (optionally extending them when allowed),
and not collide with other geometry.  The candidate order (right, left,
up, down) and the deterministic scan order make runs reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.report import BaseReport
from repro.geometry import GridIndex, Rect, Region
from repro.layout import Cell, Layer
from repro.tech.technology import Technology


@dataclass
class RedundantViaReport(BaseReport):
    total_vias: int = 0
    already_redundant: int = 0
    inserted: int = 0
    unfixable: int = 0
    added_metal_area: int = 0
    insertions: list[Rect] = field(default_factory=list)

    @property
    def findings_count(self) -> int:
        return self.unfixable

    @property
    def coverage(self) -> float:
        """Fraction of via sites with two or more cuts after insertion."""
        if self.total_vias == 0:
            return 1.0
        return (self.already_redundant + self.inserted) / self.total_vias

    def summary(self) -> str:
        return (
            f"redundant vias: {self.total_vias} sites, "
            f"{self.already_redundant} already redundant, "
            f"{self.inserted} inserted, {self.unfixable} unfixable "
            f"-> coverage {self.coverage:.1%}"
        )


def insert_redundant_vias(
    cell: Cell,
    tech: Technology,
    via_layer: Layer | None = None,
    extend_metal: bool = True,
) -> RedundantViaReport:
    """Add redundant cuts on ``via_layer`` (default via1), in place.

    ``extend_metal`` permits patching the routing layers to enclose the
    new cut (the "smart" flow); without it insertion is opportunistic
    (only where existing metal already encloses a second cut).
    """
    via_layer = via_layer or tech.layers.via1
    lower_layer, upper_layer = tech.layers.routing_layers_for(via_layer)
    v = tech.via_size
    space = int(1.2 * v)
    enc = tech.via_enclosure

    flat = cell.regions([via_layer, lower_layer, upper_layer])
    vias = list(flat[via_layer].rects())
    lower, upper = flat[lower_layer], flat[upper_layer]
    occupied = Region(vias)

    report = RedundantViaReport()
    # group cuts into sites: cuts within one pitch belong to one via site
    index: GridIndex[int] = GridIndex(cell_size=max(8 * v, 256))
    for i, rect in enumerate(vias):
        index.insert(rect, i)
    site_of = list(range(len(vias)))

    def find(i: int) -> int:
        while site_of[i] != i:
            site_of[i] = site_of[site_of[i]]
            i = site_of[i]
        return i

    for i, j in index.query_pairs(v + space):
        if vias[i].distance(vias[j]) <= v + space:
            site_of[find(j)] = find(i)

    sites: dict[int, list[Rect]] = {}
    for i, rect in enumerate(vias):
        sites.setdefault(find(i), []).append(rect)

    report.total_vias = len(sites)
    pitch = v + space
    added_lower: list[Rect] = []
    added_upper: list[Rect] = []
    for root in sorted(sites):
        cuts = sites[root]
        if len(cuts) >= 2:
            report.already_redundant += 1
            continue
        cut = cuts[0]
        placed = False
        for dx, dy in ((pitch, 0), (-pitch, 0), (0, pitch), (0, -pitch)):
            cand = cut.translated(dx, dy)
            halo = cand.expanded(space)
            if occupied.overlaps(Region(halo)):
                continue
            need = Region(cand.expanded(enc))
            low_ok = lower.covers(need)
            up_ok = upper.covers(need)
            if not (low_ok and up_ok):
                if not extend_metal:
                    continue
                # extend only layers that already reach the original cut;
                # the patch bridges from the old via to the new one
                patch = Rect(
                    min(cut.x0, cand.x0) - enc,
                    min(cut.y0, cand.y0) - enc,
                    max(cut.x1, cand.x1) + enc,
                    max(cut.y1, cand.y1) + enc,
                )
                if not low_ok:
                    added_lower.append(patch)
                if not up_ok:
                    added_upper.append(patch)
                report.added_metal_area += patch.area - (Region(patch) & (lower if not low_ok else upper)).area
            cell.add_rect(via_layer, cand)
            occupied = occupied | Region(cand)
            report.inserted += 1
            report.insertions.append(cand)
            placed = True
            break
        if not placed:
            report.unfixable += 1
    for patch in added_lower:
        cell.add_rect(lower_layer, patch)
    for patch in added_upper:
        cell.add_rect(upper_layer, patch)
    return report
