"""The in-RAM flatten as per-rect Python walks: the oracle the NumPy
flatten behind :meth:`Cell.region <repro.layout.Cell.region>`,
:meth:`Cell.regions <repro.layout.Cell.regions>` and the layout store's
ingest is compared against.

The bodies are the ``Cell`` methods the NumPy versions replaced, kept
unchanged: :func:`region` runs every rect of :meth:`Cell.rects
<repro.layout.Cell.rects>` (the per-shape Python walk), each clipped by
``Rect.intersection`` when a window is given, through ``Region``'s heap
sweep; :func:`bbox` unions every placement of every reference, one
child bbox per reference.
"""

from __future__ import annotations

from repro.geometry import Rect, Region
from repro.layout import Cell, Layer


def region(cell: Cell, layer: Layer, window: Rect | None = None) -> Region:
    """Flattened canonical region of ``layer``, optionally clipped."""
    rects = cell.rects(layer)
    if window is not None:
        clipped = []
        for r in rects:
            inter = r.intersection(window)
            if inter is not None:
                clipped.append(inter)
        return Region(clipped)
    return Region(list(rects))


def bbox(cell: Cell) -> Rect | None:
    """The bbox of every own shape and every placed child."""
    boxes: list[Rect] = []
    for shapes in cell._shapes.values():
        for s in shapes:
            boxes.append(s if isinstance(s, Rect) else s.bbox)
    for ref in cell._refs:
        child = bbox(ref.cell)
        if child is not None:
            for t in ref.placements():
                boxes.append(t.apply_rect(child))
    if not boxes:
        return None
    out = boxes[0]
    for b in boxes[1:]:
        out = out.union_bbox(b)
    return out
