"""Cells and cell references.

A :class:`Cell` holds its own shapes per layer plus references to child
cells.  :meth:`Cell.regions` (and :meth:`Cell.region`, one layer of it)
flatten the hierarchy in NumPy: the cell tree becomes a table of local
rect quads and grouped references, :func:`repro.geometry.hierarchy.walk`
places every quad by broadcasting — the walk the streaming GDSII scan
and the layout store's ingest use — and each layer's canonical slabs
are built in bounded column groups by
:func:`repro.geometry.slabarrays.from_rects`.  No rect is touched in
Python and no heap sweep runs.  :meth:`Cell.rects` and
:meth:`Cell.polygons` remain the per-shape Python walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from repro.geometry import Polygon, Rect, Region, Transform
from repro.geometry import slabarrays
from repro.geometry.hierarchy import group_refs, walk
from repro.layout.layer import Layer

Shape = Rect | Polygon


@dataclass(frozen=True, slots=True)
class CellReference:
    """A placement of a child cell, optionally repeated as an array.

    The array step is applied in the *parent* coordinate system after the
    orientation, matching GDSII AREF semantics for axis-parallel steps.
    """

    cell: "Cell"
    transform: Transform = Transform.IDENTITY
    columns: int = 1
    rows: int = 1
    dx: int = 0
    dy: int = 0

    def __post_init__(self):
        if self.columns < 1 or self.rows < 1:
            raise ValueError("array dimensions must be >= 1")
        if (self.columns > 1 and self.dx == 0) or (self.rows > 1 and self.dy == 0):
            raise ValueError("array repeat requires a non-zero step")

    @property
    def is_array(self) -> bool:
        return self.columns > 1 or self.rows > 1

    def placements(self) -> Iterator[Transform]:
        """One transform per array element."""
        for col in range(self.columns):
            for row in range(self.rows):
                yield Transform(
                    self.transform.dx + col * self.dx,
                    self.transform.dy + row * self.dy,
                    self.transform.orientation,
                )

    @property
    def count(self) -> int:
        return self.columns * self.rows


class Cell:
    """A named container of per-layer shapes and child references."""

    __slots__ = ("name", "_shapes", "_refs")

    def __init__(self, name: str):
        if not name:
            raise ValueError("cell name must be non-empty")
        self.name = name
        self._shapes: dict[Layer, list[Shape]] = {}
        self._refs: list[CellReference] = []

    # -- construction ---------------------------------------------------
    def add_rect(self, layer: Layer, rect: Rect) -> None:
        if rect.is_degenerate:
            raise ValueError(f"degenerate rect {rect} on {layer}")
        self._shapes.setdefault(layer, []).append(rect)

    def add_polygon(self, layer: Layer, polygon: Polygon) -> None:
        self._shapes.setdefault(layer, []).append(polygon)

    def add_region(self, layer: Layer, region: Region) -> None:
        for rect in region.rects():
            self.add_rect(layer, rect)

    def add_ref(
        self,
        cell: "Cell",
        transform: Transform = Transform.IDENTITY,
        columns: int = 1,
        rows: int = 1,
        dx: int = 0,
        dy: int = 0,
    ) -> CellReference:
        if cell is self or cell._depends_on(self):
            raise ValueError(f"reference {self.name} -> {cell.name} would create a cycle")
        ref = CellReference(cell, transform, columns, rows, dx, dy)
        self._refs.append(ref)
        return ref

    def _depends_on(self, other: "Cell") -> bool:
        return any(r.cell is other or r.cell._depends_on(other) for r in self._refs)

    # -- inspection ----------------------------------------------------------
    @property
    def references(self) -> tuple[CellReference, ...]:
        return tuple(self._refs)

    @property
    def layers(self) -> set[Layer]:
        layers = set(self._shapes)
        for ref in self._refs:
            layers |= ref.cell.layers
        return layers

    def shapes(self, layer: Layer) -> list[Shape]:
        """Shapes drawn directly in this cell on ``layer`` (not children's)."""
        return list(self._shapes.get(layer, ()))

    def shape_count(self, recursive: bool = False) -> int:
        n = sum(len(v) for v in self._shapes.values())
        if recursive:
            n += sum(ref.count * ref.cell.shape_count(recursive=True) for ref in self._refs)
        return n

    @property
    def bbox(self) -> Rect | None:
        return _bbox(self, {})

    # -- flattening and region extraction -------------------------------------
    def polygons(self, layer: Layer, transform: Transform = Transform.IDENTITY) -> Iterator[Polygon]:
        """All polygons on ``layer``, hierarchy flattened, transformed."""
        for shape in self._shapes.get(layer, ()):
            poly = Polygon.from_rect(shape) if isinstance(shape, Rect) else shape
            if transform.is_identity:
                yield poly
            else:
                yield Polygon(transform.apply_points(poly.points))
        for ref in self._refs:
            for place in ref.placements():
                yield from ref.cell.polygons(layer, place.then(transform))

    def rects(self, layer: Layer, transform: Transform = Transform.IDENTITY) -> Iterator[Rect]:
        """All shapes on ``layer`` flattened to rectangles (polygons are
        decomposed)."""
        for shape in self._shapes.get(layer, ()):
            if isinstance(shape, Rect):
                yield transform.apply_rect(shape)
            else:
                for rect in shape.to_region().rects():
                    yield transform.apply_rect(rect)
        for ref in self._refs:
            for place in ref.placements():
                yield from ref.cell.rects(layer, place.then(transform))

    def region(self, layer: Layer, window: Rect | None = None) -> Region:
        """Flattened canonical region of ``layer``, optionally clipped."""
        return self.regions([layer], window)[layer]

    def regions(
        self, layers: Iterable[Layer], window: Rect | None = None
    ) -> dict[Layer, Region]:
        """Flattened canonical region of each of ``layers``, optionally
        clipped to ``window``, from one walk of the hierarchy.

        Equal to ``Region(self.rects(layer))`` (clipped rect by rect)
        for every layer, built without a per-rect loop: see the module
        docstring.
        """
        wanted = list(dict.fromkeys(layers))
        table: dict[Cell, tuple[dict, dict]] = {}
        parts: dict[Layer, list[np.ndarray]] = {layer: [] for layer in wanted}
        if _tabulate(self, wanted, table, set()):
            for layer, quads in walk(table, self):
                parts[layer].append(quads)
        return {layer: slabarrays.to_region(_slabs(parts[layer], window)) for layer in wanted}

    def flattened(self, name: str | None = None) -> "Cell":
        """A copy with the full hierarchy merged into direct shapes."""
        flat = Cell(name or f"{self.name}_flat")
        for layer in self.layers:
            for poly in self.polygons(layer):
                if poly.is_rect:
                    flat.add_rect(layer, poly.bbox)
                else:
                    flat.add_polygon(layer, poly)
        return flat

    def copy(self, name: str | None = None) -> "Cell":
        """A shallow-hierarchy copy: own shapes are duplicated, child
        cells are shared (references copied)."""
        dup = Cell(name or self.name)
        for layer, shapes in self._shapes.items():
            dup._shapes[layer] = list(shapes)
        dup._refs = list(self._refs)
        return dup

    def __repr__(self) -> str:
        return (
            f"Cell({self.name!r}, {self.shape_count()} shapes, "
            f"{len(self._refs)} refs, {len(self.layers)} layers)"
        )


def _bbox(cell: Cell, memo: dict[Cell, Rect | None]) -> Rect | None:
    """``cell``'s bbox, each distinct child's computed once per call.

    An array's lattice is axis-parallel, so its first and last
    placements are its extremes along both axes: the union of those
    two boxes is the union of all of them.
    """
    if cell in memo:
        return memo[cell]
    boxes = [s if isinstance(s, Rect) else s.bbox for s in chain(*cell._shapes.values())]
    for ref in cell._refs:
        child = _bbox(ref.cell, memo)
        if child is not None:
            t = ref.transform
            last = Transform(
                t.dx + (ref.columns - 1) * ref.dx,
                t.dy + (ref.rows - 1) * ref.dy,
                t.orientation,
            )
            boxes.append(t.apply_rect(child))
            boxes.append(last.apply_rect(child))
    box = None
    if boxes:
        box = Rect(
            min(b.x0 for b in boxes),
            min(b.y0 for b in boxes),
            max(b.x1 for b in boxes),
            max(b.y1 for b in boxes),
        )
    memo[cell] = box
    return box


def _tabulate(
    cell: Cell, layers: list[Layer], table: dict[Cell, tuple[dict, dict]], empty: set[Cell]
) -> bool:
    """Enter ``cell`` and every child with geometry on ``layers`` into the
    walk's table, and ``empty`` the cells without; whether ``cell`` has
    any such geometry.

    A cell's entry holds its own shapes on ``layers`` as local quads
    (polygons decomposed as :meth:`Cell.rects` decomposes them) and its
    references to children with geometry, grouped for the walk.
    """
    if cell in table or cell in empty:
        return cell in table
    quads = {}
    for layer in layers:
        shapes = cell._shapes.get(layer)
        if shapes:
            rects = chain.from_iterable(
                (s,) if isinstance(s, Rect) else s.to_region().rects() for s in shapes
            )
            coords = np.fromiter(
                chain.from_iterable((r.x0, r.y0, r.x1, r.y1) for r in rects), np.int64
            )
            quads[layer] = coords.reshape(-1, 4)
    refs = [
        (ref.cell, ref.transform.dx, ref.transform.dy, ref.transform.orientation,
         ref.columns, ref.rows, ref.dx, ref.dy)
        for ref in cell._refs
        if _tabulate(ref.cell, layers, table, empty)
    ]
    if not quads and not refs:
        empty.add(cell)
        return False
    table[cell] = (quads, group_refs(refs))
    return True


def _slabs(chunks: list[np.ndarray], window: Rect | None) -> slabarrays.Slabs:
    """The canonical slabs of flattened quad chunks, clipped to ``window``.

    The chunks are released once joined, and the joined quads on return,
    so neither is alive while the caller builds the region's lists.
    """
    if not chunks:
        return slabarrays.EMPTY
    quads = np.concatenate(chunks)
    chunks.clear()
    x0, y0, x1, y1 = quads.T
    if window is not None:
        x0 = np.maximum(x0, window.x0)
        y0 = np.maximum(y0, window.y0)
        x1 = np.minimum(x1, window.x1)
        y1 = np.minimum(y1, window.y1)
    return slabarrays.from_rects(x0, y0, x1, y1)
