"""GDSII stream reader and writer for :class:`repro.layout.Layout`.

Supported content: BOUNDARY elements (rects and rectilinear polygons),
SREF/AREF references with the eight lattice orientations, and axis-parallel
array steps.  TEXT labels carry no geometry and are skipped.  Magnification,
non-90-degree angles and PATH, BOX and NODE elements are rejected with a
:class:`~repro.gdsii.records.GdsFormatError` — this database is
integer-lattice Manhattan by design.
"""

from __future__ import annotations

import os

from repro.gdsii import elements as el
from repro.gdsii import records as rec
from repro.gdsii.elements import _ORIENT_TO_GDS
from repro.geometry import Polygon, Rect, Transform
from repro.layout import Cell, Layer, Layout

_EPOCH = [1970, 1, 1, 0, 0, 0]  # fixed timestamps keep output deterministic


def write_gds(layout: Layout, path: str | os.PathLike) -> None:
    """Serialize a layout library to a GDSII stream file.

    Records are flushed to the file handle one cell at a time, so writer
    memory stays O(largest cell) rather than O(whole library).
    """
    with open(path, "wb") as f:
        f.write(
            b"".join(
                [
                    rec.rec_int2(rec.HEADER, [600]),
                    rec.rec_int2(rec.BGNLIB, _EPOCH + _EPOCH),
                    rec.rec_ascii(rec.LIBNAME, layout.name),
                    # UNITS: dbu in user units (um), dbu in metres
                    rec.rec_real8(rec.UNITS, [layout.dbu_nm * 1e-3, layout.dbu_nm * 1e-9]),
                ]
            )
        )
        for cell in _bottom_up(layout):
            chunks: list[bytes] = [
                rec.rec_int2(rec.BGNSTR, _EPOCH + _EPOCH),
                rec.rec_ascii(rec.STRNAME, cell.name),
            ]
            for layer in sorted(cell.layers, key=lambda l: (l.gds_layer, l.gds_datatype)):
                for shape in cell.shapes(layer):
                    poly = Polygon.from_rect(shape) if isinstance(shape, Rect) else shape
                    chunks.append(_boundary(layer, poly))
            for ref in cell.references:
                chunks.append(_reference(ref))
            chunks.append(rec.rec_empty(rec.ENDSTR))
            f.write(b"".join(chunks))
        f.write(rec.rec_empty(rec.ENDLIB))


def _bottom_up(layout: Layout) -> list[Cell]:
    """Cells ordered so children precede parents (GDSII convention)."""
    order: list[Cell] = []
    seen: set[str] = set()

    def visit(cell: Cell) -> None:
        if cell.name in seen:
            return
        seen.add(cell.name)
        for ref in cell.references:
            visit(ref.cell)
        order.append(cell)

    for cell in layout:
        visit(cell)
    return order


def _boundary(layer: Layer, poly: Polygon) -> bytes:
    pts = list(poly.points) + [poly.points[0]]
    coords: list[int] = []
    for p in pts:
        coords.extend((p.x, p.y))
    return b"".join(
        [
            rec.rec_empty(rec.BOUNDARY),
            rec.rec_int2(rec.LAYER, [layer.gds_layer]),
            rec.rec_int2(rec.DATATYPE, [layer.gds_datatype]),
            rec.rec_int4(rec.XY, coords),
            rec.rec_empty(rec.ENDEL),
        ]
    )


def _reference(ref) -> bytes:
    mirrored, angle = _ORIENT_TO_GDS[ref.transform.orientation]
    chunks: list[bytes] = [rec.rec_empty(rec.AREF if ref.is_array else rec.SREF)]
    chunks.append(rec.rec_ascii(rec.SNAME, ref.cell.name))
    if mirrored or angle:
        chunks.append(rec.make_record(rec.STRANS, rec.DT_BITARRAY, (0x8000 if mirrored else 0).to_bytes(2, "big")))
        if angle:
            chunks.append(rec.rec_real8(rec.ANGLE, [angle]))
    x0, y0 = ref.transform.dx, ref.transform.dy
    if ref.is_array:
        chunks.append(rec.rec_int2(rec.COLROW, [ref.columns, ref.rows]))
        coords = [
            x0, y0,
            x0 + ref.columns * ref.dx, y0,
            x0, y0 + ref.rows * ref.dy,
        ]
    else:
        coords = [x0, y0]
    chunks.append(rec.rec_int4(rec.XY, coords))
    chunks.append(rec.rec_empty(rec.ENDEL))
    return b"".join(chunks)


# ---------------------------------------------------------------------------
# reading
# ---------------------------------------------------------------------------


def read_gds(path: str | os.PathLike, layer_names: dict[tuple[int, int], str] | None = None) -> Layout:
    """Parse a GDSII stream file into a layout library.

    ``layer_names`` optionally maps (layer, datatype) to human names.
    Elements are decoded by :func:`repro.gdsii.elements.decode`, and
    references checked by :func:`repro.gdsii.elements.check_references`,
    both of which :func:`repro.gdsii.scan_gds` shares: a reference to an
    unknown cell or a reference cycle is a ``GdsFormatError``.
    """
    with open(path, "rb") as f:
        data = f.read()
    layer_names = layer_names or {}
    layers: dict[tuple[int, int], Layer] = {}
    layout: Layout | None = None
    current: Cell | None = None
    pending: list[tuple] = []  # (parent, child, x, y, orientation, cols, rows, dx, dy)
    cells: dict[str, Cell] = {}

    for event in el.decode(rec.raw_records(data)):
        kind = event[0]
        if kind == el.RECT or kind == el.POLYGON:
            key = event[1]
            layer = layers.get(key)
            if layer is None:
                layer = layers[key] = Layer(key[0], key[1], layer_names.get(key, ""))
            # decode() rejects elements outside a structure
            if kind == el.RECT:
                current.add_rect(layer, Rect(*event[2:]))
            else:
                current.add_polygon(layer, event[2])
        elif kind == el.REF:
            pending.append((current.name, *event[1:]))
        elif kind == el.STRUCTURE:
            current = cells[event[1]] = Cell(event[1])
        elif kind == el.LIBRARY:
            layout = Layout(event[1])
        else:  # UNITS, which decode() only yields after LIBRARY
            layout.dbu_nm = event[1]

    # decode() raised on a missing LIBNAME
    children: dict[str, list[str]] = {name: [] for name in cells}
    for parent, child, *_ in pending:
        children[parent].append(child)
    el.check_references(children)
    for cell in cells.values():
        layout.add_cell(cell)
    for parent, child, x, y, orient, cols, rows, dx, dy in pending:
        cells[parent].add_ref(cells[child], Transform(x, y, orient), cols, rows, dx, dy)
    return layout
