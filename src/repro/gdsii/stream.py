"""Streaming GDSII scan and NumPy flatten (no ``Layout`` built).

``scan_gds`` walks a stream file record-by-record (via
:func:`repro.gdsii.records.iter_file_records`) and keeps one compact
``_StreamCell`` per structure: local rect quads per (gds_layer,
gds_datatype) pair in ``array('q')`` storage, plus reference
placements.  The flatten then walks the hierarchy once per (cell,
composed orientation) and bounded chunk of translations, never once
per placement: each cell's quads are oriented once and broadcast over
a whole array of placements, and come out as ``(layer, (n, 4) int64)``
chunks — the substrate :mod:`repro.layout.store` ingests into sorted
canonical runs.  :func:`flatten` replays those chunks one rect at a
time through a callback.

The flattened rect population is identical to ``read_gds`` followed by
``Cell.rects`` by construction: polygons are decomposed into their
canonical horizontal-slab rects in local coordinates at parse time
(``Polygon.to_region().rects()``, exactly what ``Cell.rects`` does),
and placements compose as ``Transform.then`` does.
"""

from __future__ import annotations

import os
from array import array
from typing import Callable, Iterator

import numpy as np

from repro.gdsii import records as rec

# (mirrored, angle) -> Orientation; shared with read_gds so the two
# parsers can never drift on orientation decoding.
from repro.gdsii.io import _GDS_TO_ORIENT
from repro.gdsii.records import GdsFormatError
from repro.geometry import Orientation, Point, Polygon
from repro.geometry.transform import _MATRICES, _compose_orientations

LayerKey = tuple[int, int]
EmitFn = Callable[[LayerKey, int, int, int, int], None]

_QUAD = 4
_CHUNK = 8192  # quads per flattened chunk, and translations per walk


class _StreamCell:
    """One GDSII structure: local rect quads per layer plus references."""

    __slots__ = ("name", "quads", "refs")

    def __init__(self, name: str) -> None:
        self.name = name
        self.quads: dict[LayerKey, array] = {}
        # (child name, dx, dy, orientation, cols, rows, step_dx, step_dy)
        self.refs: list[tuple] = []

    def add_quad(self, key: LayerKey, x0: int, y0: int, x1: int, y1: int) -> None:
        if x0 >= x1 or y0 >= y1:
            raise GdsFormatError(f"degenerate rect on layer {key} in {self.name!r}")
        quads = self.quads.get(key)
        if quads is None:
            quads = self.quads[key] = array("q")
        quads.extend((x0, y0, x1, y1))


class StreamLibrary:
    """Scanned library: cell table + metadata, never a full ``Layout``."""

    __slots__ = ("name", "dbu_nm", "cells")

    def __init__(self, name: str, dbu_nm: float, cells: dict[str, _StreamCell]) -> None:
        self.name = name
        self.dbu_nm = dbu_nm
        self.cells = cells

    def top_cell_name(self) -> str:
        """The unique unreferenced cell (same rule as ``Layout.top_cell``)."""
        referenced = {ref[0] for cell in self.cells.values() for ref in cell.refs}
        tops = [name for name in self.cells if name not in referenced]
        if len(tops) != 1:
            raise GdsFormatError(
                f"expected exactly one top cell, found {sorted(tops)!r}"
            )
        return tops[0]


def scan_gds(path: str | os.PathLike) -> StreamLibrary:
    """Scan a GDSII file into compact per-cell quad tables.

    Validation matches :func:`repro.gdsii.io.read_gds`: Manhattan-only
    angles, axis-parallel AREF steps, known reference targets, and no
    reference cycles.
    """
    layout_name: str | None = None
    dbu_nm = 1.0
    cells: dict[str, _StreamCell] = {}
    current: _StreamCell | None = None
    element: rec.Record | None = None
    el_kind = ""
    el_layer = 0
    el_datatype = 0
    el_sname = ""
    el_mirrored = False
    el_angle = 0.0
    el_colrow = (1, 1)
    el_xy: list[int] = []

    with open(path, "rb") as fh:
        for record in rec.iter_file_records(fh):
            t = record.rtype
            if t == rec.HEADER or t == rec.BGNLIB or t == rec.BGNSTR:
                continue
            if t == rec.LIBNAME:
                layout_name = record.ascii()
            elif t == rec.UNITS:
                _, metres_per_dbu = record.real8()
                if layout_name is None:
                    raise GdsFormatError("UNITS before LIBNAME")
                dbu_nm = metres_per_dbu * 1e9
            elif t == rec.STRNAME:
                current = _StreamCell(record.ascii())
                cells[current.name] = current
            elif t == rec.ENDSTR:
                current = None
            elif t in (rec.BOUNDARY, rec.SREF, rec.AREF):
                element = record
                el_kind = record.name
                el_layer = el_datatype = 0
                el_sname = ""
                el_mirrored = False
                el_angle = 0.0
                el_colrow = (1, 1)
                el_xy = []
            elif element is not None and t == rec.LAYER:
                el_layer = record.int2()[0]
            elif element is not None and t == rec.DATATYPE:
                el_datatype = record.int2()[0]
            elif element is not None and t == rec.SNAME:
                el_sname = record.ascii()
            elif element is not None and t == rec.STRANS:
                el_mirrored = bool(record.data[0] & 0x80)
            elif element is not None and t == rec.ANGLE:
                el_angle = record.real8()[0]
            elif element is not None and t == rec.COLROW:
                cols, rows = record.int2()
                el_colrow = (cols, rows)
            elif element is not None and t == rec.XY:
                el_xy = record.int4()
            elif t == rec.ENDEL:
                if current is None or element is None:
                    raise GdsFormatError("element outside structure")
                if el_kind == "BOUNDARY":
                    pts = [
                        Point(el_xy[i], el_xy[i + 1]) for i in range(0, len(el_xy), 2)
                    ]
                    poly = Polygon(pts)
                    key = (el_layer, el_datatype)
                    if poly.is_rect:
                        box = poly.bbox
                        current.add_quad(key, box.x0, box.y0, box.x1, box.y1)
                    else:
                        for r in poly.to_region().rects():
                            current.add_quad(key, r.x0, r.y0, r.x1, r.y1)
                else:
                    okey = (el_mirrored, el_angle % 360.0)
                    if okey not in _GDS_TO_ORIENT:
                        raise GdsFormatError(
                            f"unsupported angle {el_angle} (Manhattan database)"
                        )
                    orient = _GDS_TO_ORIENT[okey]
                    if el_kind == "SREF":
                        current.refs.append(
                            (el_sname, el_xy[0], el_xy[1], orient, 1, 1, 0, 0)
                        )
                    else:  # AREF
                        cols, rows = el_colrow
                        x0, y0, xc, yc, xr, yr = el_xy[:6]
                        if yc != y0 or xr != x0:
                            raise GdsFormatError(
                                "only axis-parallel AREF steps are supported"
                            )
                        dx = (xc - x0) // cols if cols else 0
                        dy = (yr - y0) // rows if rows else 0
                        current.refs.append(
                            (el_sname, x0, y0, orient, cols, rows, dx, dy)
                        )
                element = None
            elif t == rec.ENDLIB:
                break

    if layout_name is None:
        raise GdsFormatError("missing LIBNAME")
    for cell in cells.values():
        for ref in cell.refs:
            if ref[0] not in cells:
                raise GdsFormatError(f"reference to unknown cell {ref[0]!r}")
    _check_acyclic(cells)
    return StreamLibrary(layout_name, dbu_nm, cells)


def _check_acyclic(cells: dict[str, _StreamCell]) -> None:
    """Raise ``GdsFormatError`` naming the first reference cycle found.

    One iterative depth-first walk over cells (each cell's distinct
    children, not its placements), so a cycle fails the scan instead of
    recursing the flatten until ``RecursionError``.
    """

    def children(name: str) -> Iterator[str]:
        return iter(dict.fromkeys(ref[0] for ref in cells[name].refs))

    done: set[str] = set()
    for root in cells:
        if root in done:
            continue
        path, on_path, stack = [root], {root}, [children(root)]
        while stack:
            child = next(stack[-1], None)
            if child is None:
                stack.pop()
                on_path.discard(path[-1])
                done.add(path.pop())
            elif child in on_path:
                cycle = " -> ".join(path[path.index(child) :] + [child])
                raise GdsFormatError(f"reference cycle {cycle}")
            elif child not in done:
                path.append(child)
                on_path.add(child)
                stack.append(children(child))


def flatten(lib: StreamLibrary, cell: str | None, emit: EmitFn) -> None:
    """Emit every flattened rect of ``cell`` (default: the top cell).

    A per-rect replay of the NumPy flatten that ``ingest`` in
    :mod:`repro.layout.store` consumes chunk by chunk; the emitted
    population matches ``Cell.rects`` on the materialized layout, in
    another order.
    """
    for key, quads in _flat_chunks(lib, cell):
        for x0, y0, x1, y1 in quads.tolist():
            emit(key, x0, y0, x1, y1)


def _flat_chunks(
    lib: StreamLibrary, cell: str | None
) -> Iterator[tuple[LayerKey, np.ndarray]]:
    """Every flattened rect of ``cell`` as ``(layer key, (n, 4) int64)``
    chunks of at most ``_CHUNK`` quads.

    The hierarchy is walked once per (cell, composed orientation) and
    chunk of at most ``_CHUNK`` translations, never once per placement:
    a cell's references are grouped by (child, orientation) and their
    lattices concatenated, each cell's local quads are transformed by
    the orientation matrix and min/max-normalized once — exactly
    ``Transform.apply_rect`` — and the translations are added by
    broadcasting.  Placements compose as ``place.then(parent)``:
    orientation ``_compose_orientations(ref, parent)``, origin the
    lattice offset through the parent's matrix plus its translation.
    No array grows with the flattened rect count, and the recursion is
    as deep as the hierarchy.
    """
    name = cell if cell is not None else lib.top_cell_name()
    root = lib.cells.get(name)
    if root is None:
        raise GdsFormatError(f"unknown cell {name!r}")
    groups = {cname: _group_refs(c.refs) for cname, c in lib.cells.items()}
    origin = np.zeros((1, 2), dtype=np.int64)
    yield from _walk(lib, groups, root, Orientation.R0, origin)


def _group_refs(refs: list[tuple]) -> dict[tuple, list[tuple]]:
    """A cell's references keyed by (child name, orientation), in order."""
    grouped: dict[tuple, list[tuple]] = {}
    for ref in refs:
        grouped.setdefault((ref[0], ref[3]), []).append(ref)
    return grouped


def _walk(
    lib: StreamLibrary,
    groups: dict[str, dict[tuple, list[tuple]]],
    cell: _StreamCell,
    orient: Orientation,
    offsets: np.ndarray,
) -> Iterator[tuple[LayerKey, np.ndarray]]:
    """Chunks of ``cell`` placed with ``orient`` at each row of ``offsets``."""
    matrix = np.array(_MATRICES[orient], dtype=np.int64).reshape(2, 2).T
    for key, quads in cell.quads.items():
        local = np.frombuffer(quads, dtype=np.int64).reshape(-1, _QUAD)
        for i in range(0, len(local), _CHUNK):
            part = local[i : i + _CHUNK]
            p0 = part[:, :2] @ matrix
            p1 = part[:, 2:] @ matrix
            placed = np.hstack((np.minimum(p0, p1), np.maximum(p0, p1)))
            step = max(1, _CHUNK // len(placed))
            for j in range(0, len(offsets), step):
                shift = offsets[j : j + step, [0, 1, 0, 1]]
                yield key, (placed[None, :, :] + shift[:, None, :]).reshape(-1, _QUAD)
    for (child, ref_orient), refs in groups[cell.name].items():
        composed = _compose_orientations(ref_orient, orient)
        for lattice in _lattice_chunks(refs):
            origins = lattice @ matrix
            step = max(1, _CHUNK // len(origins))
            for j in range(0, len(offsets), step):
                moved = offsets[j : j + step, None, :] + origins[None, :, :]
                yield from _walk(lib, groups, lib.cells[child], composed, moved.reshape(-1, 2))


def _lattice_chunks(refs: list[tuple]) -> Iterator[np.ndarray]:
    """The placement offsets of ``refs`` as ``(k, 2)`` int64 chunks.

    Each reference contributes its ``cols × rows`` offsets in the
    column-major order of ``CellReference.placements``; small lattices
    (one per SREF) are concatenated, and no chunk exceeds ``_CHUNK``.
    """
    pending: list[np.ndarray] = []
    size = 0
    for _, dx, dy, _, cols, rows, step_dx, step_dy in refs:
        count = cols * rows
        for start in range(0, count, _CHUNK):
            idx = np.arange(start, min(count, start + _CHUNK), dtype=np.int64)
            part = np.stack((dx + idx // rows * step_dx, dy + idx % rows * step_dy), axis=1)
            if size + len(part) > _CHUNK:
                yield np.concatenate(pending)
                pending, size = [], 0
            pending.append(part)
            size += len(part)
    if pending:
        yield np.concatenate(pending)
