"""Streaming GDSII scan and NumPy flatten (no ``Layout`` built).

``scan_gds`` walks a stream file record-by-record (via
:func:`repro.gdsii.records.raw_file_records`), decodes its elements with
the decoder ``read_gds`` shares (:func:`repro.gdsii.elements.decode`),
and keeps one compact ``_StreamCell`` per structure: local rect quads
per (gds_layer, gds_datatype) pair in ``array('q')`` storage, plus
reference placements.  The flatten hands those tables to the NumPy
hierarchy walk :func:`repro.geometry.hierarchy.walk`, which visits each
(cell, composed orientation) once per bounded chunk of translations and
broadcasts a cell's oriented quads over a whole array of placements;
the rects come out as ``(layer, (n, 4) int64)`` chunks — the substrate
:mod:`repro.layout.store` ingests into sorted canonical runs.
:func:`flatten` replays those chunks one rect at a time through a
callback.

The flattened rect population is identical to ``read_gds`` followed by
``Cell.rects`` by construction: polygons are decomposed into their
canonical horizontal-slab rects in local coordinates at parse time
(``Polygon.to_region().rects()``, exactly what ``Cell.rects`` does),
and ``Cell.region`` flattens through the same walk.
"""

from __future__ import annotations

import os
from array import array
from typing import Callable, Iterator

import numpy as np

from repro.gdsii import elements as el
from repro.gdsii import records as rec
from repro.gdsii.records import GdsFormatError
from repro.geometry.hierarchy import group_refs, walk

LayerKey = tuple[int, int]
EmitFn = Callable[[LayerKey, int, int, int, int], None]

_QUAD = 4


class _StreamCell:
    """One GDSII structure: local rect quads per layer plus references."""

    __slots__ = ("name", "quads", "refs")

    def __init__(self, name: str) -> None:
        self.name = name
        self.quads: dict[LayerKey, array] = {}
        # (child name, dx, dy, orientation, cols, rows, step_dx, step_dy)
        self.refs: list[tuple] = []

    def add_quad(self, key: LayerKey, x0: int, y0: int, x1: int, y1: int) -> None:
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

    Elements are decoded, and references checked, as ``read_gds``
    does it, so the two reject the same malformed input.
    """
    layout_name = ""
    dbu_nm = 1.0
    cells: dict[str, _StreamCell] = {}
    current: _StreamCell | None = None

    with open(path, "rb") as fh:
        for event in el.decode(rec.raw_file_records(fh)):
            kind = event[0]
            if kind == el.RECT:
                current.add_quad(*event[1:])
            elif kind == el.POLYGON:
                for r in event[2].to_region().rects():
                    current.add_quad(event[1], r.x0, r.y0, r.x1, r.y1)
            elif kind == el.REF:
                current.refs.append(event[1:])
            elif kind == el.STRUCTURE:
                current = cells[event[1]] = _StreamCell(event[1])
            elif kind == el.LIBRARY:
                layout_name = event[1]
            else:  # UNITS
                dbu_nm = event[1]

    el.check_references(
        {name: [ref[0] for ref in cell.refs] for name, cell in cells.items()}
    )
    return StreamLibrary(layout_name, dbu_nm, cells)


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
    chunks, from :func:`repro.geometry.hierarchy.walk` over the scanned
    cell tables."""
    name = cell if cell is not None else lib.top_cell_name()
    if name not in lib.cells:
        raise GdsFormatError(f"unknown cell {name!r}")
    table = {
        cname: (
            {
                key: np.frombuffer(quads, dtype=np.int64).reshape(-1, _QUAD)
                for key, quads in c.quads.items()
            },
            group_refs(c.refs),
        )
        for cname, c in lib.cells.items()
    }
    return walk(table, name)
