"""The NumPy hierarchy walk behind every flatten of a cell hierarchy.

A hierarchy is handed over as a table with one entry per cell (keyed
by anything hashable): the cell's local rect quads per layer key, as
``(n, 4)`` int64 arrays with polygons already decomposed into their
canonical slab rects, and its references grouped by (child,
orientation) with :func:`group_refs`.  A reference is the tuple
``(child, dx, dy, orientation, columns, rows, step_dx, step_dy)``: the
child's table key, the first placement's origin and orientation, and
the array lattice (steps applied after the orientation, in the
parent's frame, as a GDSII AREF places them).

:func:`walk` flattens one cell of the table.  It visits each (cell,
composed orientation) once per bounded chunk of translations, never
once per placement: a cell's quads are transformed by the orientation
matrix and min/max-normalized once — exactly ``Transform.apply_rect``
— and the translations are added by broadcasting.  Placements compose
as ``place.then(parent)``: orientation ``_compose_orientations(ref,
parent)``, origin the lattice offset through the parent's matrix plus
its translation.  No array grows with the flattened rect count, and
the recursion is as deep as the hierarchy.

The streaming GDSII scan (:mod:`repro.gdsii.stream`, which the layout
store ingests) and the in-RAM ``Cell.region``/``Cell.regions`` both
flatten through it, so the two flatten the same rect population by
construction.
"""

from __future__ import annotations

from typing import Hashable, Iterator, Mapping

import numpy as np

from repro.geometry.transform import _MATRICES, Orientation, _compose_orientations

# (child, dx, dy, orientation, columns, rows, step_dx, step_dy)
Ref = tuple
# per cell: (local quads per layer key, references grouped by group_refs)
Table = Mapping[Hashable, tuple[Mapping[Hashable, np.ndarray], Mapping[tuple, list[Ref]]]]

_QUAD = 4
_CHUNK = 8192  # quads per flattened chunk, and translations per walk

# row vectors times these are Transform.apply_point's orientation
_MATRIX = {
    orient: np.array(m, dtype=np.int64).reshape(2, 2).T for orient, m in _MATRICES.items()
}


def group_refs(refs: list[Ref]) -> dict[tuple, list[Ref]]:
    """A cell's references keyed by (child, orientation), in order."""
    grouped: dict[tuple, list[Ref]] = {}
    for ref in refs:
        grouped.setdefault((ref[0], ref[3]), []).append(ref)
    return grouped


def walk(table: Table, root: Hashable) -> Iterator[tuple[Hashable, np.ndarray]]:
    """Every flattened rect of ``root`` as ``(layer key, (n, 4) int64)``
    chunks of at most ``_CHUNK`` quads, in no particular order."""
    yield from _walk(table, root, Orientation.R0, np.zeros((1, 2), dtype=np.int64))


def _walk(
    table: Table, cell: Hashable, orient: Orientation, offsets: np.ndarray
) -> Iterator[tuple[Hashable, np.ndarray]]:
    """Chunks of ``cell`` placed with ``orient`` at each row of ``offsets``."""
    quads, groups = table[cell]
    matrix = _MATRIX[orient]
    for key, local in quads.items():
        for i in range(0, len(local), _CHUNK):
            part = local[i : i + _CHUNK]
            p0 = part[:, :2] @ matrix
            p1 = part[:, 2:] @ matrix
            placed = np.hstack((np.minimum(p0, p1), np.maximum(p0, p1)))
            step = max(1, _CHUNK // len(placed))
            for j in range(0, len(offsets), step):
                shift = offsets[j : j + step, [0, 1, 0, 1]]
                yield key, (placed[None, :, :] + shift[:, None, :]).reshape(-1, _QUAD)
    for (child, ref_orient), refs in groups.items():
        composed = _compose_orientations(ref_orient, orient)
        for lattice in _lattice_chunks(refs):
            origins = lattice @ matrix
            step = max(1, _CHUNK // len(origins))
            for j in range(0, len(offsets), step):
                moved = offsets[j : j + step, None, :] + origins[None, :, :]
                yield from _walk(table, child, composed, moved.reshape(-1, 2))


def _lattice_chunks(refs: list[Ref]) -> Iterator[np.ndarray]:
    """The placement offsets of ``refs`` as ``(k, 2)`` int64 chunks of at
    most ``_CHUNK`` rows.

    The references' ``cols × rows`` lattices follow each other in order,
    each in the column-major order of ``CellReference.placements``, and
    every chunk is computed from the references' parameters in one
    vectorized pass, however many references it spans.
    """
    params = np.array([ref[1:3] + ref[4:] for ref in refs], dtype=np.int64)
    dx, dy, cols, rows, step_dx, step_dy = params.T
    count = cols * rows
    ends = np.cumsum(count)
    total = int(ends[-1])
    for start in range(0, total, _CHUNK):
        i = np.arange(start, min(total, start + _CHUNK), dtype=np.int64)
        ref = np.searchsorted(ends, i, side="right")
        k = i - (ends - count)[ref]
        r = rows[ref]
        yield np.stack((dx[ref] + k // r * step_dx[ref], dy[ref] + k % r * step_dy[ref]), axis=1)
