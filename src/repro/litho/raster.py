"""Exact area-weighted rasterization of regions, and the inverse.

A region's raster is constant on a grid of cells.  A rect's coverage of
a pixel row changes only at the four positions of its separable profile
(:func:`_axis_profile`), so the distinct profile positions along each
axis cut the raster into bands, and each (row band, column band) cell
holds one value.  :func:`raster_cells` builds that grid directly: it
reads the boxes from the region's slabs over the window's x-extent,
scatters each box's 4x4 profile product into an int64 array over the
cells (``np.add.at``, exact), prefix-sums it along both axes and
divides once per cell.  A big tile of the benchmark's seed-7 logic
block has 75-83 x 157-228 cells against 716 x 656-756 pixels.
:func:`rasterize` expands the cells to pixels.  The other direction,
:func:`raster_to_region`, builds the region's canonical slabs directly:
runs of identical pixel columns are the slabs, and one whole-array
transition scan over one column per slab gives every slab's
y-intervals.  That conversion is
:func:`repro.geometry.slabarrays.from_raster`, which the hotspot
classifier calls on each printed mask without building a region; it
reads a pixel by its truth value and checks the mask's shape against
the window.

Coverage is accumulated in *integer* area units (nm² — all layout
coordinates are integers) and divided by the pixel area exactly once at
the end.  That makes the result independent of how the region happens to
be decomposed into rectangles and of window translation by whole pixels:
the raster of a window is bit-identical to the centred slice of the
raster of any larger, pixel-aligned window (:meth:`Cells.trimmed` takes
that slice on the cells).  The litho fast path
(:class:`repro.litho.model.SimCache`) relies on exactly this property to
build one tile's cells once and serve every process condition from
them; :meth:`Cells.runs` hands its factored blur the raster's maximal
runs of identical lines, read off adjacent cells.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from repro.geometry import Rect, Region, slabarrays


def _axis_profile(
    lo: np.ndarray, hi: np.ndarray, grid: int
) -> tuple[np.ndarray, np.ndarray]:
    """Difference-array form of per-pixel covered length along one axis.

    ``lo``/``hi`` are window-relative integer coordinates (already
    clipped to ``[0, n*grid]``).  Returns ``(positions, values)`` of
    shape ``(R, 4)``: scattering ``values`` at ``positions`` into a
    length ``n+1`` array and prefix-summing yields, for every pixel, the
    integer length of ``[lo, hi]`` covering it.  The four-entry form
    ``(+a at c0, g-a at c0+1, b-g at c1-1, -b at c1)`` is exact for
    single-pixel spans too: the inverted middle range cancels the
    double-counted partial weights.
    """
    c0 = lo // grid
    c1 = -(-hi // grid)
    a = (c0 + 1) * grid - lo  # covered length in the first pixel column
    b = hi - (c1 - 1) * grid  # covered length in the last pixel column
    positions = np.stack([c0, c0 + 1, c1 - 1, c1], axis=1)
    values = np.stack([a, grid - a, b - grid, -b], axis=1)
    return positions, values


class Runs(NamedTuple):
    """A raster's maximal runs of identical consecutive lines along one
    axis: its rows, or its columns when ``transposed``.

    Run ``c`` holds lines ``starts[c]`` up to the next start (or
    ``count``, the number of lines), each equal to ``lines[c]``.
    """

    transposed: bool
    starts: np.ndarray
    lines: np.ndarray
    count: int


def _trim(edges: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Band edges with ``t`` pixels cut off both ends, and which bands
    keep any pixel (the slice drops the others whole)."""
    cut = np.clip(edges - t, 0, int(edges[-1]) - 2 * t)
    keep = cut[1:] > cut[:-1]
    return np.append(cut[:-1][keep], cut[-1]), keep


@dataclass(frozen=True, slots=True)
class Cells:
    """A raster as its grid of constant cells.

    Cell ``(a, b)`` covers pixel rows ``rows[a] <= j < rows[a + 1]`` and
    columns ``cols[b] <= i < cols[b + 1]``, every pixel at
    ``values[a, b]``.  ``rows`` and ``cols`` rise strictly from 0 to
    the raster's height and width, so no band is empty; adjacent bands
    may hold identical values.
    """

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def expand(self) -> np.ndarray:
        """The pixel raster, bit-identical to :func:`rasterize`'s."""
        by_row = np.repeat(self.values, np.diff(self.rows), axis=0)
        return np.repeat(by_row, np.diff(self.cols), axis=1)

    def trimmed(self, t: int) -> "Cells":
        """The cells of the centred slice ``[t:-t, t:-t]`` of the raster."""
        if t == 0:
            return self
        rows, keep_rows = _trim(self.rows, t)
        cols, keep_cols = _trim(self.cols, t)
        return Cells(rows, cols, self.values[keep_rows][:, keep_cols])

    def runs(self) -> Runs:
        """The raster's maximal runs of identical lines, along the axis
        with fewer of them (rows on a tie).

        Pixel lines inside a band are identical, and two bands' lines
        are identical exactly when their cell lines are, so a run
        starts at each band whose cells differ from the previous
        band's: the runs, their count per axis and their lines are
        those a scan of the pixel raster finds.
        """
        v = self.values
        new_row = np.any(v[1:] != v[:-1], axis=1)
        new_col = np.any(v[:, 1:] != v[:, :-1], axis=0)
        transposed = bool(np.count_nonzero(new_col) < np.count_nonzero(new_row))
        if transposed:
            v, edges, across, new = v.T, self.cols, self.rows, new_col
        else:
            edges, across, new = self.rows, self.cols, new_row
        first = np.flatnonzero(np.concatenate(([True], new)))
        lines = np.repeat(v[first], np.diff(across), axis=1)
        return Runs(transposed, edges[first], lines, int(edges[-1]))


_slab_x0 = itemgetter(0)
_slab_x1 = itemgetter(1)


def raster_cells(region: Region, window: Rect, grid: int) -> Cells:
    """The cells of the region's raster over ``window`` (see
    :func:`rasterize`).

    The boxes come from the region's slabs that reach into the
    window's x-extent (a bisection, so a whole-chip region costs only
    the slabs the window spans), clipped to the window.  Their profile
    positions cut each axis into bands; each box's 4x4 profile product
    lands on the cells at its positions, and prefix sums over the cells
    give each cell's covered area in nm², exact in int64.
    """
    if grid <= 0:
        raise ValueError("grid must be positive")
    nx = -(-(window.x1 - window.x0) // grid)
    ny = -(-(window.y1 - window.y0) // grid)
    slabs = region._slabs
    lo = bisect_right(slabs, window.x0, key=_slab_x1)
    hi = bisect_left(slabs, window.x1, lo=lo, key=_slab_x0)
    xa, xb, n, y0, y1 = slabarrays.from_region(Region._from_slabs(slabs[lo:hi]))
    bx0 = np.maximum(xa, window.x0).repeat(n) - window.x0
    bx1 = np.minimum(xb, window.x1).repeat(n) - window.x0
    by0 = np.maximum(y0, window.y0) - window.y0
    by1 = np.minimum(y1, window.y1) - window.y0
    inside = (bx1 > bx0) & (by1 > by0)
    px, vx = _axis_profile(bx0[inside], bx1[inside], grid)
    py, vy = _axis_profile(by0[inside], by1[inside], grid)
    # a position at n is past the last pixel: it only closes the last band
    rows = np.unique(np.concatenate(([0, ny], py.ravel())))
    cols = np.unique(np.concatenate(([0, nx], px.ravel())))
    area = np.zeros((len(rows), len(cols)), dtype=np.int64)
    at_rows = rows.searchsorted(py)[:, :, None]
    at_cols = cols.searchsorted(px)[:, None, :]
    np.add.at(area, (at_rows, at_cols), vy[:, :, None] * vx[:, None, :])
    area = area.cumsum(axis=0).cumsum(axis=1)[:-1, :-1]
    values = area / float(grid * grid)
    np.clip(values, 0.0, 1.0, out=values)
    return Cells(rows, cols, values)


def rasterize(region: Region, window: Rect, grid: int) -> np.ndarray:
    """Rasterize a region into a float array of per-pixel coverage.

    Pixel (row j, col i) covers ``[x0 + i*grid, x0 + (i+1)*grid] x
    [y0 + j*grid, ...]``; values are exact covered-area fractions in
    [0, 1].  The array shape is (ny, nx), row 0 at the window bottom.
    It is :func:`raster_cells` expanded to pixels.
    """
    return raster_cells(region, window, grid).expand()


def raster_to_region(mask: np.ndarray, window: Rect, grid: int) -> Region:
    """Convert a raster back into a Region (pixel-resolution).

    A pixel is inside when its value is true (non-zero).  The mask must
    be shaped as :func:`rasterize` shapes the window's raster, ``(ceil(h
    / grid), ceil(w / grid))``, or ``ValueError`` is raised, as it is for
    ``grid <= 0``.  Pixels on the window's high edges are clipped to the
    window, as the raster was.  The slabs come straight from the mask
    (:func:`repro.geometry.slabarrays.from_raster`): each run of
    identical pixel columns is one slab.
    """
    return slabarrays.to_region(slabarrays.from_raster(mask, window, grid))
