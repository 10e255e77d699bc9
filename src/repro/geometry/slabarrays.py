"""Canonical slabs as NumPy arrays: the kernel under the hot array paths.

A :class:`~repro.geometry.Region` keeps its canonical slabs as Python
lists.  This module holds the same canonical form as five int64 arrays,
``(xa, xb, n, y0, y1)``: per slab its x-range and interval count, then
every slab's y-intervals back to back, slab by slab, each slab's sorted
by y.  It is the layout store's on-disk order, and converting to or
from a region is pure regrouping.

Every operation here reads and writes that form:

* :func:`column_slabs` builds canonical slabs from rects spanning
  runs of elementary x-columns: it unions each column's intervals, then
  joins x-adjacent columns that hold identical interval lists
  (:func:`join_columns`).  The opening builds its output with it; the
  sweeps end in its join.  :func:`band_slabs` feeds it arbitrary rects
  in groups of bounded size and :func:`seamed` joins the groups' seams:
  :func:`from_rects`, the builder behind ``Cell.region``, and the
  layout store's ingest, which runs it band by band.
* :func:`pieces` is the sweep behind ``&`` and ``-``.  Both operands
  are cut at every x where either changes; each column's interval
  starts and ends, sorted by ``(column, y)``, carry running coverage
  counts, and the runs where the predicate holds are the result's
  intervals.  :func:`join_columns` makes them canonical;
  :func:`difference` is ``-`` in one call.
* :func:`grown` is :meth:`Region.grown <repro.geometry.Region.grown>`
  on arrays: dilation through the column builder, erosion as
  complement-dilate-complement (a y-only erosion just shrinks
  intervals).  :func:`opened` is the separable opening
  :meth:`Region.opened <repro.geometry.Region.opened>` derives.
* :func:`label` finds 4-connected components by min-hooking and pointer
  jumping (:func:`link`, which also joins the hotspot merge's touching
  markers) over the edges between x-adjacent slabs; with
  :func:`locate`, :func:`extents` and :func:`select` it answers
  per-component questions without building a region per component.
* :func:`meets` and :func:`covers` answer a batch of box queries, the
  array form of ``overlaps`` and ``covers`` against one box each.
  :func:`boundaries` lists the vertical boundary pieces, and
  :func:`facing` joins two sets of them across a gap.
* :func:`from_raster` reads a printed raster straight into slabs.

The hotspot classifier and every DRC check but density run on these
operations.

Sort keys combine a column (or slab) index with a y offset as
``column * height + (y - lo)``.  Each key range is checked before any
key is formed; one that would not fit in int64 raises ``OverflowError``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator

import numpy as np

from repro.geometry import region as _region
from repro.geometry.rect import Rect

# (xa, xb, n, y0, y1): per slab its x-range and interval count, then the
# slabs' y-intervals back to back
Slabs = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]

# (x, y0, y1): vertical boundary pieces
Edges = tuple[np.ndarray, np.ndarray, np.ndarray]

_NONE = np.empty(0, dtype=np.int64)
EMPTY: Slabs = (_NONE, _NONE, _NONE, _NONE, _NONE)

_PIECES_AT = 1 << 15  # (rect, column) pieces one column_slabs call expands

_slab_x0 = itemgetter(0)
_slab_x1 = itemgetter(1)


def _height(lo: int, hi: int, rows: int) -> int:
    """The key stride for ``row * height + (y - lo)`` over y in ``[lo, hi]``
    and ``rows`` rows; raises ``OverflowError`` past int64."""
    height = hi - lo + 1
    if height * rows >= 1 << 62:
        raise OverflowError(f"sort keys overflow: y in [{lo}, {hi}] over {rows} columns")
    return height


def _changes(values: np.ndarray) -> np.ndarray:
    """Where a non-empty array differs from its previous entry (and at 0)."""
    out = np.empty(len(values), dtype=bool)
    out[0] = True
    np.not_equal(values[1:], values[:-1], out=out[1:])
    return out


def _changes_any(mask: np.ndarray) -> np.ndarray:
    """The columns of a 2-D mask that differ from their left neighbour
    (and column 0)."""
    differs = np.empty(mask.shape[1], dtype=bool)
    differs[0] = True
    np.any(mask[:, 1:] != mask[:, :-1], axis=0, out=differs[1:])
    return differs.nonzero()[0]


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a non-empty array."""
    values = np.sort(values)
    return values[_changes(values)]


# -- conversions -----------------------------------------------------------


def from_region(region: _region.Region) -> Slabs:
    """The region's canonical slabs as arrays."""
    slabs = region._slabs
    k = len(slabs)
    yss = [ys for _, _, ys in slabs]
    n = np.fromiter(map(len, yss), np.int64, k)
    ys = np.fromiter(chain.from_iterable(chain.from_iterable(yss)), np.int64, 2 * int(n.sum()))
    return (
        np.fromiter(map(_slab_x0, slabs), np.int64, k),
        np.fromiter(map(_slab_x1, slabs), np.int64, k),
        n,
        ys[0::2],
        ys[1::2],
    )


def to_region(slabs: Slabs) -> _region.Region:
    """The region of canonical slab arrays (no sweep: pure regrouping)."""
    xa, xb, n, y0, y1 = slabs
    intervals = list(zip(y0.tolist(), y1.tolist()))
    ends = n.cumsum()
    return _region.Region._from_slabs(
        [
            (a, b, intervals[lo:hi])
            for a, b, lo, hi in zip(xa.tolist(), xb.tolist(), (ends - n).tolist(), ends.tolist())
        ]
    )


def from_raster(mask: np.ndarray, window: Rect, grid: int) -> Slabs:
    """Canonical slabs of a raster over ``window`` at ``grid`` nm per pixel.

    Pixel (row j, col i) covers ``[x0 + i*grid, x0 + (i+1)*grid] x
    [y0 + j*grid, ...]``, clipped to the window's high edges; a pixel
    is set when its value is true (non-zero).  The mask must have one
    row per ``grid`` of the window's height and one column per ``grid``
    of its width, rounded up, as :func:`repro.litho.rasterize` makes it.

    A run of identical pixel columns is one slab, and one transition
    scan over one column per slab gives every slab's y-intervals.
    """
    if grid <= 0:
        raise ValueError("grid must be positive")
    shape = (-(-(window.y1 - window.y0) // grid), -(-(window.x1 - window.x0) // grid))
    if np.shape(mask) != shape:
        raise ValueError(
            f"mask shape {np.shape(mask)} does not match the {shape} pixels of "
            f"{window.as_tuple()} at grid {grid}"
        )
    mask = np.asarray(mask)
    if mask.dtype != np.bool_:
        mask = mask != 0
    ny, nx = shape
    if ny == 0 or nx == 0 or not mask.any():
        return EMPTY
    # a column starts a new slab where it differs from its left neighbour
    starts = _changes_any(mask)
    stops = np.empty_like(starts)
    stops[:-1] = starts[1:]
    stops[-1] = nx
    # one column per slab, padded with an empty row at both ends: in
    # row-major order each run's start is followed by its own end
    cols = np.zeros((len(starts), ny + 2), dtype=bool)
    cols[:, 1:-1] = mask[:, starts].T
    slab, row = np.divmod((cols[:, 1:] != cols[:, :-1]).ravel().nonzero()[0], ny + 1)
    n = np.bincount(slab[0::2], minlength=len(starts))
    keep = n > 0
    return (
        (window.x0 + starts * grid)[keep],
        np.minimum(window.x0 + stops * grid, window.x1)[keep],
        n[keep],
        window.y0 + row[0::2] * grid,
        np.minimum(window.y0 + row[1::2] * grid, window.y1),
    )


def scaled(slabs: Slabs, k: int) -> Slabs:
    """Every coordinate times ``k`` (``k > 0``); raises ``OverflowError``
    where a product would leave int64."""
    xa, xb, n, y0, y1 = slabs
    if len(n) and k * max(-int(xa[0]), int(xb[-1]), -int(y0.min()), int(y1.max())) >= 1 << 63:
        raise OverflowError(f"coordinates times {k} overflow int64")
    return xa * k, xb * k, n, y0 * k, y1 * k


# -- the canonical column builder -----------------------------------------------


def _merged(
    xa: np.ndarray, xb: np.ndarray, n: np.ndarray, y0: np.ndarray, y1: np.ndarray
) -> Slabs:
    """Join each slab into the one to its left when the two are x-adjacent
    and hold identical interval lists (slabs x-sorted, none empty)."""
    k = len(n)
    same = np.zeros(k, dtype=bool)
    same[1:] = (xa[1:] == xb[:-1]) & (n[1:] == n[:-1])
    if not same.any():
        return xa, xb, n, y0, y1
    owner = np.arange(k).repeat(n)
    check = same[owner].nonzero()[0]
    back = check - n[owner[check]]
    differs = (y0[check] != y0[back]) | (y1[check] != y1[back])
    same &= np.bincount(owner[check], weights=differs, minlength=k) == 0
    slab = (~same).nonzero()[0]
    last = np.empty_like(slab)
    last[:-1] = slab[1:] - 1
    last[-1] = k - 1
    count = n[slab]
    first = (n.cumsum() - n)[slab]
    pick = (first - (count.cumsum() - count)).repeat(count) + np.arange(int(count.sum()))
    return xa[slab], xb[last], count, y0[pick], y1[pick]


def join_columns(cuts: np.ndarray, col: np.ndarray, y0: np.ndarray, y1: np.ndarray) -> Slabs:
    """Canonical slabs of intervals sorted by ``(column, y0)`` that neither
    overlap nor touch within a column (column ``c`` spans ``cuts[c]`` to
    ``cuts[c + 1]``)."""
    if not len(col):
        return EMPTY
    starts = _changes(col).nonzero()[0]
    count = np.empty_like(starts)
    count[:-1] = starts[1:] - starts[:-1]
    count[-1] = len(col) - starts[-1]
    cols = col[starts]
    return _merged(cuts[cols], cuts[cols + 1], count, y0, y1)


def column_slabs(
    cuts: np.ndarray, c0: np.ndarray, c1: np.ndarray, y0: np.ndarray, y1: np.ndarray
) -> Slabs:
    """Canonical slabs of rects ``[cuts[c0], cuts[c1]] x [y0, y1]``.

    ``cuts`` is sorted and each rect spans the columns ``[c0, c1)``.
    Each rect is expanded over its columns, the pieces are sorted by
    ``(column, y0)``, and each column's intervals are merged with a
    running maximum of y1 (touching intervals coalesce, as
    ``merge_intervals`` does).  Runs of x-adjacent columns with identical
    interval lists become one slab.
    """
    if not len(c0):
        return EMPTY
    span = c1 - c0
    rect = np.arange(len(span)).repeat(span)
    col = np.arange(len(rect)) - (span.cumsum() - span).repeat(span) + c0[rect]
    lo = int(y0.min())
    height = _height(lo, int(y1.max()), len(cuts))
    # key = column * height + y keeps every column's keys above the last
    # column's, so one running maximum over all pieces never crosses one
    key0 = col * height + (y0[rect] - lo)
    order = np.argsort(key0, kind="stable")
    rect, col, key0 = rect[order], col[order], key0[order]
    key1 = col * height + (y1[rect] - lo)
    reach = np.maximum.accumulate(key1)
    new = np.empty(len(key0), dtype=bool)
    new[0] = True
    np.greater(key0[1:], reach[:-1], out=new[1:])
    first = new.nonzero()[0]
    return join_columns(cuts, col[first], y0[rect[first]], np.maximum.reduceat(y1[rect], first))


def band_slabs(
    x0: np.ndarray, y0: np.ndarray, x1: np.ndarray, y1: np.ndarray
) -> Iterator[Slabs]:
    """Canonical slabs of non-degenerate rects, ``_PIECES_AT`` pieces at a
    time, in x order.

    The rects are cut at every distinct x and :func:`column_slabs`
    unions each column's pieces and joins x-adjacent columns with
    identical interval lists.  Columns are taken in groups of about
    ``_PIECES_AT`` pieces, so long rects crossing many columns cannot
    blow the memory up.  Each batch is canonical on its own; a batch's
    first slab may continue the previous batch's last, which
    :func:`seamed` joins.
    """
    xs = np.sort(np.concatenate((x0, x1)))
    cuts = xs[_changes(xs)]
    c0 = np.searchsorted(cuts, x0)
    c1 = np.searchsorted(cuts, x1)
    covers = np.bincount(c0, minlength=len(cuts)) - np.bincount(c1, minlength=len(cuts))
    pieces = np.cumsum(np.cumsum(covers))  # pieces in columns [0, c]
    group = pieces // _PIECES_AT
    bounds = [0, *(np.flatnonzero(group[1:] != group[:-1]) + 1).tolist(), len(cuts) - 1]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        # a group starts at a column some rect covers, so none is empty
        live = (c0 < hi) & (c1 > lo)
        yield column_slabs(
            cuts,
            np.maximum(c0[live], lo),
            np.minimum(c1[live], hi),
            y0[live],
            y1[live],
        )


def seamed(batches: Iterable[Slabs]) -> Iterator[Slabs]:
    """x-ordered batches of canonical slabs, joined across their seams.

    Each batch's last slab is held back and merged into the next
    batch's first when the two are x-adjacent with identical interval
    lists, so the batches concatenate to one canonical form.  Batches
    must not be empty.
    """
    held: Slabs | None = None
    for xa, xb, n, y0, y1 in batches:
        if held is not None:
            hxa, hxb, hn, hy0, hy1 = held
            if (
                hxb[0] == xa[0]
                and np.array_equal(hy0, y0[: n[0]])
                and np.array_equal(hy1, y1[: n[0]])
            ):
                xa[0] = hxa[0]  # the held slab extends into this batch
            else:
                xa, xb, n = (np.concatenate(v) for v in ((hxa, xa), (hxb, xb), (hn, n)))
                y0, y1 = np.concatenate((hy0, y0)), np.concatenate((hy1, y1))
        cut = len(y0) - int(n[-1])
        held = (xa[-1:], xb[-1:], n[-1:], y0[cut:], y1[cut:])
        if len(n) > 1:
            yield xa[:-1], xb[:-1], n[:-1], y0[:cut], y1[:cut]
    if held is not None:
        yield held


def from_rects(x0: np.ndarray, y0: np.ndarray, x1: np.ndarray, y1: np.ndarray) -> Slabs:
    """Canonical slabs of rects ``[x0, x1] x [y0, y1]`` — the slabs
    ``Region(rects)`` sweeps — built in bounded column groups
    (:func:`band_slabs`, :func:`seamed`); degenerate rects are dropped."""
    keep = (x0 < x1) & (y0 < y1)
    if not keep.any():
        return EMPTY
    if not keep.all():
        x0, y0, x1, y1 = x0[keep], y0[keep], x1[keep], y1[keep]
    parts = list(seamed(band_slabs(x0, y0, x1, y1)))
    if len(parts) == 1:
        return parts[0]
    xa, xb, n, ys0, ys1 = (np.concatenate(v) for v in zip(*parts))
    return xa, xb, n, ys0, ys1


def select(slabs: Slabs, keep: np.ndarray) -> Slabs:
    """The canonical slabs of the intervals where ``keep`` is true."""
    xa, xb, n, y0, y1 = slabs
    if keep.all():
        return slabs
    count = np.bincount(np.arange(len(n)).repeat(n)[keep], minlength=len(n))
    live = count > 0
    if not live.any():
        return EMPTY
    return _merged(xa[live], xb[live], count[live], y0[keep], y1[keep])


# -- booleans ------------------------------------------------------------------


def _events(
    slabs: Slabs, cuts: np.ndarray, lo: int, height: int
) -> np.ndarray:
    """Every interval start and end as a ``column * height + (y - lo)``
    key, with each slab's intervals repeated over the columns of
    ``cuts`` it spans.  Canonical intervals neither overlap nor touch,
    so the keys rise strictly: starts at even, ends at odd positions."""
    xa, xb, n, y0, y1 = slabs
    c0 = cuts.searchsorted(xa)
    span = cuts.searchsorted(xb) - c0
    if (span == 1).all():
        col = c0.repeat(n)
    else:
        per = span * n  # pieces per slab, column-major
        slab = np.arange(len(n)).repeat(per)
        t = np.arange(int(per.sum())) - (per.cumsum() - per).repeat(per)
        width = n[slab]
        col = c0[slab] + t // width
        iv = (n.cumsum() - n)[slab] + t % width
        y0, y1 = y0[iv], y1[iv]
    base = col * height - lo
    keys = np.empty(2 * len(col), dtype=np.int64)
    np.add(base, y0, out=keys[0::2])
    np.add(base, y1, out=keys[1::2])
    return keys


def pieces(
    a: Slabs, b: Slabs, subtract: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``a & b`` (``a - b`` when ``subtract``) as ``(cuts, col, y0, y1)``:
    its intervals in every elementary column ``[cuts[col], cuts[col+1]]``,
    sorted by ``(col, y0)``, before identical columns are joined.

    Both operands are cut at every x either changes at.  A key's
    coverage by an operand is the parity of that operand's events at or
    below it, and a run of keys where the predicate holds is an interval
    of the result.  Every column's coverage ends at zero, so no run
    crosses a column.
    """
    if not len(a[2]) or not (len(b[2]) or subtract):
        return _NONE, _NONE, _NONE, _NONE
    ops = (a, b) if len(b[2]) else (a,)
    cuts = _distinct(np.concatenate([s[i] for s in ops for i in (0, 1)]))
    lo = int(min(s[3].min() for s in ops))
    height = _height(lo, int(max(s[4].max() for s in ops)), len(cuts))
    ea = _events(a, cuts, lo, height)
    eb = _events(b, cuts, lo, height) if len(b[2]) else _NONE
    events = np.concatenate((ea, eb))
    order = events.argsort(kind="stable")
    keys = events[order]
    seen_a = (order < len(ea)).cumsum()
    # each key's coverage is read after its last event
    last = np.empty(len(keys), dtype=bool)
    last[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=last[:-1])
    at = last.nonzero()[0]
    in_a = seen_a[at] & 1
    in_b = (at + 1 - seen_a[at]) & 1
    # on[k + 1] is the predicate on [keys[k], keys[k + 1]); on[0] is off,
    # so runs alternate start, end
    on = np.zeros(len(at) + 1, dtype=np.int8)
    on[1:] = (in_a > in_b) if subtract else (in_a & in_b)
    edges = at[(on[1:] != on[:-1]).nonzero()[0]]
    col, y0 = np.divmod(keys[edges[0::2]], height)
    return cuts, col, y0 + lo, keys[edges[1::2]] - col * height + lo


def difference(a: Slabs, b: Slabs) -> Slabs:
    """``a - b``."""
    if not len(b[2]):
        return a
    return join_columns(*pieces(a, b, subtract=True))


# -- morphology ------------------------------------------------------------------


def grown(slabs: Slabs, dx: int, dy: int) -> Slabs:
    """Minkowski sum with a ``2dx x 2dy`` box; negative sizes erode, as
    :meth:`Region.grown <repro.geometry.Region.grown>` does.

    Dilation widens each slab by ``dx`` and grows its intervals by
    ``dy``, then unions them with :func:`column_slabs`.  An erosion
    along y alone shrinks each interval and drops those it empties;
    any other erosion is complement-dilate-complement inside a guard
    frame.  Mixed signs run the x axis, then the y axis.
    """
    if (dx == 0 and dy == 0) or not len(slabs[2]):
        return slabs
    if dx >= 0 and dy >= 0:
        xa, xb, n, y0, y1 = slabs
        x0, x1 = xa - dx, xb + dx
        cuts = _distinct(np.concatenate((x0, x1)))
        c0 = cuts.searchsorted(x0).repeat(n)
        c1 = cuts.searchsorted(x1).repeat(n)
        return column_slabs(cuts, c0, c1, y0 - dy, y1 + dy)
    if dx <= 0 and dy <= 0:
        if dx == 0:
            xa, xb, n, y0, y1 = slabs
            return select((xa, xb, n, y0 - dy, y1 + dy), y1 - y0 > -2 * dy)
        xa, xb, _, y0, y1 = slabs
        frame = _box(
            int(xa[0]) + dx - 1, int(y0.min()) + dy - 1, int(xb[-1]) - dx + 1, int(y1.max()) - dy + 1
        )
        return difference(frame, grown(difference(frame, slabs), -dx, -dy))
    return grown(grown(slabs, dx, 0), 0, dy)


def _box(x0: int, y0: int, x1: int, y1: int) -> Slabs:
    """The slabs of one non-degenerate box."""
    v = np.array([x0, x1, 1, y0, y1], dtype=np.int64)
    return v[0:1], v[1:2], v[2:3], v[3:4], v[4:5]


def opened(slabs: Slabs, d: int) -> Slabs:
    """Open canonical slabs by a ``2d x 2d`` box (``d > 0``) as
    δ_y ∘ γ_x ∘ ε_y; :meth:`Region.opened <repro.geometry.Region.opened>`
    derives the identity.

    The grid's columns are the slabs plus one empty column in each
    x-gap; its rows are the bands between the y-eroded region's distinct
    y values, plus an empty band below and above.  Columns go in blocks
    of at most :data:`repro.geometry.region._OPEN_CELLS` cells, each
    then extended on both sides until the added columns span more than
    ``2d``: a run of the block cut off at an extension's edge then
    measures more than ``2d`` and is kept, as its full length would be.
    """
    xa, xb, n, y0, y1 = slabs
    two_d = 2 * d
    # ε_y: intervals longer than 2d shrink by d at both ends, others drop
    long = y1 - y0 > two_d
    if not long.any():
        return EMPTY
    if (xb - xa > two_d).all():
        # every horizontal run spans at least one whole slab: γ_x is the
        # identity and δ_y restores what ε_y kept
        return select(slabs, long)
    xs = _distinct(np.concatenate((xa, xb)))
    bounds = xs.tolist()
    col = xs.searchsorted(xa).repeat(n)[long]
    lo = y0[long] + d
    hi = y1[long] - d
    ys = _distinct(np.concatenate((lo, hi)))
    row_lo = ys.searchsorted(lo) + 1
    row_hi = ys.searchsorted(hi) + 1
    rows = len(ys) + 1
    ncols = len(bounds) - 1
    step = max(1, _region._OPEN_CELLS // rows)
    run_col: list[np.ndarray] = []
    run_lo: list[np.ndarray] = []  # indices into ys
    run_hi: list[np.ndarray] = []
    dropped = False
    for c0 in range(0, ncols, step):
        c1 = min(c0 + step, ncols)
        e0 = max(bisect_left(bounds, bounds[c0] - two_d) - 1, 0)
        e1 = min(bisect_right(bounds, bounds[c1] + two_d), ncols)
        i0, i1 = col.searchsorted((e0, e1)).tolist()
        # grid[r, 1 + j] covers band r of block column j; the zero first
        # and last grid columns close every run
        w = e1 - e0
        grid = np.zeros((rows, w + 2), dtype=np.int8)
        cols = col[i0:i1] - (e0 - 1)
        grid[row_lo[i0:i1], cols] = 1
        grid[row_hi[i0:i1], cols] = -1
        np.cumsum(grid, axis=0, out=grid)
        # γ_x: a row's runs start and end where coverage changes along x;
        # in row-major order each start is followed by its own end
        edges = (grid[:, 1:] != grid[:, :-1]).ravel().nonzero()[0]
        run_row, start = np.divmod(edges[0::2], w + 1)
        end = edges[1::2] - run_row * (w + 1)
        short = xs[e0 + end] - xs[e0 + start] <= two_d
        if short.any():
            # clear each short run's cells, grid columns start + 1 .. end
            dropped = True
            first = run_row[short] * (w + 2) + start[short] + 1
            length = (end - start)[short]
            skip = length.cumsum() - length
            grid.ravel()[(first - skip).repeat(length) + np.arange(length.sum())] = 0
        # the vertical runs of the block's own columns, column by column
        core = np.ascontiguousarray(grid[:, c0 - e0 + 1 : c1 - e0 + 1].T)
        edges = (core[:, 1:] != core[:, :-1]).ravel().nonzero()[0]
        c, r = np.divmod(edges[0::2], rows - 1)
        run_col.append(c + c0)
        run_lo.append(r)
        run_hi.append(edges[1::2] - c * (rows - 1))
    if not dropped:
        return select(slabs, long)
    # δ_y: each vertical run grows by d, merging where runs overlap or touch
    c = np.concatenate(run_col)
    return column_slabs(xs, c, c + 1, ys[np.concatenate(run_lo)] - d, ys[np.concatenate(run_hi)] + d)


# -- structure -------------------------------------------------------------------


def _interval_keys(slabs: Slabs) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Each interval's slab, and its ends as ``slab * height + (y - lo)``
    keys (both rise strictly), with ``lo`` and ``height``."""
    _, _, n, y0, y1 = slabs
    slab = np.arange(len(n)).repeat(n)
    lo = int(y0.min())
    height = _height(lo, int(y1.max()), len(n) + 1)
    base = slab * height - lo
    return slab, base + y0, base + y1, lo, height


def label(slabs: Slabs) -> tuple[np.ndarray, int]:
    """4-connected components: a label per interval, and their number.

    Intervals of x-adjacent slabs join when they share an edge of
    positive length (a shared corner does not connect).  Each round
    hooks every root onto the smallest root it has an edge to, then
    jumps pointers until every interval points at its root, so a root
    is its component's first interval and labels number the components
    in the canonical order of their first rect, as
    :meth:`Region.components <repro.geometry.Region.components>` lists
    them.
    """
    xa, xb, n, y0, y1 = slabs
    total = len(y0)
    if not total:
        return _NONE, 0
    slab, key0, key1, lo, height = _interval_keys(slabs)
    # interval i meets intervals j of the next slab with y0_j < y1_i and
    # y1_j > y0_i: a contiguous key range there
    touching = np.zeros(len(n), dtype=bool)
    touching[:-1] = xb[:-1] == xa[1:]
    u = touching[slab].nonzero()[0]
    base = (slab[u] + 1) * height - lo
    first = key1.searchsorted(base + y0[u], "right")
    count = key0.searchsorted(base + y1[u], "left") - first
    u = u.repeat(count)
    v = (first - (count.cumsum() - count)).repeat(count) + np.arange(len(u))
    parent = link(np.arange(total), u, v)
    root = parent == np.arange(total)
    return (root.cumsum() - 1)[parent], int(np.count_nonzero(root))


def link(parent: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Join components across the edges ``(u, v)``.

    ``parent`` maps every node to its component's root, the smallest
    node in it (``np.arange`` when every node stands alone); so does the
    result, and ``parent`` may be updated in place.  Each round hooks
    every root onto the smallest root it has an edge to, then jumps
    pointers until every node points at its root.
    """
    while len(u):
        ru, rv = parent[u], parent[v]
        apart = ru != rv
        if not apart.any():
            break
        u, v, ru, rv = u[apart], v[apart], ru[apart], rv[apart]
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up
    return parent


def locate(slabs: Slabs, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The interval whose ``[xa, xb) x [y0, y1)`` holds each point ``(x, y)``,
    or -1 where none does."""
    xa, xb, n, y0, y1 = slabs
    if not len(y0):
        return np.full(len(x), -1)
    slab, key0, _, lo, height = _interval_keys(slabs)
    s = xa.searchsorted(x, "right") - 1
    # clipped into [lo - 1, max y1], a point's key stays near its own slab
    yy = np.minimum(np.maximum(y, lo - 1), int(y1.max()))
    at = key0.searchsorted(s * height + (yy - lo), "right") - 1
    sc = np.maximum(s, 0)
    ac = np.maximum(at, 0)
    found = (s >= 0) & (x < xb[sc]) & (at >= 0) & (slab[ac] == s) & (y < y1[ac])
    return np.where(found, at, -1)


def extents(
    slabs: Slabs, labels: np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per label: bbox ``(x0, y0, x1, y1)`` and integer area."""
    xa, xb, n, y0, y1 = slabs
    big = np.iinfo(np.int64)
    left = np.full(count, big.max)
    bottom = np.full(count, big.max)
    right = np.full(count, big.min)
    top = np.full(count, big.min)
    area = np.zeros(count, dtype=np.int64)
    ia = xa.repeat(n)
    ib = xb.repeat(n)
    np.minimum.at(left, labels, ia)
    np.minimum.at(bottom, labels, y0)
    np.maximum.at(right, labels, ib)
    np.maximum.at(top, labels, y1)
    np.add.at(area, labels, (ib - ia) * (y1 - y0))
    return left, bottom, right, top, area


# -- queries ---------------------------------------------------------------------


def _box_slabs(
    slabs: Slabs, x0: np.ndarray, x1: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every (box, slab) pair whose x-ranges overlap in more than a
    point, as ``(box, slab)``, with each box's slab range ``[s0, s1)``."""
    xa, xb = slabs[0], slabs[1]
    s0 = xb.searchsorted(x0, "right")
    s1 = np.maximum(xa.searchsorted(x1, "left"), s0)
    count = s1 - s0
    box = np.arange(len(x0)).repeat(count)
    slab = np.arange(len(box)) - (count.cumsum() - count)[box] + s0[box]
    return box, slab, s0, s1


def meets(
    slabs: Slabs, x0: np.ndarray, y0: np.ndarray, x1: np.ndarray, y1: np.ndarray
) -> np.ndarray:
    """Per box ``[x0, x1] x [y0, y1]``: does the interior of the slabs meet
    the box's interior?  A degenerate box meets nothing.

    Each (box, slab) pair asks one search on ``slab * height + y`` keys:
    the slab's first interval ending above the box's bottom meets the
    box when it starts below the box's top.
    """
    out = np.zeros(len(x0), dtype=bool)
    if not len(slabs[3]) or not len(x0):
        return out
    iy0, iy1 = slabs[3], slabs[4]
    owner, _, key1, lo, height = _interval_keys(slabs)
    box, slab, _, _ = _box_slabs(slabs, x0, x1)
    # clipped into [lo, max y1], a box's key stays inside its own slab
    yy = np.minimum(np.maximum(y0[box], lo), int(iy1.max()))
    at = key1.searchsorted(slab * height + (yy - lo), "right")
    ac = np.minimum(at, len(key1) - 1)
    hit = (at < len(key1)) & (owner[ac] == slab) & (iy0[ac] < y1[box])
    out[box[hit]] = True
    return out & (x0 < x1) & (y0 < y1)


def covers(
    slabs: Slabs, x0: np.ndarray, y0: np.ndarray, x1: np.ndarray, y1: np.ndarray
) -> np.ndarray:
    """Per box ``[x0, x1] x [y0, y1]``: do the slabs cover it?  A
    degenerate box is covered.

    A box is covered when the slabs it overlaps span its x-range with
    no x-gap between them, and in each of them one interval holds its
    y-range: the slab's last interval starting at or below the box's
    bottom, found by one search on ``slab * height + y`` keys.
    """
    out = (x0 >= x1) | (y0 >= y1)
    xa, xb, n, iy0, iy1 = slabs
    if not len(iy0) or not len(x0):
        return out
    owner, key0, _, lo, height = _interval_keys(slabs)
    box, slab, s0, s1 = _box_slabs(slabs, x0, x1)
    # clipped into [lo - 1, max y1], a box's key stays near its own slab
    yy = np.minimum(np.maximum(y0[box], lo - 1), int(iy1.max()))
    at = key0.searchsorted(slab * height + (yy - lo), "right") - 1
    ac = np.maximum(at, 0)
    held = (at >= 0) & (owner[ac] == slab) & (iy1[ac] >= y1[box])
    # gaps[s]: the x-gaps between consecutive slabs up to slab s
    gaps = np.zeros(len(n), dtype=np.int64)
    np.cumsum(xa[1:] != xb[:-1], out=gaps[1:])
    first = np.minimum(s0, len(n) - 1)
    last = np.maximum(s1 - 1, 0)
    spanned = (s1 > s0) & (xa[first] <= x0) & (xb[last] >= x1) & (gaps[last] == gaps[first])
    missed = np.bincount(box[~held], minlength=len(x0)) > 0
    return out | (spanned & ~missed)


def boundaries(slabs: Slabs) -> tuple[Edges, Edges]:
    """The vertical boundary pieces, as ``(x, y0, y1)`` arrays sorted by
    ``(x, y0)``: those with the region on their left, then those with it
    on their right, as :meth:`Region.edges <repro.geometry.Region.edges>`
    lists them.

    At every slab edge, the pieces with the region on the left are the
    intervals of the slab ending there minus those of the slab starting
    there, and the others the reverse.  One ``a - b`` sweep over unit
    columns gives both: the first half of the columns holds each slab's
    intervals at its right edge in ``a`` and at its left edge in ``b``,
    the second half the same intervals the other way round.
    """
    xa, xb, n, y0, y1 = slabs
    if not len(n):
        return (_NONE, _NONE, _NONE), (_NONE, _NONE, _NONE)
    xs = _distinct(np.concatenate((xa, xb)))
    half = len(xs)
    ends = xs.searchsorted(xb)
    starts = xs.searchsorted(xa)
    twice = np.concatenate((n, n))
    ys0 = np.concatenate((y0, y0))
    ys1 = np.concatenate((y1, y1))
    a = np.concatenate((ends, starts + half))
    b = np.concatenate((starts, ends + half))
    cuts, col, p0, p1 = pieces((a, a + 1, twice, ys0, ys1), (b, b + 1, twice, ys0, ys1), subtract=True)
    at = cuts[col]
    split = int(at.searchsorted(half))
    return (
        (xs[at[:split]], p0[:split], p1[:split]),
        (xs[at[split:] - half], p0[split:], p1[split:]),
    )


def facing(near: Edges, far: Edges, reach: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs ``(i, j)`` of vertical pieces ``near[i] = (x, a0, a1)``
    and ``far[j] = (x', b0, b1)`` with ``x < x' < x + reach`` whose
    y-spans overlap in more than a point, sorted by ``(i, j)``.

    Both sets are sorted by ``(x, y0)`` and each x's pieces are disjoint,
    as :func:`boundaries` gives them.  So one far column's partners of
    ``[a0, a1]`` are the run with ``b1 > a0`` and ``b0 < a1``: two
    searches on ``column * height + y`` keys per (near piece, far
    column) pair.
    """
    nx, a0, a1 = near
    fx, b0, b1 = far
    if not len(nx) or not len(fx):
        return _NONE, _NONE
    columns = fx[_changes(fx)]
    fc = columns.searchsorted(fx)
    c0 = columns.searchsorted(nx, "right")
    count = np.maximum(columns.searchsorted(nx + reach, "left") - c0, 0)
    if not count.any():
        return _NONE, _NONE
    i = np.arange(len(nx)).repeat(count)
    c = np.arange(len(i)) - (count.cumsum() - count)[i] + c0[i]
    lo = int(min(a0.min(), b0.min()))
    height = _height(lo, int(max(a1.max(), b1.max())), len(columns) + 1)
    base = c * height - lo
    first = (fc * height + (b1 - lo)).searchsorted(base + a0[i], "right")
    count = (fc * height + (b0 - lo)).searchsorted(base + a1[i], "left") - first
    j = np.arange(int(count.sum())) - (count.cumsum() - count).repeat(count) + first.repeat(count)
    return i.repeat(count), j
