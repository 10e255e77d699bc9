"""Canonical rectangle-set regions with boolean algebra and morphology.

A :class:`Region` represents an arbitrary rectilinear area as a canonical
set of disjoint rectangles.  Canonical form is the *vertical slab
decomposition with maximal horizontal merge*: the plane is cut at every
distinct x coordinate where the region's boundary changes, each slab holds
a canonical list of y-intervals, and adjacent slabs with identical
y-interval lists are merged back together.  Two regions describing the same
point set therefore always hold the same rectangle list, which makes
equality, hashing, and property-based testing trivial.

Only the constructor takes arbitrary, possibly overlapping rectangles; it
decomposes them with a heap-driven plane sweep.  Every other operation
reads and writes canonical slabs directly:

* Boolean operations (union, intersection, difference, xor) bisect both
  slab lists down to the operands' common x-extent and sweep only that
  window with the 1-D interval algebra in :mod:`repro.geometry.intervals`;
  slabs outside it are copied or dropped whole.  A small operand against
  a wide one therefore costs a bisection plus the slabs the small one
  spans.
* Dilation is separable: each slab's y-intervals grow, then the grown
  slabs are unioned along x with a sliding index window.  General
  erosion (``grown`` with a negative size) is complement-dilate-
  complement inside a guard frame.  ``grown`` stays on lists: its
  callers grow small regions one at a time (the critical-area model
  grows every component), where a few-rect dilation or erosion costs
  a fifth of the array kernel's with its conversions, or less.  The DRC, which
  grows whole layers, calls :func:`repro.geometry.slabarrays.grown`.
* Opening is separable too: erode each slab's intervals along y, drop
  the horizontal runs not longer than ``2*d`` in one NumPy pass over the
  eroded region's grid of slabs and y bands, then grow the surviving
  vertical runs back along y.  No complement is built.  When every slab
  is wider than ``2*d`` it only drops short intervals, in list form;
  otherwise it runs on the slab arrays of
  :mod:`repro.geometry.slabarrays`, the one opening the hotspot
  classifier's pinch check and the DRC width check also call.  It
  serves the recommended-width score.
* Connected components union-find the (slab, interval) pairs across
  adjacent slabs and regroup each component's slabs.  The hotspot
  classifier and the DRC checks label on arrays instead, with the array
  kernel's ``label``, which numbers components in the same order.
"""

from __future__ import annotations

import hashlib
import heapq
import struct
from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from repro.geometry.intervals import (
    Interval,
    intersect_intervals,
    merge_intervals,
    subtract_intervals,
    xor_intervals,
)
from repro.geometry.point import Point
from repro.geometry.rect import Rect

# A slab is (x0, x1, [y-intervals]); slabs are sorted by x0 and disjoint,
# so their x1 values are sorted too.  Slab lists and their interval lists
# are never mutated once a region holds them, so regions may share them.
Slab = tuple[int, int, list[Interval]]
IntervalOp = Callable[[list[Interval], list[Interval]], list[Interval]]

_slab_x0 = itemgetter(0)
_slab_x1 = itemgetter(1)

# grid cells per column block of one opening (repro.geometry.slabarrays.opened)
_OPEN_CELLS = 1 << 20


def _slabs_from_rects(rects: Sequence[Rect]) -> list[Slab]:
    """Decompose arbitrary (possibly overlapping) rects into canonical slabs."""
    boxes = [r for r in rects if not r.is_degenerate]
    if not boxes:
        return []
    xs = sorted({r.x0 for r in boxes} | {r.x1 for r in boxes})
    boxes.sort(key=lambda r: r.x0)
    slabs: list[Slab] = []
    active: list[tuple[int, int, int]] = []  # heap of (x1, y0, y1)
    i = 0
    for xa, xb in zip(xs, xs[1:]):
        while i < len(boxes) and boxes[i].x0 <= xa:
            r = boxes[i]
            heapq.heappush(active, (r.x1, r.y0, r.y1))
            i += 1
        while active and active[0][0] <= xa:
            heapq.heappop(active)
        if active:
            ys = merge_intervals([(y0, y1) for (_, y0, y1) in active])
            if ys:
                slabs.append((xa, xb, ys))
    return _merge_slabs(slabs)


def _merge_slabs(slabs: list[Slab]) -> list[Slab]:
    """Merge x-adjacent slabs whose y-interval lists are identical."""
    out: list[Slab] = []
    for xa, xb, ys in slabs:
        if not ys:
            continue
        if out and out[-1][1] == xa and out[-1][2] == ys:
            out[-1] = (out[-1][0], xb, ys)
        else:
            out.append((xa, xb, ys))
    return out


def _splice(runs: Iterable[list[Slab]]) -> list[Slab]:
    """Concatenate x-ordered canonical slab runs, merging across each seam."""
    out: list[Slab] = []
    for run in runs:
        if not run:
            continue
        xa, xb, ys = run[0]
        if out and out[-1][1] == xa and out[-1][2] == ys:
            out[-1] = (out[-1][0], xb, ys)
            out.extend(run[1:])
        else:
            out.extend(run)
    return out


def _windows(a: list[Slab], b: list[Slab]) -> tuple[int, int, int, int]:
    """Index ranges ``a[ia:ja]``, ``b[ib:jb]`` of the slabs that reach into
    the operands' common open x-extent (both lists non-empty).

    Slabs before a window end at or left of it and slabs after it start
    at or right of it; only the operand reaching further out on that side
    has any.  Disjoint or touching extents give empty windows.
    """
    lo = max(a[0][0], b[0][0])
    hi = min(a[-1][1], b[-1][1])
    ia = bisect_right(a, lo, key=_slab_x1)
    ib = bisect_right(b, lo, key=_slab_x1)
    ja = bisect_left(a, hi, lo=ia, key=_slab_x0)
    jb = bisect_left(b, hi, lo=ib, key=_slab_x0)
    return ia, ja, ib, jb


def _sweep(
    a: list[Slab], b: list[Slab], op: IntervalOp, keep_a: bool, keep_b: bool
) -> list[Slab]:
    """Combine two canonical slab lists under interval ``op``.

    ``keep_a``/``keep_b`` say what ``op`` does where only one operand has
    area: ``op(ys, [])`` is ``ys`` when ``keep_a`` and empty otherwise
    (likewise ``op([], ys)`` and ``keep_b``).  Outside the common
    x-extent that decides whole slabs, so only the two windows are swept.
    """
    if not a:
        return list(b) if keep_b else []
    if not b:
        return list(a) if keep_a else []
    ia, ja, ib, jb = _windows(a, b)
    return _splice(
        (
            a[:ia] if keep_a else [],
            b[:ib] if keep_b else [],
            _sweep_window(a[ia:ja], b[ib:jb], op, keep_a, keep_b),
            a[ja:] if keep_a else [],
            b[jb:] if keep_b else [],
        )
    )


def _sweep_window(
    a: list[Slab], b: list[Slab], op: IntervalOp, keep_a: bool, keep_b: bool
) -> list[Slab]:
    """Joint slab sweep over every x where either operand's boundary changes."""
    xs = sorted({x for xa, xb, _ in a for x in (xa, xb)} | {x for xa, xb, _ in b for x in (xa, xb)})
    out: list[Slab] = []
    na, nb = len(a), len(b)
    ia = ib = 0
    for xa, xb in zip(xs, xs[1:]):
        while ia < na and a[ia][1] <= xa:
            ia += 1
        while ib < nb and b[ib][1] <= xa:
            ib += 1
        ya = a[ia][2] if ia < na and a[ia][0] <= xa else []
        yb = b[ib][2] if ib < nb and b[ib][0] <= xa else []
        if ya and yb:
            ys = op(ya, yb)
        elif ya:
            ys = ya if keep_a else []
        else:
            ys = yb if keep_b else []
        if ys:
            out.append((xa, xb, ys))
    return _merge_slabs(out)


def _union_intervals(xs: list[Interval], ys: list[Interval]) -> list[Interval]:
    return merge_intervals(xs + ys)


def _grown_intervals(ys: list[Interval], dy: int) -> list[Interval]:
    """Grow each canonical interval by ``dy`` on both sides (``dy >= 0``);
    the grown intervals stay sorted, so touching ones merge in one pass."""
    out: list[Interval] = []
    for y0, y1 in ys:
        if out and y0 - dy <= out[-1][1]:
            out[-1] = (out[-1][0], y1 + dy)
        else:
            out.append((y0 - dy, y1 + dy))
    return out


def _dilated(slabs: list[Slab], d: int, dy: int) -> list[Slab]:
    """Dilate canonical slabs by a ``2d x 2dy`` box (``d, dy >= 0``).

    Grown slab ``k`` spans ``[x0_k - d, x1_k + d]``.  Both the grown
    starts and the grown ends stay sorted, so the slabs covering any x
    are one contiguous index window ``[lo, hi)`` that only slides forward
    as the sweep moves right; each elementary x-range unions the grown
    intervals of its window.
    """
    n = len(slabs)
    x0s = [xa - d for xa, _, _ in slabs]
    x1s = [xb + d for _, xb, _ in slabs]
    grown = [_grown_intervals(ys, dy) for _, _, ys in slabs]
    xs = sorted(set(x0s).union(x1s))
    out: list[Slab] = []
    lo = hi = 0
    for xa, xb in zip(xs, xs[1:]):
        while hi < n and x0s[hi] <= xa:
            hi += 1
        while lo < hi and x1s[lo] <= xa:
            lo += 1
        if lo == hi:
            continue
        if hi - lo == 1:
            ys = grown[lo]
        else:
            ys = merge_intervals([iv for k in range(lo, hi) for iv in grown[k]])
        out.append((xa, xb, ys))
    return _merge_slabs(out)


def _long_intervals(slabs: list[Slab], two_d: int) -> list[Slab]:
    """Each slab's intervals longer than ``two_d``: the y-opening, slab by
    slab, of canonical slabs (a slab's intervals never touch)."""
    return _merge_slabs(
        [(xa, xb, [iv for iv in ys if iv[1] - iv[0] > two_d]) for xa, xb, ys in slabs]
    )


class Region:
    """An immutable rectilinear area in canonical rectangle-set form."""

    __slots__ = ("_slabs", "_hash")

    def __init__(self, rects: Iterable[Rect] | Rect | None = None):
        if rects is None:
            rects = []
        elif isinstance(rects, Rect):
            rects = [rects]
        self._slabs: list[Slab] = _slabs_from_rects(list(rects))
        self._hash: int | None = None

    # -- internal -------------------------------------------------------
    @classmethod
    def _from_slabs(cls, slabs: list[Slab]) -> "Region":
        region = cls.__new__(cls)
        region._slabs = slabs
        region._hash = None
        return region

    @classmethod
    def from_canonical_rects(cls, rects: Iterable[Rect]) -> "Region":
        """Rebuild a region from its own canonical rect iteration.

        ``rects`` must be exactly what :meth:`rects` produced (the
        order ships rects slab by slab, y-sorted within each slab), as
        the out-of-core layout store serves them
        (:class:`repro.layout.store.StoreLayer`).  Rebuilding is then
        pure regrouping — no sweep — and bit-identical: canonical rects
        sharing an x-range are one slab's y-intervals.
        """
        slabs: list[Slab] = []
        for r in rects:
            if slabs and slabs[-1][0] == r.x0 and slabs[-1][1] == r.x1:
                slabs[-1][2].append((r.y0, r.y1))
            else:
                slabs.append((r.x0, r.x1, [(r.y0, r.y1)]))
        return cls._from_slabs(_merge_slabs(slabs))

    # -- iteration and size ----------------------------------------------
    def rects(self) -> Iterator[Rect]:
        """Iterate the canonical disjoint rectangles."""
        for xa, xb, ys in self._slabs:
            for y0, y1 in ys:
                yield Rect(xa, y0, xb, y1)

    def __iter__(self) -> Iterator[Rect]:
        return self.rects()

    def __len__(self) -> int:
        return sum(len(ys) for _, _, ys in self._slabs)

    def __bool__(self) -> bool:
        return bool(self._slabs)

    @property
    def is_empty(self) -> bool:
        return not self._slabs

    @property
    def area(self) -> int:
        return sum((xb - xa) * (y1 - y0) for xa, xb, ys in self._slabs for y0, y1 in ys)

    @property
    def bbox(self) -> Rect | None:
        if not self._slabs:
            return None
        x0 = self._slabs[0][0]
        x1 = self._slabs[-1][1]
        y0 = min(ys[0][0] for _, _, ys in self._slabs)
        y1 = max(ys[-1][1] for _, _, ys in self._slabs)
        return Rect(x0, y0, x1, y1)

    # -- equality ---------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, Region):
            return NotImplemented
        return self._slabs == other._slabs

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple((xa, xb, tuple(ys)) for xa, xb, ys in self._slabs))
        return self._hash

    def digest(self) -> str:
        """Stable content hash of the region's point set.

        Hashes the canonical slab decomposition, so any two regions
        describing the same area — however they were constructed — share
        a digest.  This is what keys the incremental tile caches in
        :mod:`repro.parallel`.
        """
        h = hashlib.sha256()
        for xa, xb, ys in self._slabs:
            h.update(struct.pack("<qqq", xa, xb, len(ys)))
            for y0, y1 in ys:
                h.update(struct.pack("<qq", y0, y1))
        return h.hexdigest()

    def __repr__(self) -> str:
        n = len(self)
        bb = self.bbox
        return f"Region({n} rects, bbox={bb.as_tuple() if bb else None})"

    # -- membership ---------------------------------------------------------
    def contains_point(self, p: Point) -> bool:
        """True when ``p`` lies in the closed region."""
        for xa, xb, ys in self._slabs:
            if xa <= p.x <= xb:
                for y0, y1 in ys:
                    if y0 <= p.y <= y1:
                        return True
            if xa > p.x:
                # slabs sorted: a later slab may still touch p.x == xa, so
                # only stop once strictly past
                break
        return False

    # -- boolean algebra -----------------------------------------------------
    def __or__(self, other: "Region") -> "Region":
        return Region._from_slabs(_sweep(self._slabs, other._slabs, _union_intervals, True, True))

    def __and__(self, other: "Region") -> "Region":
        return Region._from_slabs(
            _sweep(self._slabs, other._slabs, intersect_intervals, False, False)
        )

    def __sub__(self, other: "Region") -> "Region":
        return Region._from_slabs(
            _sweep(self._slabs, other._slabs, subtract_intervals, True, False)
        )

    def __xor__(self, other: "Region") -> "Region":
        return Region._from_slabs(_sweep(self._slabs, other._slabs, xor_intervals, True, True))

    union = __or__
    intersection = __and__
    difference = __sub__

    def overlaps(self, other: "Region") -> bool:
        """True when interiors intersect.

        A two-pointer sweep over the slabs inside both operands' common
        x-extent (found by bisection) that stops at the first intersecting
        (slab, slab) pair — unlike ``self & other`` it never materializes
        the intersection, so disjoint-but-close regions (the common case in
        hotspot bridging and fill checks) answer in O(log n + slabs
        scanned) with no allocation.
        """
        a, b = self._slabs, other._slabs
        if not a or not b:
            return False
        ia, ja, ib, jb = _windows(a, b)
        while ia < ja and ib < jb:
            ax0, ax1, ay = a[ia]
            bx0, bx1, by = b[ib]
            if ax1 <= bx0:
                ia += 1
                continue
            if bx1 <= ax0:
                ib += 1
                continue
            i = j = 0
            na, nb = len(ay), len(by)
            while i < na and j < nb:
                a0, a1 = ay[i]
                b0, b1 = by[j]
                if a0 < b1 and b0 < a1:
                    return True
                if a1 <= b1:
                    i += 1
                else:
                    j += 1
            if ax1 <= bx1:
                ia += 1
            else:
                ib += 1
        return False

    def covers(self, other: "Region") -> bool:
        """True when ``other`` is a subset of this region."""
        return (other - self).is_empty

    # -- transforms -------------------------------------------------------
    def translated(self, dx: int, dy: int) -> "Region":
        slabs = [(xa + dx, xb + dx, [(y0 + dy, y1 + dy) for y0, y1 in ys]) for xa, xb, ys in self._slabs]
        return Region._from_slabs(slabs)

    def scaled(self, k: int) -> "Region":
        if k <= 0:
            raise ValueError("scale factor must be positive")
        slabs = [(xa * k, xb * k, [(y0 * k, y1 * k) for y0, y1 in ys]) for xa, xb, ys in self._slabs]
        return Region._from_slabs(slabs)

    # -- morphology -----------------------------------------------------------
    def grown(self, d: int, dy: int | None = None) -> "Region":
        """Minkowski dilation by a ``2d x 2dy`` square (isotropic grow).

        Negative values shrink (erosion).  ``d`` applies horizontally and
        ``dy`` (default ``d``) vertically.
        """
        if dy is None:
            dy = d
        if d == 0 and dy == 0:
            return self
        if d >= 0 and dy >= 0:
            return Region._from_slabs(_dilated(self._slabs, d, dy))
        if d <= 0 and dy <= 0:
            return self._eroded(-d, -dy)
        # mixed signs: do the two axes sequentially
        return self.grown(d, 0).grown(0, dy)

    def _eroded(self, d: int, dy: int) -> "Region":
        """Erosion by complement-dilate-complement within a guard frame."""
        bb = self.bbox
        if bb is None:
            return Region()
        frame = Rect(bb.x0 - d - 1, bb.y0 - dy - 1, bb.x1 + d + 1, bb.y1 + dy + 1)
        complement = Region(frame) - self
        grown = complement.grown(d, dy)
        return Region(frame) - grown

    def opened(self, d: int) -> "Region":
        """Morphological opening: erode then dilate, ``grown(-d).grown(d)``.

        Removes any feature not wider than ``2*d``: a feature exactly
        ``2*d`` wide erodes to a line, which holds no area, and the
        doubled lattice of ``check_width`` relies on that.  This is the
        primitive behind minimum-width DRC checks and the litho pinch
        check.  ``d`` must not be negative; ``opened(0)`` is the region.

        Erosion and dilation by the ``2d x 2d`` box are separable (the box
        is the Minkowski sum of an x and a y segment of length ``2d``),
        and erosions along different axes commute, as do dilations.  So
        the opening is δ_y ∘ (δ_x ∘ ε_x) ∘ ε_y, and the 1-D x-opening
        δ_x ∘ ε_x keeps exactly the horizontal runs longer than ``2d``:

        1. ε_y: in each slab, an interval longer than ``2d`` becomes
           ``[y0 + d, y1 - d]``; shorter ones drop.
        2. γ_x = δ_x ∘ ε_x: on a grid of the slabs by the eroded y bands,
           each row keeps its runs of covered cells whose x-length
           exceeds ``2d``.
        3. δ_y: each slab's surviving vertical runs grow by ``d``,
           merging where they overlap or touch.

        If every slab is wider than ``2d``, so is every horizontal run;
        the opening then keeps each slab's intervals longer than ``2d``
        and builds no grid.  Otherwise the region goes to slab arrays
        and back around :func:`repro.geometry.slabarrays.opened`, which
        builds the grid, in column blocks of a fixed cell budget.
        """
        if d < 0:
            raise ValueError("opening size must not be negative")
        if d == 0:
            return self
        two_d = 2 * d
        if all(xb - xa > two_d for xa, xb, _ in self._slabs):
            # every horizontal run spans at least one whole slab: γ_x is
            # the identity and δ_y restores what ε_y kept
            return Region._from_slabs(_long_intervals(self._slabs, two_d))
        # imported here: the kernel builds regions, so it imports this module
        from repro.geometry import slabarrays

        return slabarrays.to_region(slabarrays.opened(slabarrays.from_region(self), d))

    def closed(self, d: int) -> "Region":
        """Morphological closing: dilate then erode.

        Fills any gap narrower than ``2*d`` — the primitive behind
        minimum-spacing DRC checks.  ``d`` must not be negative.
        """
        if d < 0:
            raise ValueError("closing size must not be negative")
        return self.grown(d).grown(-d)

    # -- structure --------------------------------------------------------
    def components(self) -> list["Region"]:
        """Split into 4-connected components (edge adjacency, not corners).

        Components come in the canonical order of their first rectangle.
        """
        slabs = self._slabs
        # ids number the intervals in canonical order, slab by slab; the
        # intervals of one slab never touch, so only x-adjacent slabs connect
        parent = list(range(len(self)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        base = 0
        for (_, xb, ys), (xa, _, zs) in zip(slabs, slabs[1:]):
            nxt = base + len(ys)
            if xb == xa:
                # one merge walk joins intervals sharing a vertical edge
                # of positive length (a shared corner does not connect)
                i = j = 0
                ni, nj = len(ys), len(zs)
                while i < ni and j < nj:
                    a0, a1 = ys[i]
                    b0, b1 = zs[j]
                    if a0 < b1 and b0 < a1:
                        ri, rj = find(base + i), find(nxt + j)
                        if ri != rj:
                            parent[rj] = ri
                    if a1 <= b1:
                        i += 1
                    else:
                        j += 1
            base = nxt
        groups: dict[int, list[Slab]] = {}
        k = 0
        for xa, xb, ys in slabs:
            for iv in ys:
                part = groups.setdefault(find(k), [])
                if part and part[-1][0] == xa:
                    part[-1][2].append(iv)
                else:
                    part.append((xa, xb, [iv]))
                k += 1
        return [Region._from_slabs(_merge_slabs(part)) for part in groups.values()]

    def holes(self) -> "Region":
        """Interior holes: areas enclosed by the region but not part of it."""
        bb = self.bbox
        if bb is None:
            return Region()
        frame = Rect(bb.x0 - 1, bb.y0 - 1, bb.x1 + 1, bb.y1 + 1)
        outside = Region(frame) - self
        # the component of `outside` touching the frame border is the true
        # outside; everything else is a hole
        hole_parts = [c for c in outside.components() if not _touches_frame(c, frame)]
        # one-pass union: the components are disjoint, so their canonical
        # rects already are
        return Region([r for c in hole_parts for r in c.rects()])

    def clipped(self, window: Rect) -> "Region":
        """Intersection with a rectangular window (fast path).

        The intersection bisects this region's slabs down to the window's
        x-range, so the cost follows the slabs inside the window, not the
        size of the region.
        """
        return self & Region(window)

    def window(self, window: Rect) -> list[Rect]:
        """Canonical rects whose closed bbox touches ``window``, in
        :meth:`rects` order — the contract of
        :meth:`StoreLayer.window <repro.layout.store.StoreLayer.window>`.

        Slabs are sorted by x0 and by x1, so the slabs reaching the
        window's closed x-range are one span found by two bisections;
        each then keeps the y-intervals touching ``[y0, y1]``.
        """
        slabs = self._slabs
        lo = bisect_left(slabs, window.x0, key=_slab_x1)
        hi = bisect_right(slabs, window.x1, lo=lo, key=_slab_x0)
        wy0, wy1 = window.y0, window.y1
        return [
            Rect(xa, y0, xb, y1)
            for xa, xb, ys in slabs[lo:hi]
            for y0, y1 in ys
            if y0 <= wy1 and y1 >= wy0
        ]

    def edges(self) -> list[tuple[Point, Point]]:
        """Boundary edges as (start, end) point pairs.

        Edges are oriented so the region interior lies to the *left* of the
        direction of travel.  Built from the canonical slabs: vertical
        boundary pieces come from xor-ing adjacent slabs' interval lists,
        horizontal pieces from each interval's top/bottom within its slab.
        """
        out: list[tuple[Point, Point]] = []
        # horizontal edges: bottom (left-to-right), top (right-to-left)
        for xa, xb, ys in self._slabs:
            for y0, y1 in ys:
                out.append((Point(xa, y0), Point(xb, y0)))  # bottom, interior above
                out.append((Point(xb, y1), Point(xa, y1)))  # top, interior below
        # vertical edges: boundaries where coverage changes between slabs
        boundaries: dict[int, tuple[list[Interval], list[Interval]]] = {}
        prev_end = None
        prev_ys: list[Interval] = []
        for xa, xb, ys in self._slabs:
            if prev_end is not None and prev_end == xa:
                boundaries[xa] = (prev_ys, ys)
            else:
                if prev_end is not None:
                    boundaries[prev_end] = (prev_ys, [])
                boundaries[xa] = ([], ys)
            prev_end, prev_ys = xb, ys
        if prev_end is not None:
            boundaries[prev_end] = (prev_ys, [])
        for x, (left, right) in sorted(boundaries.items()):
            for y0, y1 in subtract_intervals(right, left):
                out.append((Point(x, y1), Point(x, y0)))  # left side, interior right
            for y0, y1 in subtract_intervals(left, right):
                out.append((Point(x, y0), Point(x, y1)))  # right side, interior left
        return out

    def perimeter(self) -> int:
        """Total boundary length."""
        return sum(abs(b.x - a.x) + abs(b.y - a.y) for a, b in self.edges())

    def snapped(self, grid: int) -> "Region":
        """Snap every rectangle outward to the given grid."""
        if grid <= 1:
            return self
        snapped = [
            Rect(
                (r.x0 // grid) * grid,
                (r.y0 // grid) * grid,
                -(-r.x1 // grid) * grid,
                -(-r.y1 // grid) * grid,
            )
            for r in self.rects()
        ]
        return Region(snapped)


def _touches_frame(component: Region, frame: Rect) -> bool:
    bb = component.bbox
    if bb is None:
        return False
    return (
        bb.x0 <= frame.x0
        or bb.y0 <= frame.y0
        or bb.x1 >= frame.x1
        or bb.y1 >= frame.y1
    )
