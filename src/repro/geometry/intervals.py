"""1-D interval set algebra on half-open integer intervals ``[a, b)``.

These primitives back the scanline algorithms in :mod:`repro.geometry.region`.
An *interval list* is a list of ``(a, b)`` tuples with ``a < b``, sorted by
``a``, pairwise disjoint and non-touching (i.e. canonical).
"""

from __future__ import annotations

Interval = tuple[int, int]


def merge_intervals(intervals: list[Interval]) -> list[Interval]:
    """Canonicalize an arbitrary interval list (union of the inputs)."""
    if not intervals:
        return []
    ivs = sorted(intervals)
    out: list[Interval] = []
    ca, cb = ivs[0]
    for a, b in ivs[1:]:
        if a <= cb:  # overlapping or touching: coalesce
            if b > cb:
                cb = b
        else:
            if ca < cb:
                out.append((ca, cb))
            ca, cb = a, b
    if ca < cb:
        out.append((ca, cb))
    return out


def intersect_intervals(xs: list[Interval], ys: list[Interval]) -> list[Interval]:
    """Intersection of two canonical interval lists."""
    out: list[Interval] = []
    nx, ny = len(xs), len(ys)
    i = j = 0
    while i < nx and j < ny:
        a0, a1 = xs[i]
        b0, b1 = ys[j]
        lo = a0 if a0 > b0 else b0
        if a1 < b1:
            if lo < a1:
                out.append((lo, a1))
            i += 1
        else:
            if lo < b1:
                out.append((lo, b1))
            j += 1
    return out


def subtract_intervals(xs: list[Interval], ys: list[Interval]) -> list[Interval]:
    """Difference ``xs - ys`` of two canonical interval lists."""
    out: list[Interval] = []
    j = 0
    for a, b in xs:
        cur = a
        while j < len(ys) and ys[j][1] <= cur:
            j += 1
        k = j
        while k < len(ys) and ys[k][0] < b:
            ya, yb = ys[k]
            if ya > cur:
                out.append((cur, ya))
            cur = max(cur, yb)
            if cur >= b:
                break
            k += 1
        if cur < b:
            out.append((cur, b))
    return out


def xor_intervals(xs: list[Interval], ys: list[Interval]) -> list[Interval]:
    """Symmetric difference of two canonical interval lists."""
    return merge_intervals(subtract_intervals(xs, ys) + subtract_intervals(ys, xs))


def total_length(xs: list[Interval]) -> int:
    """Sum of interval lengths."""
    return sum(b - a for a, b in xs)


def clip_intervals(xs: list[Interval], lo: int, hi: int) -> list[Interval]:
    """Clip a canonical interval list to ``[lo, hi)``."""
    out: list[Interval] = []
    for a, b in xs:
        a2, b2 = max(a, lo), min(b, hi)
        if a2 < b2:
            out.append((a2, b2))
    return out
