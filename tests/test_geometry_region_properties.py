"""Property-based tests: Region boolean algebra laws, morphology
invariants, canonical-form uniqueness."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.geometry import Rect, Region, slabarrays
from repro.geometry import region as region_module
from tests.test_litho import _row_run_region, raster_cases

rect_strategy = st.tuples(
    st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 30), st.integers(1, 30)
).map(lambda t: Rect(t[0], t[1], t[0] + t[2], t[1] + t[3]))

region_strategy = st.lists(rect_strategy, max_size=6).map(Region)


@given(region_strategy, region_strategy)
def test_union_commutative(a, b):
    assert (a | b) == (b | a)


@given(region_strategy, region_strategy)
def test_intersection_commutative(a, b):
    assert (a & b) == (b & a)


@given(region_strategy, region_strategy, region_strategy)
@settings(max_examples=50)
def test_union_associative(a, b, c):
    assert ((a | b) | c) == (a | (b | c))


@given(region_strategy, region_strategy, region_strategy)
@settings(max_examples=50)
def test_intersection_distributes_over_union(a, b, c):
    assert (a & (b | c)) == ((a & b) | (a & c))


@given(region_strategy)
def test_self_laws(a):
    assert (a | a) == a
    assert (a & a) == a
    assert (a - a).is_empty
    assert (a ^ a).is_empty


@given(region_strategy, region_strategy)
def test_difference_disjoint_from_subtrahend(a, b):
    assert ((a - b) & b).is_empty


@given(region_strategy, region_strategy)
def test_inclusion_exclusion_area(a, b):
    assert (a | b).area == a.area + b.area - (a & b).area


@given(region_strategy, region_strategy)
def test_xor_is_union_minus_intersection(a, b):
    assert (a ^ b) == ((a | b) - (a & b))


@given(region_strategy, region_strategy)
def test_subtract_then_add_back(a, b):
    assert ((a - b) | (a & b)) == a


@given(region_strategy)
def test_canonical_reconstruction(a):
    """Rebuilding a region from its own canonical rects is the identity."""
    assert Region(list(a.rects())) == a


@given(region_strategy)
def test_canonical_rects_disjoint(a):
    rects = list(a.rects())
    for i in range(len(rects)):
        for j in range(i + 1, len(rects)):
            assert not rects[i].overlaps(rects[j])


@given(region_strategy, st.integers(1, 10))
def test_grow_shrink_roundtrip_contains(a, d):
    """Opening is anti-extensive: open(a) is a subset of a."""
    opened = a.grown(-d).grown(d)
    assert a.covers(opened)


@given(region_strategy, st.integers(1, 10))
def test_close_extensive(a, d):
    """Closing is extensive: a is a subset of close(a)."""
    assert a.closed(d).covers(a)


@given(region_strategy, st.integers(1, 8))
def test_grow_monotone_area(a, d):
    assert a.grown(d).area >= a.area


@given(region_strategy, st.integers(-20, 20), st.integers(-20, 20))
def test_translation_preserves_area_and_count(a, dx, dy):
    moved = a.translated(dx, dy)
    assert moved.area == a.area
    assert len(moved) == len(a)
    assert moved.translated(-dx, -dy) == a


@given(region_strategy, st.integers(2, 5))
def test_scaling_area(a, k):
    assert a.scaled(k).area == a.area * k * k


@given(region_strategy)
def test_components_partition(a):
    comps = a.components()
    assert sum(c.area for c in comps) == a.area
    merged = Region()
    for c in comps:
        merged = merged | c
    assert merged == a


@given(region_strategy)
def test_bbox_contains_region(a):
    if a.bbox is not None:
        assert Region(a.bbox).covers(a)


# -- differential oracles for the slab kernel ---------------------------------
#
# Every reference below is built only from the general ``Region(rects)``
# constructor (its plane sweep over an arbitrary rect soup), never from the
# slab-native boolean, dilation or component code it checks.

wide_rect_strategy = st.tuples(
    st.integers(-1000, 1000), st.integers(-1000, 1000), st.integers(1, 400), st.integers(1, 400)
).map(lambda t: Rect(t[0], t[1], t[0] + t[2], t[1] + t[3]))

wide_region_strategy = st.lists(wide_rect_strategy, min_size=1, max_size=20).map(Region)

# coarse-lattice soups: shared edges and corner-only contacts are common
lattice_rect_strategy = st.tuples(
    st.integers(0, 6), st.integers(0, 6), st.integers(1, 3), st.integers(1, 3)
).map(lambda t: Rect(10 * t[0], 10 * t[1], 10 * (t[0] + t[2]), 10 * (t[1] + t[3])))

lattice_region_strategy = st.lists(lattice_rect_strategy, max_size=8).map(Region)

any_region_strategy = st.one_of(region_strategy, lattice_region_strategy, wide_region_strategy)


@st.composite
def wide_and_small(draw):
    """A soup spanning +-1000 nm against a small region that overlaps it,
    touches it at an x boundary, or is disjoint from it in x."""
    wide = draw(wide_region_strategy)
    bb = wide.bbox
    placement = draw(st.sampled_from(["inside", "touch_left", "touch_right", "disjoint"]))
    w = draw(st.integers(1, 60))
    if placement == "inside":
        x0 = draw(st.integers(bb.x0 - 30, bb.x1))
    elif placement == "touch_left":
        x0 = bb.x0 - w
    elif placement == "touch_right":
        x0 = bb.x1
    else:
        gap = draw(st.integers(1, 50))
        x0 = draw(st.sampled_from([bb.x0 - w - gap, bb.x1 + gap]))
    y0 = draw(st.integers(bb.y0 - 30, bb.y1))
    extra = draw(st.lists(st.one_of(rect_strategy, lattice_rect_strategy), max_size=2))
    small = Region(
        [Rect(x0, y0, x0 + w, y0 + draw(st.integers(1, 60)))]
        + [r.translated(x0, y0) for r in extra if placement == "inside"]
    )
    return (wide, small) if draw(st.booleans()) else (small, wide)


def _coverage(*regions: Region) -> tuple[list[int], list[int], list[np.ndarray]]:
    """The grid cut at every rect coordinate of ``regions``, and each
    region's cell coverage on it (a cell lies entirely inside or entirely
    outside every canonical rect)."""
    rects = [list(r.rects()) for r in regions]
    xs = sorted({x for rs in rects for r in rs for x in (r.x0, r.x1)})
    ys = sorted({y for rs in rects for r in rs for y in (r.y0, r.y1)})
    xi = {x: i for i, x in enumerate(xs)}
    yi = {y: j for j, y in enumerate(ys)}
    masks = []
    for rs in rects:
        mask = np.zeros((max(len(xs) - 1, 0), max(len(ys) - 1, 0)), dtype=bool)
        for r in rs:
            mask[xi[r.x0] : xi[r.x1], yi[r.y0] : yi[r.y1]] = True
        masks.append(mask)
    return xs, ys, masks


def _cells_region(xs: list[int], ys: list[int], keep: np.ndarray) -> Region:
    ii, jj = np.nonzero(keep)
    return Region(
        [Rect(xs[i], ys[j], xs[i + 1], ys[j + 1]) for i, j in zip(ii.tolist(), jj.tolist())]
    )


def _reference(a: Region, b: Region, keep) -> Region:
    xs, ys, (ma, mb) = _coverage(a, b)
    return _cells_region(xs, ys, keep(ma, mb))


def _reference_complement(a: Region, frame: Rect) -> Region:
    return _reference(Region(frame), a, lambda inside, x: inside & ~x)


def _reference_eroded(a: Region, d: int, dy: int) -> Region:
    """Complement-dilate-complement, every step through the constructor."""
    bb = a.bbox
    if bb is None:
        return Region()
    frame = Rect(bb.x0 - d - 1, bb.y0 - dy - 1, bb.x1 + d + 1, bb.y1 + dy + 1)
    outside = _reference_complement(a, frame)
    grown = Region([r.expanded(d, dy) for r in outside.rects()])
    return _reference_complement(grown, frame)


def _reference_components(a: Region) -> list[Region]:
    """Union-find over canonical rects joined along shared vertical edges."""
    rect_list = list(a.rects())
    parent = list(range(len(rect_list)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    by_x0: dict[int, list[int]] = {}
    for idx, r in enumerate(rect_list):
        by_x0.setdefault(r.x0, []).append(idx)
    for idx, r in enumerate(rect_list):
        for jdx in by_x0.get(r.x1, []):
            other = rect_list[jdx]
            if min(r.y1, other.y1) > max(r.y0, other.y0):
                parent[find(jdx)] = find(idx)
    groups: dict[int, list[Rect]] = {}
    for idx, r in enumerate(rect_list):
        groups.setdefault(find(idx), []).append(r)
    return [Region(g) for g in groups.values()]


# half of a lattice gap: grown lattice features then exactly touch
growth_strategy = st.one_of(st.integers(0, 40), st.sampled_from([5, 10, 15]))


@given(any_region_strategy, growth_strategy, growth_strategy)
def test_grown_matches_rect_expansion(a, d, dy):
    assert a.grown(d, dy) == Region([r.expanded(d, dy) for r in a.rects()])


@given(st.one_of(region_strategy, lattice_region_strategy), st.integers(1, 12), st.integers(0, 12))
@settings(max_examples=60)
def test_eroded_matches_constructor_reference(a, d, dy):
    assert a.grown(-d, -dy) == _reference_eroded(a, d, dy)


@given(st.one_of(region_strategy, lattice_region_strategy), st.integers(1, 12))
@settings(max_examples=60)
def test_opened_matches_constructor_reference(a, d):
    eroded = _reference_eroded(a, d, d)
    assert a.opened(d) == Region([r.expanded(d, d) for r in eroded.rects()])


# half of a lattice feature 10, 20 or 30 wide: runs of exactly 2d occur
opening_strategy = st.one_of(st.integers(1, 60), st.sampled_from([5, 10, 15]))


@given(any_region_strategy, opening_strategy)
@settings(max_examples=300)
def test_opened_matches_grown_composition(a, d):
    assert a.opened(d) == a.grown(-d).grown(d)


@given(
    st.one_of(wide_region_strategy, lattice_region_strategy),
    opening_strategy,
    st.sampled_from([1, 50, 500]),
)
@settings(max_examples=200)
def test_opened_in_column_blocks_matches_grown_composition(a, d, cells):
    """A cell budget down to one grid column per block splits the
    opening into many extended blocks; the result must not change."""
    with mock.patch.object(region_module, "_OPEN_CELLS", cells):
        assert a.opened(d) == a.grown(-d).grown(d)


@given(any_region_strategy)
def test_components_match_rect_union_find(a):
    assert a.components() == _reference_components(a)


@given(wide_and_small())
@settings(max_examples=150)
def test_wide_operand_booleans_match_constructor(pair):
    a, b = pair
    assert a & b == _reference(a, b, lambda x, y: x & y)
    assert a - b == _reference(a, b, lambda x, y: x & ~y)
    assert b - a == _reference(a, b, lambda x, y: y & ~x)
    assert a | b == _reference(a, b, lambda x, y: x | y)
    assert a ^ b == _reference(a, b, lambda x, y: x ^ y)


@given(wide_and_small())
@settings(max_examples=150)
def test_wide_operand_predicates_match_constructor(pair):
    a, b = pair
    assert a.overlaps(b) == (not _reference(a, b, lambda x, y: x & y).is_empty)
    assert a.covers(b) == _reference(a, b, lambda x, y: y & ~x).is_empty
    assert b.covers(a) == _reference(a, b, lambda x, y: x & ~y).is_empty


# -- the slab-array kernel against Region -------------------------------------


def _arrays(a: Region) -> slabarrays.Slabs:
    return slabarrays.from_region(a)


@given(any_region_strategy)
def test_slab_arrays_round_trip(a):
    assert slabarrays.to_region(_arrays(a)) == a


@given(st.one_of(st.tuples(any_region_strategy, any_region_strategy), wide_and_small()))
@settings(max_examples=200)
def test_slab_array_booleans_match_region(pair):
    a, b = pair
    sa, sb = _arrays(a), _arrays(b)
    assert slabarrays.to_region(slabarrays.join_columns(*slabarrays.pieces(sa, sb))) == a & b
    assert slabarrays.to_region(slabarrays.difference(sa, sb)) == a - b
    assert slabarrays.to_region(slabarrays.difference(sb, sa)) == b - a


@given(any_region_strategy)
def test_slab_array_labels_match_components(a):
    slabs = _arrays(a)
    labels, count = slabarrays.label(slabs)
    parts = [slabarrays.to_region(slabarrays.select(slabs, labels == k)) for k in range(count)]
    assert parts == a.components()
    x0, y0, x1, y1, area = slabarrays.extents(slabs, labels, count)
    boxes = list(zip(x0.tolist(), y0.tolist(), x1.tolist(), y1.tolist()))
    assert boxes == [c.bbox.as_tuple() for c in parts]
    assert area.tolist() == [c.area for c in parts]


@given(any_region_strategy, opening_strategy)
@settings(max_examples=200)
def test_slab_array_opening_matches_grown_composition(a, d):
    assert slabarrays.to_region(slabarrays.opened(_arrays(a), d)) == a.grown(-d).grown(d)


@given(any_region_strategy, st.lists(st.tuples(st.integers(-60, 60), st.integers(-60, 60)), max_size=30))
def test_slab_array_locate_finds_the_holding_rect(a, points):
    rects = list(a.rects())
    x = np.array([p[0] for p in points], dtype=np.int64)
    y = np.array([p[1] for p in points], dtype=np.int64)
    found = slabarrays.locate(_arrays(a), x, y).tolist()
    for (px, py), at in zip(points, found):
        holding = [i for i, r in enumerate(rects) if r.x0 <= px < r.x1 and r.y0 <= py < r.y1]
        assert [at] == (holding or [-1])


@given(raster_cases())
def test_slab_arrays_from_raster_match_row_runs(case):
    mask, window, grid = case
    slabs = slabarrays.from_raster(mask, window, grid)
    assert slabarrays.to_region(slabs) == _row_run_region(mask, window, grid)


def test_column_builder_checks_its_sort_keys():
    # two columns of intervals spanning 2**61: column * height + y would
    # wrap past int64
    cuts = np.array([0, 1, 2], dtype=np.int64)
    with pytest.raises(OverflowError):
        slabarrays.column_slabs(
            cuts,
            np.array([0, 1]),
            np.array([1, 2]),
            np.array([-(1 << 60), 0]),
            np.array([0, 1 << 60]),
        )


# -- the slab-array kernel's whole-set operations against Region ----------------

signed_growth_strategy = st.one_of(st.integers(-40, 40), st.sampled_from([-15, -10, -5, 5, 10, 15]))


@given(any_region_strategy, signed_growth_strategy, signed_growth_strategy)
@settings(max_examples=300)
def test_slab_array_grown_matches_region(a, dx, dy):
    """Dilation, erosion and mixed signs; the constructor oracles above
    check ``Region.grown`` itself."""
    assert slabarrays.to_region(slabarrays.grown(_arrays(a), dx, dy)) == a.grown(dx, dy)


@st.composite
def region_and_boxes(draw):
    """A region, and boxes cut at its own coordinates (give or take 1 nm)
    or anywhere near it, degenerate ones included."""
    a = draw(any_region_strategy)
    xs = sorted({v for r in a.rects() for v in (r.x0, r.x1)} | {0})
    ys = sorted({v for r in a.rects() for v in (r.y0, r.y1)} | {0})

    def coordinate(values):
        return st.one_of(
            st.builds(lambda v, d: v + d, st.sampled_from(values), st.sampled_from([-1, 0, 0, 1])),
            st.integers(-1100, 1100),
        )

    box = st.builds(
        lambda x0, y0, x1, y1: Rect(x0, y0, x1, y1),
        coordinate(xs),
        coordinate(ys),
        coordinate(xs),
        coordinate(ys),
    )
    return a, draw(st.lists(box, max_size=12))


def _box_arrays(boxes: list[Rect]) -> list[np.ndarray]:
    return [np.array([getattr(b, f) for b in boxes], dtype=np.int64) for f in ("x0", "y0", "x1", "y1")]


# both slabs hold the box's y-range, but nothing covers x in (10, 20)
@example(case=(Region([Rect(0, 0, 10, 50), Rect(20, 0, 30, 50)]), [Rect(5, 10, 25, 40)]))
@given(region_and_boxes())
@settings(max_examples=200)
def test_slab_array_box_queries_match_region(case):
    a, boxes = case
    meets = slabarrays.meets(_arrays(a), *_box_arrays(boxes)).tolist()
    covers = slabarrays.covers(_arrays(a), *_box_arrays(boxes)).tolist()
    assert meets == [a.overlaps(Region(b)) for b in boxes]
    assert covers == [a.covers(Region(b)) for b in boxes]


@given(any_region_strategy)
def test_slab_array_boundaries_match_vertical_edges(a):
    left_of_interior, right_of_interior = slabarrays.boundaries(_arrays(a))
    edges = [(p, q) for p, q in a.edges() if p.x == q.x]
    # an edge travels with the interior on its left: upward on a +x-facing side
    assert list(zip(*(v.tolist() for v in left_of_interior))) == [
        (p.x, p.y, q.y) for p, q in edges if q.y > p.y
    ]
    assert list(zip(*(v.tolist() for v in right_of_interior))) == [
        (p.x, q.y, p.y) for p, q in edges if q.y < p.y
    ]


def test_drc_checks_check_their_sort_keys():
    # y spans 2**62: slab * height + y would wrap past int64
    from repro.drc import check_area, check_enclosure, check_spacing, check_width
    from repro.layout import Layer
    from repro.tech.rules import AreaRule, EnclosureRule, SpacingRule, WidthRule

    m1, v1 = Layer(10, 0, "M1"), Layer(11, 0, "V1")
    tall = Region([Rect(0, -(1 << 61), 10, 0), Rect(20, 0, 30, 1 << 61)])
    with pytest.raises(OverflowError):
        check_spacing(tall, SpacingRule("S", m1, 45))
    with pytest.raises(OverflowError):
        check_width(tall, WidthRule("W", m1, 45))
    # doubled into the width check's lattice, y = 2**62 + 8 leaves int64
    with pytest.raises(OverflowError):
        check_width(Region(Rect(0, 0, 10, (1 << 62) + 8)), WidthRule("W", m1, 45))
    with pytest.raises(OverflowError):
        check_area(tall, AreaRule("A", m1, 100))
    with pytest.raises(OverflowError):
        check_enclosure(tall, tall, EnclosureRule("E", v1, m1, 5, two_sided=True))


# windows on the region's own edges: one touching a slab's top edge, one
# a corner only, one meeting a slab's x-edge but not its y-range, a
# zero-width one on a slab boundary, and one outside; and an empty region
@example(
    case=(
        Region([Rect(0, 0, 10, 10), Rect(10, 20, 30, 30)]),
        [
            Rect(0, 10, 5, 15),
            Rect(30, 30, 40, 40),
            Rect(30, 0, 40, 5),
            Rect(10, 0, 10, 50),
            Rect(-20, -20, -5, -5),
        ],
    )
)
@example(case=(Region(), [Rect(0, 0, 10, 10), Rect(5, 5, 5, 5)]))
@given(region_and_boxes())
@settings(max_examples=300)
def test_window_matches_brute_force(case):
    a, boxes = case
    rects = list(a.rects())
    for box in boxes:
        assert a.window(box) == [r for r in rects if r.touches(box)]
