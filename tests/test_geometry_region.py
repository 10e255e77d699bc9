"""Unit tests for Region: canonical form, boolean algebra, morphology,
structure queries."""

import pytest

from repro.geometry import Point, Rect, Region


def R(*rects):
    return Region([Rect(*r) for r in rects])


class TestCanonicalForm:
    def test_empty(self):
        region = Region()
        assert region.is_empty
        assert region.area == 0
        assert region.bbox is None
        assert list(region.rects()) == []
        assert not region

    def test_single_rect(self):
        region = R((0, 0, 10, 10))
        assert region.area == 100
        assert region.bbox == Rect(0, 0, 10, 10)
        assert len(region) == 1

    def test_degenerate_dropped(self):
        assert Region(Rect(0, 0, 0, 10)).is_empty

    def test_overlapping_input_canonicalized(self):
        a = R((0, 0, 10, 10), (5, 0, 15, 10))
        b = R((0, 0, 15, 10))
        assert a == b
        assert hash(a) == hash(b)

    def test_same_pointset_same_rects(self):
        # two different constructions of an L-shape
        a = R((0, 0, 10, 20), (10, 0, 20, 10))
        b = R((0, 10, 10, 20), (0, 0, 20, 10))
        assert a == b
        assert list(a.rects()) == list(b.rects())

    def test_horizontal_merge(self):
        # two abutting rects of equal height merge into one
        region = R((0, 0, 10, 10), (10, 0, 20, 10))
        assert len(region) == 1
        assert next(region.rects()) == Rect(0, 0, 20, 10)

    def test_vertical_stack_stays_in_one_slab(self):
        region = R((0, 0, 10, 10), (0, 20, 10, 30))
        assert len(region) == 2
        assert region.area == 200

    def test_touching_vertically_coalesce(self):
        region = R((0, 0, 10, 10), (0, 10, 10, 20))
        assert len(region) == 1


class TestBooleanAlgebra:
    def test_union_disjoint(self):
        assert (R((0, 0, 1, 1)) | R((5, 5, 6, 6))).area == 2

    def test_intersection(self):
        assert (R((0, 0, 10, 10)) & R((5, 5, 15, 15))) == R((5, 5, 10, 10))

    def test_difference(self):
        d = R((0, 0, 10, 10)) - R((0, 0, 10, 5))
        assert d == R((0, 5, 10, 10))

    def test_xor(self):
        x = R((0, 0, 10, 10)) ^ R((5, 0, 15, 10))
        assert x.area == 100

    def test_touching_intersection_empty(self):
        assert (R((0, 0, 10, 10)) & R((10, 0, 20, 10))).is_empty

    def test_covers(self):
        big = R((0, 0, 100, 100))
        assert big.covers(R((10, 10, 20, 20)))
        assert not R((10, 10, 20, 20)).covers(big)
        assert big.covers(Region())

    def test_overlaps(self):
        assert R((0, 0, 10, 10)).overlaps(R((5, 5, 6, 6)))
        assert not R((0, 0, 10, 10)).overlaps(R((10, 0, 20, 10)))

    def test_subtract_hole_makes_frame(self):
        frame = R((0, 0, 30, 30)) - R((10, 10, 20, 20))
        assert frame.area == 900 - 100
        assert frame.holes().area == 100


class TestMembership:
    def test_contains_point(self):
        region = R((0, 0, 10, 10), (20, 0, 30, 10))
        assert region.contains_point(Point(5, 5))
        assert region.contains_point(Point(10, 10))  # closed boundary
        assert not region.contains_point(Point(15, 5))
        assert region.contains_point(Point(20, 0))


class TestTransforms:
    def test_translated(self):
        assert R((0, 0, 1, 1)).translated(5, 7) == R((5, 7, 6, 8))

    def test_scaled(self):
        assert R((1, 1, 2, 3)).scaled(10) == R((10, 10, 20, 30))

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            R((0, 0, 1, 1)).scaled(0)


class TestMorphology:
    def test_grow(self):
        assert R((0, 0, 10, 10)).grown(5) == R((-5, -5, 15, 15))

    def test_shrink(self):
        assert R((0, 0, 10, 10)).grown(-2) == R((2, 2, 8, 8))

    def test_shrink_to_nothing(self):
        assert R((0, 0, 10, 10)).grown(-5).is_empty

    def test_grow_merges_near_features(self):
        two = R((0, 0, 10, 10), (14, 0, 24, 10))
        assert len(two.grown(3).components()) == 1

    def test_anisotropic(self):
        assert R((0, 0, 10, 10)).grown(2, 0) == R((-2, 0, 12, 10))

    def test_opening_removes_narrow(self):
        # 10-wide arm + 30-wide plate
        region = R((0, 0, 10, 100), (0, 0, 100, 30))
        opened = region.opened(10)  # removes features narrower than 20
        assert opened == R((0, 0, 100, 30))

    def test_opening_keeps_wide(self):
        region = R((0, 0, 50, 50))
        assert region.opened(10) == region

    def test_closing_fills_gap(self):
        two = R((0, 0, 10, 100), (16, 0, 26, 100))
        closed = two.closed(4)  # fills gaps narrower than 8
        assert closed.area == two.area + 6 * 100

    def test_closing_leaves_wide_gap(self):
        two = R((0, 0, 10, 100), (30, 0, 40, 100))
        assert two.closed(4) == two

    def test_open_close_idempotent(self):
        region = R((0, 0, 50, 50), (100, 0, 150, 40))
        assert region.opened(5).opened(5) == region.opened(5)
        assert region.closed(5).closed(5) == region.closed(5)

    def test_opening_drops_feature_exactly_2d_wide(self):
        # exactly 2d wide erodes to a line: dropped, across x or across y
        assert R((0, 0, 20, 100)).opened(10).is_empty
        assert R((0, 0, 100, 20)).opened(10).is_empty
        assert R((0, 0, 21, 100)).opened(10) == R((0, 0, 21, 100))

    def test_opening_merges_regrown_runs(self):
        # a Z: the 15-wide bar's band between the plates is a short run,
        # dropped; the bar's runs below and above regrow into one interval
        z = R((0, 0, 40, 40), (40, 0, 55, 90), (55, 30, 100, 90))
        assert z.opened(10) == z

    def test_negative_size_rejected(self):
        # opened(-3) used to run a closing and closed(-3) an opening
        two = R((0, 0, 10, 100), (16, 0, 26, 100))
        with pytest.raises(ValueError):
            two.opened(-3)
        with pytest.raises(ValueError):
            two.closed(-3)

    def test_zero_size_is_identity(self):
        two = R((0, 0, 10, 100), (16, 0, 26, 100))
        assert two.opened(0) == two
        assert two.closed(0) == two


class TestStructure:
    def test_components_edge_adjacency(self):
        region = R((0, 0, 10, 10), (10, 0, 20, 10), (30, 0, 40, 10))
        assert len(region.components()) == 2

    def test_components_corner_touch_separate(self):
        region = R((0, 0, 10, 10), (10, 10, 20, 20))
        assert len(region.components()) == 2

    def test_components_partition_area(self):
        region = R((0, 0, 10, 10), (5, 5, 30, 8), (50, 50, 60, 60))
        assert sum(c.area for c in region.components()) == region.area

    def test_holes_nested(self):
        donut = R((0, 0, 50, 50)) - R((10, 10, 40, 40))
        assert donut.holes().area == 900

    def test_no_holes(self):
        assert R((0, 0, 10, 10)).holes().is_empty

    def test_holes_several(self):
        plate = R((0, 0, 100, 50))
        cutouts = R((10, 10, 20, 20), (30, 10, 40, 40), (30, 5, 35, 45), (60, 20, 90, 30))
        holes = (plate - cutouts).holes()
        assert holes == cutouts
        assert len(holes.components()) == 3

    def test_perimeter_square(self):
        assert R((0, 0, 10, 10)).perimeter() == 40

    def test_perimeter_l_shape(self):
        l_shape = R((0, 0, 10, 20), (10, 0, 20, 10))
        # L-shape perimeter: same as bbox perimeter for a staircase-free L
        assert l_shape.perimeter() == 2 * (20 + 20)

    def test_edges_orientation_count(self):
        edges = R((0, 0, 10, 10)).edges()
        assert len(edges) == 4
        total = sum(abs(b.x - a.x) + abs(b.y - a.y) for a, b in edges)
        assert total == 40

    def test_clipped(self):
        region = R((0, 0, 100, 100))
        assert region.clipped(Rect(50, 50, 200, 200)).area == 2500

    def test_snapped(self):
        region = R((1, 1, 9, 9))
        snapped = region.snapped(5)
        assert snapped == R((0, 0, 10, 10))

    def test_len_and_iter(self):
        region = R((0, 0, 10, 10), (20, 0, 30, 10))
        assert len(region) == 2
        assert len(list(iter(region))) == 2
