"""Unit tests for the litho stack: rasterization, aerial image physics,
CD metrology, process windows, and hotspot detection."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.ndimage import gaussian_filter1d

from repro.geometry import Point, Rect, Region
from repro.litho import (
    Cutline,
    HotspotKind,
    ProcessCondition,
    ProcessWindow,
    find_hotspots,
    measure_cd,
    pv_bands,
    raster_to_region,
    rasterize,
    simulate,
)
from repro.litho.cd import line_end_pullback, measure_space, subpixel_cd
from repro.litho.model import _gaussian_taps
from repro.litho.process import pv_band_area


def _row_run_region(mask: np.ndarray, window: Rect, grid: int) -> Region:
    """Reference contour: one rect per pixel-row run, merged by the general
    ``Region(rects)`` constructor."""
    ny, nx = mask.shape
    if ny == 0 or nx == 0 or not mask.any():
        return Region()
    transitions = np.diff(mask.astype(np.int8), axis=1, prepend=0, append=0)
    jj, ii = np.nonzero(transitions)
    rising = transitions[jj, ii] > 0
    j_start, i_start = jj[rising], ii[rising]
    i_stop = ii[~rising]
    x0 = window.x0 + i_start * grid
    x1 = np.minimum(window.x0 + i_stop * grid, window.x1)
    y0 = window.y0 + j_start * grid
    y1 = np.minimum(y0 + grid, window.y1)
    return Region(
        [Rect(int(a), int(b), int(c), int(d)) for a, b, c, d in zip(x0, y0, x1, y1)]
    )


@st.composite
def raster_cases(draw):
    """A boolean mask and the window it rasterizes: random, striped
    (runs of repeated columns), empty, full or single-pixel, on a window
    whose last column and row may be clipped short of a whole pixel."""
    ny, nx = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    kind = draw(st.sampled_from(["random", "striped", "empty", "full", "single"]))
    mask = np.zeros((ny, nx), dtype=bool)
    if kind == "random":
        bits = draw(st.lists(st.booleans(), min_size=ny * nx, max_size=ny * nx))
        mask = np.array(bits, dtype=bool).reshape(ny, nx)
    elif kind == "striped" and nx:
        column = st.lists(st.booleans(), min_size=ny, max_size=ny)
        columns = draw(st.lists(column, min_size=2, max_size=2))
        picks = draw(st.lists(st.integers(0, 1), min_size=nx, max_size=nx))
        mask = np.array([columns[k] for k in picks], dtype=bool).reshape(nx, ny).T
    elif kind == "full":
        mask[:] = True
    elif kind == "single" and ny and nx:
        mask[draw(st.integers(0, ny - 1)), draw(st.integers(0, nx - 1))] = True
    grid = draw(st.integers(1, 8))
    x0, y0 = draw(st.integers(-40, 40)), draw(st.integers(-40, 40))
    w = nx * grid - draw(st.integers(0, grid - 1)) if nx else 0
    h = ny * grid - draw(st.integers(0, grid - 1)) if ny else 0
    return mask, Rect(x0, y0, x0 + w, y0 + h), grid


@given(raster_cases())
def test_raster_to_region_matches_row_runs(case):
    mask, window, grid = case
    assert raster_to_region(mask, window, grid) == _row_run_region(mask, window, grid)


class TestRaster:
    def test_full_pixel_coverage(self):
        img = rasterize(Region(Rect(0, 0, 10, 10)), Rect(0, 0, 10, 10), 5)
        assert img.shape == (2, 2)
        assert np.allclose(img, 1.0)

    def test_fractional_coverage(self):
        img = rasterize(Region(Rect(0, 0, 5, 10)), Rect(0, 0, 10, 10), 10)
        assert img.shape == (1, 1)
        assert img[0, 0] == pytest.approx(0.5)

    def test_subpixel_rect(self):
        img = rasterize(Region(Rect(2, 2, 4, 4)), Rect(0, 0, 10, 10), 10)
        assert img[0, 0] == pytest.approx(0.04)

    def test_area_conservation(self):
        region = Region([Rect(3, 7, 47, 23), Rect(60, 0, 95, 55)])
        window = Rect(0, 0, 100, 60)
        img = rasterize(region, window, 7)
        # sum of coverage * pixel area equals geometric area (interior window)
        assert img.sum() * 49 == pytest.approx(region.area, rel=0.02)

    def test_clipping_outside(self):
        img = rasterize(Region(Rect(-100, -100, -50, -50)), Rect(0, 0, 10, 10), 5)
        assert img.sum() == 0

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            rasterize(Region(), Rect(0, 0, 10, 10), 0)

    def test_raster_to_region_roundtrip(self):
        region = Region([Rect(0, 0, 20, 10), Rect(40, 0, 60, 10)])
        window = Rect(0, 0, 100, 20)
        mask = rasterize(region, window, 5) >= 0.5
        back = raster_to_region(mask, window, 5)
        assert back == region

    def test_raster_to_region_reads_truth_values(self):
        # 256 wraps to 0 and 0.5 truncates to 0 in an int8 cast; both
        # are true, so both masks must give the boolean mask's region
        mask = np.zeros((4, 5), dtype=bool)
        mask[1:3, 0:2] = True
        mask[3, 4] = True
        window = Rect(0, 0, 47, 38)
        expect = raster_to_region(mask, window, 10)
        assert expect == _row_run_region(mask, window, 10)
        for values in (np.where(mask, 256, 0), np.where(mask, 0.5, 0.0), np.where(mask, -1, 0)):
            assert raster_to_region(values, window, 10) == expect

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3), (3, 2), (1, 2), (0, 0)])
    def test_raster_to_region_rejects_wrong_shape(self, shape):
        # an 8x8 nm window at grid 4 is 2x2 pixels
        with pytest.raises(ValueError, match="shape"):
            raster_to_region(np.ones(shape, dtype=bool), Rect(0, 0, 8, 8), 4)

    @pytest.mark.parametrize("grid", [0, -4])
    def test_raster_to_region_rejects_non_positive_grid(self, grid):
        with pytest.raises(ValueError, match="grid"):
            raster_to_region(np.ones((2, 2), dtype=bool), Rect(0, 0, 8, 8), grid)


class TestAerialImage:
    def test_clear_field_prints_one(self, litho45):
        big = Region(Rect(-2000, -2000, 2000, 2000))
        image = litho45.aerial_image(big, Rect(-100, -100, 100, 100))
        assert image.mean() == pytest.approx(1.0, abs=0.02)

    def test_empty_field_zero(self, litho45):
        image = litho45.aerial_image(Region(), Rect(0, 0, 100, 100))
        assert np.allclose(image, 0.0)

    def test_straight_edge_at_half(self, litho45):
        # a long straight edge images at intensity 0.5 exactly at the edge
        half_plane = Region(Rect(-5000, -5000, 0, 5000))
        image = litho45.aerial_image(half_plane, Rect(-20, -20, 20, 20), grid=2)
        mid_col = image[:, image.shape[1] // 2]
        # the pixel at x=0 straddles the edge
        assert 0.4 < mid_col.mean() < 0.6

    def test_dose_scales_threshold(self, litho45):
        line = Region(Rect(0, 0, 45, 2000))
        cut = Cutline(Point(22, 1000))
        cd_low = litho45.measure_cd(line, cut, dose=0.9)
        cd_nom = litho45.measure_cd(line, cut, dose=1.0)
        cd_high = litho45.measure_cd(line, cut, dose=1.1)
        assert cd_low < cd_nom < cd_high

    def test_defocus_blurs(self, litho45):
        assert litho45.blur_sigma_nm(100) > litho45.blur_sigma_nm(0)

    def test_iso_dense_bias(self, litho45):
        dense = Region([Rect(x, 0, x + 45, 2000) for x in range(0, 1800, 90)])
        iso = Region(Rect(900, 0, 945, 2000))
        cut = Cutline(Point(922, 1000))
        cd_dense = litho45.measure_cd(dense, cut)
        cd_iso = litho45.measure_cd(iso, cut)
        assert abs(cd_dense - 45) < 3  # dense anchored near target
        assert cd_iso > cd_dense  # flare prints isolated lines fat

    def test_print_contour_region(self, litho45):
        line = Region(Rect(0, 0, 100, 1000))
        printed = litho45.print_contour(line, Rect(-100, 400, 200, 600))
        assert not printed.is_empty
        assert printed.bbox.width == pytest.approx(100, abs=15)

    def test_simulate_convenience(self, tech45):
        printed = simulate(Region(Rect(0, 0, 100, 500)), Rect(-50, 200, 150, 300), tech45.litho)
        assert not printed.is_empty

    @pytest.mark.parametrize("grid", [1, 4, 5, 8])
    @pytest.mark.parametrize("defocus", [0.0, 80.0])
    def test_local_taps_are_scipys(self, litho45, defocus, grid):
        # gaussian_filter1d's response to a unit impulse is its taps, at
        # both sigmas the model blurs with
        sigma_px = litho45.blur_sigma_nm(defocus) / grid
        for sigma in (sigma_px, sigma_px * litho45.flare_ratio):
            taps = _gaussian_taps(sigma)
            impulse = np.zeros(len(taps))
            impulse[len(taps) // 2] = 1.0
            assert np.array_equal(taps, gaussian_filter1d(impulse, sigma, mode="constant"))

    def test_invalid_dose(self, litho45):
        with pytest.raises(ValueError):
            litho45.print_image(Region(), Rect(0, 0, 10, 10), dose=0)


class TestCdMetrology:
    region = Region([Rect(0, 0, 45, 1000), Rect(145, 0, 190, 1000)])

    def test_measure_cd(self):
        assert measure_cd(self.region, Cutline(Point(22, 500))) == 45

    def test_measure_cd_missing(self):
        assert measure_cd(Region(), Cutline(Point(0, 0))) == 0

    def test_measure_cd_nearest_span(self):
        # cut point in the gap: returns nearest feature's width
        assert measure_cd(self.region, Cutline(Point(100, 500))) == 45

    def test_measure_space(self):
        assert measure_space(self.region, Cutline(Point(100, 500))) == 100
        assert measure_space(self.region, Cutline(Point(22, 500))) == 0

    def test_vertical_cut(self):
        region = Region(Rect(0, 0, 1000, 45))
        assert measure_cd(region, Cutline(Point(500, 22), horizontal=False)) == 45

    def test_pullback(self, litho45):
        line = Region(Rect(0, 200, 45, 800))
        printed = litho45.print_contour(line, Rect(-100, 100, 145, 900))
        pb = line_end_pullback(printed, line, Cutline(Point(22, 500), horizontal=False))
        assert 0 < pb < 30

    def test_pullback_vanished_line(self):
        line = Region(Rect(0, 0, 45, 100))
        assert line_end_pullback(Region(), line, Cutline(Point(22, 50), horizontal=False)) == 100

    def test_subpixel_cd_precision(self, litho45):
        line = Region(Rect(0, 0, 45, 2000))
        window = Rect(-200, 900, 245, 1100)
        image = litho45.aerial_image(line, window, grid=4)
        cd = subpixel_cd(image, window, 4, Cutline(Point(22, 1000)), 0.5)
        assert cd == pytest.approx(45, abs=8)

    def test_subpixel_cd_not_printing(self, litho45):
        window = Rect(-100, -100, 100, 100)
        image = litho45.aerial_image(Region(), window, grid=4)
        assert subpixel_cd(image, window, 4, Cutline(Point(0, 0)), 0.5) == 0.0


class TestProcessWindow:
    def test_corners(self):
        pw = ProcessWindow(0.95, 1.05, 80)
        corners = pw.corners()
        assert len(corners) == 5
        assert ProcessCondition(1.0, 0.0) in corners

    def test_grid(self):
        pw = ProcessWindow()
        points = list(pw.grid(3, 2))
        assert len(points) == 6

    def test_pv_bands_ordering(self, litho45):
        mask = Region(Rect(0, 0, 60, 2000))
        window = Rect(-150, 800, 210, 1200)
        inner, outer = pv_bands(litho45, mask, window, grid=2)
        assert outer.covers(inner)
        assert (outer - inner).area > 0

    def test_pv_band_area_smaller_for_wider_line(self, litho45):
        window = Rect(-200, 800, 400, 1200)
        narrow = pv_band_area(litho45, Region(Rect(0, 0, 50, 2000)), window, grid=2)
        wide = pv_band_area(litho45, Region(Rect(0, 0, 200, 2000)), window, grid=2)
        # PV band scales with perimeter, roughly equal here; but the
        # narrow line's relative variability dominates: compare per-area
        assert narrow / 50 >= wide / 200


class TestHotspots:
    def test_tight_gap_bridges(self, litho45):
        region = Region([Rect(0, 0, 100, 500), Rect(0, 522, 100, 1000)])
        hotspots = find_hotspots(litho45, region, Rect(-100, -100, 200, 1100))
        kinds = {h.kind for h in hotspots}
        assert HotspotKind.BRIDGE in kinds

    def test_line_ends_pinch(self, litho45):
        region = Region([Rect(0, 0, 45, 500), Rect(0, 560, 45, 1000)])
        hotspots = find_hotspots(litho45, region, Rect(-100, -100, 200, 1100))
        assert hotspots
        assert all(h.kind is HotspotKind.PINCH for h in hotspots)

    def test_clean_wide_pattern(self, litho45):
        region = Region(Rect(0, 0, 400, 2000))
        hotspots = find_hotspots(litho45, region, Rect(-100, 500, 500, 1500))
        assert hotspots == []

    def test_missing_feature(self, litho45):
        # a tiny isolated speck fails to print at all
        region = Region(Rect(0, 0, 12, 12))
        hotspots = find_hotspots(
            litho45, region, Rect(-150, -150, 150, 150), pinch_limit=4
        )
        assert any(h.kind is HotspotKind.MISSING for h in hotspots)

    def test_empty_window(self, litho45):
        assert find_hotspots(litho45, Region(), Rect(0, 0, 100, 100)) == []

    def test_mask_parameter(self, litho45):
        drawn = Region([Rect(0, 0, 45, 400), Rect(0, 445, 45, 800)])
        window = Rect(-100, -100, 150, 900)
        base = find_hotspots(litho45, drawn, window)
        ext = Region([Rect(0, 400, 45, 408), Rect(0, 437, 45, 445)])
        fixed = find_hotspots(litho45, drawn, window, mask=drawn | ext)
        assert len(fixed) < len(base)

    def test_severity_ordering(self, litho45):
        region = Region([Rect(0, 0, 100, 500), Rect(0, 522, 100, 1000)])
        hotspots = find_hotspots(litho45, region, Rect(-100, -100, 200, 1100))
        severities = [h.severity for h in hotspots]
        assert severities == sorted(severities, reverse=True)
