"""Equivalence and regression tests for the aerial-image fast path.

The whole fast path — SimCache condition reuse, indexed geometry
windowing, constant-cell rasterization, array-native classification
and the array cross-corner merge — is sold on one promise: results are
*bit-identical* to the straightforward per-condition, whole-chip
reference engine kept in ``tests/litho_reference.py``.  These tests pin
that promise at every layer, plus the bug fixes that rode along
(tile-key stability on cache hits, ``_min_feature_width`` deflation
under slab slicing, the merge's severity tie-break, and argument
checks on ``grid``, ``pv_bands``, the dose and the process window's
defocus).
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.designgen import LogicBlockSpec, generate_logic_block, generate_sram_array
from repro.geometry import Point, Rect, Region
from repro.litho import (
    Cutline,
    HotspotKind,
    ProcessCondition,
    ProcessWindow,
    find_hotspots,
    pv_bands,
    raster_to_region,
    rasterize,
    scan_full_chip,
)
from repro.litho import hotspots
from repro.litho.fullchip import _ScanPayload
from repro.litho.hotspots import (
    Hotspot,
    _DrawnContext,
    _hotspots_at_condition,
    _merge_across_corners,
    _min_feature_width,
)
from repro.litho.raster import raster_cells
from repro.obs import MetricsRegistry, names, set_registry
from repro.parallel import tile_grid
from tests import litho_reference


@pytest.fixture(scope="module")
def fastpath_setup(tech45, stdlib45):
    spec = LogicBlockSpec(rows=1, row_width_nm=4000, net_count=5, seed=9, weak_spots=4)
    block = generate_logic_block(tech45, spec, stdlib45)
    from repro.litho import LithoModel

    model = LithoModel(tech45.litho)
    m1 = block.top.region(tech45.layers.metal1)
    return tech45, model, m1


@pytest.fixture
def registry():
    """A fresh enabled registry installed process-wide for the test."""
    fresh = MetricsRegistry(enabled=True)
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


class TestSimCacheEquivalence:
    """SimCache results must be byte-identical to the uncached model."""

    @pytest.mark.parametrize("defocus", [0.0, 40.0, 80.0])
    def test_aerial_image_identical(self, fastpath_setup, defocus):
        _, model, m1 = fastpath_setup
        window = Rect(500, 0, 2500, 1200)
        sim = model.sim_cache(m1, window, defocus_hint=[0.0, 40.0, 80.0])
        direct = model.aerial_image(m1, window, defocus)
        cached = sim.aerial_image(defocus)
        assert cached.shape == direct.shape
        assert np.array_equal(cached, direct)  # bitwise, not approx

    def test_sliced_raster_serves_smaller_halo_exactly(self, fastpath_setup):
        # the raster is kept at the 80 nm-defocus halo; the 0-defocus
        # image is computed from a centred slice of it and must match
        # the independently-rasterized image bit for bit
        _, model, m1 = fastpath_setup
        window = Rect(0, 0, 2000, 1000)
        sim = model.sim_cache(m1, window, defocus_hint=[80.0])
        assert np.array_equal(sim.aerial_image(0.0), model.aerial_image(m1, window, 0.0))

    def test_unhinted_cache_regrows_raster(self, fastpath_setup):
        # ask for the narrow halo first, then the wide one: the cache
        # must re-rasterize bigger and still match both conditions
        _, model, m1 = fastpath_setup
        window = Rect(0, 0, 1500, 900)
        sim = model.sim_cache(m1, window)
        assert np.array_equal(sim.aerial_image(0.0), model.aerial_image(m1, window, 0.0))
        assert np.array_equal(
            sim.aerial_image(80.0), model.aerial_image(m1, window, 80.0)
        )

    @pytest.mark.parametrize("grid", [4, 8])
    def test_print_contour_identical_across_grids(self, fastpath_setup, grid):
        _, model, m1 = fastpath_setup
        window = Rect(250, 0, 2250, 1100)
        corners = ProcessWindow().corners()
        sim = model.sim_cache(
            m1, window, grid, defocus_hint=[c.defocus_nm for c in corners]
        )
        for c in corners:
            assert sim.print_contour(c.dose, c.defocus_nm) == model.print_contour(
                m1, window, c.dose, c.defocus_nm, grid
            )

    @pytest.mark.parametrize("grid", [4, 8])
    @pytest.mark.parametrize(
        "window", [Rect(-400, -400, 402, 400), Rect(500, 0, 2502, 1201)]
    )
    def test_unaligned_window_identical(self, fastpath_setup, window, grid):
        # a window that is not a whole number of pixels clips each halo's
        # raster at that halo's own edge, so a narrower halo cannot be a
        # slice of the widest raster
        _, model, m1 = fastpath_setup
        corners = ProcessWindow().corners()
        sim = model.sim_cache(
            m1, window, grid, defocus_hint=[c.defocus_nm for c in corners]
        )
        for c in corners:
            assert np.array_equal(
                sim.aerial_image(c.defocus_nm),
                model.aerial_image(m1, window, c.defocus_nm, grid),
            )
            assert np.array_equal(
                sim.print_image(c.dose, c.defocus_nm),
                model.print_image(m1, window, c.dose, c.defocus_nm, grid),
            )

    def test_plus_minus_defocus_share_one_blur(self, fastpath_setup):
        # sigma combines defocus in quadrature, so ±d collapse to one
        # cached image — and both match their direct simulations
        _, model, m1 = fastpath_setup
        window = Rect(0, 0, 1000, 800)
        sim = model.sim_cache(m1, window, defocus_hint=[60.0, -60.0])
        a = sim.aerial_image(60.0)
        b = sim.aerial_image(-60.0)
        assert a is b
        assert np.array_equal(a, model.aerial_image(m1, window, -60.0))


@st.composite
def print_cases(draw):
    """A rect soup, a window that may end mid-pixel, a grid and one
    (dose, defocus) condition."""
    grid = draw(st.sampled_from([1, 2, 4, 5, 8]))
    boxes = st.tuples(
        st.integers(-300, 300), st.integers(-300, 300),
        st.integers(4, 240), st.integers(4, 240),
    )
    rects = draw(st.lists(boxes, min_size=1, max_size=8))
    span = 60 if grid == 1 else 240  # keeps the grid-1 rasters small
    x0, y0 = draw(st.integers(-200, 100)), draw(st.integers(-200, 100))
    window = Rect(
        x0, y0, x0 + draw(st.integers(1, span)), y0 + draw(st.integers(1, span))
    )
    dose = draw(st.sampled_from([0.9, 0.95, 1.0, 1.05, 1.1]))
    defocus = draw(st.sampled_from([0.0, 40.0, -80.0]))
    mask = Region([Rect(x, y, x + w, y + h) for x, y, w, h in rects])
    return mask, window, grid, dose, defocus


@st.composite
def blur_cases(draw):
    """A soup of a few rects (few runs of identical lines) or of many
    small ones (a new line at nearly every pixel), a window, a grid and
    a defocus."""
    grid = draw(st.sampled_from([2, 4, 5, 8]))
    many = draw(st.booleans())
    side = st.integers(2, 12) if many else st.integers(8, 240)
    boxes = st.tuples(st.integers(-150, 150), st.integers(-150, 150), side, side)
    rects = draw(st.lists(boxes, min_size=40 if many else 1, max_size=80 if many else 4))
    x0, y0 = draw(st.integers(-150, 0)), draw(st.integers(-150, 0))
    window = Rect(x0, y0, x0 + draw(st.integers(40, 300)), y0 + draw(st.integers(40, 300)))
    defocus = draw(st.sampled_from([0.0, 40.0, 80.0]))
    mask = Region([Rect(x, y, x + w, y + h) for x, y, w, h in rects])
    return mask, window, grid, defocus


class TestCertifiedPrint:
    """SimCache.print_image thresholds the factored image, certified
    against the scipy image: every printed pixel must still match the
    model."""

    @given(print_cases())
    @settings(max_examples=40, deadline=None)
    def test_matches_reference(self, litho45, case):
        mask, window, grid, dose, defocus = case
        # the hint makes aligned windows serve narrower halos as slices
        sim = litho45.sim_cache(mask, window, grid, defocus_hint=[0.0, 80.0, defocus])
        assert np.array_equal(
            sim.print_image(dose, defocus),
            litho45.print_image(mask, window, dose, defocus, grid),
        )

    def test_threshold_ties_fall_back_to_scipy(self, litho45, registry):
        # a long straight edge through pixel centres images at the
        # threshold there (0.5 at dose 1): the FFT cannot certify those
        # pixels, so they are decided from the scipy image
        half_plane = Region(Rect(-5000, -5000, 202, 5000))
        window = Rect(0, 0, 400, 1600)
        sim = litho45.sim_cache(half_plane, window, 4)
        printed = sim.print_image(1.0, 0.0)
        assert registry.counter(names.SIM_EXACT_FALLBACK) == 1
        assert np.array_equal(
            printed, litho45.print_image(half_plane, window, 1.0, 0.0, 4)
        )

    def test_designs_need_no_fallback(self, tech45, stdlib45, litho45, registry):
        # a quick-size logic block and an SRAM window: no pixel comes
        # near the error bound, which sits far above the observed error
        spec = LogicBlockSpec(rows=2, row_width_nm=6000, net_count=8, weak_spots=4, seed=7)
        block = generate_logic_block(tech45, spec, stdlib45).top
        sram = generate_sram_array(tech45, rows=12, cols=12).top_cell()
        m1 = tech45.layers.metal1
        corners = ProcessWindow().corners()
        for cell in (block, sram):
            region = cell.region(m1)
            report = scan_full_chip(litho45, region, tile_nm=3000)
            assert report.tiles > 1
            bb = region.bbox
            window = Rect(bb.x0 + 300, bb.y0 + 300, bb.x0 + 2303, bb.y0 + 1802)
            sim = litho45.sim_cache(
                region, window, defocus_hint=[c.defocus_nm for c in corners]
            )
            for c in corners:
                sim.print_image(c.dose, c.defocus_nm)
                image, delta = sim._certified_image(c.defocus_nm)
                error = np.abs(image - sim.aerial_image(c.defocus_nm)).max()
                assert error * 100 <= delta
        assert registry.counter(names.SIM_BLUR_UNIQUE) > 0
        assert registry.counter(names.SIM_EXACT_FALLBACK) == 0


def _pattern(kind: str, window: Rect, margin: int, grid: int) -> Region:
    """A mask over ``window`` grown by ``margin`` whose raster has few
    runs of identical rows (``"rows"``), few runs of identical columns
    but a new row every other pixel (``"columns"``), or a different
    line at every pixel on both axes (``"every"``)."""
    lo_x, lo_y = window.x0 - margin, window.y0 - margin
    hi_x, hi_y = window.x1 + margin, window.y1 + margin
    if kind == "rows":
        # vertical bars in two bands of different heights
        mid = (lo_y + hi_y) // 2
        return Region(
            [Rect(x, lo_y, x + 3 * grid, mid) for x in range(lo_x, hi_x, 7 * grid)]
            + [Rect(x, mid, x + 2 * grid, hi_y) for x in range(lo_x, hi_x, 11 * grid)]
        )
    if kind == "columns":
        # full-width one-pixel bars on every other pixel row: factored by
        # rows, every bar would be a run of its own
        return Region([Rect(lo_x, y, hi_x, y + grid) for y in range(lo_y, hi_y, 2 * grid)])
    # a diagonal band of squares, one pixel apart
    side = max(hi_x - lo_x, hi_y - lo_y)
    return Region(
        [
            Rect(lo_x + d, lo_y + d, lo_x + d + 6 * grid, lo_y + d + 6 * grid)
            for d in range(0, side, grid)
        ]
    )


class TestFactoredBlur:
    """SimCache's unique-sigma images come from the factored product
    over the raster's runs of identical lines, along whichever axis has
    fewer of them: every printed pixel matches the model and the image
    lies within its bound of scipy's, for few runs or a new line at
    every pixel."""

    conditions = (ProcessCondition(1.0, 0.0), ProcessCondition(0.95, 80.0))

    @pytest.mark.parametrize("grid", [1, 4, 5, 8])
    @pytest.mark.parametrize("aligned", [True, False])
    @pytest.mark.parametrize("kind", ["rows", "columns", "every"])
    def test_print_and_bound(self, litho45, registry, grid, aligned, kind):
        size = 40 * grid
        window = Rect(0, 0, size, size) if aligned else Rect(3, -2, size + 5, size - 1)
        margin = litho45.halo_nm(80.0) + 2 * grid
        mask = _pattern(kind, window, margin, grid)
        sim = litho45.sim_cache(mask, window, grid, defocus_hint=[0.0, 80.0])
        for c in self.conditions:
            assert np.array_equal(
                sim.print_image(c.dose, c.defocus_nm),
                litho45.print_image(mask, window, c.dose, c.defocus_nm, grid),
            )
            image, delta = sim._certified_image(c.defocus_nm)
            assert image.flags.c_contiguous
            # the margin test_designs_need_no_fallback asks of the bound
            error = np.abs(image - sim.aerial_image(c.defocus_nm)).max()
            assert error * 100 <= delta
        raster = sim._raster_for(litho45._halo_px(80.0, grid)).expand()
        row_runs = 1 + np.count_nonzero(np.any(raster[1:] != raster[:-1], axis=1))
        column_runs = 1 + np.count_nonzero(np.any(raster[:, 1:] != raster[:, :-1], axis=0))
        if kind == "columns":  # factored along columns, then transposed back
            assert column_runs < row_runs
        elif kind == "rows":
            assert row_runs < column_runs
        else:
            assert min(row_runs, column_runs) == min(raster.shape)

    def test_lines_out_of_reach_are_zero(self, litho45, registry):
        # one square in a corner of a wide window: most product blocks
        # sum no terms and must come out exactly 0
        window = Rect(0, 0, 2400, 2000)
        mask = Region(Rect(-100, -100, 60, 60))
        sim = litho45.sim_cache(mask, window, 8)
        image, delta = sim._certified_image(0.0)
        assert image.shape == (250, 300)
        assert not image[100:, :].any() and not image[:, 100:].any()
        assert np.abs(image - sim.aerial_image(0.0)).max() <= delta
        assert np.array_equal(sim.print_image(), litho45.print_image(mask, window, grid=8))

    def test_empty_window_is_zero(self, litho45, registry):
        sim = litho45.sim_cache(Region(), Rect(0, 0, 400, 400))
        image, delta = sim._certified_image(0.0)
        assert not image.any() and delta > 0
        assert not sim.print_image().any()
        assert registry.counter(names.SIM_BLUR_UNIQUE) == 1

    @given(blur_cases())
    @example((Region(Rect(-100, -60, 140, 20)), Rect(0, 0, 120, 80), 4, 0.0))  # few runs
    @example(  # scattered small squares: a new line at nearly every pixel
        (
            Region(
                [
                    Rect(x, (x * 37) % 240 - 120, x + 6, (x * 37) % 240 - 114)
                    for x in range(-150, 150, 4)
                ]
            ),
            Rect(-120, -120, 120, 120),
            4,
            80.0,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_bound_holds(self, litho45, case):
        mask, window, grid, defocus = case
        sim = litho45.sim_cache(mask, window, grid)
        image, delta = sim._certified_image(defocus)
        assert np.abs(image - sim.aerial_image(defocus)).max() <= delta


def _soup(draw, window: Rect, grid: int) -> Region:
    """Up to ten rects around ``window``: inside it, across its edges or
    wholly outside, some abutting the previous rect."""
    rects: list[Rect] = []
    reach = 6 * grid + 20
    for _ in range(draw(st.integers(0, 10))):
        w, h = draw(st.integers(1, 12 * grid)), draw(st.integers(1, 12 * grid))
        if rects and draw(st.booleans()):
            prev = rects[-1]
            if draw(st.booleans()):  # on its right edge
                x, y = prev.x1, draw(st.integers(prev.y0 - h, prev.y1))
            else:  # on its top edge
                x, y = draw(st.integers(prev.x0 - w, prev.x1)), prev.y1
        else:
            x = draw(st.integers(window.x0 - reach - w, window.x1 + reach))
            y = draw(st.integers(window.y0 - reach - h, window.y1 + reach))
        rects.append(Rect(x, y, x + w, y + h))
    return Region(rects)


@st.composite
def raster_cases(draw):
    """A soup around a window that may end mid-pixel, on grids 1-8."""
    grid = draw(st.sampled_from([1, 2, 3, 4, 5, 8]))
    span = 40 if grid == 1 else 160
    x0, y0 = draw(st.integers(-50, 50)), draw(st.integers(-50, 50))
    window = Rect(x0, y0, x0 + draw(st.integers(1, span)), y0 + draw(st.integers(1, span)))
    return _soup(draw, window, grid), window, grid


@st.composite
def trim_cases(draw):
    """A soup around a whole-pixel window and two halos in pixels, the
    wider first."""
    grid = draw(st.sampled_from([1, 2, 3, 4, 5, 8]))
    x0, y0 = draw(st.integers(-50, 50)), draw(st.integers(-50, 50))
    nx, ny = draw(st.integers(1, 20)), draw(st.integers(1, 20))
    window = Rect(x0, y0, x0 + nx * grid, y0 + ny * grid)
    wide = draw(st.integers(1, 10))
    narrow = draw(st.integers(0, wide - 1))
    return _soup(draw, window.expanded(wide * grid), grid), window, grid, wide, narrow


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _check_cells(cells, raster: np.ndarray) -> None:
    """``cells`` has no empty band, expands to ``raster`` bit for bit,
    and hands over the maximal runs of identical lines a scan of
    ``raster`` finds, along the axis that scan picks for the blur."""
    for edges, n in ((cells.rows, raster.shape[0]), (cells.cols, raster.shape[1])):
        assert edges[0] == 0 and edges[-1] == n
        assert np.all(np.diff(edges) > 0)
    assert _same_bits(cells.expand(), raster)
    new_row = np.any(raster[1:] != raster[:-1], axis=1)
    new_col = np.any(raster[:, 1:] != raster[:, :-1], axis=0)
    transposed = np.count_nonzero(new_col) < np.count_nonzero(new_row)
    lines, new = (raster.T, new_col) if transposed else (raster, new_row)
    starts = np.flatnonzero(np.concatenate(([True], new)))
    runs = cells.runs()
    assert runs.transposed == transposed
    assert np.array_equal(runs.starts, starts)
    assert _same_bits(runs.lines, np.ascontiguousarray(lines[starts]))
    assert runs.count == len(lines)
    # maximal: every run's lines equal its first, and neighbours differ
    ends = np.append(starts[1:], len(lines))
    for line, lo, hi in zip(runs.lines, starts, ends):
        assert (lines[lo:hi] == line).all()
    assert all((a != b).any() for a, b in zip(runs.lines, runs.lines[1:]))


class TestCellsMatchReference:
    """The constant-cell raster against the dense rasterizer kept in
    ``tests/litho_reference.py``: the raster bit for bit, the blur's
    runs, and the cells an aligned window trims for a narrower halo."""

    @given(raster_cases())
    @example((Region(), Rect(3, -2, 40, 17), 3))  # empty region
    @example((Region(Rect(-90, -90, -20, -20)), Rect(0, 0, 64, 40), 4))  # wholly outside
    @example(  # abutting rects, the window ending mid-pixel
        (Region([Rect(0, 0, 7, 9), Rect(7, 3, 20, 9), Rect(4, 9, 13, 30)]), Rect(1, 2, 19, 27), 5)
    )
    @settings(max_examples=300, deadline=None)
    def test_cells_expand_to_the_reference_raster(self, case):
        region, window, grid = case
        raster = litho_reference.rasterize(region, window, grid)
        assert _same_bits(rasterize(region, window, grid), raster)
        _check_cells(raster_cells(region, window, grid), raster)

    @given(trim_cases())
    @settings(max_examples=200, deadline=None)
    def test_trimmed_cells_equal_a_direct_build(self, case):
        region, window, grid, wide, narrow = case
        trimmed = raster_cells(region, window.expanded(wide * grid), grid).trimmed(wide - narrow)
        direct = raster_cells(region, window.expanded(narrow * grid), grid)
        raster = litho_reference.rasterize(region, window.expanded(narrow * grid), grid)
        _check_cells(direct, raster)
        _check_cells(trimmed, raster)

    def test_wide_region_with_slabs_at_the_window_edges(self):
        # the cells read only the slabs reaching into the window's
        # x-extent: here one ends at its left edge and one starts at
        # its right edge, both outside it
        chip = Region([Rect(x, 0, x + 20, 400) for x in range(-100_000, 100_000, 40)])
        window = Rect(-40, 10, 120, 90)
        for grid in (3, 4):
            assert _same_bits(
                rasterize(chip, window, grid), litho_reference.rasterize(chip, window, grid)
            )


class TestSweepEquivalence:
    """find_hotspots / pv_bands through the SimCache against the
    reference engine's one simulation per condition."""

    @pytest.mark.parametrize("jobs_grid", [None, 8])
    def test_find_hotspots_cache_on_off(self, fastpath_setup, jobs_grid):
        tech, model, m1 = fastpath_setup
        window = Rect(0, 0, 3000, 1400)
        limit = tech.metal_width // 2
        fast = find_hotspots(model, m1, window, pinch_limit=limit, grid=jobs_grid)
        slow = litho_reference.find_hotspots(
            model, m1, window, pinch_limit=limit, grid=jobs_grid
        )
        assert fast == slow

    def test_pv_bands_cache_on_off(self, fastpath_setup):
        _, model, m1 = fastpath_setup
        window = Rect(0, 0, 2500, 1200)
        assert pv_bands(model, m1, window) == litho_reference.pv_bands(model, m1, window)

    def test_pv_bands_over_process_grid_conditions(self, fastpath_setup):
        _, model, m1 = fastpath_setup
        window = Rect(0, 0, 2000, 1000)
        conditions = list(ProcessWindow().grid(n_dose=3, n_defocus=3))
        fast = pv_bands(model, m1, window, conditions=conditions)
        slow = litho_reference.pv_bands(model, m1, window, conditions=conditions)
        assert fast == slow


class TestArgumentChecks:
    """Bad arguments raise ValueError up front, not deep in the sweep."""

    def test_negative_grid_rejected(self, fastpath_setup):
        _, model, m1 = fastpath_setup
        window = Rect(0, 0, 1000, 800)
        with pytest.raises(ValueError, match="grid must be positive"):
            model.sim_cache(m1, window, -5)
        with pytest.raises(ValueError, match="grid must be positive"):
            find_hotspots(model, m1, window, grid=-5)

    def test_negative_grid_fails_the_scan_instead_of_quarantining(self, fastpath_setup):
        _, model, m1 = fastpath_setup
        with pytest.raises(ValueError, match="grid must be positive"):
            scan_full_chip(model, m1, tile_nm=1200, grid=-5)

    def test_zero_grid_means_the_model_grid(self, fastpath_setup):
        _, model, m1 = fastpath_setup
        window = Rect(0, 0, 1000, 800)
        assert model.sim_cache(m1, window, 0).grid == model.settings.grid_nm
        assert find_hotspots(model, m1, window, grid=0) == find_hotspots(model, m1, window)

    def test_pv_bands_needs_a_condition(self, fastpath_setup):
        _, model, m1 = fastpath_setup
        with pytest.raises(ValueError, match="at least one process condition"):
            pv_bands(model, m1, Rect(0, 0, 1000, 800), conditions=[])

    @pytest.mark.parametrize(
        "doses", [{"dose_min": 0.0}, {"dose_min": -0.1}, {"dose_max": 0.0}]
    )
    def test_non_positive_dose_rejected(self, doses):
        with pytest.raises(ValueError, match="dose must be positive"):
            ProcessWindow(**doses)

    def test_non_positive_dose_fails_the_scan_instead_of_quarantining(self, fastpath_setup):
        _, model, m1 = fastpath_setup
        with pytest.raises(ValueError, match="dose must be positive"):
            scan_full_chip(model, m1, tile_nm=3000, process=ProcessWindow(dose_min=0.0))

    def test_nan_dose_prints_nothing_no_more(self, fastpath_setup):
        # ``dose <= 0`` is False for NaN: both printers thresholded at
        # NaN and printed an empty raster
        _, model, m1 = fastpath_setup
        window = Rect(0, 0, 1000, 800)
        with pytest.raises(ValueError, match="dose must be positive"):
            model.print_image(m1, window, dose=float("nan"))
        with pytest.raises(ValueError, match="dose must be positive"):
            model.sim_cache(m1, window).print_image(dose=float("nan"))

    @pytest.mark.parametrize("dose", [float("nan"), 0.0, -1.0])
    def test_measure_cd_rejects_a_bad_dose(self, litho45, dose):
        # it returned 0.0 at NaN and 795.0 at -1, and divided by zero at 0
        line = Region(Rect(0, 0, 45, 2000))
        with pytest.raises(ValueError, match="dose must be positive"):
            litho45.measure_cd(line, Cutline(Point(22, 1000)), dose=dose)

    @pytest.mark.parametrize("defocus", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_defocus_rejected(self, fastpath_setup, defocus):
        # the scan sized its halo from it: a bare "cannot convert float
        # NaN to integer" ValueError, or an OverflowError at inf
        _, model, m1 = fastpath_setup
        with pytest.raises(ValueError, match="defocus_max_nm must be finite"):
            scan_full_chip(model, m1, tile_nm=3000, process=ProcessWindow(defocus_max_nm=defocus))


class TestScanFastPath:
    """scan_full_chip against the reference engine's serial whole-chip
    scan, serial and parallel, and its tile keys against whole-chip
    clips."""

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_fast_equals_legacy(self, fastpath_setup, jobs):
        tech, model, m1 = fastpath_setup
        limit = tech.metal_width // 2
        fast = scan_full_chip(model, m1, tile_nm=1200, pinch_limit=limit, jobs=jobs)
        legacy = litho_reference.scan_full_chip(model, m1, tile_nm=1200, pinch_limit=limit)
        assert fast.hotspots == legacy.hotspots
        assert fast.tiles == legacy.tiles

    def test_tile_key_stability(self, fastpath_setup):
        # a tile key hashes the payload layer's clip of the tile's
        # influence window, which must equal the whole-chip region
        # clipped to it, tile by tile
        _, model, m1 = fastpath_setup
        process = ProcessWindow()
        g = model.settings.grid_nm
        halo = max(model.halo_nm(c.defocus_nm) for c in process.corners())
        halo = -(-halo // g) * g
        geometry = _ScanPayload(model, m1, None, process, None, None, halo).drawn
        tiles = tile_grid(m1.bbox, 1200, 200)
        assert len(tiles) > 1
        for tile in tiles:
            influence = tile.window.expanded(halo)
            local, whole = geometry.clipped(influence), m1 & Region(influence)
            assert local == whole
            assert local.digest() == whole.digest()

    def test_scan_geometry_survives_pickle(self, fastpath_setup):
        import pickle

        _, model, m1 = fastpath_setup
        geo = _ScanPayload(model, m1, None, ProcessWindow(), None, None).drawn
        window = Rect(0, 0, 2000, 2000)
        before = sorted(r.as_tuple() for r in geo.window(window))
        clone = pickle.loads(pickle.dumps(geo))
        assert sorted(r.as_tuple() for r in clone.window(window)) == before
        assert clone.clipped(window) == geo.clipped(window)


class TestMinFeatureWidth:
    """Satellite 2: slab slicing must not deflate the estimate."""

    def test_l_shape_reports_arm_thickness(self):
        region = Region([Rect(0, 0, 300, 100), Rect(0, 0, 100, 400)])
        assert _min_feature_width(region) == 100

    def test_neighbour_edges_do_not_deflate_a_bar(self):
        # the canonical slab cuts of B (x=480) and C (x=500) slice the
        # 1000-wide bar into a 20-wide fragment; the raw-rect minimum
        # reported 20 where no feature is narrower than 100
        bar = Rect(0, 0, 1000, 100)
        b = Rect(480, 300, 580, 400)
        c = Rect(500, 500, 600, 600)
        region = Region([bar, b, c])
        # the slicing really happens (guard against Region changes
        # silently making this test vacuous)
        assert any(r.x1 - r.x0 < 100 for r in region.rects())
        assert _min_feature_width(region) == 100

    def test_genuinely_narrow_feature_still_detected(self):
        region = Region([Rect(0, 0, 1000, 100), Rect(480, 300, 500, 400)])
        assert _min_feature_width(region) == 20

    def test_single_rect(self):
        assert _min_feature_width(Region([Rect(0, 0, 50, 200)])) == 50


@st.composite
def classifier_cases(draw):
    """A drawn rect soup clipped to a window that may end mid-pixel, a
    printed mask over it and a pinch limit.  The mask is the drawn
    layer's raster thresholded, with a few pixels flipped, or noise:
    flipped pixels and noise bridge drawn features and drop small
    ones, so bridges and missing features occur, not only pinches."""
    grid = draw(st.sampled_from([1, 2, 4, 5]))
    nx, ny = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    w = nx * grid - draw(st.integers(0, grid - 1))
    h = ny * grid - draw(st.integers(0, grid - 1))
    x0, y0 = draw(st.integers(-50, 50)), draw(st.integers(-50, 50))
    window = Rect(x0, y0, x0 + w, y0 + h)
    boxes = st.tuples(
        st.integers(x0 - 10, x0 + w), st.integers(y0 - 10, y0 + h),
        st.integers(1, w // 2 + 5), st.integers(1, h // 2 + 5),
    )
    rects = draw(st.lists(boxes, min_size=1, max_size=8))
    drawn = Region([Rect(x, y, x + bw, y + bh) for x, y, bw, bh in rects]) & Region(window)
    assume(not drawn.is_empty)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        mask = rasterize(drawn, window, grid) >= draw(st.sampled_from([0.25, 0.5, 0.75]))
        for _ in range(draw(st.integers(0, 6))):
            mask[rng.integers(ny), rng.integers(nx)] ^= True
    else:
        mask = rng.random((ny, nx)) < draw(st.sampled_from([0.3, 0.5, 0.7]))
    return drawn, window, grid, mask, draw(st.integers(2, 40))


# two drawn bars printed as one blob across their gap
BRIDGE_CASE = (
    Region([Rect(0, 0, 14, 40), Rect(26, 0, 40, 40)]),
    Rect(0, 0, 40, 40),
    2,
    np.ones((20, 20), dtype=bool),
    4,
)
# the right bar prints, the left one does not
_missing_mask = np.zeros((8, 9), dtype=bool)
_missing_mask[:, 6:] = True
MISSING_CASE = (
    Region([Rect(0, 0, 10, 38), Rect(30, 0, 43, 38)]),
    Rect(0, 0, 43, 38),
    5,
    _missing_mask,
    3,
)


def _classify_both(case):
    drawn, window, grid, mask, limit = case
    condition = ProcessCondition(0.95, 80.0)
    ctx = _DrawnContext(drawn, _min_feature_width(drawn))
    fast = _hotspots_at_condition(mask, window, grid, condition, limit, ctx)
    printed = raster_to_region(mask, window, grid)
    return fast, litho_reference.hotspots_at_condition(printed, drawn, condition, limit)


class TestClassifierMatchesReference:
    """The array classifier against the reference engine, one corner at
    a time, on the same printed mask."""

    @given(classifier_cases())
    @example(BRIDGE_CASE)
    @example(MISSING_CASE)
    @settings(max_examples=300, deadline=None)
    def test_random_corners(self, case):
        fast, reference = _classify_both(case)
        assert fast == reference
        # == alone passes NumPy scalars; str() shows them
        assert [str(h) for h in fast] == [str(h) for h in reference]

    @pytest.mark.parametrize(
        "case, kind",
        [(BRIDGE_CASE, HotspotKind.BRIDGE), (MISSING_CASE, HotspotKind.MISSING)],
        ids=["bridge", "missing"],
    )
    def test_pinned_cases_hold_their_kind(self, case, kind):
        fast, reference = _classify_both(case)
        assert kind in {h.kind for h in reference}
        assert fast == reference


_SEVERITIES = [50.0, 100.0, 150.0]
_CONDITIONS = [
    ProcessCondition(1.0, 0.0), ProcessCondition(0.95, 80.0), ProcessCondition(1.05, 0.0)
]


@st.composite
def marker_soups(draw):
    """Raw hotspots as the cross-corner merge receives them: markers in
    a small field, many chained at a gap of 0, 1 or 2 from the previous
    one (touching, touching through the merge's 1 nm reach, apart),
    several kinds, and severities from a few values so members tie."""
    raw: list[Hotspot] = []
    for _ in range(draw(st.integers(0, 30))):
        w, h = draw(st.integers(1, 20)), draw(st.integers(1, 20))
        if raw and draw(st.booleans()):
            prev = raw[-1].marker
            x0 = prev.x1 + draw(st.integers(0, 2))
            y0 = draw(st.integers(prev.y0 - h, prev.y1))
        else:
            x0, y0 = draw(st.integers(0, 60)), draw(st.integers(0, 60))
        raw.append(
            Hotspot(
                draw(st.sampled_from(list(HotspotKind))),
                Rect(x0, y0, x0 + w, y0 + h),
                draw(st.sampled_from(_SEVERITIES)),
                draw(st.sampled_from(_CONDITIONS)),
            )
        )
    return raw


@st.composite
def chain_soups(draw):
    """Up to 300 raw hotspots in chains that run right or up from the
    previous marker, at a gap of 0, 1 or 2, or restart anywhere in a
    field of drawn size: chains whose boxes reach markers that touch no
    member, where raw order decides the clusters.

    Each marker is one drawn integer read as mixed-radix digits, which
    keeps 300-marker soups cheap to draw; it shrinks toward small
    markers chained rightwards at gap 0.
    """
    field = draw(st.integers(20, 400))
    size = draw(st.integers(0, 300))
    raw: list[Hotspot] = []
    for code in draw(st.lists(st.integers(0, 1 << 40), min_size=size, max_size=size)):

        def digit(radix: int) -> int:
            nonlocal code
            code, d = divmod(code, radix)
            return d

        w, h = 1 + digit(16), 1 + digit(16)
        step, gap, slide = digit(3), digit(3), digit(32)
        prev = raw[-1].marker if raw else None
        if prev is not None and step == 0:  # on from its right edge
            x0, y0 = prev.x1 + gap, prev.y0 - h + slide % (prev.height + h + 1)
        elif prev is not None and step == 1:  # on from its top edge
            x0, y0 = prev.x0 - w + slide % (prev.width + w + 1), prev.y1 + gap
        else:
            x0, y0 = digit(field + 1), digit(field + 1)
        kinds = list(HotspotKind)
        raw.append(
            Hotspot(
                kinds[digit(len(kinds))],
                Rect(x0, y0, x0 + w, y0 + h),
                _SEVERITIES[digit(len(_SEVERITIES))],
                _CONDITIONS[digit(len(_CONDITIONS))],
            )
        )
    return raw


# A and B touch; C lies inside their bounding box and touches neither,
# so the walk absorbs C from a cluster seeded at A or B, but C seeded
# first stays alone
_A = Hotspot(HotspotKind.PINCH, Rect(0, 0, 2, 20), 60.0, _CONDITIONS[0])
_B = Hotspot(HotspotKind.PINCH, Rect(3, 18, 20, 20), 80.0, _CONDITIONS[1])
_C = Hotspot(HotspotKind.PINCH, Rect(15, 5, 18, 8), 100.0, _CONDITIONS[2])


# four pinches merging into one site, whose two severity-100 members
# disagree on the corner: the earliest one in the raw list wins
TIED_MERGE_CASE = [
    Hotspot(HotspotKind.PINCH, Rect(41, 32, 60, 46), 50.0, ProcessCondition(0.95, 80.0)),
    Hotspot(HotspotKind.PINCH, Rect(35, 38, 40, 51), 50.0, ProcessCondition(0.95, 80.0)),
    Hotspot(HotspotKind.PINCH, Rect(17, 24, 34, 39), 100.0, ProcessCondition(1.0, 0.0)),
    Hotspot(HotspotKind.PINCH, Rect(31, 37, 44, 53), 100.0, ProcessCondition(0.95, 80.0)),
]


class TestMergeMatchesReference:
    """The indexed cross-corner merge against the reference engine's
    pairwise-rescan merge."""

    @given(marker_soups())
    @example(TIED_MERGE_CASE)
    @example([_A, _B, _C])
    @example([_C, _A, _B])
    @settings(max_examples=300, deadline=None)
    def test_random_soups(self, raw):
        merged = _merge_across_corners(raw)
        reference = litho_reference.merge_across_corners(raw)
        assert merged == reference
        assert [str(h) for h in merged] == [str(h) for h in reference]

    @given(chain_soups())
    @settings(max_examples=150, deadline=None)
    def test_horizontal_and_vertical_chains(self, raw):
        merged = _merge_across_corners(raw)
        reference = litho_reference.merge_across_corners(raw)
        assert merged == reference
        assert [str(h) for h in merged] == [str(h) for h in reference]

    @pytest.mark.parametrize("block", [1, 3, 17])
    def test_candidate_pairs_in_small_blocks(self, monkeypatch, block):
        # the touching-pair sweep expands its candidates in blocks of
        # about _PAIRS_AT pairs; small blocks must link what one does
        rng = random.Random(7)
        raw = []
        for _ in range(200):
            x, y = rng.randrange(120), rng.randrange(120)
            raw.append(
                Hotspot(
                    rng.choice(list(HotspotKind)),
                    Rect(x, y, x + rng.randrange(1, 12), y + rng.randrange(1, 12)),
                    rng.choice(_SEVERITIES),
                    rng.choice(_CONDITIONS),
                )
            )
        monkeypatch.setattr(hotspots, "_PAIRS_AT", block)
        assert _merge_across_corners(raw) == litho_reference.merge_across_corners(raw)

    def test_raw_order_decides_a_cluster_the_boxes_reach(self):
        (merged,) = _merge_across_corners([_A, _B, _C])
        assert (merged.marker, merged.severity) == (Rect(0, 0, 20, 20), 100.0)
        first, second = _merge_across_corners([_C, _A, _B])
        assert (first.marker, first.severity) == (_C.marker, 100.0)
        assert (second.marker, second.severity) == (Rect(0, 0, 20, 20), 80.0)

    def test_tie_goes_to_the_earliest_member(self):
        (merged,) = _merge_across_corners(TIED_MERGE_CASE)
        assert merged.marker == Rect(17, 24, 60, 53)
        assert (merged.severity, merged.condition) == (100.0, ProcessCondition(1.0, 0.0))
