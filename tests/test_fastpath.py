"""Equivalence and regression tests for the aerial-image fast path.

The whole fast path — SimCache condition reuse, indexed geometry
windowing, vectorized rasterization — is sold on one promise: results
are *bit-identical* to the straightforward per-condition, whole-chip
engine.  These tests pin that promise at every layer, plus the two bug
fixes that rode along (tile-key stability on cache hits, and
``_min_feature_width`` deflation under slab slicing).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.designgen import LogicBlockSpec, generate_logic_block, generate_sram_array
from repro.geometry import Rect, Region
from repro.litho import (
    HotspotKind,
    ProcessCondition,
    ProcessWindow,
    find_hotspots,
    pv_bands,
    raster_to_region,
    rasterize,
    scan_full_chip,
)
from repro.litho.fullchip import _ScanGeometry, _ScanPayload, _scan_params, _tile_key
from repro.litho.hotspots import (
    _DrawnContext,
    _hotspots_at_condition,
    _hotspots_at_condition_reference,
    _min_feature_width,
)
from repro.obs import MetricsRegistry, names, set_registry
from repro.parallel import TileCache, tile_grid


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


class TestCertifiedPrint:
    """SimCache.print_image thresholds an FFT image, certified against
    the scipy image: every printed pixel must still match the model."""

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
                image, delta = sim._fft_image(c.defocus_nm)
                error = np.abs(image - sim.aerial_image(c.defocus_nm)).max()
                assert error * 1000 <= delta
        assert registry.counter(names.SIM_BLUR_UNIQUE) > 0
        assert registry.counter(names.SIM_EXACT_FALLBACK) == 0


class TestSweepEquivalence:
    """find_hotspots / pv_bands with the cache on vs off."""

    @pytest.mark.parametrize("jobs_grid", [None, 8])
    def test_find_hotspots_cache_on_off(self, fastpath_setup, jobs_grid):
        tech, model, m1 = fastpath_setup
        window = Rect(0, 0, 3000, 1400)
        limit = tech.metal_width // 2
        fast = find_hotspots(
            model, m1, window, pinch_limit=limit, grid=jobs_grid, use_cache=True
        )
        slow = find_hotspots(
            model, m1, window, pinch_limit=limit, grid=jobs_grid, use_cache=False
        )
        assert fast == slow

    def test_pv_bands_cache_on_off(self, fastpath_setup):
        _, model, m1 = fastpath_setup
        window = Rect(0, 0, 2500, 1200)
        assert pv_bands(model, m1, window, use_cache=True) == pv_bands(
            model, m1, window, use_cache=False
        )

    def test_pv_bands_over_process_grid_conditions(self, fastpath_setup):
        _, model, m1 = fastpath_setup
        window = Rect(0, 0, 2000, 1000)
        conditions = list(ProcessWindow().grid(n_dose=3, n_defocus=3))
        fast = pv_bands(model, m1, window, conditions=conditions, use_cache=True)
        slow = pv_bands(model, m1, window, conditions=conditions, use_cache=False)
        assert fast == slow


class TestScanFastPath:
    """scan_full_chip fast_path on vs off, serial, parallel, cached."""

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_fast_equals_legacy(self, fastpath_setup, jobs):
        tech, model, m1 = fastpath_setup
        limit = tech.metal_width // 2
        fast = scan_full_chip(
            model, m1, tile_nm=1200, pinch_limit=limit, jobs=jobs, fast_path=True
        )
        legacy = scan_full_chip(
            model, m1, tile_nm=1200, pinch_limit=limit, jobs=jobs, fast_path=False
        )
        assert fast.hotspots == legacy.hotspots
        assert fast.tiles == legacy.tiles

    @pytest.mark.parametrize("writer_fast", [True, False])
    def test_tile_caches_are_interchangeable(self, fastpath_setup, writer_fast):
        # satellite 1 regression: keys digest the *indexed local clip*,
        # which must equal the full-sweep clip's digest — so a cache
        # written by either engine replays warm under the other
        tech, model, m1 = fastpath_setup
        limit = tech.metal_width // 2
        cache = TileCache()
        first = scan_full_chip(
            model, m1, tile_nm=1200, pinch_limit=limit, cache=cache,
            fast_path=writer_fast,
        )
        second = scan_full_chip(
            model, m1, tile_nm=1200, pinch_limit=limit, cache=cache,
            fast_path=not writer_fast,
        )
        assert first.tiles_computed == first.tiles
        assert second.tiles_computed == 0
        assert second.cache_hit_rate == 1.0
        assert second.hotspots == first.hotspots

    def test_tile_key_stability(self, fastpath_setup):
        # the digest from the indexed local clip must equal the digest
        # from clipping the whole-chip region, tile by tile
        tech, model, m1 = fastpath_setup
        process = ProcessWindow()
        g = model.settings.grid_nm
        halo = max(model.halo_nm(c.defocus_nm) for c in process.corners())
        halo = -(-halo // g) * g
        limit = tech.metal_width // 2
        fast = _ScanPayload(
            model, _ScanGeometry(m1), None, process, limit, None, halo, True
        )
        legacy = _ScanPayload(model, m1, None, process, limit, None, halo, False)
        params = _scan_params(fast, limit, None)
        tiles = tile_grid(m1.bbox, 1200, 200)
        assert len(tiles) > 1
        for tile in tiles:
            assert _tile_key(fast, tile, params, halo) == _tile_key(
                legacy, tile, params, halo
            )

    def test_scan_geometry_survives_pickle(self, fastpath_setup):
        import pickle

        _, _, m1 = fastpath_setup
        geo = _ScanGeometry(m1)
        window = Rect(0, 0, 2000, 2000)
        before = sorted(r.as_tuple() for r in geo.near(window))
        clone = pickle.loads(pickle.dumps(geo))
        assert sorted(r.as_tuple() for r in clone.near(window)) == before
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
    return fast, _hotspots_at_condition_reference(printed, drawn, condition, limit)


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
