"""The shared-memory arena (``repro.parallel.shm``) and the engines
that no longer use it.

The arena's own contract still holds: packing preserves rect lists and
order, handles reattach with plain ints, and hosts without shared
memory degrade to ``None`` with the ``pool.shm_fallback`` gauge.  The
engines hand their payload to fork workers as it is, so a pooled run
with or without ``REPRO_NO_SHM`` produces bit-identical results and
interchangeable tile-cache entries.
"""

from __future__ import annotations

import pickle

import pytest

from repro.designgen import LogicBlockSpec, generate_logic_block
from repro.geometry import Rect, Region
from repro.litho import LithoModel, scan_full_chip
from repro.obs import MetricsRegistry, names, set_registry
from repro.parallel import SharedPayload, ShmArena, ShmRects, TileCache
from repro.parallel import shm as shm_mod


@pytest.fixture
def registry():
    fresh = MetricsRegistry(enabled=True)
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


@pytest.fixture(scope="module")
def scan_setup(tech45, stdlib45):
    spec = LogicBlockSpec(rows=1, row_width_nm=5000, net_count=5, seed=11, weak_spots=4)
    block = generate_logic_block(tech45, spec, stdlib45)
    model = LithoModel(tech45.litho)
    m1 = block.top.region(tech45.layers.metal1)
    return tech45, model, m1


RECTS_A = [Rect(0, 0, 100, 50), Rect(0, 50, 40, 90), Rect(200, 0, 260, 30)]
RECTS_B = [Rect(-70, -20, -10, 5)]


class TestArenaAndHandles:
    def test_pack_preserves_lists_and_order(self):
        arena = ShmArena.pack([RECTS_A, [], RECTS_B])
        assert arena is not None
        try:
            assert [h.rects() for h in arena.handles] == [RECTS_A, [], RECTS_B]
        finally:
            arena.close()

    def test_unpickled_handle_reattaches_with_plain_ints(self):
        arena = ShmArena.pack([RECTS_A])
        assert arena is not None
        try:
            handle = arena.handles[0]
            wire = pickle.dumps(handle)
            # the wire form is the (name, offset, count) handle only —
            # far smaller than the pickled rect list itself
            assert len(wire) < len(pickle.dumps(RECTS_A))
            clone = pickle.loads(wire)
            assert clone._rects is None  # lazily materialized
            rebuilt = clone.rects()
            assert rebuilt == RECTS_A
            for r in rebuilt:
                assert type(r.x0) is int and type(r.y1) is int
        finally:
            arena.close()

    def test_shared_payload_pickles_as_inner(self):
        arena = ShmArena.pack([RECTS_A])
        assert arena is not None
        try:
            inner = {"geometry": arena.handles[0], "limit": 25}
            wrapped = pickle.loads(pickle.dumps(SharedPayload(inner, arena)))
            assert not isinstance(wrapped, SharedPayload)
            assert wrapped["limit"] == 25
            assert isinstance(wrapped["geometry"], ShmRects)
        finally:
            arena.close()

    def test_close_is_idempotent(self):
        arena = ShmArena.pack([RECTS_A])
        assert arena is not None
        arena.close()
        arena.close()  # second unlink of a gone segment must not raise

    def test_region_from_canonical_rects_roundtrip(self):
        region = Region([Rect(0, 0, 300, 100), Rect(0, 50, 100, 400), Rect(250, 80, 420, 130)])
        rebuilt = Region.from_canonical_rects(list(region.rects()))
        assert rebuilt == region
        assert rebuilt.digest() == region.digest()


class TestFallbacks:
    def test_int32_overflow_falls_back(self, registry):
        arena = ShmArena.pack([[Rect(0, 0, 2**40, 10)]])
        assert arena is None
        assert registry.gauge_value(names.POOL_SHM_FALLBACK) == 1

    def test_env_kill_switch_falls_back(self, registry, monkeypatch):
        monkeypatch.setenv(shm_mod.ENV_DISABLE, "1")
        assert not shm_mod.available()
        assert ShmArena.pack([RECTS_A]) is None
        assert registry.gauge_value(names.POOL_SHM_FALLBACK) == 1

    def test_missing_shared_memory_module_falls_back(self, registry, monkeypatch):
        monkeypatch.setattr(shm_mod, "_shared_memory", None)
        assert not shm_mod.available()
        assert ShmArena.pack([RECTS_A]) is None
        assert registry.gauge_value(names.POOL_SHM_FALLBACK) == 1

    def test_scan_without_shared_memory_matches_serial(
        self, scan_setup, registry, monkeypatch
    ):
        # a pooled scan on a host without shared memory stays
        # bit-identical; it never tries to pack, so nothing is gauged
        tech, model, m1 = scan_setup
        limit = tech.metal_width // 2
        serial = scan_full_chip(model, m1, tile_nm=1500, pinch_limit=limit, jobs=1)
        monkeypatch.setattr(shm_mod, "_shared_memory", None)
        pooled = scan_full_chip(model, m1, tile_nm=1500, pinch_limit=limit, jobs=2)
        assert pooled.hotspots == serial.hotspots
        assert pooled.tiles == serial.tiles
        assert registry.gauge_value(names.POOL_SHM_FALLBACK) is None


class TestScanEquivalence:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_shm_matches_pickled_payload(self, scan_setup, jobs, monkeypatch):
        tech, model, m1 = scan_setup
        limit = tech.metal_width // 2
        kwargs = dict(tile_nm=1500, pinch_limit=limit, jobs=jobs)
        with_shm = scan_full_chip(model, m1, **kwargs)
        monkeypatch.setenv(shm_mod.ENV_DISABLE, "1")
        pickled = scan_full_chip(model, m1, **kwargs)
        assert with_shm.hotspots == pickled.hotspots
        assert with_shm.tiles == pickled.tiles

    @pytest.mark.parametrize("writer_shm", [True, False])
    def test_tile_caches_are_interchangeable(
        self, scan_setup, writer_shm, monkeypatch
    ):
        # keys are computed parent-side from the same geometry either
        # way: a cache written by the shm engine replays warm under the
        # pickled engine and vice versa
        tech, model, m1 = scan_setup
        limit = tech.metal_width // 2
        kwargs = dict(tile_nm=1500, pinch_limit=limit, jobs=2)
        cache = TileCache()
        if not writer_shm:
            monkeypatch.setenv(shm_mod.ENV_DISABLE, "1")
        first = scan_full_chip(model, m1, cache=cache, **kwargs)
        if writer_shm:
            monkeypatch.setenv(shm_mod.ENV_DISABLE, "1")
        else:
            monkeypatch.delenv(shm_mod.ENV_DISABLE)
        second = scan_full_chip(model, m1, cache=cache, **kwargs)
        assert first.tiles_computed == first.tiles
        assert second.tiles_computed == 0
        assert second.cache_hit_rate == 1.0
        assert second.hotspots == first.hotspots


class TestDrcEquivalence:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_shm_matches_pickled_payload(self, small_block, tech45, jobs, monkeypatch):
        from repro.drc import run_drc

        deck = tech45.rules.minimum()
        with_shm = run_drc(small_block.top, deck, jobs=jobs, tile_nm=2500)
        monkeypatch.setenv(shm_mod.ENV_DISABLE, "1")
        pickled = run_drc(small_block.top, deck, jobs=jobs, tile_nm=2500)
        assert with_shm.violations == pickled.violations
        assert with_shm.tiles == pickled.tiles

    def test_tile_caches_are_interchangeable(self, small_block, tech45, monkeypatch):
        from repro.drc import run_drc

        deck = tech45.rules.minimum()
        cache = TileCache()
        first = run_drc(small_block.top, deck, jobs=2, tile_nm=2500, cache=cache)
        monkeypatch.setenv(shm_mod.ENV_DISABLE, "1")
        second = run_drc(small_block.top, deck, jobs=2, tile_nm=2500, cache=cache)
        assert first.tiles_computed == first.tiles
        assert second.tiles_computed == 0
        assert second.violations == first.violations
