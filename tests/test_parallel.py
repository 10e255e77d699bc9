"""The parallel + incremental verification engine.

Covers the tile decomposition and seam-ownership rules, the worker-pool
executor's determinism (parallel == serial, exactly), the content-hash
incremental cache, and the seam/edge regressions that motivated the
engine: the corner-drop bug in full-chip scan ownership.
"""

from __future__ import annotations

import logging
import os
import time

import pytest

from repro.designgen import LogicBlockSpec, generate_logic_block
from repro.drc import run_drc
from repro.geometry import Rect, Region
from repro.litho import LithoModel, scan_full_chip
from repro.litho.hotspots import Hotspot, HotspotKind
from repro.litho.process import ProcessCondition
from repro.parallel import ResultStore, TileCache, TileExecutor, tile_grid
from repro.parallel.cache import digest_parts


def _double(payload, item):
    return payload * item


def _placement(payload, item):
    time.sleep(0.02)  # long enough that every worker takes some items
    return os.getpid(), tuple(sorted(os.sched_getaffinity(0)))


class TestTileGrid:
    def test_cores_partition_extent(self):
        extent = Rect(-100, -50, 4100, 3050)  # not a multiple of the tile
        tiles = tile_grid(extent, 1000, overlap_nm=200)
        assert sum(t.core.area for t in tiles) == extent.area
        union = Region([t.core for t in tiles])
        assert union == Region(extent)

    def test_windows_clamped_to_extent(self):
        extent = Rect(0, 0, 3000, 3000)
        for t in tile_grid(extent, 1000, overlap_nm=250):
            assert t.window.x0 >= extent.x0 and t.window.y0 >= extent.y0
            assert t.window.x1 <= extent.x1 and t.window.y1 <= extent.y1
            assert t.window.x0 <= t.core.x0 and t.window.x1 >= t.core.x1

    def test_deterministic_row_major_order(self):
        tiles = tile_grid(Rect(0, 0, 3000, 2000), 1000)
        assert [t.index for t in tiles] == list(range(6))
        assert tiles[0].core == Rect(0, 0, 1000, 1000)
        assert tiles[1].core == Rect(1000, 0, 2000, 1000)
        assert tiles[3].core == Rect(0, 1000, 1000, 2000)

    def test_every_point_has_exactly_one_owner(self):
        extent = Rect(0, 0, 2500, 2500)
        tiles = tile_grid(extent, 1000, overlap_nm=100)
        # seam points, interior points, and the full outer boundary
        probes = [(x, y) for x in (0, 500, 1000, 1999, 2000, 2500)
                  for y in (0, 500, 1000, 1999, 2000, 2500)]
        for x, y in probes:
            owners = [t.index for t in tiles if t.owns(x, y)]
            assert len(owners) == 1, f"point ({x}, {y}) owned by {owners}"

    def test_extreme_corner_owned(self):
        # regression: a marker centred exactly at (extent.x1, extent.y1)
        # used to fail all ownership conditions and was silently dropped
        extent = Rect(0, 0, 3000, 2000)
        tiles = tile_grid(extent, 1000)
        assert sum(t.owns(extent.x1, extent.y1) for t in tiles) == 1


class TestCornerDropRegression:
    def test_hotspot_at_exact_top_right_corner_is_reported(self, monkeypatch):
        """A hotspot centred exactly at (extent.x1, extent.y1) must survive
        the seam-ownership filter (it used to be dropped)."""
        extent = Rect(0, 0, 2000, 2000)
        corner = Hotspot(
            HotspotKind.PINCH,
            Rect(extent.x1, extent.y1, extent.x1, extent.y1),
            severity=100.0,
            condition=ProcessCondition(),
        )

        def fake_find_hotspots(model, drawn, window, **kwargs):
            if window.x1 == extent.x1 and window.y1 == extent.y1:
                return [corner]
            return []

        import repro.litho.fullchip as fullchip

        monkeypatch.setattr(fullchip, "find_hotspots", fake_find_hotspots)
        drawn = Region(Rect(0, 0, 2000, 2000))
        report = scan_full_chip(LithoModel(), drawn, extent, tile_nm=1000)
        assert report.tiles == 4
        assert len(report.hotspots) == 1
        assert report.hotspots[0].marker.center.x == extent.x1
        assert report.hotspots[0].marker.center.y == extent.y1


class TestTileExecutor:
    def test_serial_inline(self):
        assert TileExecutor(jobs=1).map(_double, 10, [1, 2, 3]) == [10, 20, 30]

    def test_parallel_preserves_order(self):
        items = list(range(40))
        out = TileExecutor(jobs=4, chunk_size=3).map(_double, 2, items)
        assert out == [2 * i for i in items]

    def test_zero_jobs_resolves_to_cpu_count(self):
        assert TileExecutor(jobs=0).jobs >= 1

    @pytest.mark.skipif(
        not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="needs sched_setaffinity and at least two usable CPUs",
    )
    def test_workers_pinned_to_distinct_cpus(self):
        # each worker runs on one CPU and no two workers share one, so a
        # scheduler that never spreads forked workers cannot stack them
        allowed = os.sched_getaffinity(0)
        jobs = min(len(allowed), 4)
        out = TileExecutor(jobs=jobs, chunk_size=1).map(_placement, None, range(8 * jobs))
        cpu_of = {}
        for pid, cpus in out:
            assert len(cpus) == 1 and cpus[0] in allowed
            cpu_of[pid] = cpus[0]
        assert len(set(cpu_of.values())) == len(cpu_of)
        assert os.sched_getaffinity(0) == allowed  # the parent stays unpinned


class TestRegionDigest:
    def test_construction_invariant(self):
        a = Region([Rect(0, 0, 100, 100), Rect(100, 0, 200, 100)])
        b = Region(Rect(0, 0, 200, 100))
        assert a == b
        assert a.digest() == b.digest()

    def test_distinguishes_content(self):
        a = Region(Rect(0, 0, 100, 100))
        b = Region(Rect(0, 0, 100, 101))
        assert a.digest() != b.digest()

    def test_digest_parts_stable(self):
        assert digest_parts("x", 1, (2, 3)) == digest_parts("x", 1, (2, 3))
        assert digest_parts("x", 1) != digest_parts("x", 2)


class TestTileCache:
    def test_hit_miss_counters(self):
        cache = TileCache()
        assert cache.get("k") is None
        cache.put("k", [1, 2])
        assert cache.get("k") == [1, 2]
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5

    def test_save_load_roundtrip(self, tmp_path):
        cache = TileCache()
        cache.put("k", [Rect(0, 0, 10, 10)])
        path = tmp_path / "cache.pkl"
        cache.save(path)
        loaded = TileCache.load(path)
        assert loaded.get("k") == [Rect(0, 0, 10, 10)]

    def test_load_missing_file_is_empty(self, tmp_path):
        cache = TileCache.load(tmp_path / "nope.pkl")
        assert len(cache) == 0

    def test_load_corrupt_file_is_empty(self, tmp_path):
        path = tmp_path / "cache.pkl"
        path.write_bytes(b"garbage not a pickle\n")
        cache = TileCache.load(path)
        assert len(cache) == 0

    def test_load_preversioned_file_is_discarded(self, tmp_path):
        # caches written before the format sentinel pickled the entry
        # dict bare; loading one must yield a full recompute (empty
        # cache + counter), never stale-shaped hits
        import pickle

        from repro.obs import MetricsRegistry, names, set_registry

        path = tmp_path / "cache.pkl"
        with open(path, "wb") as fh:
            pickle.dump({"k": ["old-shaped-value"]}, fh)
        registry = MetricsRegistry(enabled=True)
        previous = set_registry(registry)
        try:
            cache = TileCache.load(path)
        finally:
            set_registry(previous)
        assert len(cache) == 0
        assert cache.get("k") is None
        assert (
            registry.snapshot()["counters"][names.TILECACHE_VERSION_MISMATCH]
            == 1
        )

    def test_load_future_version_is_discarded(self, tmp_path):
        import pickle

        path = tmp_path / "cache.pkl"
        with open(path, "wb") as fh:
            pickle.dump({"format": "tilecache-v999", "entries": {"k": [1]}}, fh)
        cache = TileCache.load(path)
        assert len(cache) == 0

    def test_current_format_roundtrips_entries_exactly(self, tmp_path):
        cache = TileCache()
        cache.put("a", [Rect(0, 0, 5, 5)])
        cache.put("b", [])
        path = tmp_path / "cache.pkl"
        cache.save(path)
        loaded = TileCache.load(path)
        assert len(loaded) == 2
        assert loaded.get("a") == [Rect(0, 0, 5, 5)]
        assert loaded.get("b") == []

    @pytest.mark.parametrize(
        "payload",
        [
            {"format": "tilecache-v1", "entries": {"k": [Rect(0, 0, 5, 5)]}},
            {"format": "resultstore-v1", "entries": {"ns:k": [Rect(0, 0, 5, 5)]}},
            {
                "schema": "repro-checkpoint-v1",
                "signature": "sig",
                "results": {3: ([Rect(0, 0, 5, 5)], 0.25)},
            },
        ],
        ids=["tilecache-v1", "resultstore-v1", "repro-checkpoint-v1"],
    )
    def test_parent_formats_load_empty_with_warning(self, tmp_path, caplog, payload):
        # the three per-kind formats the one store replaced have other
        # entry shapes: each is discarded whole, never half-read
        import pickle

        from repro.obs import MetricsRegistry, names, set_registry

        path = tmp_path / "old.pkl"
        with open(path, "wb") as fh:
            pickle.dump(payload, fh)
        registry = MetricsRegistry(enabled=True)
        previous = set_registry(registry)
        try:
            with caplog.at_level(logging.WARNING, logger="repro.parallel"):
                store = ResultStore.load(path, max_entries=None)
        finally:
            set_registry(previous)
        assert len(store) == 0
        assert "discarding result file" in caplog.text
        assert registry.counter(names.TILECACHE_VERSION_MISMATCH) == 1


@pytest.fixture(scope="module")
def scan_setup(tech45, stdlib45):
    spec = LogicBlockSpec(rows=1, row_width_nm=4000, net_count=4, seed=3, weak_spots=3)
    block = generate_logic_block(tech45, spec, stdlib45)
    model = LithoModel(tech45.litho)
    m1 = block.top.region(tech45.layers.metal1)
    return tech45, block, model, m1


class TestParallelScan:
    @pytest.mark.parametrize("seed", [3, 19])
    def test_parallel_equals_serial_on_random_blocks(self, tech45, stdlib45, seed):
        """Property: for randomized designgen blocks, jobs=4 and jobs=1
        scans return identical hotspot populations."""
        spec = LogicBlockSpec(
            rows=1, row_width_nm=3500, net_count=4, seed=seed, weak_spots=2
        )
        block = generate_logic_block(tech45, spec, stdlib45)
        model = LithoModel(tech45.litho)
        m1 = block.top.region(tech45.layers.metal1)
        limit = tech45.metal_width // 2
        serial = scan_full_chip(model, m1, tile_nm=1200, pinch_limit=limit, jobs=1)
        parallel = scan_full_chip(model, m1, tile_nm=1200, pinch_limit=limit, jobs=4)
        assert serial.hotspots == parallel.hotspots
        assert serial.tiles == parallel.tiles

    def test_incremental_rescan_hits_every_tile(self, scan_setup):
        tech, block, model, m1 = scan_setup
        limit = tech.metal_width // 2
        cache = TileCache()
        first = scan_full_chip(model, m1, tile_nm=1200, pinch_limit=limit, cache=cache)
        second = scan_full_chip(model, m1, tile_nm=1200, pinch_limit=limit, cache=cache)
        assert first.tiles_computed == first.tiles
        assert second.tiles_computed == 0
        assert second.tiles_cached == second.tiles
        assert second.cache_hit_rate == 1.0
        assert second.hotspots == first.hotspots
        assert "hit rate" in second.summary()

    def test_local_edit_dirties_only_nearby_tiles(self, scan_setup):
        tech, block, model, m1 = scan_setup
        limit = tech.metal_width // 2
        extent = m1.bbox
        cache = TileCache()
        scan_full_chip(model, m1, extent, tile_nm=1200, pinch_limit=limit, cache=cache)
        # a local edit: new geometry in an empty spot near one corner
        patch = None
        for x in range(extent.x0, extent.x1 - 200, 100):
            candidate = Rect(x, extent.y0, x + 200, extent.y0 + 80)
            if (m1 & Region(candidate)).is_empty:
                patch = candidate
                break
        assert patch is not None, "no empty corner spot found"
        edited = m1 | Region(patch)
        assert edited != m1
        rescan = scan_full_chip(
            model, edited, extent, tile_nm=1200, pinch_limit=limit, cache=cache
        )
        assert 0 < rescan.tiles_computed < rescan.tiles
        fresh = scan_full_chip(model, edited, extent, tile_nm=1200, pinch_limit=limit)
        assert rescan.hotspots == fresh.hotspots


class TestParallelDrc:
    def test_parallel_equals_serial(self, small_block, tech45):
        deck = tech45.rules.minimum()
        serial = run_drc(small_block.top, deck, jobs=1, tile_nm=2500)
        parallel = run_drc(small_block.top, deck, jobs=4, tile_nm=2500)
        assert serial.violations == parallel.violations
        assert serial.tiles == parallel.tiles

    def test_tiled_agrees_with_single_pass_on_clean_block(self, small_block, tech45):
        deck = tech45.rules.minimum()
        flat = run_drc(small_block.top, deck)
        tiled = run_drc(small_block.top, deck, jobs=2, tile_nm=2500)
        assert flat.ok == tiled.ok

    def test_incremental_rerun_hits_every_task(self, small_block, tech45):
        deck = tech45.rules.minimum()
        cache = TileCache()
        first = run_drc(small_block.top, deck, tile_nm=2500, cache=cache)
        second = run_drc(small_block.top, deck, tile_nm=2500, cache=cache)
        assert second.tiles_computed == 0
        assert second.cache_hit_rate == 1.0
        assert second.violations == first.violations

    def test_tiled_finds_real_violations(self, tech45):
        from repro.layout import Layout

        lib = Layout("BAD")
        cell = lib.new_cell("TOP")
        cell.add_rect(tech45.layers.metal1, Rect(0, 0, 1000, 20))  # too narrow
        deck = tech45.rules.minimum()
        flat = run_drc(cell, deck)
        tiled = run_drc(cell, deck, jobs=2, tile_nm=600)
        assert not flat.ok
        assert not tiled.ok
        flat_rules = {v.rule.name for v in flat}
        tiled_rules = {v.rule.name for v in tiled}
        assert flat_rules == tiled_rules
