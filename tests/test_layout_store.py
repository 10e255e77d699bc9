"""Out-of-core layout store: streaming ingest, mmapped windows, parity.

The tentpole contract: a scan or DRC fed rects from the mmapped
``layoutstore-v1`` file produces bit-identical reports and
interchangeable tile-cache entries vs. the in-RAM flatten, at
``jobs=1`` and ``jobs=4``; worker payloads shrink to store layers,
which pickle as ``(path, key, digest)`` handles; and service sessions
backed by a store directory survive restarts without re-parsing the
GDSII.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.designgen import LogicBlockSpec, generate_logic_block
from repro.gdsii import read_gds, scan_gds, write_gds
from repro.gdsii import records as rec
from repro.gdsii.records import GdsFormatError
from repro.geometry import Orientation, Point, Polygon, Rect, Region, Transform
from repro.geometry import hierarchy as hierarchy_mod
from repro.geometry import slabarrays
from repro.layout import Layer, Layout
from repro.layout import store as store_mod
from repro.layout.store import (
    LayoutStoreError,
    LayoutStoreVersionError,
    StoreLayer,
    ensure_store,
    ingest,
    open_store,
)
from repro.litho import LithoModel, scan_full_chip
from repro.obs import MetricsRegistry, names, sample_peak_rss, set_registry
from repro.parallel import AbortRun, FaultPlan, TileCache
from repro.parallel import shm as shm_mod
from tests import layout_reference


@pytest.fixture
def registry():
    fresh = MetricsRegistry(enabled=True)
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


@pytest.fixture(scope="module")
def store_setup(tmp_path_factory, tech45, stdlib45):
    """A routed block on disk as GDSII plus its ingested store."""
    spec = LogicBlockSpec(rows=1, row_width_nm=5000, net_count=5, seed=11, weak_spots=4)
    block = generate_logic_block(tech45, spec, stdlib45)
    d = tmp_path_factory.mktemp("store")
    gds = str(d / "block.gds")
    write_gds(block.layout, gds)
    view = ensure_store(gds, str(d / "block.lstore"))
    return block, gds, view


def _one_layer_layout(layer: Layer, rects: list[Rect]) -> Layout:
    layout = Layout()
    top = layout.new_cell("TOP")
    for rect in rects:
        top.add_rect(layer, rect)
    return layout


class TestStoreRoundTrip:
    def test_layers_match_in_ram_flatten(self, store_setup, tech45):
        block, _, view = store_setup
        for layer in (tech45.layers.metal1, tech45.layers.poly):
            ram = block.top.region(layer)
            stored = view.layer_for(layer)
            assert stored.rects() == list(ram.rects())
            assert stored.region() == ram
            assert stored.digest() == ram.digest()
            assert stored.bbox == ram.bbox

    def test_extent_is_top_cell_bbox(self, store_setup):
        block, _, view = store_setup
        assert view.extent == block.top.bbox

    def test_absent_layer_digest_matches_empty_region(self, store_setup):
        _, _, view = store_setup
        missing = view.layer(240, 0)
        assert missing.is_empty
        assert missing.digest() == Region().digest()
        assert missing.region() == Region()

    def test_window_matches_brute_force(self, store_setup, tech45):
        block, _, view = store_setup
        layer = tech45.layers.metal1
        region = block.top.region(layer)
        rects = list(region.rects())
        stored = view.layer_for(layer)
        bbox = view.extent
        windows = [
            Rect(bbox.x0, bbox.y0, (bbox.x0 + bbox.x1) // 2, (bbox.y0 + bbox.y1) // 2),
            Rect(bbox.x1 // 3, bbox.y0, bbox.x1 // 2, bbox.y1),
            Rect(bbox.x1 + 10, bbox.y1 + 10, bbox.x1 + 500, bbox.y1 + 500),
            bbox,
        ]
        for window in windows:
            expect = [r for r in rects if r.touches(window)]
            assert stored.window(window) == expect
            assert region.window(window) == expect

    def test_layer_pickles_as_a_handle(self, store_setup, tech45):
        _, _, view = store_setup
        layer = view.layer_for(tech45.layers.metal1)
        wire = pickle.dumps(layer)
        assert len(wire) < 200  # path, key and a few scalars, not geometry
        clone = pickle.loads(wire)
        assert isinstance(clone, StoreLayer)
        assert clone.rects() == layer.rects()
        assert clone.digest() == layer.digest()

    @pytest.mark.parametrize("edit", ["moved", "added"])
    def test_pickled_layer_refuses_a_reingested_store(self, tmp_path, tech45, edit):
        # a moved rect keeps the layer's offset and rect count; only its
        # content says the store was rewritten
        m1 = tech45.layers.metal1
        gds, path = str(tmp_path / "chip.gds"), str(tmp_path / "chip.lstore")
        rects = [Rect(0, 0, 100, 1000), Rect(300, 0, 400, 1000)]
        write_gds(_one_layer_layout(m1, rects), gds)
        wire = pickle.dumps(ingest(gds, path).layer_for(m1))
        if edit == "moved":
            rects = [rects[0], Rect(500, 0, 600, 1000)]
        else:
            rects = rects + [Rect(700, 0, 800, 1000)]
        write_gds(_one_layer_layout(m1, rects), gds)
        ingest(gds, path)
        with pytest.raises(LayoutStoreError, match="rewritten"):
            pickle.loads(wire).rects()


class TestStoreFile:
    def test_reuse_without_reingest(self, store_setup, registry, tmp_path):
        _, gds, _ = store_setup
        path = str(tmp_path / "reuse.lstore")
        ingest(gds, path)
        registry.reset()
        ensure_store(gds, path)
        assert registry.counter(names.LAYOUTSTORE_REUSED) == 1

    def test_stale_source_triggers_reingest(self, store_setup, registry, tmp_path):
        _, gds, _ = store_setup
        src = str(tmp_path / "copy.gds")
        with open(gds, "rb") as f:
            data = f.read()
        with open(src, "wb") as f:
            f.write(data)
        path = str(tmp_path / "stale.lstore")
        ensure_store(src, path)
        os.utime(src, ns=(1, 1))  # same bytes, different stat signature
        registry.reset()
        ensure_store(src, path)
        assert registry.counter(names.LAYOUTSTORE_INGESTS) == 1

    def test_version_sentinel_round_trip(self, store_setup, registry, tmp_path):
        """A future-versioned store is a typed version error, and
        ensure_store counts the mismatch and rebuilds in place."""
        _, gds, _ = store_setup
        path = str(tmp_path / "ver.lstore")
        before = ingest(gds, path)
        digests = {k: before.layer(*k).digest() for k in before.layer_keys}
        with open(path, "r+b") as f:
            f.write(b"layoutstore-v9\n\x00")
        with pytest.raises(LayoutStoreVersionError):
            open_store(path, refresh=True)
        registry.reset()
        after = ensure_store(gds, path)
        assert registry.counter(names.LAYOUTSTORE_VERSION_MISMATCH) == 1
        assert {k: after.layer(*k).digest() for k in after.layer_keys} == digests

    def test_not_a_store_is_an_error(self, tmp_path):
        path = str(tmp_path / "noise.lstore")
        with open(path, "wb") as f:
            f.write(b"\x00" * 256)
        with pytest.raises(LayoutStoreError):
            open_store(path, refresh=True)

    def test_truncated_store_is_an_error(self, store_setup, tmp_path):
        _, gds, _ = store_setup
        path = str(tmp_path / "trunc.lstore")
        ingest(gds, path)
        with open(path, "rb") as f:
            data = f.read()
        with open(path, "wb") as f:
            f.write(data[: len(data) - 64])
        with pytest.raises(LayoutStoreError):
            open_store(path, refresh=True)


class TestIngestFailures:
    def test_int32_overflow_is_an_error_and_writes_nothing(self, tmp_path):
        """Flattened geometry past 2**31 - 1 cannot be stored as int32:
        the typed error, and neither a store nor a temp file is left."""
        lib = Layout("BIG")
        layer = Layer(10, 0, "M1")
        child = lib.new_cell("CHILD")
        child.add_rect(layer, Rect(0, 0, 1000, 1000))
        top = lib.new_cell("TOP")
        top.add_rect(layer, Rect(0, 0, 1000, 1000))
        top.add_ref(child, Transform(2_147_483_000, 0))
        gds = tmp_path / "big.gds"
        write_gds(lib, gds)
        with pytest.raises(LayoutStoreError, match="int32"):
            ingest(gds, tmp_path / "big.lstore")
        assert sorted(os.listdir(tmp_path)) == ["big.gds"]

    def test_reference_cycle_is_a_format_error(self, tmp_path):
        """TOP -> A -> B -> A: the scan names the cycle, before any
        store file exists, instead of recursing the flatten."""

        def structure(name, children):
            out = [rec.rec_int2(rec.BGNSTR, [0] * 12), rec.rec_ascii(rec.STRNAME, name)]
            out.append(rec.rec_empty(rec.BOUNDARY))
            out.append(rec.rec_int2(rec.LAYER, [10]))
            out.append(rec.rec_int2(rec.DATATYPE, [0]))
            out.append(rec.rec_int4(rec.XY, [0, 0, 10, 0, 10, 10, 0, 10, 0, 0]))
            out.append(rec.rec_empty(rec.ENDEL))
            for child in children:
                out.append(rec.rec_empty(rec.SREF))
                out.append(rec.rec_ascii(rec.SNAME, child))
                out.append(rec.rec_int4(rec.XY, [20, 0]))
                out.append(rec.rec_empty(rec.ENDEL))
            out.append(rec.rec_empty(rec.ENDSTR))
            return out

        records = [
            rec.rec_int2(rec.HEADER, [600]),
            rec.rec_int2(rec.BGNLIB, [0] * 12),
            rec.rec_ascii(rec.LIBNAME, "CYCLE"),
            rec.rec_real8(rec.UNITS, [1e-3, 1e-9]),
            *structure("TOP", ["A"]),
            *structure("A", ["B"]),
            *structure("B", ["A"]),
            rec.rec_empty(rec.ENDLIB),
        ]
        gds = tmp_path / "cycle.gds"
        gds.write_bytes(b"".join(records))
        with pytest.raises(GdsFormatError, match="A -> B -> A"):
            scan_gds(gds)
        with pytest.raises(GdsFormatError, match="cycle"):
            ingest(gds, tmp_path / "cycle.lstore")
        assert sorted(os.listdir(tmp_path)) == ["cycle.gds"]

    def test_concurrent_ingests_of_one_path(self, store_setup, tmp_path, monkeypatch):
        """A second writer that finishes while the first is renaming
        must not take the first one's temp file away."""
        _, gds, _ = store_setup
        path = str(tmp_path / "shared.lstore")
        real_replace = os.replace
        nested: list = []

        def racing_replace(src, dst):
            if not nested:
                nested.append(None)
                nested[0] = ingest(gds, path)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", racing_replace)
        outer = ingest(gds, path)
        monkeypatch.undo()
        fresh = ingest(gds, str(tmp_path / "fresh.lstore"))
        expect = {k: fresh.layer(*k).digest() for k in fresh.layer_keys}
        for view in (nested[0], outer):
            assert {k: view.layer(*k).digest() for k in view.layer_keys} == expect
        assert sorted(os.listdir(tmp_path)) == ["fresh.lstore", "shared.lstore"]

    def test_failed_rename_leaves_no_temp_file(self, store_setup, tmp_path, monkeypatch):
        _, gds, _ = store_setup

        def failing_replace(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="rename refused"):
            ingest(gds, str(tmp_path / "x.lstore"))
        assert os.listdir(tmp_path) == []


_FUZZ_LAYERS = [Layer(10, 0, "M1"), Layer(12, 0, "M2")]
# a 5 nm grid and few sizes, so rects overlap, touch and abut often
_coord = st.integers(-8, 8).map(lambda v: 5 * v)
_side = st.sampled_from([5, 10, 20, 40])


@st.composite
def _shapes(draw, cell, min_count):
    for _ in range(draw(st.integers(min_count, 5))):
        layer = draw(st.sampled_from(_FUZZ_LAYERS))
        x, y, w, h = draw(_coord), draw(_coord), draw(_side), draw(_side)
        if draw(st.booleans()):
            cell.add_rect(layer, Rect(x, y, x + w, y + h))
        else:  # an L: non-rectangular, decomposed into slab rects
            corners = [(x, y), (x + 2 * w, y), (x + 2 * w, y + h), (x + w, y + h)]
            corners += [(x + w, y + 2 * h), (x, y + 2 * h)]
            cell.add_polygon(layer, Polygon([Point(px, py) for px, py in corners]))


@st.composite
def _refs(draw, parent, child, min_count):
    for _ in range(draw(st.integers(min_count, 3))):
        cols, rows = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        steps = st.sampled_from([5, 10, 20, 40, 60])
        parent.add_ref(
            child,
            Transform(4 * draw(_coord), 4 * draw(_coord), draw(st.sampled_from(list(Orientation)))),
            columns=cols,
            rows=rows,
            dx=draw(steps) if cols > 1 else 0,
            dy=draw(steps) if rows > 1 else 0,
        )


@st.composite
def _hierarchies(draw):
    """TOP -> MID -> LEAF, with LEAF also placed straight from TOP."""
    lib = Layout("FUZZ")
    leaf, mid, top = (lib.new_cell(name) for name in ("LEAF", "MID", "TOP"))
    draw(_shapes(leaf, 1))
    draw(_shapes(mid, 0))
    draw(_shapes(top, 0))
    draw(_refs(mid, leaf, 1))
    draw(_refs(top, mid, 1))
    draw(_refs(top, leaf, 0))
    return lib


class TestIngestSweep:
    """The NumPy ingest against ``Region``'s heap sweep over the per-rect
    Python walk (``tests/layout_reference.py``), with flatten chunks,
    spill runs, merge blocks and fan-in, piece groups and directory runs
    cut to single digits so every layer spills several runs, merges them
    in more than one pass and crosses many band seams."""

    @given(
        lib=_hierarchies(),
        sizes=st.tuples(*(st.integers(1, 9) for _ in range(5))),
        fan_in=st.integers(2, 9),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_in_ram_regions(self, tmp_path_factory, lib, sizes, fan_in):
        chunk, spill_at, merge_block, pieces_at, run_len = sizes
        d = tmp_path_factory.mktemp("sweep")
        gds = str(d / "f.gds")
        write_gds(lib, gds)
        with mock.patch.object(hierarchy_mod, "_CHUNK", chunk), mock.patch.object(
            slabarrays, "_PIECES_AT", pieces_at
        ), mock.patch.multiple(
            store_mod,
            _SPILL_AT=spill_at,
            _MERGE_BLOCK=merge_block,
            _FAN_IN=fan_in,
            _RUN_LEN=run_len,
        ):
            view = ingest(gds, str(d / "f.lstore"))
        top = read_gds(gds).cell("TOP")
        for layer in _FUZZ_LAYERS:
            ram = layout_reference.region(top, layer)
            stored = view.layer_for(layer)
            rects = list(ram.rects())
            assert stored.rects() == rects
            assert stored.digest() == ram.digest()
            assert stored.bbox == ram.bbox
            runs = stored.entry["runs"] if stored.entry else []
            chunks = [rects[i : i + run_len] for i in range(0, len(rects), run_len)]
            assert runs == [
                [min(r.y0 for r in chunk), max(r.y1 for r in chunk)] for chunk in chunks
            ]


class TestScanEquivalence:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_store_matches_in_ram(self, store_setup, tech45, jobs):
        block, _, view = store_setup
        model = LithoModel(tech45.litho)
        layer = tech45.layers.metal1
        limit = tech45.metal_width // 2
        kwargs = dict(tile_nm=1500, pinch_limit=limit, jobs=jobs)
        ram = scan_full_chip(model, block.top.region(layer), **kwargs)
        stored = scan_full_chip(model, view.layer_for(layer), **kwargs)
        assert stored.hotspots == ram.hotspots
        assert stored.tiles == ram.tiles

    @pytest.mark.parametrize("writer_store", [True, False])
    def test_tile_caches_are_interchangeable(self, store_setup, tech45, writer_store):
        block, _, view = store_setup
        model = LithoModel(tech45.litho)
        layer = tech45.layers.metal1
        limit = tech45.metal_width // 2
        kwargs = dict(tile_nm=1500, pinch_limit=limit, jobs=2)
        sources = [view.layer_for(layer), block.top.region(layer)]
        if not writer_store:
            sources.reverse()
        cache = TileCache()
        first = scan_full_chip(model, sources[0], cache=cache, **kwargs)
        second = scan_full_chip(model, sources[1], cache=cache, **kwargs)
        assert first.tiles_computed == first.tiles
        assert second.tiles_computed == 0
        assert second.cache_hit_rate == 1.0
        assert second.hotspots == first.hotspots

    def test_absent_layer_scans_like_an_empty_region(self, store_setup, tech45):
        _, _, view = store_setup
        model = LithoModel(tech45.litho)
        absent = view.layer(240, 0)
        assert absent.is_empty
        m1 = view.layer_for(tech45.layers.metal1)
        kwargs = dict(
            extent=Rect(0, 0, 4000, 4000), tile_nm=2000, pinch_limit=tech45.metal_width // 2
        )
        for drawn, mask, drawn_ram, mask_ram in (
            (absent, None, Region(), None),
            (m1, absent, m1.region(), Region()),
        ):
            cache = TileCache()
            stored = scan_full_chip(model, drawn, mask=mask, cache=cache, jobs=2, **kwargs)
            ram = scan_full_chip(model, drawn_ram, mask=mask_ram, cache=cache, **kwargs)
            assert stored.tiles == stored.tiles_computed == 4
            assert ram.tiles_cached == ram.tiles  # one cache serves both paths
            assert stored.hotspots == ram.hotspots

    @pytest.mark.parametrize("writer_store", [False, True])
    def test_checkpoints_are_interchangeable(self, store_setup, tech45, tmp_path, writer_store):
        block, _, view = store_setup
        model = LithoModel(tech45.litho)
        layer = tech45.layers.metal1
        kwargs = dict(tile_nm=1500, pinch_limit=tech45.metal_width // 2)
        sources = [block.top.region(layer), view.layer_for(layer)]
        if writer_store:
            sources.reverse()
        baseline = scan_full_chip(model, sources[0], **kwargs)
        ckpt = str(tmp_path / "scan.ckpt")
        with pytest.raises(AbortRun):
            scan_full_chip(
                model, sources[0], fault_plan=FaultPlan.parse("tile:3:abort"),
                checkpoint_file=ckpt, **kwargs,
            )
        resumed = scan_full_chip(model, sources[1], checkpoint_file=ckpt, resume=True, **kwargs)
        assert resumed.tiles_resumed == 3
        assert resumed.tiles_computed == resumed.tiles - 3
        assert resumed.hotspots == baseline.hotspots

    def test_store_payload_is_tiny(self, store_setup, tech45, registry, monkeypatch):
        block, _, view = store_setup
        model = LithoModel(tech45.litho)
        layer = tech45.layers.metal1
        limit = tech45.metal_width // 2
        kwargs = dict(tile_nm=1500, pinch_limit=limit, jobs=2)
        scan_full_chip(model, view.layer_for(layer), **kwargs)
        store_bytes = registry.gauge_value(names.POOL_PAYLOAD_BYTES)
        registry.reset()
        monkeypatch.setenv(shm_mod.ENV_DISABLE, "1")
        scan_full_chip(model, block.top.region(layer), **kwargs)
        pickled_bytes = registry.gauge_value(names.POOL_PAYLOAD_BYTES)
        assert store_bytes is not None and pickled_bytes is not None
        # the whole wire payload is a handle and scan params, not rects
        assert store_bytes < 2048
        assert store_bytes < pickled_bytes


class TestDrcEquivalence:
    @pytest.fixture(scope="class")
    def drc_setup(self, tmp_path_factory, small_block, tech45):
        d = tmp_path_factory.mktemp("drcstore")
        gds = str(d / "block.gds")
        write_gds(small_block.layout, gds)
        view = ensure_store(gds, str(d / "block.lstore"))
        return small_block, tech45.rules.minimum(), view

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_store_matches_in_ram(self, drc_setup, jobs):
        from repro.drc import run_drc

        block, deck, view = drc_setup
        ram = run_drc(block.top, deck, jobs=jobs, tile_nm=2500)
        stored = run_drc(None, deck, jobs=jobs, tile_nm=2500, store=view)
        assert stored.violations == ram.violations
        assert stored.tiles == ram.tiles
        assert stored.cell_name == ram.cell_name

    def test_single_pass_matches_in_ram(self, drc_setup):
        from repro.drc import run_drc

        block, deck, view = drc_setup
        ram = run_drc(block.top, deck)
        stored = run_drc(None, deck, store=view)
        assert stored.violations == ram.violations

    def test_windowed_matches_in_ram(self, drc_setup):
        from repro.drc import run_drc

        block, deck, view = drc_setup
        bbox = block.top.bbox
        window = Rect(bbox.x0, bbox.y0, (bbox.x0 + bbox.x1) // 2, bbox.y1)
        ram = run_drc(block.top, deck, window)
        stored = run_drc(None, deck, window, store=view)
        assert stored.violations == ram.violations

    def test_tile_caches_are_interchangeable(self, drc_setup):
        from repro.drc import run_drc

        block, deck, view = drc_setup
        cache = TileCache()
        first = run_drc(block.top, deck, jobs=2, tile_nm=2500, cache=cache)
        second = run_drc(None, deck, jobs=2, tile_nm=2500, cache=cache, store=view)
        assert first.tiles_computed == first.tiles
        assert second.tiles_computed == 0
        assert second.violations == first.violations

    @pytest.mark.parametrize("writer_store", [False, True])
    def test_checkpoints_are_interchangeable(self, drc_setup, tmp_path, writer_store):
        from repro.drc import run_drc

        block, deck, view = drc_setup
        sources = [{"cell": block.top}, {"cell": None, "store": view}]
        if writer_store:
            sources.reverse()
        baseline = run_drc(deck=deck, tile_nm=2500, **sources[0])
        ckpt = str(tmp_path / "drc.ckpt")
        with pytest.raises(AbortRun):
            run_drc(
                deck=deck, tile_nm=2500, fault_plan=FaultPlan.parse("tile:3:abort"),
                checkpoint_file=ckpt, **sources[0],
            )
        resumed = run_drc(
            deck=deck, tile_nm=2500, checkpoint_file=ckpt, resume=True, **sources[1]
        )
        assert resumed.tiles_resumed == 3
        assert resumed.tiles_computed == resumed.tiles - 3
        assert resumed.violations == baseline.violations

    def test_cell_and_store_both_missing_is_an_error(self, drc_setup):
        from repro.drc import run_drc

        _, deck, _ = drc_setup
        with pytest.raises(ValueError):
            run_drc(None, deck)


class TestServiceSessions:
    def _run(self, service, kind, gds):
        from repro.service.jobs import JobState

        params = {"gds": gds}
        if kind == "scan":
            params["layer"] = "M1"
        job = service.wait(service.submit(kind, params), timeout=120)
        assert job.state is JobState.DONE
        return job.result

    @pytest.mark.parametrize("kind", ["scan", "drc"])
    def test_store_backed_session_matches_in_ram(
        self, store_setup, tmp_path, kind
    ):
        from repro.service import VerificationService

        _, gds, _ = store_setup
        with VerificationService(jobs=1) as plain:
            expect = self._run(plain, kind, gds)
        with VerificationService(
            jobs=1, session_store_dir=str(tmp_path / "stores")
        ) as backed:
            assert self._run(backed, kind, gds) == expect

    def test_reingested_store_is_not_scanned_by_warm_workers(self, tech45, tmp_path):
        # moving a line keeps every layer's rect count and file offset, so
        # the re-ingested layer pickles to the old handle but for its
        # digest; the rescan must list the moved line, not the old file
        from repro.service import ServiceClient, VerificationService

        m1 = tech45.layers.metal1
        gds = str(tmp_path / "chip.gds")
        corners = [Rect(0, 0, 6000, 10), Rect(5990, 5990, 6000, 6000)]
        line = tech45.metal_width // 3
        params = {"gds": gds, "tile": 2000, "limit": 100}
        listings = []
        with VerificationService(
            jobs=2, session_store_dir=str(tmp_path / "stores")
        ) as service:
            for x in (1000, 4000):
                write_gds(_one_layer_layout(m1, corners + [Rect(x, 1000, x + line, 3000)]), gds)
                job = ServiceClient(service).run("scan", params)
                assert job.result["tiles_computed"] > 0
                listings.append(job.result["listing"])
        direct = scan_full_chip(
            LithoModel(tech45.litho),
            read_gds(gds).top_cell().region(m1),
            tile_nm=2000,
            pinch_limit=tech45.metal_width // 2,
        )
        assert listings[0] != listings[1]
        assert listings[1] == [str(h) for h in direct.hotspots]

    def test_sessions_survive_restart(self, store_setup, registry, tmp_path):
        from repro.service import VerificationService

        _, gds, _ = store_setup
        store_dir = str(tmp_path / "stores")
        with VerificationService(jobs=1, session_store_dir=store_dir) as first:
            before = self._run(first, "drc", gds)
        registry.reset()
        # a fresh service (daemon restart) maps the same store file:
        # no GDSII parse, no re-ingest
        with VerificationService(jobs=1, session_store_dir=store_dir) as second:
            assert self._run(second, "drc", gds) == before
        assert registry.counter(names.LAYOUTSTORE_REUSED) == 1
        assert registry.counter(names.LAYOUTSTORE_INGESTS) == 0

    def test_unusable_store_falls_back_in_ram(self, store_setup, registry, tmp_path):
        from repro.service import VerificationService

        _, gds, _ = store_setup
        store_dir = tmp_path / "stores"
        store_dir.mkdir()
        name = hashlib.sha256(
            os.path.abspath(gds).encode("utf-8")
        ).hexdigest()[:16]
        # a directory where the store file should go: ingest cannot win
        (store_dir / f"{name}.lstore").mkdir()
        with VerificationService(jobs=1) as plain:
            expect = self._run(plain, "drc", gds)
        with VerificationService(jobs=1, session_store_dir=str(store_dir)) as svc:
            assert self._run(svc, "drc", gds) == expect
        assert registry.counter(names.LAYOUTSTORE_FALLBACK) == 1


class TestPeakRss:
    def test_sample_gauges_a_plausible_value(self, registry):
        peak = sample_peak_rss(registry)
        assert peak is not None and peak > 1 << 20  # a real process > 1 MiB
        assert registry.gauge_value(names.RUN_PEAK_RSS_BYTES) == peak
