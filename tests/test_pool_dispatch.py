"""Pooled dispatch: payload inheritance, the queued-ahead chunk, worker
death, and the daemon's pooled rescans of an in-RAM layout.

A pooled run hands its payload to the pool as it is (fork workers
inherit it), keeps one chunk queued ahead of each worker without
starting that chunk's timeout clock, and fails a chunk whose worker was
killed instead of waiting for it forever (``map`` raises for it).  A
daemon's pooled jobs fork their own workers, as one-shot runs do, and
list what direct scans list.
"""

from __future__ import annotations

import multiprocessing
import os
import signal

import pytest

from repro import api
from repro.drc import run_drc
from repro.gdsii import write_gds
from repro.litho import LithoModel, scan_full_chip
from repro.obs import MetricsRegistry, set_registry
from repro.parallel import FaultPlan, TileExecutor, WorkerFailure
from repro.parallel.shm import ShmArena
from repro.service import JobState, ServiceClient, VerificationService
from repro.service.session import resolve_layer


def _ident(payload, item):
    return item * 10


def _kill_worker_once(marker, item):
    """SIGKILL this worker the first time item 3 runs, as the OOM killer
    would; ``marker`` (the payload) records that it happened."""
    if item == 3 and not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return item * 10


def _run_with_killed_worker(marker, conn):
    out = TileExecutor(2, chunk_size=1).run(_kill_worker_once, marker, list(range(6)))
    conn.send((out.results, out.retries, [q.index for q in out.quarantined]))
    conn.close()


def _map_with_killed_worker(marker, conn):
    try:
        TileExecutor(2, chunk_size=1).map(_kill_worker_once, marker, list(range(6)))
    except WorkerFailure as exc:
        conn.send((exc.key, str(exc)))
    else:
        conn.send(None)
    conn.close()


def _fail_on_1_and_4(payload, item):
    if item == 1:
        raise KeyError(item)
    if item == 4:
        raise ValueError(item)
    return item


@pytest.fixture
def registry():
    fresh = MetricsRegistry(enabled=True)
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


class TestDispatch:
    def test_queued_ahead_chunk_is_not_timed_out_while_it_waits(self):
        # one worker: chunk 1 waits behind chunk 0 for 0.3 s, longer than
        # the 0.45 s timeout leaves after its own 0.3 s hang; a deadline
        # started at submission would kill it
        plan = FaultPlan.parse("tile:0:hang:0.3,tile:1:hang:0.3,tile:2:hang:0.3")
        out = TileExecutor(1, chunk_size=1).run(
            _ident, None, [0, 1, 2], fault_plan=plan, timeout=0.45, max_retries=0
        )
        assert out.timeouts == 0
        assert out.quarantined == []
        assert out.results == [0, 10, 20]

    @pytest.mark.skipif(
        os.name != "posix" or "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs SIGKILL and fork",
    )
    def test_killed_worker_fails_its_chunk_instead_of_hanging(self, tmp_path):
        # no timeout: only the liveness check can notice the lost chunk.
        # The run happens in a child so that a hang fails the test
        # instead of wedging the suite.
        ctx = multiprocessing.get_context("fork")
        receiver, sender = ctx.Pipe(duplex=False)
        child = ctx.Process(
            target=_run_with_killed_worker, args=(str(tmp_path / "killed"), sender)
        )
        child.start()
        sender.close()
        try:
            assert receiver.poll(60), "the run hung after its worker was killed"
            results, retries, quarantined = receiver.recv()
        finally:
            if child.is_alive():
                child.kill()
            child.join()
        assert (tmp_path / "killed").exists()  # the worker really was killed
        assert results == [i * 10 for i in range(6)]
        assert retries >= 1
        assert quarantined == []

    @pytest.mark.skipif(
        os.name != "posix" or "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs SIGKILL and fork",
    )
    def test_killed_worker_fails_map_instead_of_hanging(self, tmp_path):
        # map retries nothing: the dead worker's item raises WorkerFailure
        ctx = multiprocessing.get_context("fork")
        receiver, sender = ctx.Pipe(duplex=False)
        child = ctx.Process(
            target=_map_with_killed_worker, args=(str(tmp_path / "killed"), sender)
        )
        child.start()
        sender.close()
        try:
            assert receiver.poll(60), "map hung after its worker was killed"
            failure = receiver.recv()
        finally:
            if child.is_alive():
                child.kill()
            child.join()
        assert (tmp_path / "killed").exists()  # the worker really was killed
        assert failure is not None, "map returned although a worker died"
        key, message = failure
        assert key == 3
        assert "died mid-chunk" in message

    def test_map_raises_the_first_failure_in_submission_order(self):
        with pytest.raises(KeyError):
            TileExecutor(2, chunk_size=1).map(_fail_on_1_and_4, None, list(range(6)))


class TestNoArena:
    def test_pooled_scan_and_drc_never_pack_an_arena(
        self, small_block, tech45, monkeypatch
    ):
        def refuse(cls, rect_lists):
            raise AssertionError("ShmArena.pack was called")

        monkeypatch.setattr(ShmArena, "pack", classmethod(refuse))
        model = LithoModel(tech45.litho)
        m1 = small_block.top.region(tech45.layers.metal1)
        kwargs = dict(tile_nm=2000, pinch_limit=tech45.metal_width // 2)
        serial = scan_full_chip(model, m1, jobs=1, **kwargs)
        pooled = scan_full_chip(model, m1, jobs=2, **kwargs)
        assert pooled.tiles_computed == pooled.tiles > 1
        assert pooled.hotspots == serial.hotspots
        assert [str(h) for h in pooled.hotspots] == [str(h) for h in serial.hotspots]

        deck = tech45.rules.minimum()
        serial_drc = run_drc(small_block.top, deck, jobs=1, tile_nm=2500)
        pooled_drc = run_drc(small_block.top, deck, jobs=2, tile_nm=2500)
        assert pooled_drc.tiles_computed == pooled_drc.tiles > 1
        assert pooled_drc.violations == serial_drc.violations


class TestWarmReuse:
    def test_unchanged_in_ram_layout_reuses_the_warm_pool(
        self, small_block, tech45, tmp_path, registry
    ):
        # a rescan of the unchanged file at another tiling misses every
        # tile key and runs pooled again, with the registry enabled as
        # in a daemon writing a metrics manifest
        path = tmp_path / "block.gds"
        write_gds(small_block.layout, path)
        listings = {}
        with VerificationService(jobs=2) as service:
            for tile in (2000, 1500):
                job = ServiceClient(service).run(
                    "scan", {"gds": str(path), "tile": tile, "limit": 10_000}
                )
                assert job.state is JobState.DONE, job.error
                assert job.result["tiles_cached"] == 0
                assert job.result["tiles_computed"] == job.result["tiles"] > 1
                listings[tile] = job.result["listing"]

        m1 = small_block.top.region(resolve_layer(tech45, "M1"))
        for tile, listing in listings.items():
            direct = api.scan_full_chip(
                tech45, m1, tile_nm=tile, pinch_limit=tech45.metal_width // 2, jobs=2
            )
            assert direct.hotspots
            assert listing == [str(h) for h in direct.hotspots]
