"""Tests for the verification service (repro.service).

Covers the queue (priority bands, per-client fairness, bounded depth),
the shared result store (namespacing, LRU, persistence), the wire
protocol, resident sessions, the service lifecycle (cancel, timeout,
shed, deterministic results vs. the one-shot API), the executor's
cancel seam, and a full socket round trip against an in-process
daemon.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import socket
import threading
import time

import pytest

from repro import api
from repro.gdsii import read_gds, write_gds
from repro.geometry import Rect
from repro.parallel import AbortRun, TileCache, TileExecutor
from repro.service import (
    BadRequestError,
    DaemonUnreachableError,
    Job,
    JobState,
    Priority,
    PriorityJobQueue,
    QueueFullError,
    ResultStore,
    ServiceClient,
    ServiceClosedError,
    ServiceDaemon,
    ServiceError,
    SessionManager,
    SocketClient,
    UnknownJobError,
    VerificationService,
    protocol,
)
from repro.service.session import resolve_layer


def _double(payload, item):
    return item * 2


@pytest.fixture(scope="module")
def gds_path(tmp_path_factory, small_block):
    path = tmp_path_factory.mktemp("service") / "block.gds"
    write_gds(small_block.layout, path)
    return str(path)


def _job(client="a", priority=Priority.INTERACTIVE, kind="scan"):
    return Job(client=client, kind=kind, params={}, priority=priority)


class TestPriorityJobQueue:
    def test_round_robin_across_clients_within_band(self):
        q = PriorityJobQueue()
        a1, a2, a3 = _job("a"), _job("a"), _job("a")
        b1 = _job("b")
        for job in (a1, a2, a3, b1):
            q.push(job)
        # client "a" cannot starve "b": rotation serves b's job second
        assert [q.pop(timeout=0) for _ in range(4)] == [a1, b1, a2, a3]
        assert q.pop(timeout=0) is None

    def test_strict_priority_bands(self):
        q = PriorityJobQueue()
        background = _job(priority=Priority.BACKGROUND)
        batch = _job(priority=Priority.BATCH)
        interactive = _job(priority=Priority.INTERACTIVE)
        for job in (background, batch, interactive):
            q.push(job)
        assert q.pop(timeout=0) is interactive
        assert q.pop(timeout=0) is batch
        assert q.pop(timeout=0) is background

    def test_bounded_depth_sheds(self):
        q = PriorityJobQueue(max_depth=2)
        q.push(_job())
        q.push(_job())
        with pytest.raises(QueueFullError):
            q.push(_job())
        assert len(q) == 2

    def test_remove_queued_job(self):
        q = PriorityJobQueue()
        job = _job()
        q.push(job)
        assert q.remove(job.id) is job
        assert q.remove(job.id) is None
        assert len(q) == 0

    def test_closed_queue_refuses_push_and_drains(self):
        q = PriorityJobQueue()
        job = _job()
        q.push(job)
        q.close()
        with pytest.raises(ServiceClosedError):
            q.push(_job())
        assert q.pop(timeout=0) is job  # already-queued work still drains
        assert q.pop(timeout=0) is None

    def test_snapshot_counts_per_band(self):
        q = PriorityJobQueue()
        q.push(_job(priority=Priority.BATCH))
        q.push(_job(priority=Priority.BATCH))
        q.push(_job(priority=Priority.INTERACTIVE))
        assert q.snapshot() == {"interactive": 1, "batch": 2, "background": 0}


class TestPriority:
    def test_from_name_accepts_str_int_enum(self):
        assert Priority.from_name("batch") is Priority.BATCH
        assert Priority.from_name(" Interactive ") is Priority.INTERACTIVE
        assert Priority.from_name(2) is Priority.BACKGROUND
        assert Priority.from_name(Priority.BATCH) is Priority.BATCH

    def test_unknown_priority_is_typed_error(self):
        with pytest.raises(BadRequestError):
            Priority.from_name("urgent")


class TestResultStore:
    def test_hit_miss_counters_and_namespacing(self):
        store = ResultStore()
        ns_a = store.namespace("scan", "1.0", 45)
        ns_b = store.namespace("scan", "1.0", 65)
        assert ns_a != ns_b
        assert store.get(ns_a, "k") is None
        store.put(ns_a, "k", {"v": 1})
        assert store.get(ns_a, "k") == {"v": 1}
        assert store.get(ns_b, "k") is None  # other namespace cannot collide
        assert (store.hits, store.misses) == (1, 2)
        assert store.hit_rate == pytest.approx(1 / 3)

    def test_lru_eviction(self):
        store = ResultStore(max_entries=2)
        store.put("ns", "a", 1)
        store.put("ns", "b", 2)
        assert store.get("ns", "a") == 1  # refresh: "b" is now oldest
        store.put("ns", "c", 3)
        assert store.get("ns", "b") is None
        assert store.get("ns", "a") == 1
        assert store.evictions == 1

    def test_view_is_a_tile_cache_over_the_shared_store(self):
        store = ResultStore()
        ns = store.namespace("drc", "1.0")
        view = store.view(ns)
        assert isinstance(view, TileCache)
        view.put("tile", "result")
        other_run = store.view(ns)
        assert other_run.get("tile") == "result"  # cross-run reuse
        assert (other_run.hits, other_run.misses) == (1, 0)
        assert store.view(store.namespace("drc", "2.0")).get("tile") is None

    def test_view_length_and_membership_cover_its_namespace(self):
        store = ResultStore()
        view = store.view(store.namespace("scan", "1.0", 45))
        view.put("tile", "result")
        assert len(view) == 1
        assert "tile" in view
        other = store.view(store.namespace("scan", "1.0", 65))
        assert len(other) == 0
        assert "tile" not in other

    def test_save_load_round_trip(self, tmp_path):
        store = ResultStore()
        store.put("ns", "k", [1, 2, 3])
        path = tmp_path / "store.pkl"
        store.save(path)
        loaded = ResultStore.load(path)
        assert loaded.get("ns", "k") == [1, 2, 3]

    def test_load_missing_or_corrupt_is_cold_start(self, tmp_path):
        assert len(ResultStore.load(tmp_path / "absent.pkl")) == 0
        corrupt = tmp_path / "corrupt.pkl"
        corrupt.write_bytes(b"not a pickle")
        assert len(ResultStore.load(corrupt)) == 0

    def test_load_rejects_format_mismatch(self, tmp_path):
        path = tmp_path / "old.pkl"
        with open(path, "wb") as fh:
            pickle.dump({"format": "resultstore-v0", "entries": {"a:b": 1}}, fh)
        loaded = ResultStore.load(path)
        assert len(loaded) == 0  # never serve entries from another format


class TestProtocol:
    def test_encode_decode_round_trip(self):
        line = protocol.encode({"op": "ping"})
        assert line.endswith(b"\n")
        message = protocol.decode(line)
        assert message["op"] == "ping"
        assert message["schema"] == protocol.SCHEMA

    def test_encode_does_not_mutate_caller_dict(self):
        # clients retain (and may resend or log) the message dict; the
        # schema stamp must land on a copy, not leak back into it
        message = {"op": "submit", "params": {"gds": "chip.gds"}}
        retained = dict(message)
        line = protocol.encode(message)
        assert message == retained
        assert protocol.decode(line)["schema"] == protocol.SCHEMA

    def test_error_codes_come_from_registry(self):
        # every typed exception's code is a registry constant, and the
        # registry enumerates exactly the codes the wire can carry
        from repro.service import errors
        from repro.service.client import DaemonUnreachableError

        assert ServiceError.code == errors.SERVICE_ERROR
        assert DaemonUnreachableError.code == errors.UNREACHABLE
        assert BadRequestError.code in errors.all_codes()
        assert len(set(errors.all_codes())) == len(errors.all_codes())

    def test_decode_rejects_bad_input(self):
        with pytest.raises(BadRequestError):
            protocol.decode(b"not json\n")
        with pytest.raises(BadRequestError):
            protocol.decode(b"[1,2]\n")
        with pytest.raises(BadRequestError):
            protocol.decode(b'{"schema": "other-v9", "op": "ping"}\n')
        with pytest.raises(BadRequestError):
            protocol.decode(b"x" * (protocol.MAX_LINE_BYTES + 1))


class TestSessions:
    def test_resolve_layer(self, tech45):
        assert resolve_layer(tech45, "M1").name == "M1"
        with pytest.raises(BadRequestError):
            resolve_layer(tech45, "M99")

    def test_session_reuse_and_stat_based_reload(self, gds_path):
        manager = SessionManager()
        first = manager.get(gds_path)
        assert manager.get(gds_path) is first  # warm: same resident session
        st = os.stat(gds_path)
        os.utime(gds_path, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000))
        reloaded = manager.get(gds_path)
        assert reloaded is not first  # edited file gets a fresh session
        manager.close()

    def test_lru_bound_evicts_oldest_session(self, gds_path, tmp_path, small_block):
        other = tmp_path / "other.gds"
        write_gds(small_block.layout, other)
        manager = SessionManager(max_sessions=1)
        first = manager.get(gds_path)
        manager.get(str(other))
        assert manager.get(gds_path) is not first  # was evicted, reloaded
        manager.close()

    def test_missing_file_is_typed_error(self):
        with pytest.raises(BadRequestError):
            SessionManager().get("/nonexistent/layout.gds")

    def test_unknown_cell_is_typed_error(self, gds_path):
        manager = SessionManager()
        session = manager.get(gds_path)
        with pytest.raises(BadRequestError):
            session.cell("NOPE")
        manager.close()


class TestServiceLifecycle:
    def test_scan_job_and_store_reuse_on_resubmit(self, gds_path):
        with VerificationService(jobs=1) as service:
            client = ServiceClient(service, client="alice")
            job = client.run("scan", {"gds": gds_path, "tile": 2000})
            assert job.state is JobState.DONE
            result = job.result
            assert result["tiles"] > 1
            assert result["tiles_cached"] == 0
            assert result["findings"] == len(job.report.hotspots)
            # a second client's identical request is served from the store
            again = ServiceClient(service, client="bob").run(
                "scan", {"gds": gds_path, "tile": 2000}
            )
            assert again.state is JobState.DONE
            assert again.result["tiles_cached"] == again.result["tiles"]
            assert again.result["findings"] == result["findings"]
            assert service.store.hits >= again.result["tiles"]

    def test_served_scan_is_bit_identical_to_oneshot_api(
        self, gds_path, tech45, small_block
    ):
        with VerificationService(jobs=1) as service:
            job = ServiceClient(service).run(
                "scan", {"gds": gds_path, "tile": 2000, "limit": 10_000}
            )
            assert job.state is JobState.DONE
            cell = small_block.layout.top_cell()
            region = cell.region(resolve_layer(tech45, "M1"))
            direct = api.scan_full_chip(
                tech45,
                region,
                tile_nm=2000,
                pinch_limit=tech45.metal_width // 2,
            )
            assert [str(h) for h in job.report.hotspots] == [
                str(h) for h in direct.hotspots
            ]
            assert job.result["listing"] == [str(h) for h in direct.hotspots]

    def test_drc_job_reuses_store_on_resubmit(self, gds_path):
        with VerificationService(jobs=1) as service:
            client = ServiceClient(service)
            first = client.run("drc", {"gds": gds_path, "tile": 2000})
            assert first.state is JobState.DONE
            second = client.run("drc", {"gds": gds_path, "tile": 2000})
            assert second.result["tiles_cached"] == second.result["tiles"]
            assert second.result["findings"] == first.result["findings"]

    def test_node_change_misses_the_store(self, gds_path):
        # the namespace digests engine version + node + deck signature,
        # so a different node can never hit another node's entries
        with VerificationService(jobs=1) as service:
            client = ServiceClient(service)
            client.run("scan", {"gds": gds_path, "tile": 2000})
            other = client.run("scan", {"gds": gds_path, "tile": 2000, "node": 65})
            assert other.state is JobState.DONE
            assert other.result["tiles_cached"] == 0

    def test_priority_orders_dispatch(self, gds_path):
        service = VerificationService(jobs=1, autostart=False)
        try:
            params = {"gds": gds_path, "tile": 2000}
            background = service.submit(
                "scan", params, priority="background", client="a"
            )
            batch = service.submit("scan", params, priority="batch", client="b")
            interactive = service.submit(
                "scan", params, priority="interactive", client="c"
            )
            service.start()
            for job in (background, batch, interactive):
                assert service.wait(job, timeout=120).state is JobState.DONE
            assert (
                interactive.started_monotonic
                < batch.started_monotonic
                < background.started_monotonic
            )
        finally:
            service.close()

    def test_cancel_while_queued(self, gds_path):
        service = VerificationService(jobs=1, autostart=False)
        try:
            job = service.submit("scan", {"gds": gds_path}, client="a")
            snapshot = service.cancel(job.id)
            assert snapshot["state"] == "cancelled"
            assert job.state is JobState.CANCELLED
            assert service.counters["cancelled"] == 1
        finally:
            service.close()

    def test_cancel_mid_run_aborts_at_tile_boundary(self, gds_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "tile:0:hang:0.6")
        with VerificationService(jobs=1) as service:
            job = service.submit("scan", {"gds": gds_path, "tile": 2000})
            deadline = time.monotonic() + 30
            while job.state is not JobState.RUNNING:
                assert time.monotonic() < deadline, "job never started"
                time.sleep(0.01)
            time.sleep(0.1)  # let it enter the hanging tile
            service.cancel(job.id)
            service.wait(job, timeout=30)
            assert job.state is JobState.CANCELLED
            assert "cancelled" in job.error

    def test_timeout_moves_job_to_timeout_state(self, gds_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "tile:0:hang:0.5")
        with VerificationService(jobs=1) as service:
            job = service.submit(
                "scan", {"gds": gds_path, "tile": 2000}, timeout_s=0.05
            )
            service.wait(job, timeout=30)
            assert job.state is JobState.TIMEOUT
            assert "timed out" in job.error
            assert service.counters["timeout"] == 1

    def test_shed_and_close_cancels_queued(self, gds_path):
        service = VerificationService(jobs=1, max_depth=1, autostart=False)
        queued = service.submit("scan", {"gds": gds_path}, client="a")
        with pytest.raises(QueueFullError):
            service.submit("scan", {"gds": gds_path}, client="b")
        assert service.counters["shed"] == 1
        service.close()
        assert queued.state is JobState.CANCELLED
        with pytest.raises(ServiceClosedError):
            service.submit("scan", {"gds": gds_path})

    def test_bad_requests_are_typed(self, gds_path):
        with VerificationService(jobs=1) as service:
            with pytest.raises(BadRequestError):
                service.submit("lint", {"gds": gds_path})
            with pytest.raises(UnknownJobError):
                service.job(10**9)
            # parameter problems surface on the job, not the dispatcher
            job = service.wait(service.submit("scan", {}), timeout=30)
            assert job.state is JobState.FAILED
            assert "bad-request" in job.error
            missing = service.wait(
                service.submit("scan", {"gds": "/nonexistent.gds"}), timeout=30
            )
            assert missing.state is JobState.FAILED

    @pytest.mark.parametrize(
        "params, field",
        [
            ({"limit": -1}, "limit"),
            ({"limit": -100}, "limit"),
            ({"limit": "x"}, "limit"),
            ({"tile": 0}, "tile"),
            ({"tile": "abc"}, "tile"),
            ({"chunk_timeout": "5"}, "chunk_timeout"),
            ({"chunk_timeout": 0}, "chunk_timeout"),
        ],
        ids=["limit-1", "limit-100", "limit-str", "tile0", "tile-str",
             "timeout-str", "timeout0"],
    )
    def test_bad_job_parameters_are_typed(self, gds_path, params, field):
        # a negative limit used to slice findings off the end of the
        # listing; the others failed the job with a bare ValueError or
        # TypeError
        with VerificationService(jobs=1) as service:
            job = service.wait(
                service.submit("scan", {"gds": gds_path, **params}), timeout=30
            )
        assert job.state is JobState.FAILED
        assert job.error.startswith("bad-request:")
        assert repr(field) in job.error

    def test_metrics_shape(self, gds_path):
        with VerificationService(jobs=1) as service:
            ServiceClient(service).run("scan", {"gds": gds_path, "tile": 2000})
            metrics = service.metrics()
            assert metrics["jobs"]["completed"] == 1
            assert metrics["queue"]["depth"] == 0
            assert metrics["store"]["misses"] > 0
            assert metrics["latency_ms"]["count"] == 1
            assert metrics["latency_ms"]["p50"] > 0


def _shm_segments() -> set[str] | None:
    """The ``psm_*`` shared-memory segments in ``/dev/shm``, or None on a
    host without it."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except FileNotFoundError:
        return None


class TestPooledService:
    """At jobs=2 the daemon calls the engines as the one-shot CLI does:
    the same listings, from a shared-memory arena each run packs for
    itself and unlinks when it ends."""

    def test_pooled_jobs_match_oneshot_and_leave_no_arena(
        self, gds_path, tech45, tmp_path
    ):
        layout = read_gds(gds_path)
        top = layout.top_cell()
        m1 = resolve_layer(tech45, "M1")
        # minimum-rule violators above the block: a 20 nm wide wire and
        # two wires 10 nm apart, so the DRC listing is not empty
        for rect in (
            Rect(1000, 2300, 1020, 2700),
            Rect(2000, 2300, 2070, 2700),
            Rect(2080, 2300, 2150, 2700),
        ):
            top.add_rect(m1, rect)
        path = tmp_path / "violators.gds"
        write_gds(layout, path)
        params = {"gds": str(path), "tile": 2000, "limit": 10_000}

        def run_and_check(service: VerificationService, kind: str) -> Job:
            before = _shm_segments()
            job = ServiceClient(service).run(kind, params)
            assert job.state is JobState.DONE, job.error
            assert job.result["tiles_computed"] > 0  # so the run was pooled
            if before is not None:
                assert _shm_segments() - before == set(), f"{kind} left its arena"
            return job

        with VerificationService(jobs=2) as service:
            scan = run_and_check(service, "scan")
            drc = run_and_check(service, "drc")
            first = read_gds(path).top_cell()
            # an edit reloads the session; its dirty tiles run pooled again
            top.add_rect(m1, Rect(4200, 2300, 4270, 2700))
            write_gds(layout, path)
            rescan = run_and_check(service, "scan")
            assert 0 < rescan.result["tiles_cached"] < rescan.result["tiles"]

        edited = read_gds(path).top_cell()
        for job, cell in ((scan, first), (rescan, edited)):
            direct = api.scan_full_chip(
                tech45,
                cell.region(m1),
                tile_nm=2000,
                pinch_limit=tech45.metal_width // 2,
                jobs=2,
            )
            assert direct.hotspots
            assert job.result["listing"] == [str(h) for h in direct.hotspots]
        direct_drc = api.run_drc(first, tech45.rules.minimum(), tile_nm=2000, jobs=2)
        assert len(direct_drc.violations) >= 2
        assert drc.result["listing"] == [str(v) for v in direct_drc.violations]

    def test_pooled_job_leaves_no_worker_alive(self, gds_path):
        # every pooled job forks its own workers and stops them before
        # the job returns: the daemon keeps no idle processes between jobs
        before = set(multiprocessing.active_children())
        with VerificationService(jobs=2) as service:
            for kind in ("scan", "drc"):
                job = ServiceClient(service).run(kind, {"gds": gds_path, "tile": 2000})
                assert job.state is JobState.DONE, job.error
                assert job.result["tiles_computed"] > 1  # so the run was pooled
                assert set(multiprocessing.active_children()) - before == set()


class TestPersistentExecutor:
    """The executor seam the service drives: a cancel event set before
    the run starts aborts it."""

    def test_preset_cancel_event_aborts_run(self):
        executor = TileExecutor(1)
        executor.cancel_event = threading.Event()
        executor.cancel_event.set()
        with pytest.raises(AbortRun):
            executor.run(_double, None, [1, 2, 3])


class TestDaemonSocket:
    def test_full_round_trip(self, gds_path, tmp_path):
        state_file = str(tmp_path / "svc.json")
        daemon = ServiceDaemon(
            VerificationService(jobs=1), state_file=state_file
        )
        thread = threading.Thread(target=daemon.serve_until_shutdown, daemon=True)
        thread.start()
        try:
            client = SocketClient.from_state_file(path=state_file)
            pong = client.ping()
            assert pong["pong"] and pong["version"]
            job = client.submit(
                "scan", {"gds": gds_path, "tile": 2000}, client="sock"
            )
            assert job["state"] == "done"
            assert job["result"]["tiles"] > 1
            assert client.status(job["id"])["state"] == "done"
            with pytest.raises(UnknownJobError):
                client.status(10**9)
            with pytest.raises(BadRequestError):
                client.request("frobnicate")
            with pytest.raises(BadRequestError):
                client.request("submit", kind="scan", params=[1, 2])
            metrics = client.metrics()
            assert metrics["jobs"]["completed"] == 1
            client.shutdown()
        finally:
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert not os.path.exists(state_file)  # clean shutdown removes it

    def test_unreachable_daemon_is_typed(self, tmp_path):
        with pytest.raises(DaemonUnreachableError):
            SocketClient.from_state_file(path=str(tmp_path / "absent.json"))
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(DaemonUnreachableError):
            SocketClient("127.0.0.1", port, timeout=2.0).ping()

    def test_error_codes_round_trip_as_exception_types(self):
        for exc_type in (
            ServiceError,
            QueueFullError,
            UnknownJobError,
            BadRequestError,
            ServiceClosedError,
        ):
            wire = protocol.error_response(exc_type("boom"))["error"]
            from repro.service.client import raise_for_error

            with pytest.raises(exc_type):
                raise_for_error(wire)


class TestMakeService:
    def test_api_make_service(self, gds_path):
        with api.make_service(jobs=1) as service:
            job = ServiceClient(service).run("scan", {"gds": gds_path, "tile": 2000})
            assert job.state is JobState.DONE
