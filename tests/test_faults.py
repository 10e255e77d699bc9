"""Fault-tolerant tile execution: injection, retry, quarantine,
timeouts, and checkpoint/resume.

The matrix the tentpole promises: a transient failure is retried and
recovered, a permanent failure is quarantined (bisected down to the
poison tile) without killing the run, a hung chunk is killed by the
timeout, and an interrupted run resumes from its checkpoint with
byte-identical results — each at ``jobs=1`` and ``jobs=4``.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.designgen import LogicBlockSpec, generate_logic_block
from repro.geometry import Rect, Region
from repro.litho import LithoModel, scan_full_chip
from repro.obs import MetricsRegistry, set_registry
from repro.parallel import (
    AbortRun,
    FaultPlan,
    FaultRule,
    InjectedFault,
    TileCache,
    TileExecutor,
)
from repro.parallel.cache import open_checkpoint
from repro.parallel.faults import ENV_VAR


def _ident(payload, item):
    return item * 10


def _boom(payload, item):
    raise ValueError(f"boom on {item}")


def _boom_on_3(payload, item):
    if item == 3:
        raise ValueError("boom on 3")
    return item * 10


class TestFaultPlanGrammar:
    def test_parse_fail_with_count(self):
        plan = FaultPlan.parse("tile:17:fail:2")
        assert plan.rules == (FaultRule("tile", 17, "fail", 2.0),)

    def test_parse_multiple_entries(self):
        plan = FaultPlan.parse("tile:5:fail:1, chunk:3:hang:0.5 ,tile:40:fail")
        assert len(plan.rules) == 3
        assert plan.rules[1] == FaultRule("chunk", 3, "hang", 0.5)
        assert plan.rules[2].arg == float("inf")  # omitted count = forever

    def test_parse_forever_keyword(self):
        plan = FaultPlan.parse("tile:1:fail:forever")
        assert plan.rules[0].arg == float("inf")

    def test_parse_abort(self):
        plan = FaultPlan.parse("tile:9:abort")
        assert plan.rules[0].action == "abort"

    @pytest.mark.parametrize(
        "bad", ["tile:x:fail", "nope:1:fail", "tile:1:explode", "tile:1", "tile:1:fail:x"]
    )
    def test_parse_rejects_bad_entries(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    def test_from_env(self):
        assert FaultPlan.from_env({}) is None
        assert FaultPlan.from_env({ENV_VAR: "  "}) is None
        plan = FaultPlan.from_env({ENV_VAR: "tile:2:fail:1"})
        assert plan == FaultPlan.parse("tile:2:fail:1")

    def test_fail_n_fires_then_clears(self):
        plan = FaultPlan.parse("tile:17:fail:2")
        for attempt in (0, 1):
            with pytest.raises(InjectedFault):
                plan.fire("tile", 17, attempt)
        plan.fire("tile", 17, 2)  # raises twice then succeeds
        plan.fire("tile", 16, 0)  # other tiles untouched

    def test_plan_is_picklable(self):
        import pickle

        plan = FaultPlan.parse("tile:1:fail:1,chunk:2:hang:9")
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "ckpt.pkl"
        ckpt = open_checkpoint(path, "sig-a")
        ckpt.put(3, "three")
        ckpt.put(7, "seven")
        ckpt.flush()
        again = open_checkpoint(path, "sig-a")
        assert len(again) == 2
        assert again.get(3) == "three"
        assert 7 in again and 4 not in again

    def test_signature_mismatch_discards(self, tmp_path):
        path = tmp_path / "ckpt.pkl"
        ckpt = open_checkpoint(path, "sig-a")
        ckpt.put(1, "one")
        ckpt.flush()
        stale = open_checkpoint(path, "sig-B")
        assert len(stale) == 0

    def test_resume_false_starts_fresh(self, tmp_path):
        path = tmp_path / "ckpt.pkl"
        ckpt = open_checkpoint(path, "sig-a")
        ckpt.put(1, "one")
        ckpt.flush()
        fresh = open_checkpoint(path, "sig-a", resume=False)
        assert len(fresh) == 0

    def test_corrupt_file_starts_fresh(self, tmp_path):
        path = tmp_path / "ckpt.pkl"
        path.write_bytes(b"not a pickle")
        assert len(open_checkpoint(path, "sig-a")) == 0

    def test_clear_removes_file(self, tmp_path):
        path = tmp_path / "ckpt.pkl"
        ckpt = open_checkpoint(path, "sig-a")
        ckpt.put(1, "one")
        ckpt.flush()
        assert path.exists()
        ckpt.clear()
        assert not path.exists()
        assert len(ckpt) == 0


class TestExecutorFaultMatrix:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_retry_then_succeed(self, jobs):
        plan = FaultPlan.parse("tile:2:fail:1")
        out = TileExecutor(jobs).run(_ident, None, list(range(8)), fault_plan=plan)
        assert out.results == [i * 10 for i in range(8)]
        assert out.quarantined == []
        assert out.retries >= 1

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_quarantine_after_exhaustion(self, jobs):
        plan = FaultPlan.parse("tile:5:fail")
        out = TileExecutor(jobs).run(
            _ident, None, list(range(8)), fault_plan=plan, max_retries=2
        )
        assert out.results[5] is None
        assert [r for i, r in enumerate(out.results) if i != 5] == [
            i * 10 for i in range(8) if i != 5
        ]
        assert len(out.quarantined) == 1
        q = out.quarantined[0]
        assert q.index == 5 and q.attempts == 3
        assert "InjectedFault" in q.error

    def test_bisection_isolates_poison_tile(self):
        # one chunk of 8; the chunk fails until bisection corners item 3
        out = TileExecutor(4, chunk_size=8).run(
            _boom_on_3, None, list(range(8)), max_retries=1
        )
        assert out.results[3] is None
        assert [r for i, r in enumerate(out.results) if i != 3] == [
            i * 10 for i in range(8) if i != 3
        ]
        assert [q.index for q in out.quarantined] == [3]
        assert out.bisections >= 1

    def test_non_injected_exception_quarantines_too(self):
        out = TileExecutor(1).run(_boom, None, [0], max_retries=1)
        assert out.results == [None]
        assert "ValueError" in out.quarantined[0].error

    def test_timeout_kills_hung_chunk(self):
        plan = FaultPlan.parse("chunk:0:hang:30")
        out = TileExecutor(2, chunk_size=1).run(
            _ident,
            None,
            list(range(4)),
            fault_plan=plan,
            timeout=0.4,
            max_retries=1,
        )
        # chunk 0 hangs on every execution: timed out, retried, timed
        # out again, quarantined; the innocent tiles all complete
        assert out.results[0] is None
        assert out.results[1:] == [10, 20, 30]
        assert out.timeouts >= 2
        assert [q.index for q in out.quarantined] == [0]
        assert "timeout" in out.quarantined[0].error

    def test_timeout_applies_serial_runs_via_pool(self):
        # jobs=1 + timeout still gets a (single-worker) pool, so a hung
        # tile cannot wedge the run
        plan = FaultPlan.parse("chunk:0:hang:30")
        out = TileExecutor(1, chunk_size=1).run(
            _ident, None, [7], fault_plan=plan, timeout=0.4, max_retries=0
        )
        assert out.results == [None]
        assert out.timeouts == 1

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_abort_flushes_checkpoint_then_resume_completes(self, tmp_path, jobs):
        path = tmp_path / "ckpt.pkl"
        plan = FaultPlan.parse("tile:6:abort")
        ckpt = open_checkpoint(path, "sig")
        with pytest.raises(AbortRun):
            TileExecutor(jobs).run(
                _ident, None, list(range(8)), fault_plan=plan, checkpoint=ckpt
            )
        flushed = open_checkpoint(path, "sig")
        done_before = frozenset(flushed)
        assert 0 < len(done_before) < 8  # partial progress survived the abort

        resumed = TileExecutor(jobs).run(
            _ident, None, list(range(8)), checkpoint=flushed
        )
        assert resumed.results == [i * 10 for i in range(8)]
        assert resumed.resumed_keys == done_before
        assert resumed.computed == 8 - len(done_before)

    def test_env_var_drives_injection(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "tile:1:fail")
        out = TileExecutor(1).run(_ident, None, [0, 1, 2], max_retries=0)
        assert [q.index for q in out.quarantined] == [1]

    def test_explicit_plan_overrides_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "tile:1:fail")
        out = TileExecutor(1).run(
            _ident, None, [0, 1, 2], fault_plan=FaultPlan(), max_retries=0
        )
        assert out.quarantined == []


class RecordingPlan(FaultPlan):
    """A FaultPlan that logs every fire() consultation to a file.

    Module-level so it pickles by reference into pool workers; the
    log file is append-mode (atomic for short lines), so records from
    every worker process land in one place.  The recorded
    ``scope:index:attempt`` stream *is* the deterministic-injection
    contract: it must not depend on jobs, timeouts, or requeues.
    """

    def __init__(self, rules=(), path: str = "") -> None:
        super().__init__(rules)
        self.path = path

    def fire(self, scope, index, attempt) -> None:
        with open(self.path, "a") as fh:
            fh.write(f"{scope}:{index}:{attempt}\n")
        super().fire(scope, index, attempt)


def _fires_for(path, scope, index):
    if not os.path.exists(path):
        return []
    out = []
    for line in open(path).read().splitlines():
        s, i, attempt = line.split(":")
        if s == scope and int(i) == index:
            out.append(int(attempt))
    return out


class TestTimeoutPathRegressions:
    """PR-6 satellite fixes: the hung-chunk deadline clock and the
    attempt ordinals of innocent chunks requeued by a timeout."""

    def test_hung_chunk_detected_promptly_with_fresh_clock(self):
        # regression for the stale-`now` deadline check: `now` was read
        # once per outer loop, before submission and result drains, so
        # detection could lag the real clock.  A 30 s hang against a
        # 0.4 s timeout must be killed in ~the timeout, never anywhere
        # near the hang duration.
        plan = FaultPlan.parse("chunk:0:hang:30")
        t0 = time.perf_counter()
        out = TileExecutor(2, chunk_size=1).run(
            _ident, None, list(range(6)), fault_plan=plan,
            timeout=0.4, max_retries=0,
        )
        elapsed = time.perf_counter() - t0
        assert out.results[0] is None
        assert out.results[1:] == [10, 20, 30, 40, 50]
        assert out.timeouts == 1
        assert [q.index for q in out.quarantined] == [0]
        assert elapsed < 15  # killed by the timeout, not the hang

    def test_innocent_requeue_preserves_fault_ordinals(self, tmp_path):
        """A chunk killed innocent by a sibling's timeout is requeued
        unpenalized — including its tiles' execution ordinals, which
        were bumped at submission.  Without the rollback, a
        ``tile:key:fail:n`` plan fires a different attempt sequence
        under jobs=2 than serially, breaking deterministic injection.

        Choreography (chunk_size=2 → c0=(0,1), c1=(2,3)): c0 hangs for
        30 s and times out at 0.5 s.  c1's tile 2 sleeps 0.3 s, tile 3
        fails its first execution — so c1 fails at ~0.3 s, retries, and
        is mid-sleep (0.3→0.6 s) when c0's timeout kills the pool at
        0.5 s.  c1 is requeued innocent; its third submission must
        re-run tile 3 at attempt 1 (as a serial run would), not drift
        to attempt 2.
        """
        rules = FaultPlan.parse(
            "chunk:0:hang:30,tile:2:hang:0.3,tile:3:fail:1"
        ).rules
        serial_log = str(tmp_path / "serial.log")
        serial = TileExecutor(1).run(
            _ident, None, list(range(4)),
            fault_plan=RecordingPlan(rules, serial_log),
            backoff_s=0.0,
        )
        assert serial.results == [0, 10, 20, 30]

        pooled_log = str(tmp_path / "pooled.log")
        pooled = TileExecutor(2, chunk_size=2).run(
            _ident, None, list(range(4)),
            fault_plan=RecordingPlan(rules, pooled_log),
            timeout=0.5, max_retries=2, backoff_s=0.0,
        )
        assert pooled.results == [0, 10, 20, 30]
        assert pooled.quarantined == []
        assert pooled.timeouts >= 1

        # the faulted tile's attempt stream is the contract: identical
        # fire ordinals serially and under the timeout/requeue path
        assert _fires_for(serial_log, "tile", 3) == [0, 1]
        assert _fires_for(pooled_log, "tile", 3) == _fires_for(
            serial_log, "tile", 3
        )


class TestPoolFailurePolicy:
    def test_construction_failure_falls_back_to_serial(self, monkeypatch):
        def no_pool(*a, **k):
            raise PermissionError("no semaphores in this sandbox")

        monkeypatch.setattr(TileExecutor, "_make_pool", no_pool)
        out = TileExecutor(4).map(_ident, None, list(range(6)))
        assert out == [i * 10 for i in range(6)]

    def test_mid_run_failure_propagates(self):
        # a worker exception is a real failure: map() must raise it, not
        # quietly rerun everything serially
        with pytest.raises(ValueError, match="boom"):
            TileExecutor(2).map(_boom_on_3, None, list(range(6)))

    def test_serial_map_propagates_too(self):
        with pytest.raises(ValueError, match="boom"):
            TileExecutor(1).map(_boom_on_3, None, list(range(6)))


@pytest.fixture(scope="module")
def chip64(tech45, stdlib45):
    """A block scanned as an 8x8 = 64-tile grid, plus its fault-free
    serial baseline."""
    spec = LogicBlockSpec(rows=1, row_width_nm=7500, net_count=4, seed=3, weak_spots=3)
    block = generate_logic_block(tech45, spec, stdlib45)
    model = LithoModel(tech45.litho)
    m1 = block.top.region(tech45.layers.metal1)
    extent = Rect(0, 0, 8000, 8000)
    limit = tech45.metal_width // 2
    kwargs = dict(extent=extent, tile_nm=1000, pinch_limit=limit)
    baseline = scan_full_chip(model, m1, **kwargs)
    assert baseline.tiles == 64
    return model, m1, kwargs, baseline


def _owned_hotspots(report, tile_index, tile_nm=1000, extent=Rect(0, 0, 8000, 8000)):
    from repro.parallel import tile_grid

    tile = tile_grid(extent, tile_nm)[tile_index]
    return [h for h in report.hotspots
            if tile.owns(h.marker.center.x, h.marker.center.y)]


class TestScanFaultAcceptance:
    def test_two_transient_one_permanent(self, chip64):
        """The issue's acceptance scenario: 64 tiles, two transient
        faults (recovered by retry) and one permanent fault (quarantined);
        every non-quarantined tile matches the fault-free serial scan."""
        model, m1, kwargs, baseline = chip64
        plan = FaultPlan.parse("tile:5:fail:1,tile:23:fail:1,tile:40:fail")
        report = scan_full_chip(
            model, m1, jobs=4, fault_plan=plan, max_retries=2, **kwargs
        )
        assert [q.index for q in report.quarantined] == [40]
        assert report.ok is False
        assert report.tiles_computed == 63
        # tile 40's owned hotspots are the only possible difference
        lost = _owned_hotspots(baseline, 40)
        assert report.hotspots == [h for h in baseline.hotspots if h not in lost]
        assert "QUARANTINED" in report.summary()

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_interrupt_then_resume_is_identical(self, chip64, tmp_path, jobs):
        model, m1, kwargs, baseline = chip64
        ckpt = str(tmp_path / f"scan-{jobs}.ckpt")
        with pytest.raises(AbortRun):
            scan_full_chip(
                model, m1, jobs=jobs,
                fault_plan=FaultPlan.parse("tile:20:abort"),
                checkpoint_file=ckpt, **kwargs,
            )
        resumed = scan_full_chip(
            model, m1, jobs=jobs, checkpoint_file=ckpt, resume=True, **kwargs
        )
        assert resumed.tiles_resumed > 0
        assert resumed.tiles_computed == 64 - resumed.tiles_resumed
        assert resumed.hotspots == baseline.hotspots
        assert resumed.quarantined == []
        import os

        assert not os.path.exists(ckpt)  # completed runs clear their checkpoint

    def test_resume_against_edited_geometry_recomputes_all(self, chip64, tmp_path):
        model, m1, kwargs, baseline = chip64
        ckpt = str(tmp_path / "scan.ckpt")
        with pytest.raises(AbortRun):
            scan_full_chip(
                model, m1, fault_plan=FaultPlan.parse("tile:20:abort"),
                checkpoint_file=ckpt, **kwargs,
            )
        edited = m1 | Region(Rect(7800, 7800, 7950, 7950))
        resumed = scan_full_chip(
            model, edited, checkpoint_file=ckpt, resume=True, **kwargs
        )
        assert resumed.tiles_resumed == 0  # stale signature: fresh run
        assert resumed.tiles_computed == 64


class TestDrcFaultTolerance:
    def test_quarantined_task_does_not_kill_run(self, small_block, tech45):
        from repro.drc import run_drc

        deck = tech45.rules.minimum()
        baseline = run_drc(small_block.top, deck, jobs=1, tile_nm=2500)
        report = run_drc(
            small_block.top, deck, jobs=2, tile_nm=2500,
            fault_plan=FaultPlan.parse("tile:1:fail"), max_retries=1,
        )
        assert [q.index for q in report.quarantined] == [1]
        assert report.ok is False
        assert report.tiles_computed == report.tiles - 1
        assert len(report.violations) <= len(baseline.violations)

    def test_transient_fault_recovers_identically(self, small_block, tech45):
        from repro.drc import run_drc

        deck = tech45.rules.minimum()
        baseline = run_drc(small_block.top, deck, jobs=1, tile_nm=2500)
        report = run_drc(
            small_block.top, deck, jobs=2, tile_nm=2500,
            fault_plan=FaultPlan.parse("tile:0:fail:1,tile:2:fail:1"),
        )
        assert report.quarantined == []
        assert report.violations == baseline.violations

    def test_drc_resume_after_abort(self, small_block, tech45, tmp_path):
        from repro.drc import run_drc

        deck = tech45.rules.minimum()
        baseline = run_drc(small_block.top, deck, jobs=1, tile_nm=2500)
        ckpt = str(tmp_path / "drc.ckpt")
        with pytest.raises(AbortRun):
            run_drc(
                small_block.top, deck, tile_nm=2500,
                fault_plan=FaultPlan.parse("tile:2:abort"),
                checkpoint_file=ckpt,
            )
        resumed = run_drc(
            small_block.top, deck, tile_nm=2500,
            checkpoint_file=ckpt, resume=True,
        )
        assert resumed.tiles_resumed > 0
        assert resumed.violations == baseline.violations

    def test_drc_resume_with_other_settings_recomputes_all(
        self, small_block, tech45, tmp_path
    ):
        from repro.drc import run_drc

        deck = tech45.rules.minimum()
        ckpt = str(tmp_path / "drc.ckpt")
        with pytest.raises(AbortRun):
            run_drc(
                small_block.top, deck, tile_nm=2500,
                fault_plan=FaultPlan.parse("tile:2:abort"),
                checkpoint_file=ckpt,
            )
        baseline = run_drc(small_block.top, deck, jobs=1, tile_nm=2000)
        resumed = run_drc(
            small_block.top, deck, tile_nm=2000,
            checkpoint_file=ckpt, resume=True,
        )
        assert resumed.tiles_resumed == 0  # other tiling, other signature
        assert resumed.tiles_computed == resumed.tiles
        assert resumed.violations == baseline.violations


class TestResumeFeedsTheCache:
    """Tiles replayed from a checkpoint enter the incremental cache as
    well: after an abort and a resume with the same cache, a cached
    rerun recomputes nothing."""

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_scan(self, chip64, tmp_path, jobs):
        model, m1, kwargs, baseline = chip64
        ckpt = str(tmp_path / "scan.ckpt")
        cache = TileCache()
        with pytest.raises(AbortRun):
            scan_full_chip(
                model, m1, jobs=jobs, cache=cache,
                fault_plan=FaultPlan.parse("tile:20:abort"),
                checkpoint_file=ckpt, **kwargs,
            )
        resumed = scan_full_chip(
            model, m1, jobs=jobs, cache=cache,
            checkpoint_file=ckpt, resume=True, **kwargs,
        )
        assert resumed.tiles_resumed > 0
        rerun = scan_full_chip(model, m1, jobs=jobs, cache=cache, **kwargs)
        assert rerun.tiles_computed == 0
        assert rerun.tiles_cached == 64
        assert rerun.hotspots == baseline.hotspots

    def test_drc(self, small_block, tech45, tmp_path):
        from repro.drc import run_drc

        deck = tech45.rules.minimum()
        ckpt = str(tmp_path / "drc.ckpt")
        cache = TileCache()
        with pytest.raises(AbortRun):
            run_drc(
                small_block.top, deck, tile_nm=2500, cache=cache,
                fault_plan=FaultPlan.parse("tile:2:abort"),
                checkpoint_file=ckpt,
            )
        resumed = run_drc(
            small_block.top, deck, tile_nm=2500, cache=cache,
            checkpoint_file=ckpt, resume=True,
        )
        assert resumed.tiles_resumed > 0
        rerun = run_drc(small_block.top, deck, tile_nm=2500, cache=cache)
        assert rerun.tiles_computed == 0
        assert rerun.tiles_cached == rerun.tiles
        assert rerun.violations == resumed.violations


class TestResumeCounters:
    def test_resume_without_cache_counts_no_cache_traffic(self, chip64, tmp_path):
        """Replaying a checkpoint is not cache traffic: the resumed scan
        emits the scan counters and no ``tilecache.*`` or ``store.*``."""
        model, m1, kwargs, baseline = chip64
        ckpt = str(tmp_path / "scan.ckpt")
        with pytest.raises(AbortRun):
            scan_full_chip(
                model, m1, fault_plan=FaultPlan.parse("tile:20:abort"),
                checkpoint_file=ckpt, **kwargs,
            )
        registry = MetricsRegistry(enabled=True)
        previous = set_registry(registry)
        try:
            scan_full_chip(model, m1, checkpoint_file=ckpt, resume=True, **kwargs)
        finally:
            set_registry(previous)
        counters = registry.snapshot()["counters"]
        assert {k: v for k, v in counters.items() if k.startswith("scan.tiles")} == {
            "scan.tiles": 64,
            "scan.tiles_computed": 44,
            "scan.tiles_cached": 0,
            "scan.tiles_resumed": 20,
            "scan.tiles_quarantined": 0,
            "scan.tiles_simulated": 44,
        }
        assert not [k for k in counters if k.startswith(("tilecache.", "store."))]

    def test_parent_format_checkpoint_is_a_fresh_run(self, chip64, tmp_path):
        """A checkpoint in the format that preceded the one result store
        (``repro-checkpoint-v1``), with this run's own signature, is
        discarded whole: the resume recomputes every tile."""
        import pickle

        model, m1, kwargs, baseline = chip64
        ckpt = tmp_path / "scan.ckpt"
        with pytest.raises(AbortRun):
            scan_full_chip(
                model, m1, fault_plan=FaultPlan.parse("tile:20:abort"),
                checkpoint_file=str(ckpt), **kwargs,
            )
        with open(ckpt, "rb") as fh:
            entries = pickle.load(fh)["entries"]
        (signature,) = {namespace for namespace, _ in entries}
        with open(ckpt, "wb") as fh:
            pickle.dump(
                {
                    "schema": "repro-checkpoint-v1",
                    "signature": signature,
                    "results": {key: value for (_, key), value in entries.items()},
                },
                fh,
            )
        resumed = scan_full_chip(
            model, m1, checkpoint_file=str(ckpt), resume=True, **kwargs
        )
        assert resumed.tiles_resumed == 0
        assert resumed.tiles_computed == 64
        assert resumed.hotspots == baseline.hotspots
