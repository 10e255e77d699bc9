"""Tests for the command-line interface (python -m repro)."""

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def block_gds(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "block.gds"
    rc = main([
        "generate", "--node", "45", "--rows", "2", "--width", "4000",
        "--nets", "4", "--seed", "3", "--out", str(path),
    ])
    assert rc == 0
    return path


class TestGenerateInfo:
    def test_generate_creates_file(self, block_gds):
        assert block_gds.exists()
        assert block_gds.stat().st_size > 1000

    def test_info(self, block_gds, capsys):
        rc = main(["info", str(block_gds)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "LOGIC" in out
        assert "top cells" in out


class TestDrc:
    def test_clean_block_exits_zero(self, block_gds, capsys):
        rc = main(["drc", str(block_gds), "--node", "45"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 violations" in out

    def test_violating_layout_exits_nonzero(self, tmp_path, capsys):
        from repro.gdsii import write_gds
        from repro.geometry import Rect
        from repro.layout import Layer, Layout

        lib = Layout("BAD")
        cell = lib.new_cell("TOP")
        cell.add_rect(Layer(10, 0, "M1"), Rect(0, 0, 1000, 20))  # too narrow
        path = tmp_path / "bad.gds"
        write_gds(lib, path)
        rc = main(["drc", str(path), "--node", "45"])
        assert rc == 1
        assert "M1.W.1" in capsys.readouterr().out


class TestDpt:
    def test_decompose_and_write_masks(self, block_gds, tmp_path, capsys):
        out_path = tmp_path / "masks.gds"
        rc = main([
            "dpt", str(block_gds), "--node", "45", "--layer", "M3",
            "--space", "100", "--out", str(out_path),
        ])
        out = capsys.readouterr().out
        assert "DPT" in out
        assert out_path.exists()

    def test_unknown_layer(self, block_gds):
        with pytest.raises(SystemExit):
            main(["dpt", str(block_gds), "--layer", "NOPE", "--space", "100"])


class TestScan:
    def test_scan_reports(self, block_gds, capsys):
        rc = main(["scan", str(block_gds), "--node", "45", "--tile", "6000"])
        out = capsys.readouterr().out
        assert "full-chip scan" in out
        assert rc in (0, 1)

    def test_scan_parallel_matches_serial(self, block_gds, capsys):
        rc1 = main(["scan", str(block_gds), "--node", "45", "--tile", "3000"])
        serial = capsys.readouterr().out
        rc2 = main(["scan", str(block_gds), "--node", "45", "--tile", "3000",
                    "--jobs", "2"])
        parallel = capsys.readouterr().out
        assert rc1 == rc2
        assert serial.splitlines()[0] == parallel.splitlines()[0]

    def test_scan_incremental_second_run_all_cached(self, block_gds, tmp_path, capsys):
        cache = tmp_path / "scan.pkl"
        args = ["scan", str(block_gds), "--node", "45", "--tile", "3000",
                "--incremental", "--cache-file", str(cache)]
        main(args)
        first = capsys.readouterr().out
        assert cache.exists()
        main(args)
        second = capsys.readouterr().out
        assert "100% hit rate" in second
        assert (
            first.splitlines()[0].split("[")[0].strip()
            == second.splitlines()[0].split("[")[0].strip()
        )


class TestDrcParallel:
    def test_drc_parallel_clean(self, block_gds, capsys):
        rc = main(["drc", str(block_gds), "--node", "45", "--jobs", "2",
                   "--tile", "3000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 violations" in out
        assert "tiles:" in out

    def test_drc_incremental_second_run_all_cached(self, block_gds, tmp_path, capsys):
        cache = tmp_path / "drc.pkl"
        args = ["drc", str(block_gds), "--node", "45", "--tile", "3000",
                "--incremental", "--cache-file", str(cache)]
        rc = main(args)
        capsys.readouterr()
        assert rc == 0
        rc = main(args)
        out = capsys.readouterr().out
        assert "100% hit rate" in out


class TestScanLimit:
    def test_limit_zero_suppresses_listing_and_tail(self, block_gds, capsys):
        main(["scan", str(block_gds), "--node", "45", "--tile", "6000",
              "--limit", "0"])
        out = capsys.readouterr().out
        assert "full-chip scan" in out
        assert "more" not in out
        # nothing but the summary/diagnostic lines: no indented hotspot rows
        assert not any(line.startswith("  ") for line in out.splitlines())

    def test_positive_limit_still_prints_tail(self, block_gds, capsys):
        rc = main(["scan", str(block_gds), "--node", "45", "--tile", "6000",
                   "--limit", "1"])
        out = capsys.readouterr().out
        if rc == 1:  # hotspots found on this block
            assert "... and" in out or out.count("\n  ") <= 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "block.gds", "--limit", "-1"],
            ["submit", "scan", "block.gds", "--limit", "-1"],
            ["matrix", "--limit", "-1"],
        ],
        ids=["scan", "submit", "matrix"],
    )
    def test_negative_limit_is_a_usage_error(self, argv, capsys):
        # a negative slice bound would drop findings from the end of the
        # listing; argparse refuses it before any command runs
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--limit" in capsys.readouterr().err


class TestExitCodeContract:
    @pytest.fixture(scope="class")
    def bad_gds(self, tmp_path_factory):
        from repro.gdsii import write_gds
        from repro.geometry import Rect
        from repro.layout import Layer, Layout

        lib = Layout("BAD")
        cell = lib.new_cell("TOP")
        cell.add_rect(Layer(10, 0, "M1"), Rect(0, 0, 1000, 20))
        path = tmp_path_factory.mktemp("cli-rc") / "bad.gds"
        write_gds(lib, path)
        return path

    def test_drc_findings_fail_by_default(self, bad_gds, capsys):
        assert main(["drc", str(bad_gds), "--node", "45"]) == 1
        capsys.readouterr()

    def test_drc_no_fail_opts_out(self, bad_gds, capsys):
        assert main(["drc", str(bad_gds), "--node", "45", "--no-fail"]) == 0
        out = capsys.readouterr().out
        assert "M1.W.1" in out  # findings still reported, just not fatal

    def test_scan_no_fail_opts_out(self, block_gds, capsys):
        rc = main(["scan", str(block_gds), "--node", "45", "--tile", "6000",
                   "--limit", "0", "--no-fail"])
        capsys.readouterr()
        assert rc == 0


class TestFaultTolerance:
    def test_quarantine_exits_one_even_with_no_fail(self, block_gds, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "tile:0:fail")
        rc = main(["scan", str(block_gds), "--node", "45", "--tile", "2000",
                   "--limit", "0", "--no-fail"])
        captured = capsys.readouterr()
        assert rc == 1  # quarantine = incomplete run, --no-fail does not excuse it
        assert "QUARANTINED" in captured.out
        assert "QUARANTINED tile 0" in captured.err

    def test_transient_fault_recovers_to_clean_exit(self, block_gds, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "tile:0:fail:1")
        rc = main(["scan", str(block_gds), "--node", "45", "--tile", "6000",
                   "--limit", "0", "--no-fail"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "QUARANTINED" not in captured.out

    def test_abort_exits_three_and_resume_completes(
        self, block_gds, tmp_path, capsys, monkeypatch
    ):
        ckpt = tmp_path / "scan.ckpt"
        monkeypatch.setenv("REPRO_FAULT_SPEC", "tile:1:abort")
        rc = main(["scan", str(block_gds), "--node", "45", "--tile", "2000",
                   "--limit", "0", "--checkpoint-file", str(ckpt)])
        captured = capsys.readouterr()
        assert rc == 3
        assert "rerun with --resume" in captured.err
        assert ckpt.exists()

        monkeypatch.delenv("REPRO_FAULT_SPEC")
        rc = main(["scan", str(block_gds), "--node", "45", "--tile", "2000",
                   "--limit", "0", "--no-fail", "--checkpoint-file", str(ckpt),
                   "--resume"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "resumed" in out
        assert not ckpt.exists()  # completed run clears its checkpoint

    def test_resume_uses_default_checkpoint_path(self, block_gds, capsys,
                                                 monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        rc = main(["scan", str(block_gds), "--node", "45", "--tile", "6000",
                   "--limit", "0", "--no-fail", "--resume"])
        capsys.readouterr()
        assert rc == 0  # nothing to resume: behaves as a fresh run

    def test_drc_quarantine_exits_one(self, block_gds, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "tile:0:fail")
        rc = main(["drc", str(block_gds), "--node", "45", "--jobs", "2",
                   "--max-retries", "1", "--no-fail"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "QUARANTINED" in captured.out

    def test_manifest_records_quarantine_counters(self, block_gds, tmp_path,
                                                  capsys, monkeypatch):
        from repro.obs import RunManifest

        target = tmp_path / "m.json"
        monkeypatch.setenv("REPRO_FAULT_SPEC", "tile:0:fail,tile:1:fail:1")
        main(["scan", str(block_gds), "--node", "45", "--tile", "2000",
              "--limit", "0", "--metrics-out", str(target)])
        capsys.readouterr()
        manifest = RunManifest.load(target)
        assert manifest.counters["scan.tiles_quarantined"] == 1
        assert manifest.counters["pool.retries"] >= 1
        assert manifest.counters["pool.quarantined"] == 1


class TestObservabilityFlags:
    def test_metrics_out_writes_manifest(self, block_gds, tmp_path, capsys):
        from repro.obs import RunManifest

        target = tmp_path / "deep" / "m.json"
        main(["scan", str(block_gds), "--node", "45", "--tile", "3000",
              "--limit", "0", "--no-fail", "--metrics-out", str(target)])
        capsys.readouterr()
        manifest = RunManifest.load(target)
        assert manifest.command == "scan"
        assert manifest.counters["scan.tiles"] >= 1
        assert "scan.compute" in manifest.stages

    def test_scorecard_manifest_has_five_plus_stages(self, tmp_path, capsys):
        from repro.obs import RunManifest

        target = tmp_path / "card.json"
        rc = main(["scorecard", "--node", "45", "--rows", "2", "--width", "4000",
                   "--nets", "4", "--seed", "3", "--weak-spots", "4",
                   "--metrics-out", str(target)])
        capsys.readouterr()
        assert rc == 0
        manifest = RunManifest.load(target)
        assert len(manifest.stages) >= 5
        assert manifest.seed == 3
        for stage in ("scorecard", "scorecard.baseline", "measure.hotspots"):
            assert stage in manifest.stages

    def test_metrics_counters_match_across_jobs(self, block_gds, tmp_path, capsys):
        from repro.obs import RunManifest

        manifests = []
        for jobs in (1, 4):
            target = tmp_path / f"scan-j{jobs}.json"
            main(["scan", str(block_gds), "--node", "45", "--tile", "2000",
                  "--limit", "0", "--no-fail", "--jobs", str(jobs),
                  "--metrics-out", str(target)])
            capsys.readouterr()
            manifests.append(RunManifest.load(target))
        assert manifests[0].counters == manifests[1].counters
        assert manifests[1].workers == 4

    def test_trace_prints_tree(self, block_gds, capsys):
        main(["scan", str(block_gds), "--node", "45", "--tile", "6000",
              "--limit", "0", "--no-fail", "--trace"])
        out = capsys.readouterr().out
        assert "trace:" in out
        assert "scan.compute" in out

    def test_obs_state_restored_after_run(self, block_gds, tmp_path, capsys):
        from repro.obs import get_registry, get_tracer

        main(["scan", str(block_gds), "--node", "45", "--tile", "6000",
              "--limit", "0", "--no-fail",
              "--metrics-out", str(tmp_path / "m.json"), "--trace"])
        capsys.readouterr()
        assert get_registry().enabled is False
        assert get_tracer().enabled is False


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_help_lists_commands(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for command in ("generate", "info", "drc", "scan", "dpt", "scorecard"):
            assert command in out
