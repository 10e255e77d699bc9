"""The unified report API (:class:`repro.core.report.BaseReport`) and
the stable :mod:`repro.api` facade.

Every engine report shares one contract — ``ok``, ``findings_count``,
``summary()``, ``to_dict()``/``to_json()``.
"""

from __future__ import annotations

import inspect
import json

import pytest

from repro.cmp.fill import FillReport
from repro.cmp.smartfill import CouplingReport
from repro.core.report import BaseReport, jsonable
from repro.drc.violations import DrcReport, Violation
from repro.extract.compare import ConnectivityReport
from repro.geometry import Rect
from repro.litho.fullchip import FullChipScanReport
from repro.opc.orc import OrcReport
from repro.parallel import QuarantinedTile
from repro.tech.rules import WidthRule
from repro.yieldmodels.redundant_via import RedundantViaReport
from repro.yieldmodels.wire_spread import SpreadReport

ALL_REPORTS = [
    DrcReport,
    FullChipScanReport,
    OrcReport,
    ConnectivityReport,
    FillReport,
    CouplingReport,
    RedundantViaReport,
    SpreadReport,
]


def _violation(tech45):
    rule = WidthRule("M1.W", tech45.layers.metal1, 60)
    return Violation(rule, Rect(0, 0, 10, 10), measured=40.0)


class TestBaseReportContract:
    @pytest.mark.parametrize("cls", ALL_REPORTS)
    def test_every_report_subclasses_base(self, cls):
        assert issubclass(cls, BaseReport)

    @pytest.mark.parametrize("cls", ALL_REPORTS)
    def test_empty_report_is_ok(self, cls):
        report = cls()
        assert report.ok is True
        assert report.findings_count == 0
        assert isinstance(report.summary(), str)

    @pytest.mark.parametrize("cls", ALL_REPORTS)
    def test_to_dict_and_json(self, cls):
        report = cls()
        data = report.to_dict()
        assert data["report"] == cls.__name__
        assert data["ok"] is True
        assert data["findings_count"] == 0
        round_tripped = json.loads(report.to_json())
        assert round_tripped == json.loads(json.dumps(data))

    def test_findings_drive_ok(self, tech45):
        report = DrcReport(violations=[_violation(tech45)])
        assert report.ok is False
        assert report.findings_count == 1
        assert report.findings == report.violations

    def test_quarantine_forces_not_ok(self):
        report = FullChipScanReport(
            tiles=4, quarantined=[QuarantinedTile(2, "InjectedFault: x", 3)]
        )
        assert report.findings_count == 0  # no hotspots...
        assert report.ok is False  # ...but the run is incomplete

    def test_orc_findings_count_spans_all_failure_modes(self):
        assert OrcReport(epe_violations=2).findings_count == 2
        assert OrcReport(printing_srafs=1).findings_count == 1
        assert OrcReport().ok is True

    def test_redundant_via_unfixable_is_the_finding(self):
        assert RedundantViaReport(total_vias=5, inserted=4, unfixable=1).ok is False
        assert RedundantViaReport(total_vias=5, inserted=5).ok is True

    def test_connectivity_counts_all_defects(self):
        report = ConnectivityReport(opens=["a"], shorts=[("b", "c")], missing=["d"])
        assert report.findings_count == 3
        assert report.ok is False

    def test_to_dict_serializes_nested_values(self, tech45):
        report = DrcReport(
            cell_name="TOP",
            violations=[_violation(tech45)],
            quarantined=[QuarantinedTile(1, "err", 2)],
        )
        data = json.loads(report.to_json())
        assert data["cell_name"] == "TOP"
        assert data["violations"][0]["measured"] == 40.0
        assert data["quarantined"][0]["index"] == 1

    def test_jsonable_fallback_is_repr(self):
        assert jsonable(object) == repr(object)
        assert jsonable({3, 1, 2}) == [1, 2, 3]


class TestDeprecatedAliases:
    def test_new_spellings_do_not_warn(self, recwarn):
        report = DrcReport(elapsed_s=1.0)
        assert report.ok is True
        assert report.elapsed_s == 1.0
        assert FullChipScanReport().ok is True
        deprecations = [w for w in recwarn if w.category is DeprecationWarning]
        assert deprecations == []


class TestApiFacade:
    def test_exports(self):
        from repro import api

        assert api.__all__ == [
            "run_drc", "scan_full_chip", "decompose", "scorecard", "ingest_store",
            "make_service", "run_compliance_matrix",
        ]
        for name in api.__all__:
            assert callable(getattr(api, name))

    @pytest.mark.parametrize(
        "name",
        [
            "run_drc", "scan_full_chip", "decompose", "scorecard", "ingest_store",
            "make_service", "run_compliance_matrix",
        ],
    )
    def test_options_are_keyword_only(self, name):
        from repro import api

        sig = inspect.signature(getattr(api, name))
        kinds = [p.kind for p in sig.parameters.values()]
        positional = [k for k in kinds if k is inspect.Parameter.POSITIONAL_OR_KEYWORD]
        assert len(positional) <= 2  # subject (+ deck/space): everything else keyword-only
        assert inspect.Parameter.KEYWORD_ONLY in kinds

    def test_run_drc_matches_engine(self, small_block, tech45):
        from repro import api
        from repro.drc import run_drc as engine_run_drc

        deck = tech45.rules.minimum()
        facade = api.run_drc(small_block.top, deck)
        direct = engine_run_drc(small_block.top, deck)
        assert facade.violations == direct.violations
        assert isinstance(facade, BaseReport)

    def test_scan_accepts_technology(self, tech45, stdlib45):
        from repro import api
        from repro.designgen import LogicBlockSpec, generate_logic_block

        spec = LogicBlockSpec(rows=1, row_width_nm=3000, net_count=3, seed=5)
        block = generate_logic_block(tech45, spec, stdlib45)
        m1 = block.top.region(tech45.layers.metal1)
        report = api.scan_full_chip(
            tech45, m1, tile_nm=1500, pinch_limit=tech45.metal_width // 2
        )
        assert isinstance(report, FullChipScanReport)
        assert report.tiles > 0

    def test_decompose_modes_share_shape(self, tech45):
        from repro import api
        from repro.designgen import line_grating

        lines = line_grating(tech45.metal_width, tech45.metal_pitch, 6, 1500)
        with_st = api.decompose(lines, int(1.3 * tech45.metal_space))
        without = api.decompose(lines, int(1.3 * tech45.metal_space), stitches=False)
        assert isinstance(with_st, tuple) and isinstance(without, tuple)
        assert without[1] == []
        assert with_st[0].ok == without[0].ok

    def test_top_level_exposes_api_and_base_report(self):
        import repro

        assert repro.api.run_drc is not None
        assert repro.BaseReport is BaseReport
