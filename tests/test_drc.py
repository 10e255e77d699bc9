"""Unit tests for the DRC engine: each check primitive, the deck runner,
violation reporting, and at-the-limit semantics."""


from repro.drc import (
    check_area,
    check_density,
    check_enclosure,
    check_extension,
    check_layer_spacing,
    check_spacing,
    check_width,
    run_drc,
    run_drc_regions,
    score_recommended_rules,
)
from repro.designgen import LogicBlockSpec, generate_logic_block
from repro.drc.violations import DrcReport, Violation
from repro.geometry import Rect, Region
from repro.layout import Cell, Layer
from repro.tech import (
    AreaRule,
    DensityRule,
    EnclosureRule,
    ExtensionRule,
    RuleDeck,
    RuleSeverity,
    SpacingRule,
    WidthRule,
)

M = Layer(10, 0, "M1")
V = Layer(11, 0, "V1")
P = Layer(3, 0, "POLY")
A = Layer(2, 0, "ACT")


class TestWidthCheck:
    rule = WidthRule("W", M, 45)

    def test_at_limit_passes(self):
        assert check_width(Region(Rect(0, 0, 1000, 45)), self.rule) == []

    def test_below_limit_fails(self):
        violations = check_width(Region(Rect(0, 0, 1000, 44)), self.rule)
        assert len(violations) == 1

    def test_local_neck_found(self):
        # wide wire with a narrow neck in the middle
        wire = Region([Rect(0, 0, 100, 100), Rect(100, 30, 200, 60), Rect(200, 0, 300, 100)])
        violations = check_width(wire, WidthRule("W", M, 45))
        assert len(violations) == 1
        marker = violations[0].marker
        assert 100 <= marker.x0 and marker.x1 <= 200

    def test_odd_rule_value(self):
        # odd minimum width: 45 wide passes a 45 rule, 44 fails; a 7-wide
        # feature against a 7 rule must also pass (no parity issues)
        assert check_width(Region(Rect(0, 0, 100, 7)), WidthRule("W", M, 7)) == []
        assert len(check_width(Region(Rect(0, 0, 100, 6)), WidthRule("W", M, 7))) == 1

    def test_empty_region(self):
        assert check_width(Region(), self.rule) == []

    def test_at_limit_along_x_plain_bar(self):
        # a vertical bar is one slab; 1 nm under the limit that slab is
        # exactly 2d wide in the doubled lattice
        assert check_width(Region(Rect(0, 0, 45, 1000)), self.rule) == []
        assert len(check_width(Region(Rect(0, 0, 44, 1000)), self.rule)) == 1

    def test_at_limit_along_x_cut_bar(self):
        # two far-off squares put x edges at 15 and 30 inside the bar,
        # cutting it into slabs narrower than 2d: the bar's horizontal
        # runs, not its slabs, decide
        cutters = [Rect(15, 3000, 115, 3100), Rect(-70, -3100, 30, -3000)]
        assert check_width(Region([Rect(0, 0, 45, 1000), *cutters]), self.rule) == []
        violations = check_width(Region([Rect(0, 0, 44, 1000), *cutters]), self.rule)
        assert [v.marker for v in violations] == [Rect(0, 0, 44, 1000)]


class TestSpacingCheck:
    rule = SpacingRule("S", M, 45)

    def test_at_limit_passes(self):
        region = Region([Rect(0, 0, 100, 45), Rect(0, 90, 100, 135)])
        assert check_spacing(region, self.rule) == []

    def test_below_limit_fails(self):
        region = Region([Rect(0, 0, 100, 45), Rect(0, 80, 100, 125)])
        violations = check_spacing(region, self.rule)
        assert len(violations) == 1
        assert violations[0].measured == 35

    def test_touching_exempt(self):
        region = Region([Rect(0, 0, 100, 45), Rect(100, 0, 200, 45)])
        assert check_spacing(region, self.rule) == []

    def test_diagonal_corners_not_flagged(self):
        # projection metric: corner-to-corner diagonal separations are
        # not spacing violations (no facing edges with overlapping spans)
        region = Region([Rect(0, 0, 50, 50), Rect(80, 80, 130, 130)])
        assert check_spacing(region, self.rule) == []

    def test_concave_corner_not_flagged(self):
        # an L-junction's perpendicular edges meet at a corner: legal
        l_shape = Region([Rect(0, 0, 45, 1000), Rect(0, 0, 1000, 45)])
        assert check_spacing(l_shape, self.rule) == []

    def test_t_junction_not_flagged(self):
        t_shape = Region([Rect(0, 0, 1000, 45), Rect(400, 45, 445, 800)])
        assert check_spacing(t_shape, self.rule) == []

    def test_shielded_pair_not_flagged(self):
        # A and C are 70 apart but B fills the corridor: only A-B and B-C
        # gaps are measured (both legal at 45... here 12/13: violations)
        region = Region([
            Rect(0, 0, 1000, 45),
            Rect(0, 57, 1000, 102),   # 12 above A
            Rect(0, 115, 1000, 160),  # 13 above B
        ])
        violations = check_spacing(region, self.rule)
        gaps = sorted(v.measured for v in violations)
        assert gaps == [12, 13]  # no direct A-to-C measurement

    def test_notch_same_feature(self):
        # U-shape: arms 30 apart
        region = Region([Rect(0, 0, 45, 200), Rect(75, 0, 120, 200), Rect(0, 0, 120, 45)])
        violations = check_spacing(region, self.rule)
        assert len(violations) == 1

    def test_gap_box_marker(self):
        region = Region([Rect(0, 0, 100, 45), Rect(0, 80, 100, 125)])
        marker = check_spacing(region, self.rule)[0].marker
        assert marker.y0 == 45 and marker.y1 == 80


class TestLayerSpacing:
    def test_cross_layer(self):
        rule = SpacingRule("X", M, 30, other=V)
        m = Region(Rect(0, 0, 100, 100))
        v_ok = Region(Rect(150, 0, 200, 50))
        v_bad = Region(Rect(120, 0, 170, 50))
        assert check_layer_spacing(m, v_ok, rule) == []
        assert len(check_layer_spacing(m, v_bad, rule)) == 1


class TestEnclosure:
    rule = EnclosureRule("E", V, M, 11)

    def test_exact_enclosure_passes(self):
        via = Region(Rect(11, 11, 56, 56))
        metal = Region(Rect(0, 0, 67, 67))
        assert check_enclosure(via, metal, self.rule) == []

    def test_insufficient(self):
        via = Region(Rect(5, 11, 50, 56))
        metal = Region(Rect(0, 0, 67, 67))
        assert len(check_enclosure(via, metal, self.rule)) == 1

    def test_uncovered_via(self):
        via = Region(Rect(0, 0, 45, 45))
        assert len(check_enclosure(via, Region(), self.rule)) == 1

    def test_conditional_skips_non_overlapping(self):
        rule = EnclosureRule("E", V, M, 11, conditional=True)
        metal = Region(Rect(0, 0, 67, 67))
        poly_contact = Region(Rect(11, 11, 56, 56))     # on metal: checked
        diff_contact = Region(Rect(500, 0, 545, 45))    # off metal: exempt
        assert check_enclosure(poly_contact | diff_contact, metal, rule) == []
        bad = Region(Rect(5, 11, 50, 56))               # on metal, too close
        assert len(check_enclosure(bad | diff_contact, metal, rule)) == 1

    def test_conditional_many_components(self):
        # the kept-component union is rebuilt in one pass; results must
        # match the per-component semantics for a large population
        rule = EnclosureRule("E", V, M, 10)
        vias = []
        metals = []
        for k in range(60):
            x = k * 200
            vias.append(Rect(x + 10, 10, x + 50, 50))
            metals.append(Rect(x, 0, x + 60, 60))
        cond = EnclosureRule("E", V, M, 10, conditional=True)
        assert check_enclosure(Region(vias), Region(metals), cond) == []
        shifted = Region(vias).translated(-6, 0)  # every via too close on the left
        violations = check_enclosure(shifted, Region(metals), cond)
        assert len(violations) == 60


class TestAreaAndDensity:
    def test_area(self):
        rule = AreaRule("A", M, 10000)
        ok = Region(Rect(0, 0, 100, 100))
        small = Region(Rect(0, 0, 50, 50))
        assert check_area(ok, rule) == []
        violations = check_area(ok | small.translated(500, 0), rule)
        assert len(violations) == 1
        assert violations[0].measured == 2500

    def test_density(self):
        rule = DensityRule("D", M, window=100, min_density=0.2, max_density=0.8)
        extent = Rect(0, 0, 100, 100)
        # uniform 50% stripes: every half-window tile sees the same density
        ok = Region([Rect(0, y, 100, y + 25) for y in (0, 50)])
        empty_ish = Region(Rect(0, 0, 10, 10))  # ~1%
        assert check_density(ok, rule, extent) == []
        assert len(check_density(empty_ish, rule, extent)) >= 1

    def test_density_no_sliver_tiles_at_high_edge(self):
        # regression: an extent that is not a multiple of the half-window
        # step used to spawn clipped sliver tiles at the high edges whose
        # noisy fill fractions raised spurious violations
        rule = DensityRule("D", M, window=100, min_density=0.2, max_density=0.8)
        extent = Rect(0, 0, 130, 100)
        region = Region(Rect(0, 0, 65, 100))  # any full window sees 35-65%
        # old stepping evaluated the 30 nm sliver x in [100, 130] (0% fill)
        assert check_density(region, rule, extent) == []
        # evaluated windows are full-size: the clamped last window still
        # catches a genuinely sparse high edge
        sparse = Region(Rect(0, 0, 20, 100))  # clamped window [30, 130] sees 0%
        violations = check_density(sparse, rule, extent)
        assert violations
        assert all(v.marker.width == rule.window for v in violations)

    def test_density_extent_smaller_than_window(self):
        rule = DensityRule("D", M, window=100, min_density=0.2, max_density=0.8)
        extent = Rect(0, 0, 60, 60)
        half = Region(Rect(0, 0, 30, 60))
        assert check_density(half, rule, extent) == []
        assert len(check_density(Region(), rule, extent)) == 1


class TestExtension:
    rule = ExtensionRule("X", P, A, 58)

    def test_endcap_ok(self):
        poly = Region(Rect(0, -60, 31, 160))
        active = Region(Rect(-100, 0, 100, 100))
        assert check_extension(poly, active, self.rule) == []

    def test_endcap_short(self):
        poly = Region(Rect(0, -20, 31, 120))
        active = Region(Rect(-100, 0, 100, 100))
        assert len(check_extension(poly, active, self.rule)) == 2


class TestEngine:
    def test_run_drc_counts_and_summary(self, tech45):
        L = tech45.layers
        cell = Cell("T")
        cell.add_rect(L.metal1, Rect(0, 0, 1000, 30))  # too narrow
        report = run_drc(cell, tech45.rules.minimum().for_layer(L.metal1))
        assert not report.ok
        assert report.count() >= 1
        assert "M1.W.1" in report.by_rule()
        assert "M1.W.1" in report.summary()

    def test_clean_design(self, tech45):
        L = tech45.layers
        cell = Cell("OK")
        cell.add_rect(L.metal1, Rect(0, 0, 1000, 45))
        report = run_drc(cell, tech45.rules.minimum().for_layer(L.metal1))
        assert report.ok

    def test_severity_filtering(self, tech45):
        L = tech45.layers
        cell = Cell("T")
        cell.add_rect(L.metal1, Rect(0, 0, 1000, 50))  # meets min 45, below rec 56
        report = run_drc(cell, tech45.rules.for_layer(L.metal1))
        assert report.minimum_only().count() < report.count()
        assert report.count(RuleSeverity.RECOMMENDED) >= 1

    def test_run_regions_direct(self):
        deck = RuleDeck("d", [WidthRule("W", M, 45)])
        report = run_drc_regions({M: Region(Rect(0, 0, 100, 30))}, deck, Rect(0, 0, 100, 100))
        assert report.count() == 1

    def test_window_restricts(self, tech45):
        L = tech45.layers
        cell = Cell("T")
        cell.add_rect(L.metal1, Rect(0, 0, 100, 30))       # violation at origin
        cell.add_rect(L.metal1, Rect(5000, 0, 5100, 45))   # clean far away
        deck = RuleDeck("w", [WidthRule("M1.W.1", L.metal1, 45)])
        full = run_drc(cell, deck)
        clipped = run_drc(cell, deck, window=Rect(4000, 0, 6000, 100))
        assert full.count() == 1
        assert clipped.count() == 0


class TestViolationObjects:
    def test_str(self):
        v = Violation(WidthRule("W", M, 45), Rect(0, 0, 10, 10), measured=30)
        assert "W" in str(v) and "30" in str(v)

    def test_report_merge(self):
        report = DrcReport("X")
        report.add(Violation(WidthRule("W", M, 45), Rect(0, 0, 1, 1)))
        report.extend([Violation(SpacingRule("S", M, 45), Rect(0, 0, 1, 1))])
        assert len(report) == 2
        assert set(report.by_rule()) == {"W", "S"}


class TestDensityScore:
    """The density compliance score counts the windows check_density
    evaluates: full size, stepped by half a window, the last clamped."""

    rule = DensityRule(
        "D", M, window=100, min_density=0.2, max_density=0.8, severity=RuleSeverity.RECOMMENDED
    )

    def _score(self, rects, extent):
        cell = Cell("D")
        for r in rects:
            cell.add_rect(M, r)
        return score_recommended_rules(cell, RuleDeck("d", [self.rule]), window=extent)

    def test_every_window_violating_scores_zero(self):
        # windows at x = 0, 50, 100: each sees at most 0.25% fill
        extent = Rect(0, 0, 200, 100)
        assert len(check_density(Region(Rect(0, 0, 5, 5)), self.rule, extent)) == 3
        assert self._score([Rect(0, 0, 5, 5)], extent).per_rule["D"] == 0.0

    def test_half_the_windows_violating_scores_half(self):
        # windows at x = 0 (50% fill) and x = 50 (empty)
        extent = Rect(0, 0, 150, 100)
        assert self._score([Rect(0, 0, 50, 100)], extent).per_rule["D"] == 0.5

    def test_benchmark_block_dense_layers_score_zero(self, tech45):
        # 11700 x 3465 nm against 9000 nm windows: two windows, both
        # violating on M2 and M3
        spec = LogicBlockSpec(rows=4, row_width_nm=12000, net_count=24, weak_spots=16, seed=7)
        top = generate_logic_block(tech45, spec).top
        per_rule = score_recommended_rules(top, tech45.rules).per_rule
        assert per_rule["M2.DEN.R"] == 0.0
        assert per_rule["M3.DEN.R"] == 0.0
