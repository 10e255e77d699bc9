"""Recommended-rule (DFM) compliance scoring.

Mirrors the scoring-model methodology the panelists later published:
each recommended rule gets a compliance score in [0, 1] — the fraction of
the relevant geometry that already meets the recommended (not just the
minimum) value — and the composite score is an importance-weighted mean.
A score of 1 means the layout is fully "DFM-compliant"; the benches
correlate this score against the simulated yield proxy (experiment F6).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.drc import checks
from repro.geometry import Rect, Region
from repro.layout import Cell, Layer
from repro.tech.rules import (
    DensityRule,
    EnclosureRule,
    Rule,
    RuleDeck,
    RuleSeverity,
    SpacingRule,
    WidthRule,
)


@dataclass
class DfmScore:
    """Per-rule compliance plus the composite."""

    per_rule: dict[str, float] = field(default_factory=dict)
    weights: dict[str, float] = field(default_factory=dict)

    @property
    def composite(self) -> float:
        if not self.per_rule:
            return 1.0
        total_w = sum(self.weights.get(name, 1.0) for name in self.per_rule)
        acc = sum(score * self.weights.get(name, 1.0) for name, score in self.per_rule.items())
        return acc / total_w if total_w else 1.0

    def worst(self, n: int = 5) -> list[tuple[str, float]]:
        return sorted(self.per_rule.items(), key=lambda kv: kv[1])[:n]

    def summary(self) -> str:
        lines = [f"DFM score: {self.composite:.3f}"]
        for name, score in sorted(self.per_rule.items()):
            lines.append(f"  {name:<16} {score:6.3f}")
        return "\n".join(lines)


def score_recommended_rules(
    cell: Cell,
    deck: RuleDeck,
    window: Rect | None = None,
    weights: dict[str, float] | None = None,
) -> DfmScore:
    """Score a layout against the deck's recommended rules."""
    rec = [r for r in deck if r.severity is RuleSeverity.RECOMMENDED]
    layers: set[Layer] = set()
    for rule in rec:
        for attr in ("layer", "other", "inner", "outer"):
            layer = getattr(rule, attr, None)
            if layer is not None:
                layers.add(layer)
    regions = cell.regions(layers, window)
    extent = window or cell.bbox or Rect(0, 0, 1, 1)
    score = DfmScore(weights=dict(weights or {}))
    for rule in rec:
        score.per_rule[rule.name] = _rule_compliance(rule, regions, extent)
    return score


def _rule_compliance(rule: Rule, regions: dict[Layer, Region], extent: Rect) -> float:
    empty = Region()
    if isinstance(rule, WidthRule):
        region = regions.get(rule.layer, empty)
        if region.is_empty:
            return 1.0
        # area fraction already at the recommended width
        doubled = region.scaled(2)
        wide = doubled.opened(rule.min_width - 1)
        return wide.area / doubled.area
    if isinstance(rule, SpacingRule) and rule.other is None:
        region = regions.get(rule.layer, empty)
        if region.is_empty:
            return 1.0
        violations = checks.check_spacing(region, rule)
        features = max(len(region.components()), 1)
        return max(0.0, 1.0 - len(violations) / features)
    if isinstance(rule, SpacingRule):
        region = regions.get(rule.layer, empty)
        other = regions.get(rule.other, empty)
        if region.is_empty or other.is_empty:
            return 1.0
        violations = checks.check_layer_spacing(region, other, rule)
        features = max(len(other.components()), 1)
        return max(0.0, 1.0 - len(violations) / features)
    if isinstance(rule, EnclosureRule):
        inner = regions.get(rule.inner, empty)
        outer = regions.get(rule.outer, empty)
        if inner.is_empty:
            return 1.0
        violations = checks.check_enclosure(inner, outer, rule)
        features = max(len(inner.components()), 1)
        return max(0.0, 1.0 - len(violations) / features)
    if isinstance(rule, DensityRule):
        region = regions.get(rule.layer, empty)
        violations = checks.check_density(region, rule, extent)
        # the windows check_density evaluates: full size, stepped by half
        # a window, the last clamped inward
        step = max(rule.window // 2, 1)
        nx = len(checks._density_origins(extent.x0, extent.x1, rule.window, step))
        ny = len(checks._density_origins(extent.y0, extent.y1, rule.window, step))
        return max(0.0, 1.0 - len(violations) / (nx * ny))
    return 1.0
