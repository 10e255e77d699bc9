"""Violation objects and reports."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.core.report import BaseReport
from repro.geometry import Rect
from repro.parallel.faults import QuarantinedTile
from repro.tech.rules import Rule, RuleSeverity


@dataclass(frozen=True, slots=True)
class Violation:
    """One DRC violation: the rule broken and a marker box locating it."""

    rule: Rule
    marker: Rect
    measured: float | None = None
    message: str = ""

    @property
    def severity(self) -> RuleSeverity:
        return self.rule.severity

    def __str__(self) -> str:
        loc = self.marker.as_tuple()
        meas = f" measured={self.measured:g}" if self.measured is not None else ""
        return f"{self.rule.name} @ {loc}{meas} {self.message}".rstrip()


@dataclass
class DrcReport(BaseReport):
    """Aggregated result of a DRC run."""

    cell_name: str = ""
    violations: list[Violation] = field(default_factory=list)
    rules_run: int = 0
    # tiled/incremental execution counters (zero for the single-pass path)
    tiles: int = 0
    tiles_computed: int = 0
    tiles_cached: int = 0
    tiles_resumed: int = 0
    quarantined: list[QuarantinedTile] = field(default_factory=list)
    compute_s: float = 0.0
    elapsed_s: float = 0.0

    @property
    def findings(self) -> list[Violation]:
        return self.violations

    @property
    def cache_hit_rate(self) -> float:
        return self.tiles_cached / self.tiles if self.tiles else 0.0

    def add(self, violation: Violation) -> None:
        self.violations.append(violation)

    def extend(self, violations: list[Violation]) -> None:
        self.violations.extend(violations)

    def __len__(self) -> int:
        return len(self.violations)

    def __iter__(self) -> Iterator[Violation]:
        return iter(self.violations)

    def by_rule(self) -> dict[str, list[Violation]]:
        out: dict[str, list[Violation]] = {}
        for v in self.violations:
            out.setdefault(v.rule.name, []).append(v)
        return out

    def count(self, severity: RuleSeverity | None = None) -> int:
        if severity is None:
            return len(self.violations)
        return sum(1 for v in self.violations if v.severity is severity)

    def minimum_only(self) -> "DrcReport":
        return DrcReport(
            self.cell_name,
            [v for v in self.violations if v.severity is RuleSeverity.MINIMUM],
            self.rules_run,
        )

    def summary(self) -> str:
        lines = [f"DRC report for {self.cell_name or '<regions>'}: "
                 f"{len(self.violations)} violations across {self.rules_run} rules"]
        if self.tiles:
            line = (
                f"  tiles: {self.tiles} ({self.tiles_computed} computed, "
                f"{self.tiles_cached} cached, {self.cache_hit_rate:.0%} hit rate)"
            )
            if self.tiles_resumed:
                line += f" [resumed: {self.tiles_resumed}]"
            lines.append(line)
        if self.quarantined:
            lines.append(f"  QUARANTINED: {len(self.quarantined)} tasks failed")
        for name, vs in sorted(self.by_rule().items()):
            lines.append(f"  {name:<16} {len(vs):>6}")
        return "\n".join(lines)
