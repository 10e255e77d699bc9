"""Pattern matching: find library patterns in a layout (DRC Plus).

A :class:`PatternMatcher` holds a library of topological patterns, each
optionally carrying a dimensional tolerance and a fixing hint.  Scanning a
layout extracts a snippet at every anchor, canonicalizes it, and looks the
category up in the library; a dimensional filter then separates exact hits
from same-topology-different-size near-misses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry import Point, Rect
from repro.layout import Cell, Layer
from repro.patterns.topology import TopoPattern, canonical_pattern, pattern_of
from repro.patterns.window import Snippet, extract_snippet


@dataclass(frozen=True, slots=True)
class LibraryPattern:
    """A library entry: the pattern plus match policy and metadata."""

    pattern: TopoPattern
    name: str = ""
    dimension_tolerance: int | None = None  # None: topology-only match
    severity: str = "warning"
    fix_hint: str = ""


@dataclass(frozen=True, slots=True)
class PatternMatch:
    """One occurrence of a library pattern in the scanned layout."""

    library_pattern: LibraryPattern
    anchor: Point
    exact_dimensions: bool

    @property
    def marker(self) -> Rect:
        r = self.library_pattern.pattern.radius
        return Rect(self.anchor.x - r, self.anchor.y - r, self.anchor.x + r, self.anchor.y + r)


class PatternMatcher:
    """A pattern library with a scan method."""

    def __init__(self, radius: int):
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.radius = radius
        self._library: dict[tuple, list[LibraryPattern]] = {}
        self._count = 0

    def __len__(self) -> int:
        return self._count

    # -- library construction ------------------------------------------------
    def add_pattern(
        self,
        pattern: TopoPattern,
        name: str = "",
        dimension_tolerance: int | None = None,
        severity: str = "warning",
        fix_hint: str = "",
    ) -> LibraryPattern:
        if pattern.radius != self.radius:
            raise ValueError(
                f"pattern radius {pattern.radius} != matcher radius {self.radius}"
            )
        canon = canonical_pattern(pattern)
        entry = LibraryPattern(canon, name or f"pat{self._count}", dimension_tolerance, severity, fix_hint)
        self._library.setdefault(canon.category_key, []).append(entry)
        self._count += 1
        return entry

    def add_snippet(self, snippet: Snippet, **kwargs) -> LibraryPattern:
        return self.add_pattern(pattern_of(snippet), **kwargs)

    # -- scanning ------------------------------------------------------------
    def match_snippet(self, snippet: Snippet) -> list[PatternMatch]:
        probe = canonical_pattern(pattern_of(snippet))
        entries = self._library.get(probe.category_key, ())
        out: list[PatternMatch] = []
        for entry in entries:
            exact = _dims_match(entry, probe)
            if entry.dimension_tolerance is None or exact:
                out.append(PatternMatch(entry, snippet.anchor, exact))
        return out

    def scan(
        self, cell: Cell, layers: list[Layer], anchors: list[Point]
    ) -> list[PatternMatch]:
        """Scan a cell: extract a snippet per anchor and match each."""
        regions = cell.regions(layers)
        matches: list[PatternMatch] = []
        for anchor in anchors:
            snippet = extract_snippet(regions, anchor, self.radius)
            matches.extend(self.match_snippet(snippet))
        return matches


def _dims_match(entry: LibraryPattern, probe: TopoPattern) -> bool:
    tol = entry.dimension_tolerance
    if tol is None:
        tol = 0
    ref = entry.pattern.dimension_vector()
    got = probe.dimension_vector()
    if len(ref) != len(got):
        return False
    return all(abs(a - b) <= tol for a, b in zip(ref, got))
