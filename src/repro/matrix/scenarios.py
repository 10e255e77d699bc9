"""Scenario enumeration for the library compliance matrix.

A *scenario* is one atomic check: a metal-1 window (a standalone cell or
an abutment window straddling one shared cell boundary) evaluated under
one check kind — litho hotspot detection at a process corner, or DPT
two-colorability.  Enumeration is exhaustive and deterministic: every
ordered cell pair (including a cell against itself), both right-cell
flips, every requested node and corner.

Scenario identity is content-addressed at two levels:

* ``key`` — digest of the *physics*: check kind, node, corner, window
  dimensions, and the canonical rect decomposition of the window,
  normalized to the origin.  Two different cell pairs whose abutment
  windows contain identical geometry share a key, which is exactly what
  the :class:`~repro.parallel.cache.ResultStore` deduplicates on.
* ``sid`` — digest of the key plus the *provenance* (pair, flip, kind),
  unique per scenario row in the report.

Both are :func:`~repro.parallel.cache.digest_parts` digests, so they are
stable across runs, processes, and hash seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.designgen import abut_cells, make_stdcell_library
from repro.geometry import Rect, Region
from repro.litho.process import ProcessWindow
from repro.parallel.cache import digest_parts
from repro.tech import make_node

SCHEMA = "matrix-v1"
CHECKS = ("litho", "dpt")
KINDS = ("standalone", "abutment")


@dataclass(frozen=True)
class MatrixSpec:
    """What to enumerate: the cross product driving the matrix."""

    nodes: tuple[int, ...] = (45,)
    cells: tuple[str, ...] | None = None  # None: the whole library
    corners: int = 2                      # litho corners (nominal first)
    checks: tuple[str, ...] = CHECKS
    flips: tuple[bool, ...] = (False, True)
    window_nm: int | None = None          # half-width; None: 2 * poly_pitch

    def __post_init__(self) -> None:
        bad = [c for c in self.checks if c not in CHECKS]
        if bad:
            raise ValueError(f"unknown checks {bad}; expected subset of {CHECKS}")
        if self.corners < 1:
            raise ValueError("need at least one process corner")


@dataclass(frozen=True)
class Scenario:
    """One enumerated check, carrying its own window geometry."""

    sid: str
    key: str
    kind: str                  # "standalone" | "abutment"
    check: str                 # "litho" | "dpt"
    node: int
    cell_a: str
    cell_b: str | None         # None for standalone
    flip: bool
    corner: tuple[float, float] | None  # (dose, defocus_nm); None for dpt
    window_w: int
    window_h: int
    rects: tuple[tuple[int, int, int, int], ...] = field(repr=False)

    def item(self) -> dict:
        """The wire/executor form: JSON-pure, self-contained."""
        return {
            "key": self.key,
            "check": self.check,
            "node": self.node,
            "corner": list(self.corner) if self.corner is not None else None,
            "window_w": self.window_w,
            "window_h": self.window_h,
            "rects": [list(r) for r in self.rects],
        }

    def row(self) -> dict:
        """The report form: provenance without the geometry payload."""
        return {
            "sid": self.sid,
            "key": self.key,
            "kind": self.kind,
            "check": self.check,
            "node": self.node,
            "cell_a": self.cell_a,
            "cell_b": self.cell_b,
            "flip": self.flip,
            "corner": list(self.corner) if self.corner is not None else None,
        }


def corner_conditions(count: int) -> list[tuple[float, float]]:
    """The first ``count`` process corners, nominal first."""
    corners = ProcessWindow().corners()
    return [(c.dose, c.defocus_nm) for c in corners[:count]]


def _window_region(region: Region, window: Rect) -> tuple[Region, int, int]:
    """Clip ``region`` to ``window`` and normalize to the origin, so
    identical windows from different pairs digest identically."""
    normalized = region.clipped(window).translated(-window.x0, -window.y0)
    return normalized, window.x1 - window.x0, window.y1 - window.y0


def _scenarios_for(
    spec: MatrixSpec,
    *,
    kind: str,
    node: int,
    cell_a: str,
    cell_b: str | None,
    flip: bool,
    region: Region,
    width: int,
    height: int,
    corners: list[tuple[float, float]],
) -> list[Scenario]:
    rects = tuple(r.as_tuple() for r in region.rects())
    geometry = region.digest()
    out: list[Scenario] = []
    for check in spec.checks:
        for corner in corners if check == "litho" else [None]:
            key = digest_parts(
                SCHEMA, check, node, corner, (width, height), geometry
            )
            sid = digest_parts("matrix-sid", key, kind, cell_a, cell_b, flip)[:16]
            out.append(
                Scenario(
                    sid=sid,
                    key=key,
                    kind=kind,
                    check=check,
                    node=node,
                    cell_a=cell_a,
                    cell_b=cell_b,
                    flip=flip,
                    corner=corner,
                    window_w=width,
                    window_h=height,
                    rects=rects,
                )
            )
    return out


def enumerate_scenarios(spec: MatrixSpec) -> list[Scenario]:
    """Every scenario in the matrix, in deterministic order: node, then
    standalone cells, then ordered pairs x flips, checks/corners inner."""
    scenarios: list[Scenario] = []
    for node in spec.nodes:
        tech = make_node(node)
        library = make_stdcell_library(tech)
        names = list(spec.cells) if spec.cells is not None else library.names()
        missing = [n for n in names if n not in library.cells]
        if missing:
            raise ValueError(f"unknown cells {missing}; library has {library.names()}")
        layer = tech.layers.metal1
        half = spec.window_nm if spec.window_nm is not None else 2 * tech.poly_pitch
        corners = corner_conditions(spec.corners)

        for name in names:
            cell = library[name].cell
            bbox = cell.bbox
            region, width, height = _window_region(cell.region(layer), bbox)
            scenarios.extend(
                _scenarios_for(
                    spec, kind="standalone", node=node, cell_a=name, cell_b=None,
                    flip=False, region=region, width=width, height=height,
                    corners=corners,
                )
            )

        for a in names:
            for b in names:
                for flip in spec.flips:
                    left, right = library[a].cell, library[b].cell
                    pair = abut_cells(left, right, flip_right=flip)
                    lb = left.bbox
                    boundary = lb.x1 - lb.x0
                    pb = pair.bbox
                    window = Rect(boundary - half, pb.y0, boundary + half, pb.y1)
                    region, width, height = _window_region(
                        pair.region(layer, window), window
                    )
                    scenarios.extend(
                        _scenarios_for(
                            spec, kind="abutment", node=node, cell_a=a, cell_b=b,
                            flip=flip, region=region, width=width, height=height,
                            corners=corners,
                        )
                    )
    return scenarios
