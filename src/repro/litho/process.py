"""Process conditions, corner sets, and PV bands."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.geometry import Rect, Region
from repro.litho.model import LithoModel
from repro.litho.raster import raster_to_region


@dataclass(frozen=True, slots=True)
class ProcessCondition:
    """One (dose, defocus) point in the process space."""

    dose: float = 1.0
    defocus_nm: float = 0.0

    def __str__(self) -> str:
        return f"dose={self.dose:.3f}, defocus={self.defocus_nm:g}nm"


@dataclass(frozen=True, slots=True)
class ProcessWindow:
    """A rectangular dose/defocus window with corner enumeration.

    Both dose bounds must be positive and ``defocus_max_nm`` finite
    (``ValueError`` otherwise, NaN included): every sweep over the
    window thresholds at ``resist_threshold / dose`` and sizes its halo
    from the defocus, so a bad window fails here, before any tile is
    simulated.
    """

    dose_min: float = 0.95
    dose_max: float = 1.05
    defocus_max_nm: float = 80.0

    def __post_init__(self) -> None:
        if not (self.dose_min > 0 and self.dose_max > 0):
            raise ValueError(
                f"dose must be positive (dose_min={self.dose_min}, dose_max={self.dose_max})"
            )
        if not math.isfinite(self.defocus_max_nm):
            raise ValueError(
                f"defocus_max_nm must be finite (defocus_max_nm={self.defocus_max_nm})"
            )

    def corners(self) -> list[ProcessCondition]:
        """Nominal plus the four worst-case corners."""
        return [
            ProcessCondition(1.0, 0.0),
            ProcessCondition(self.dose_min, 0.0),
            ProcessCondition(self.dose_max, 0.0),
            ProcessCondition(self.dose_min, self.defocus_max_nm),
            ProcessCondition(self.dose_max, self.defocus_max_nm),
        ]

    def grid(self, n_dose: int = 5, n_defocus: int = 3) -> Iterator[ProcessCondition]:
        """A full dose x defocus sampling of the window."""
        for i in range(n_dose):
            dose = self.dose_min + (self.dose_max - self.dose_min) * i / max(n_dose - 1, 1)
            for j in range(n_defocus):
                defocus = self.defocus_max_nm * j / max(n_defocus - 1, 1)
                yield ProcessCondition(dose, defocus)


def _sweep_masks(
    model: LithoModel,
    mask: Region,
    window: Rect,
    conditions: Iterable[ProcessCondition],
    grid: int | None = None,
) -> Iterator[tuple[ProcessCondition, np.ndarray]]:
    """Printed rasters at each condition: :func:`sweep_contours` before
    the contour conversion."""
    conditions = list(conditions)
    sim = model.sim_cache(mask, window, grid, defocus_hint=[c.defocus_nm for c in conditions])
    for condition in conditions:
        yield condition, sim.print_image(condition.dose, condition.defocus_nm)


def sweep_contours(
    model: LithoModel,
    mask: Region,
    window: Rect,
    conditions: Iterable[ProcessCondition],
    grid: int | None = None,
) -> Iterator[tuple[ProcessCondition, Region]]:
    """Printed contours at each condition, through one :class:`SimCache
    <repro.litho.model.SimCache>`.

    The sweep rasterizes the mask once and computes one certified
    intensity image per unique blur sigma (±defocus share one), a
    product over the raster's runs of identical lines.  A five-corner
    set costs 1 rasterization + 2 blurred images and a 5x3
    :meth:`ProcessWindow.grid` sweep costs 1 + 3 (instead of 15
    rasterizations + 30 Gaussian filters).  Every contour is
    bit-identical to one independent :meth:`LithoModel.print_contour
    <repro.litho.model.LithoModel.print_contour>` per condition, the
    sweep ``tests/litho_reference.py`` runs.
    """
    g = grid or model.settings.grid_nm
    for condition, printed in _sweep_masks(model, mask, window, conditions, g):
        yield condition, raster_to_region(printed, window, g)


def pv_bands(
    model: LithoModel,
    mask: Region,
    window: Rect,
    process: ProcessWindow | None = None,
    grid: int | None = None,
    conditions: Iterable[ProcessCondition] | None = None,
) -> tuple[Region, Region]:
    """Process-variability bands over the window corners.

    Returns ``(inner, outer)``: the geometry printed under *all* corners
    and under *any* corner.  The band ``outer - inner`` is the variability
    region whose area is the standard printability metric.  Pass
    ``conditions`` (e.g. :meth:`ProcessWindow.grid`) to band over an
    arbitrary, non-empty condition set instead of the five corners.
    """
    if conditions is None:
        conditions = (process or ProcessWindow()).corners()
    contours = (printed for _, printed in sweep_contours(model, mask, window, conditions, grid))
    inner = next(contours, None)
    if inner is None:
        raise ValueError("pv_bands needs at least one process condition")
    outer = inner
    for printed in contours:
        inner = inner & printed
        outer = outer | printed
    return inner, outer


def pv_band_area(
    model: LithoModel,
    mask: Region,
    window: Rect,
    process: ProcessWindow | None = None,
    grid: int | None = None,
) -> int:
    """Area of the PV band (smaller = more robust printing)."""
    inner, outer = pv_bands(model, mask, window, process, grid)
    return (outer - inner).area
