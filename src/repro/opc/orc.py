"""Optical rule checking (post-OPC verification).

ORC answers three questions about a finished mask: does the target print
within EPE tolerance at nominal, does it survive the process corners
without pinch/bridge hotspots, and do the assist features stay
sub-resolution?
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.report import BaseReport
from repro.geometry import Rect, Region
from repro.litho.hotspots import Hotspot, find_hotspots
from repro.litho.model import LithoModel
from repro.litho.process import ProcessWindow
from repro.opc.fragments import fragment_region
from repro.opc.modelbased import edge_placement_errors


@dataclass
class OrcReport(BaseReport):
    rms_epe_nm: float = 0.0
    max_epe_nm: float = 0.0
    epe_violations: int = 0
    hotspots: list[Hotspot] = field(default_factory=list)
    printing_srafs: int = 0

    @property
    def findings_count(self) -> int:
        return self.epe_violations + len(self.hotspots) + self.printing_srafs

    def summary(self) -> str:
        return (
            f"ORC: rms EPE {self.rms_epe_nm:.2f} nm, max {self.max_epe_nm:.2f} nm, "
            f"{self.epe_violations} EPE violations, {len(self.hotspots)} hotspots, "
            f"{self.printing_srafs} printing SRAFs -> "
            f"{'PASS' if self.ok else 'FAIL'}"
        )


def verify_opc(
    model: LithoModel,
    mask: Region,
    drawn: Region,
    window: Rect,
    srafs: Region | None = None,
    epe_tolerance_nm: float = 5.0,
    process: ProcessWindow | None = None,
    grid: int | None = None,
) -> OrcReport:
    """Full post-OPC verification of a mask against its drawn target."""
    g = grid or model.settings.grid_nm
    full_mask = mask | srafs if srafs is not None else mask
    fragments = fragment_region(drawn)
    epes = edge_placement_errors(model, full_mask, drawn, window, fragments, grid=g)
    report = OrcReport()
    if epes:
        arr = np.asarray(epes)
        report.rms_epe_nm = float(np.sqrt(np.mean(arr**2)))
        report.max_epe_nm = float(np.max(np.abs(arr)))
        report.epe_violations = int(np.sum(np.abs(arr) > epe_tolerance_nm))
    report.hotspots = _mask_hotspots(model, full_mask, drawn, window, process, g)
    if srafs is not None and not srafs.is_empty:
        printed = model.print_contour(full_mask, window, dose=1.05, grid=g)
        report.printing_srafs = sum(
            1 for bar in srafs.components() if not (printed & (bar - drawn.grown(2))).is_empty
        )
    return report


def _mask_hotspots(
    model: LithoModel,
    mask: Region,
    drawn: Region,
    window: Rect,
    process: ProcessWindow | None,
    grid: int,
) -> list[Hotspot]:
    """Hotspots of the printed mask measured against the drawn intent."""
    return find_hotspots(model, drawn, window, process, grid=grid, mask=mask)