"""LVS-lite: compare extracted connectivity against intent, and give
litho hotspots electrical meaning."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.report import BaseReport
from repro.extract.connectivity import ExtractedNetlist, NetNode
from repro.geometry import Point, Region
from repro.layout import Layer
from repro.litho.hotspots import Hotspot, HotspotKind


@dataclass
class ConnectivityReport(BaseReport):
    """Result of checking expected net groups against the extraction."""

    opens: list[str] = field(default_factory=list)    # intended nets that split
    shorts: list[tuple[str, str]] = field(default_factory=list)  # merged pairs
    missing: list[str] = field(default_factory=list)  # probe points on nothing

    @property
    def findings_count(self) -> int:
        return len(self.opens) + len(self.shorts) + len(self.missing)

    def summary(self) -> str:
        return (
            f"connectivity: {len(self.opens)} opens, {len(self.shorts)} shorts, "
            f"{len(self.missing)} missing probes -> "
            f"{'CLEAN' if self.ok else 'FAIL'}"
        )


def check_connectivity(
    netlist: ExtractedNetlist,
    expected: dict[str, list[tuple[Layer, Point]]],
) -> ConnectivityReport:
    """Check that each named group of probe points is one net, and that
    different groups are different nets."""
    report = ConnectivityReport()
    representative: dict[str, NetNode] = {}
    for name, probes in expected.items():
        nets = []
        for layer, point in probes:
            net = netlist.net_of(layer, point)
            if net is None:
                report.missing.append(f"{name}@({point.x},{point.y})")
            else:
                nets.append(net)
        if not nets:
            continue
        if len(set(nets)) > 1:
            report.opens.append(name)
        representative[name] = nets[0]
    names = sorted(representative)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            if representative[names[i]] == representative[names[j]]:
                report.shorts.append((names[i], names[j]))
    return report


def electrical_hotspot_impact(
    netlist: ExtractedNetlist,
    hotspots: list[Hotspot],
    layer: Layer,
) -> dict[str, int]:
    """Classify hotspots by electrical consequence on ``layer``.

    * a BRIDGE between two different nets is a *killer short*;
    * a BRIDGE within one net is *benign* (the panel's point that raw
      hotspot counts overstate risk);
    * a PINCH on a net is a potential open (severity-weighted upstream).
    """
    counts = {"killer_short": 0, "benign_bridge": 0, "potential_open": 0, "unmapped": 0}
    for hotspot in hotspots:
        if hotspot.kind is HotspotKind.BRIDGE:
            nets = _nets_touching(netlist, layer, hotspot)
            if len(nets) >= 2:
                counts["killer_short"] += 1
            elif len(nets) == 1:
                counts["benign_bridge"] += 1
            else:
                counts["unmapped"] += 1
        elif hotspot.kind is HotspotKind.PINCH:
            centre = hotspot.marker.center
            if netlist.net_of(layer, centre) is not None:
                counts["potential_open"] += 1
            else:
                counts["unmapped"] += 1
        else:
            counts["potential_open"] += 1
    return counts


def _nets_touching(netlist: ExtractedNetlist, layer: Layer, hotspot: Hotspot) -> set[NetNode]:
    """Distinct nets whose geometry intersects the hotspot marker."""
    nets: set[NetNode] = set()
    marker = Region(hotspot.marker.expanded(2))
    index = netlist._indexes.get(layer)
    if index is None:
        return nets
    for i in index.query(hotspot.marker.expanded(2)):
        if netlist.components[layer][i].overlaps(marker):
            nets.add(netlist._uf.find(NetNode(layer, i)))
    return nets
