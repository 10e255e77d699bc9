"""Tests for connectivity extraction and LVS-lite comparison."""


from repro.designgen import via_chain
from repro.extract import (
    check_connectivity,
    electrical_hotspot_impact,
    extract_nets,
)
from repro.geometry import Point, Rect, Region
from repro.layout import Cell
from repro.litho.hotspots import Hotspot, HotspotKind
from repro.litho.process import ProcessCondition


class TestBasicConnectivity:
    def test_two_isolated_wires(self, tech45):
        L = tech45.layers
        cell = Cell("X")
        cell.add_rect(L.metal1, Rect(0, 0, 1000, 45))
        cell.add_rect(L.metal1, Rect(0, 200, 1000, 245))
        netlist = extract_nets(cell, tech45)
        assert netlist.net_count() == 2
        assert not netlist.same_net(
            (L.metal1, Point(10, 20)), (L.metal1, Point(10, 220))
        )

    def test_via_joins_layers(self, tech45):
        L = tech45.layers
        cell = Cell("X")
        cell.add_rect(L.metal1, Rect(0, 0, 1000, 45))
        cell.add_rect(L.metal2, Rect(0, 0, 45, 1000))
        cell.add_rect(L.via1, Rect(0, 0, 45, 45))
        netlist = extract_nets(cell, tech45)
        assert netlist.same_net((L.metal1, Point(900, 20)), (L.metal2, Point(20, 900)))

    def test_no_via_no_connection(self, tech45):
        L = tech45.layers
        cell = Cell("X")
        cell.add_rect(L.metal1, Rect(0, 0, 1000, 45))
        cell.add_rect(L.metal2, Rect(0, 0, 45, 1000))
        netlist = extract_nets(cell, tech45)
        assert not netlist.same_net((L.metal1, Point(900, 20)), (L.metal2, Point(20, 900)))

    def test_gate_splits_diffusion(self, tech45):
        """Poly over active separates source from drain — the transistor."""
        L = tech45.layers
        cell = Cell("T")
        cell.add_rect(L.active, Rect(0, 0, 300, 100))
        cell.add_rect(L.poly, Rect(130, -50, 170, 150))
        netlist = extract_nets(cell, tech45)
        source = (L.active, Point(50, 50))
        drain = (L.active, Point(250, 50))
        gate = (L.poly, Point(150, -20))
        assert not netlist.same_net(source, drain)
        assert not netlist.same_net(source, gate)

    def test_contact_picks_poly_or_diffusion(self, tech45):
        L = tech45.layers
        cell = Cell("C")
        cell.add_rect(L.poly, Rect(0, 0, 100, 100))
        cell.add_rect(L.metal1, Rect(0, 0, 100, 100))
        cell.add_rect(L.contact, Rect(20, 20, 65, 65))
        netlist = extract_nets(cell, tech45)
        assert netlist.same_net((L.poly, Point(5, 5)), (L.metal1, Point(90, 90)))

    def test_probe_off_geometry(self, tech45):
        L = tech45.layers
        cell = Cell("E")
        cell.add_rect(L.metal1, Rect(0, 0, 10, 10))
        netlist = extract_nets(cell, tech45)
        assert netlist.net_of(L.metal1, Point(500, 500)) is None


class TestGeneratedDesigns:
    def test_via_chain_is_one_net(self, tech45):
        chain = via_chain(tech45, 10)
        netlist = extract_nets(chain.flattened(), tech45)
        L = tech45.layers
        bb = chain.bbox
        assert netlist.same_net(
            (L.metal1, Point(10, 30)), (L.metal1, Point(bb.x1 - 10, 30))
        )

    def test_net_region_is_union_of_net_components(self, tech45):
        chain = via_chain(tech45, 10)
        netlist = extract_nets(chain.flattened(), tech45)
        L = tech45.layers
        net = netlist.net_of(L.metal1, Point(10, 30))
        for layer in (L.metal1, L.metal2):
            expected = Region()
            for node in netlist.nodes_of_net(net):
                if node.layer == layer:
                    expected = expected | netlist.components[layer][node.index]
            assert len(expected.components()) > 1
            assert netlist.net_region(net, layer) == expected

    def test_router_connectivity(self, small_block, tech45):
        """Every routed net is electrically closed — the router's
        correctness proven by extraction, not just by DRC."""
        netlist = extract_nets(small_block.top.flattened(), tech45)
        L = tech45.layers
        assert small_block.routed_nets
        for src, dst in small_block.routed_nets:
            assert netlist.same_net((L.metal1, src.at), (L.metal1, dst.at)), (src, dst)

    def test_distinct_nets_stay_distinct(self, small_block, tech45):
        netlist = extract_nets(small_block.top.flattened(), tech45)
        L = tech45.layers
        groups: dict = {}
        for k, (src, dst) in enumerate(small_block.routed_nets):
            groups[f"n{k}"] = [(L.metal1, src.at), (L.metal1, dst.at)]
        report = check_connectivity(netlist, groups)
        assert report.opens == []
        assert report.missing == []
        # shorts only through legitimately shared pins
        endpoint_sets = {
            name: {(p.x, p.y) for _, p in probes} for name, probes in groups.items()
        }
        for a, b in report.shorts:
            assert endpoint_sets[a] & endpoint_sets[b], (a, b)


class TestCheckConnectivity:
    def test_detects_open(self, tech45):
        L = tech45.layers
        cell = Cell("O")
        cell.add_rect(L.metal1, Rect(0, 0, 100, 45))
        cell.add_rect(L.metal1, Rect(200, 0, 300, 45))
        netlist = extract_nets(cell, tech45)
        report = check_connectivity(
            netlist, {"net": [(L.metal1, Point(50, 20)), (L.metal1, Point(250, 20))]}
        )
        assert report.opens == ["net"]
        assert not report.ok

    def test_detects_short(self, tech45):
        L = tech45.layers
        cell = Cell("S")
        cell.add_rect(L.metal1, Rect(0, 0, 1000, 45))
        netlist = extract_nets(cell, tech45)
        report = check_connectivity(
            netlist,
            {
                "a": [(L.metal1, Point(10, 20))],
                "b": [(L.metal1, Point(900, 20))],
            },
        )
        assert report.shorts == [("a", "b")]

    def test_detects_missing(self, tech45):
        L = tech45.layers
        cell = Cell("M")
        cell.add_rect(L.metal1, Rect(0, 0, 10, 10))
        netlist = extract_nets(cell, tech45)
        report = check_connectivity(netlist, {"x": [(L.metal1, Point(999, 999))]})
        assert report.missing
        assert "FAIL" in report.summary()

    def test_clean(self, tech45):
        L = tech45.layers
        cell = Cell("OK")
        cell.add_rect(L.metal1, Rect(0, 0, 1000, 45))
        cell.add_rect(L.metal1, Rect(0, 200, 1000, 245))
        netlist = extract_nets(cell, tech45)
        report = check_connectivity(
            netlist,
            {
                "a": [(L.metal1, Point(10, 20)), (L.metal1, Point(990, 20))],
                "b": [(L.metal1, Point(10, 220))],
            },
        )
        assert report.ok


class TestElectricalImpact:
    def make_netlist(self, tech45):
        L = tech45.layers
        cell = Cell("EI")
        cell.add_rect(L.metal1, Rect(0, 0, 1000, 45))      # net A
        cell.add_rect(L.metal1, Rect(0, 100, 1000, 145))   # net B
        return extract_nets(cell, tech45), L

    def hotspot(self, kind, marker):
        return Hotspot(kind, marker, severity=100.0, condition=ProcessCondition())

    def test_killer_short(self, tech45):
        netlist, L = self.make_netlist(tech45)
        bridge = self.hotspot(HotspotKind.BRIDGE, Rect(400, 45, 500, 100))
        counts = electrical_hotspot_impact(netlist, [bridge], L.metal1)
        assert counts["killer_short"] == 1

    def test_benign_bridge(self, tech45):
        netlist, L = self.make_netlist(tech45)
        # a "bridge" entirely alongside net A touches only one net
        bridge = self.hotspot(HotspotKind.BRIDGE, Rect(400, 10, 500, 30))
        counts = electrical_hotspot_impact(netlist, [bridge], L.metal1)
        assert counts["benign_bridge"] == 1
        assert counts["killer_short"] == 0

    def test_potential_open(self, tech45):
        netlist, L = self.make_netlist(tech45)
        pinch = self.hotspot(HotspotKind.PINCH, Rect(400, 10, 450, 35))
        counts = electrical_hotspot_impact(netlist, [pinch], L.metal1)
        assert counts["potential_open"] == 1
