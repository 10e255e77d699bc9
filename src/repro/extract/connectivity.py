"""Layout connectivity extraction.

The electrical graph of a layout:

* each connected component of a conducting layer (metals, poly, and
  diffusion *after* subtracting the gates) is a node;
* a cut shape (contact/via) overlapping a node on its lower layer and a
  node on its upper layer unions them (contacts pick poly or diffusion by
  overlap);
* the transistor channel (poly over active) deliberately does NOT connect
  — source and drain are separate nets, which is what makes the extracted
  graph electrical rather than merely geometric.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geometry import GridIndex, Point, Rect, Region
from repro.layout import Cell, Layer
from repro.tech.technology import Technology


@dataclass(frozen=True, slots=True)
class NetNode:
    """One conducting component: (layer, index into that layer's list)."""

    layer: Layer
    index: int


class _UnionFind:
    def __init__(self):
        self.parent: dict[NetNode, NetNode] = {}

    def add(self, node: NetNode) -> None:
        self.parent.setdefault(node, node)

    def find(self, node: NetNode) -> NetNode:
        root = node
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[node] != root:
            self.parent[node], node = root, self.parent[node]
        return root

    def union(self, a: NetNode, b: NetNode) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


@dataclass
class ExtractedNetlist:
    """The extracted electrical graph with spatial lookup."""

    components: dict[Layer, list[Region]] = field(default_factory=dict)
    _uf: _UnionFind = field(default_factory=_UnionFind)
    _indexes: dict[Layer, GridIndex] = field(default_factory=dict)

    def node_at(self, layer: Layer, point: Point) -> NetNode | None:
        """The conducting node covering ``point`` on ``layer``."""
        index = self._indexes.get(layer)
        if index is None:
            return None
        probe = Rect(point.x, point.y, point.x + 1, point.y + 1)
        for i in index.query(probe):
            if self.components[layer][i].contains_point(point):
                return NetNode(layer, i)
        return None

    def net_of(self, layer: Layer, point: Point) -> NetNode | None:
        """Canonical net representative for the geometry at ``point``."""
        node = self.node_at(layer, point)
        return self._uf.find(node) if node is not None else None

    def same_net(self, a: tuple[Layer, Point], b: tuple[Layer, Point]) -> bool:
        na = self.net_of(*a)
        nb = self.net_of(*b)
        return na is not None and na == nb

    def net_count(self) -> int:
        roots = {self._uf.find(n) for n in self._uf.parent}
        return len(roots)

    def nodes_of_net(self, net: NetNode) -> list[NetNode]:
        root = self._uf.find(net)
        return [n for n in self._uf.parent if self._uf.find(n) == root]

    def net_region(self, net: NetNode, layer: Layer) -> Region:
        """The net's geometry on one layer."""
        # one-pass union: a layer's components are disjoint, so their
        # canonical rects already are
        return Region(
            [
                r
                for node in self.nodes_of_net(net)
                if node.layer == layer
                for r in self.components[layer][node.index].rects()
            ]
        )


def extract_nets(cell: Cell, tech: Technology) -> ExtractedNetlist:
    """Extract the electrical connectivity of a flattened cell."""
    L = tech.layers
    netlist = ExtractedNetlist()
    uf = netlist._uf

    # cuts join layers: contact joins M1 to poly or diffusion; vias join
    # adjacent metals
    cut_pairs = [
        (L.contact, (L.poly, L.active), L.metal1),
        (L.via1, (L.metal1,), L.metal2),
        (L.via2, (L.metal2,), L.metal3),
    ]
    flat = cell.regions(
        [L.poly, L.active, L.metal1, L.metal2, L.metal3, *(cut for cut, _, _ in cut_pairs)]
    )
    poly = flat[L.poly]
    diffusion = flat[L.active] - poly  # gates split source from drain

    conducting: dict[Layer, Region] = {
        L.poly: poly,
        L.active: diffusion,
        L.metal1: flat[L.metal1],
        L.metal2: flat[L.metal2],
        L.metal3: flat[L.metal3],
    }
    for layer, region in conducting.items():
        comps = region.components()
        netlist.components[layer] = comps
        index = GridIndex(cell_size=2048)
        for i, comp in enumerate(comps):
            uf.add(NetNode(layer, i))
            index.insert(comp.bbox, i)
        netlist._indexes[layer] = index

    for cut_layer, lowers, upper in cut_pairs:
        for cut in flat[cut_layer].rects():
            upper_node = _node_overlapping(netlist, upper, cut)
            lower_node = None
            for lower_layer in lowers:
                lower_node = _node_overlapping(netlist, lower_layer, cut)
                if lower_node is not None:
                    break
            if upper_node is not None and lower_node is not None:
                uf.union(upper_node, lower_node)
    return netlist


def _node_overlapping(netlist: ExtractedNetlist, layer: Layer, cut: Rect) -> NetNode | None:
    index = netlist._indexes.get(layer)
    if index is None:
        return None
    cut_region = Region(cut)
    for i in index.query(cut):
        if netlist.components[layer][i].overlaps(cut_region):
            return NetNode(layer, i)
    return None
