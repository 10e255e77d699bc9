"""Alternating phase-shift mask (altPSM) assignment for critical gates.

The other two-coloring RET of the era: each critical (minimum-length)
gate is flanked by two clear windows etched to opposite phases (0 and
180 degrees), whose interference darkens the gate line.  Neighbouring
gates that share optical proximity must alternate consistently — phase
assignment is a graph two-coloring, and odd cycles are *phase conflicts*
that force layout changes, exactly like DPT a node later.

We reuse the DPT conflict-graph machinery: nodes are critical gates,
edges join gates within the phase-interaction distance, and the coloring
decides which side of each gate carries phase 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx

from repro.core.report import BaseReport
from repro.dpt.decompose import _feature_distance, _find_odd_cycle
from repro.geometry import Rect, Region


@dataclass
class PhaseAssignment(BaseReport):
    """Shifter geometry per phase plus any unresolvable conflicts.

    Implements the :class:`~repro.core.report.BaseReport` contract: the
    findings are the phase-conflicted gate indices, so ``pa.ok`` is
    True exactly when every critical gate got a consistent phase.
    """

    phase0: Region
    phase180: Region
    critical_gates: int = 0
    conflicts: int = 0
    conflict_gates: set[int] = field(default_factory=set)

    @property
    def findings(self) -> tuple[int, ...]:
        """Indices of gates caught in a phase conflict, ascending."""
        return tuple(sorted(self.conflict_gates))

    @property
    def findings_count(self) -> int:
        return self.conflicts

    def summary(self) -> str:
        return (
            f"altPSM: {self.critical_gates} critical gates, "
            f"{len(self.phase0)}+{len(self.phase180)} shifters, "
            f"{self.conflicts} phase conflicts"
        )


def critical_gates(poly: Region, active: Region, max_length_nm: int) -> list[Rect]:
    """Gates (poly over active) whose channel length needs PSM."""
    gates = []
    for g in (poly & active).rects():
        length = min(g.width, g.height)
        if length <= max_length_nm:
            gates.append(g)
    return gates


def assign_phases(
    poly: Region,
    active: Region,
    max_length_nm: int,
    interaction_nm: int,
    shifter_width_nm: int = 100,
    shifter_gap_nm: int = 20,
) -> PhaseAssignment:
    """Assign alternating phases to the shifters of every critical gate.

    Two gates within ``interaction_nm`` must take opposite orientations
    (which side is phase 0); the two-coloring is delegated to the DPT
    decomposer over the gate rectangles, including its odd-cycle
    reporting.  Shifter windows are placed ``shifter_gap_nm`` off each
    gate flank, ``shifter_width_nm`` wide.
    """
    gates = critical_gates(poly, active, max_length_nm)
    assignment = PhaseAssignment(Region(), Region(), critical_gates=len(gates))
    if not gates:
        return assignment
    # one phase node per poly LINE: both channel segments of a gate line
    # (NMOS and PMOS) share the same flanking shifters, so they must be
    # one node — otherwise every cell would report a spurious odd cycle
    lines: list[Region] = []
    for component in poly.components():
        owned = [g for g in gates if component.covers(Region(g))]
        if owned:
            lines.append(Region(owned))
    # conflict graph over the LINE nodes (not connected components —
    # a line's N and P channel rects are one node by construction)
    boxes = [list(line.rects()) for line in lines]
    graph = nx.Graph()
    graph.add_nodes_from(range(len(lines)))
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            if _feature_distance(boxes[i], boxes[j], interaction_nm) < interaction_nm:
                graph.add_edge(i, j)
    coloring: dict[int, int] = {}
    for nodes in nx.connected_components(graph):
        sub = graph.subgraph(nodes)
        if nx.is_bipartite(sub):
            coloring.update(nx.algorithms.bipartite.color(sub))
        else:
            assignment.conflicts += 1
            assignment.conflict_gates.update(_find_odd_cycle(sub))
            for node in sorted(nodes):
                used = {coloring.get(nb) for nb in sub.neighbors(node)}
                coloring[node] = 0 if 0 not in used else 1

    phase0_rects: list[Rect] = []
    phase180_rects: list[Rect] = []
    for i, feature in enumerate(lines):
        orientation = coloring.get(i, 0)
        for gate in feature.rects():
            left, right = _shifters(gate, shifter_width_nm, shifter_gap_nm)
            if orientation == 0:
                phase0_rects.append(left)
                phase180_rects.append(right)
            else:
                phase0_rects.append(right)
                phase180_rects.append(left)
    phase0 = Region(phase0_rects)
    phase180 = Region(phase180_rects)
    # facing shifters of opposite phase may collide at tight pitch: the
    # overlap belongs to neither (a phase cannot be both 0 and 180)
    collision = phase0 & phase180
    assignment.phase0 = phase0 - collision
    assignment.phase180 = phase180 - collision
    return assignment


def _shifters(gate: Rect, width: int, gap: int) -> tuple[Rect, Rect]:
    """The two clear windows flanking a gate, across its length axis."""
    if gate.width <= gate.height:  # vertical poly: shifters left/right
        left = Rect(gate.x0 - gap - width, gate.y0, gate.x0 - gap, gate.y1)
        right = Rect(gate.x1 + gap, gate.y0, gate.x1 + gap + width, gate.y1)
    else:  # horizontal poly: shifters below/above
        left = Rect(gate.x0, gate.y0 - gap - width, gate.x1, gate.y0 - gap)
        right = Rect(gate.x0, gate.y1 + gap, gate.x1, gate.y1 + gap + width)
    return left, right
