"""DPT conflict graphs and two-coloring.

Features closer than the same-mask spacing limit cannot share an exposure;
they become adjacent in the *conflict graph*.  A layout is decomposable
exactly when that graph is bipartite; odd cycles are coloring conflicts
(the "non-decomposition-friendly designs" the pattern-matching paper
hunts).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import networkx as nx

from repro.core.report import BaseReport
from repro.geometry import GridIndex, Rect, Region
from repro.obs import get_registry, names


@dataclass
class ConflictGraph:
    """Features plus their conflict edges."""

    features: list[Region]
    graph: nx.Graph

    @property
    def num_conflict_edges(self) -> int:
        return self.graph.number_of_edges()

    def odd_cycles(self) -> list[list[int]]:
        """One witness odd cycle per non-bipartite component."""
        out: list[list[int]] = []
        for nodes in nx.connected_components(self.graph):
            sub = self.graph.subgraph(nodes)
            if not nx.is_bipartite(sub):
                out.append(_find_odd_cycle(sub))
        return out


def _find_odd_cycle(graph: nx.Graph) -> list[int]:
    """A witness odd cycle in a non-bipartite graph via BFS layering."""
    start = next(iter(graph.nodes))
    level = {start: 0}
    parent = {start: None}
    queue = [start]
    while queue:
        u = queue.pop(0)
        for v in graph.neighbors(u):
            if v not in level:
                level[v] = level[u] + 1
                parent[v] = u
                queue.append(v)
            elif level[v] == level[u] and v != parent[u]:
                # same-level edge closes an odd cycle through the BFS tree
                pu, pv = u, v
                path_u, path_v = [u], [v]
                while pu != pv:
                    if level[pu] >= level[pv]:
                        pu = parent[pu]
                        path_u.append(pu)
                    else:
                        pv = parent[pv]
                        path_v.append(pv)
                return path_u[:-1] + list(reversed(path_v))
    return []  # pragma: no cover - caller guarantees non-bipartite


@dataclass
class DecompositionResult(BaseReport):
    """Outcome of a two-coloring attempt.

    Implements the :class:`~repro.core.report.BaseReport` contract: the
    findings are the conflicting feature indices, so ``result.ok`` is
    True exactly when the layout two-colors cleanly.
    """

    mask_a: Region
    mask_b: Region
    coloring: dict[int, int]
    features: list[Region]
    conflict_features: set[int] = field(default_factory=set)
    conflict_cycles: list[list[int]] = field(default_factory=list)

    @property
    def findings(self) -> tuple[int, ...]:
        """Indices of features caught in an odd cycle, ascending."""
        return tuple(sorted(self.conflict_features))

    @property
    def num_conflicts(self) -> int:
        return len(self.conflict_cycles)

    def summary(self) -> str:
        return (
            f"DPT: {len(self.features)} features -> "
            f"A:{len([c for c in self.coloring.values() if c == 0])} "
            f"B:{len([c for c in self.coloring.values() if c == 1])}, "
            f"{self.num_conflicts} odd-cycle conflicts "
            f"({len(self.conflict_features)} features affected)"
        )


def build_conflict_graph(region: Region, same_mask_space: int) -> ConflictGraph:
    """Conflict graph of a layer at a same-mask spacing limit.

    Features are connected components; an edge joins two features whose
    Chebyshev separation is below ``same_mask_space``.
    """
    registry = get_registry()
    with registry.timer(names.DPT_CONFLICT_GRAPH_TIMER):
        features = region.components()
        graph = nx.Graph()
        graph.add_nodes_from(range(len(features)))
        index: GridIndex[int] = GridIndex(cell_size=max(4 * same_mask_space, 512))
        boxes: list[list[Rect]] = []
        for i, feat in enumerate(features):
            rects = list(feat.rects())
            boxes.append(rects)
            bb = feat.bbox
            index.insert(bb, i)
        for i, j in index.query_pairs(same_mask_space):
            if graph.has_edge(i, j):
                continue
            if _feature_distance(boxes[i], boxes[j], same_mask_space) < same_mask_space:
                graph.add_edge(i, j)
    registry.inc(names.DPT_FEATURES, len(features))
    registry.inc(names.DPT_CONFLICT_EDGES, graph.number_of_edges())
    return ConflictGraph(features, graph)


def _feature_distance(a: list[Rect], b: list[Rect], limit: int) -> int:
    best = limit
    for ra in a:
        for rb in b:
            d = ra.distance(rb)
            if d < best:
                best = d
                if best == 0:
                    return 0
    return best


def decompose_dpt(region: Region, same_mask_space: int) -> DecompositionResult:
    """Two-color a layer; conflicted components go (arbitrarily but
    deterministically) to alternating masks with their cycles reported."""
    registry = get_registry()
    t0 = time.perf_counter()
    cg = build_conflict_graph(region, same_mask_space)
    coloring: dict[int, int] = {}
    conflict_features: set[int] = set()
    cycles: list[list[int]] = []
    for nodes in nx.connected_components(cg.graph):
        sub = cg.graph.subgraph(nodes)
        if nx.is_bipartite(sub):
            coloring.update(nx.algorithms.bipartite.color(sub))
        else:
            cycles.append(_find_odd_cycle(sub))
            conflict_features.update(nodes)
            # best-effort greedy coloring so the masks stay complete
            for node in sorted(nodes):
                used = {coloring.get(nb) for nb in sub.neighbors(node)}
                coloring[node] = 0 if 0 not in used else 1
    # balance pass: each connected component's two-coloring is only fixed
    # up to a global flip, so flip whole components toward equal mask
    # loading (mask balance images best — the scoring paper's first metric)
    areas = [feat.area for feat in cg.features]
    load_a = load_b = 0
    for nodes in nx.connected_components(cg.graph):
        group = sorted(nodes)
        area0 = sum(areas[i] for i in group if coloring.get(i, 0) == 0)
        area1 = sum(areas[i] for i in group) - area0
        if (load_a + area0) + (load_b + area1) == 0:
            continue
        keep = abs((load_a + area0) - (load_b + area1))
        flip = abs((load_a + area1) - (load_b + area0))
        if flip < keep:
            for i in group:
                coloring[i] = 1 - coloring.get(i, 0)
            area0, area1 = area1, area0
        load_a += area0
        load_b += area1

    mask_a = Region()
    mask_b = Region()
    for i, feat in enumerate(cg.features):
        if coloring.get(i, 0) == 0:
            mask_a = mask_a | feat
        else:
            mask_b = mask_b | feat
    registry.observe(names.DPT_DECOMPOSE_TIMER, time.perf_counter() - t0)
    registry.inc(names.DPT_ODD_CYCLES, len(cycles))
    registry.inc(names.DPT_CONFLICT_FEATURES, len(conflict_features))
    return DecompositionResult(
        mask_a=mask_a,
        mask_b=mask_b,
        coloring=coloring,
        features=cg.features,
        conflict_features=conflict_features,
        conflict_cycles=cycles,
    )
