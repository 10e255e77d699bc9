"""repro — "DFM in practice: hit or hype?" (DAC 2008), as a library.

A complete miniature design-for-manufacturability platform: Manhattan
geometry kernel, hierarchical layout database with GDSII I/O, DRC with
recommended-rule scoring, topological pattern catalogs and matching (DRC
Plus), scalar litho simulation with OPC/SRAF/ORC, double-patterning
decomposition, critical-area yield models with redundant vias and wire
spreading, CMP dummy fill, CD-aware timing — and, on top, the hit-or-hype
evaluation harness that turns the DAC'08 panel debate into measured
benefit/cost verdicts.

Quickstart::

    from repro import make_node, generate_logic_block, LogicBlockSpec
    from repro import evaluate_techniques

    tech = make_node(45)
    block = generate_logic_block(tech, LogicBlockSpec(rows=3, weak_spots=8))
    card = evaluate_techniques(block.top, tech)
    print(card.render())
"""

__version__ = "1.0.0"

# geometry kernel
from repro.geometry import Point, Rect, Polygon, Region, Orientation, Transform, GridIndex

# layout database + IO
from repro.layout import Layer, Cell, CellReference, Layout
from repro.gdsii import read_gds, write_gds, read_json, write_json

# technology
from repro.tech import (
    Technology,
    RuleDeck,
    RuleSeverity,
    make_node,
    NODE_65,
    NODE_45,
    NODE_32,
)

# observability
from repro.obs import MetricsRegistry, RunManifest, get_registry, get_tracer, span

# unified report API
from repro.core.report import BaseReport

# engines
from repro.parallel import (
    AbortRun,
    FaultPlan,
    QuarantinedTile,
    Tile,
    TileCache,
    TileExecutor,
    tile_grid,
)
from repro.drc import run_drc, DrcReport, Violation, score_recommended_rules, DfmScore
from repro.patterns import (
    PatternCatalog,
    PatternMatcher,
    extract_patterns,
    via_enclosure_catalog,
    kl_divergence,
    cluster_snippets,
)
from repro.litho import (
    LithoModel,
    simulate,
    ProcessWindow,
    pv_bands,
    measure_cd,
    Cutline,
    find_hotspots,
    Hotspot,
)
from repro.opc import apply_rule_opc, apply_model_opc, insert_srafs, verify_opc
from repro.dpt import decompose_dpt, decompose_with_stitches, score_decomposition
from repro.yieldmodels import (
    critical_area_shorts,
    critical_area_opens,
    yield_poisson,
    yield_negative_binomial,
    insert_redundant_vias,
    spread_wires,
    widen_wires,
)
from repro.cmp import density_map, dummy_fill, thickness_map

# generators
from repro.designgen import (
    make_stdcell_library,
    generate_logic_block,
    LogicBlockSpec,
    generate_sram_array,
    line_grating,
    via_chain,
)

# extensions: connectivity extraction and statistical variation
from repro.extract import extract_nets, check_connectivity, electrical_hotspot_impact
from repro.variation import (
    ProcessSampler,
    simulate_cd_distribution,
    process_capability,
    statistical_path_delays,
)

# the stable high-level facade
from repro import api

# the contribution
from repro.core import (
    DesignContext,
    DesignMetrics,
    measure_design,
    DFMTechnique,
    default_techniques,
    Scorecard,
    Verdict,
    evaluate_techniques,
)

__all__ = [
    "Point", "Rect", "Polygon", "Region", "Orientation", "Transform", "GridIndex",
    "Layer", "Cell", "CellReference", "Layout",
    "read_gds", "write_gds", "read_json", "write_json",
    "Technology", "RuleDeck", "RuleSeverity", "make_node",
    "NODE_65", "NODE_45", "NODE_32",
    "MetricsRegistry", "RunManifest", "get_registry", "get_tracer", "span",
    "api", "BaseReport",
    "Tile", "TileCache", "TileExecutor", "tile_grid",
    "AbortRun", "FaultPlan", "QuarantinedTile",
    "run_drc", "DrcReport", "Violation", "score_recommended_rules", "DfmScore",
    "PatternCatalog", "PatternMatcher", "extract_patterns",
    "via_enclosure_catalog", "kl_divergence", "cluster_snippets",
    "LithoModel", "simulate", "ProcessWindow", "pv_bands", "measure_cd",
    "Cutline", "find_hotspots", "Hotspot",
    "apply_rule_opc", "apply_model_opc", "insert_srafs", "verify_opc",
    "decompose_dpt", "decompose_with_stitches", "score_decomposition",
    "critical_area_shorts", "critical_area_opens",
    "yield_poisson", "yield_negative_binomial",
    "insert_redundant_vias", "spread_wires", "widen_wires",
    "density_map", "dummy_fill", "thickness_map",
    "make_stdcell_library", "generate_logic_block", "LogicBlockSpec",
    "generate_sram_array", "line_grating", "via_chain",
    "extract_nets", "check_connectivity", "electrical_hotspot_impact",
    "ProcessSampler", "simulate_cd_distribution", "process_capability",
    "statistical_path_delays",
    "DesignContext", "DesignMetrics", "measure_design",
    "DFMTechnique", "default_techniques", "Scorecard", "Verdict",
    "evaluate_techniques",
]
