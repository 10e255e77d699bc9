"""The paper's contribution, made executable: a quantitative evaluation
harness that measures, for each DFM technique of the 2008 era, the benefit
it delivers and the cost it charges — and renders the hit-or-hype verdict
the panel could only argue about.

:mod:`repro.core.report` also lives here: the :class:`BaseReport`
contract every engine report implements.  It is imported eagerly (it is
dependency-free); the evaluation harness below is imported lazily so
low-level modules (``repro.drc``, ``repro.litho``, ...) can import
``repro.core.report`` without creating an import cycle with the
technique implementations, which themselves build on those engines.
"""

from importlib import import_module

from repro.core.report import BaseReport, jsonable

# Lazy exports (PEP 562): name -> defining submodule.  Resolved on first
# attribute access, after which the value is cached in module globals.
_LAZY = {
    "DesignContext": "repro.core.context",
    "DesignMetrics": "repro.core.metrics",
    "measure_design": "repro.core.metrics",
    "DFMTechnique": "repro.core.techniques",
    "TechniqueOutcome": "repro.core.techniques",
    "RecommendedRulesTechnique": "repro.core.techniques",
    "PatternCheckTechnique": "repro.core.techniques",
    "RuleOpcTechnique": "repro.core.techniques",
    "ModelOpcTechnique": "repro.core.techniques",
    "RedundantViaTechnique": "repro.core.techniques",
    "WireSpreadTechnique": "repro.core.techniques",
    "DummyFillTechnique": "repro.core.techniques",
    "default_techniques": "repro.core.techniques",
    "Scorecard": "repro.core.scorecard",
    "ScorecardRow": "repro.core.scorecard",
    "Verdict": "repro.core.scorecard",
    "evaluate_techniques": "repro.core.harness",
}

__all__ = [
    "BaseReport",
    "jsonable",
    *_LAZY,
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
