"""Shared fixtures and helpers for the experiment benches.

Every bench regenerates one table/figure from DESIGN.md §3.  The heavy
computations run exactly once per bench (``benchmark.pedantic`` with one
round); the printed tables are the reproduced rows — run with ``-s`` to
see them, and see EXPERIMENTS.md for the recorded outcomes.
"""

from __future__ import annotations

import pytest

from repro.designgen import LogicBlockSpec, generate_logic_block, make_stdcell_library
from repro.litho import LithoModel
from repro.tech import make_node


def pytest_collection_modifyitems(items):
    """Every bench is a heavy experiment: mark them all ``slow`` so CI
    can split quick tests from the benchmark tier (``-m "not slow"``)."""
    for item in items:
        item.add_marker(pytest.mark.slow)


def run_once(benchmark, fn):
    """Run an experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture
def obs_registry(benchmark):
    """A fresh, enabled :class:`MetricsRegistry` scoped to one bench.

    Whatever the instrumented engines record during the bench lands in
    the benchmark JSON (``extra_info["metrics.counters"]`` and the
    per-stage timer totals), so it carries engine-level counts — tiles
    simulated, cache hits, OPC iterations — alongside wall-clock numbers.
    """
    from repro.obs import MetricsRegistry, get_registry, set_registry

    previous = get_registry()
    registry = MetricsRegistry()
    registry.enable()
    set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
        snap = registry.snapshot()
        benchmark.extra_info["metrics.counters"] = snap["counters"]
        benchmark.extra_info["metrics.gauges"] = snap.get("gauges", {})
        benchmark.extra_info["metrics.stages"] = {
            name: round(stat["total"], 6) for name, stat in snap["timers"].items()
        }


@pytest.fixture(scope="session")
def tech45():
    return make_node(45)


@pytest.fixture(scope="session")
def tech32():
    return make_node(32)


@pytest.fixture(scope="session")
def litho45(tech45):
    return LithoModel(tech45.litho)


@pytest.fixture(scope="session")
def stdlib45(tech45):
    return make_stdcell_library(tech45)


@pytest.fixture(scope="session")
def bench_block(tech45, stdlib45):
    """The standard evaluation block used by several benches."""
    spec = LogicBlockSpec(rows=3, row_width_nm=8000, net_count=16, seed=7, weak_spots=12)
    return generate_logic_block(tech45, spec, stdlib45)
