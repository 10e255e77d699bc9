"""Differential tests: the array-native DRC checks of :mod:`repro.drc.checks`
against the ``Region`` interval-algebra checks of ``tests/drc_reference.py``.

Inputs are rect soups over spans of 50-3000 nm with 1-400 nm features and
some long wires.  Each check must return the oracle's violation list
exactly, order included, compared with ``==`` and as ``str()`` lines (a
NumPy scalar compares equal to an int but prints differently).
"""

from hypothesis import example, given, settings, strategies as st

from repro.drc import checks
from repro.geometry import Rect, Region
from repro.layout import Layer
from repro.tech.rules import (
    AreaRule,
    EnclosureRule,
    ExtensionRule,
    SpacingRule,
    WidthRule,
)
from tests import drc_reference

M = Layer(10, 0, "M1")
V = Layer(11, 0, "V1")


@st.composite
def soups(draw):
    span = draw(st.integers(50, 3000))
    at = st.integers(0, span)
    feature = st.builds(
        lambda x, y, w, h: Rect(x, y, x + w, y + h), at, at, st.integers(1, 400), st.integers(1, 400)
    )
    wire = st.builds(
        lambda x, y, length, t, horizontal: (
            Rect(x, y, x + length, y + t) if horizontal else Rect(x, y, x + t, y + length)
        ),
        at,
        at,
        st.integers(span // 2, span),
        st.integers(1, 60),
        st.booleans(),
    )
    return Region(draw(st.lists(st.one_of(feature, feature, feature, wire), max_size=30)))


@st.composite
def enclosure_layers(draw):
    """Inner features, and an outer layer that is often the inner one
    grown by 0-30 nm per axis, so enclosures both pass and fail."""
    inner = draw(soups())
    outer = draw(
        st.one_of(
            st.builds(inner.grown, st.integers(0, 30), st.integers(0, 30)),
            soups(),
            st.builds(lambda d, extra: inner.grown(d) | extra, st.integers(0, 30), soups()),
        )
    )
    return inner, outer


def _same(got, want):
    assert got == want
    assert [str(v) for v in got] == [str(v) for v in want]


@given(soups(), st.integers(1, 80))
@settings(max_examples=150, deadline=None)
def test_width_matches_oracle(region, min_width):
    rule = WidthRule("W", M, min_width)
    _same(checks.check_width(region, rule), drc_reference.check_width(region, rule))


# left boundaries at x = 30 (grid row 1) and x = 60 (row 0) facing one
# right boundary: the grid index returns the x = 60 partner first
@example(
    region=Region([Rect(-100, 0, 0, 1000), Rect(30, 500, 130, 600), Rect(60, 100, 160, 200)]),
    min_space=100,
)
# the middle bar shields the outer bars' 70 nm pair
@example(
    region=Region([Rect(0, 0, 45, 1000), Rect(57, 0, 102, 1000), Rect(115, 0, 160, 1000)]),
    min_space=100,
)
@given(soups(), st.integers(1, 120))
@settings(max_examples=200, deadline=None)
def test_spacing_matches_oracle(region, min_space):
    rule = SpacingRule("S", M, min_space)
    _same(checks.check_spacing(region, rule), drc_reference.check_spacing(region, rule))


@given(soups(), soups(), st.integers(1, 120))
@settings(max_examples=100, deadline=None)
def test_layer_spacing_matches_oracle(region, other, min_space):
    rule = SpacingRule("LS", M, min_space, other=V)
    _same(
        checks.check_layer_spacing(region, other, rule),
        drc_reference.check_layer_spacing(region, other, rule),
    )


@given(soups(), st.integers(1, 5000))
@settings(max_examples=100, deadline=None)
def test_area_matches_oracle(region, min_area):
    rule = AreaRule("A", M, min_area)
    _same(checks.check_area(region, rule), drc_reference.check_area(region, rule))


# two-sided, 10 nm: each via has its 10 nm on one axis only and passes
@example(
    layers=(Region(Rect(5, 20, 50, 60)), Region(Rect(0, 0, 100, 100))),
    min_enclosure=10,
    conditional=False,
    two_sided=True,
)
@example(
    layers=(Region(Rect(20, 5, 60, 50)), Region(Rect(0, 0, 100, 100))),
    min_enclosure=10,
    conditional=False,
    two_sided=True,
)
@given(enclosure_layers(), st.integers(0, 30), st.booleans(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_enclosure_matches_oracle(layers, min_enclosure, conditional, two_sided):
    inner, outer = layers
    rule = EnclosureRule(
        "E", V, M, min_enclosure, conditional=conditional, two_sided=two_sided
    )
    _same(
        checks.check_enclosure(inner, outer, rule),
        drc_reference.check_enclosure(inner, outer, rule),
    )


# a poly bar crossing active sideways: its right box spans the poly's
# x-gap in (40, 50), where every slab it overlaps still holds its y-range
@example(
    layer=Region([Rect(-100, 0, 40, 30), Rect(50, 0, 150, 30)]),
    other=Region(Rect(0, -100, 30, 200)),
    min_extension=58,
)
@given(soups(), soups(), st.integers(0, 60))
@settings(max_examples=200, deadline=None)
def test_extension_matches_oracle(layer, other, min_extension):
    rule = ExtensionRule("X", M, V, min_extension)
    _same(
        checks.check_extension(layer, other, rule),
        drc_reference.check_extension(layer, other, rule),
    )
