"""The NumPy flatten behind ``Cell.region``/``Cell.regions`` and the
one-pass ``Cell.bbox``, against the per-rect Python walks kept in
``tests/layout_reference.py``.

Hierarchies are three cells deep, with SREFs and AREFs in all eight
orientations, negative and positive array steps, L-shaped polygons and
layers that only some cells draw on.  The walk's chunks and the slab
builder's column groups are cut to single digits, so a flatten crosses
many chunk and group seams.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.geometry import Orientation, Point, Polygon, Rect, Transform
from repro.geometry import hierarchy, slabarrays
from repro.layout import Cell, Layer
from tests import layout_reference

LAYERS = [Layer(10, 0, "M1"), Layer(12, 0, "M2"), Layer(3, 0, "POLY")]
# a 5 nm grid and few sizes, so rects overlap, touch and abut often
_coord = st.integers(-8, 8).map(lambda v: 5 * v)
_side = st.sampled_from([5, 10, 20, 40])
_step = st.sampled_from([-60, -25, -5, 5, 20, 45])


@st.composite
def _shapes(draw, cell: Cell) -> None:
    # each cell draws on a subset of the layers, so a layer can be empty
    # in some cells of a hierarchy and in all of them
    layers = draw(st.lists(st.sampled_from(LAYERS), max_size=2, unique=True))
    for layer in layers:
        for _ in range(draw(st.integers(1, 3))):
            x, y, w, h = draw(_coord), draw(_coord), draw(_side), draw(_side)
            if draw(st.booleans()):
                cell.add_rect(layer, Rect(x, y, x + w, y + h))
            else:  # an L: decomposed into slab rects by both walks
                corners = [(x, y), (x + 2 * w, y), (x + 2 * w, y + h), (x + w, y + h)]
                corners += [(x + w, y + 2 * h), (x, y + 2 * h)]
                cell.add_polygon(layer, Polygon([Point(px, py) for px, py in corners]))


@st.composite
def _refs(draw, parent: Cell, child: Cell, max_count: int) -> None:
    for _ in range(draw(st.integers(0, max_count))):
        cols, rows = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        parent.add_ref(
            child,
            Transform(4 * draw(_coord), 4 * draw(_coord), draw(st.sampled_from(list(Orientation)))),
            columns=cols,
            rows=rows,
            dx=draw(_step) if cols > 1 else 0,
            dy=draw(_step) if rows > 1 else 0,
        )


@st.composite
def hierarchies(draw) -> Cell:
    """TOP -> MID -> LEAF, with LEAF also placed straight from TOP."""
    leaf, mid, top = Cell("LEAF"), Cell("MID"), Cell("TOP")
    for cell in (leaf, mid, top):
        draw(_shapes(cell))
    draw(_refs(mid, leaf, 3))
    draw(_refs(top, mid, 3))
    draw(_refs(top, leaf, 2))
    return top


@st.composite
def windows(draw, top: Cell) -> Rect | None:
    """No window, or one that cuts, touches (along an edge of the
    geometry's bbox) or misses the geometry."""
    bbox = layout_reference.bbox(top) or Rect(0, 0, 10, 10)
    kind = draw(st.sampled_from(["none", "cut", "touch", "miss"]))
    if kind == "none":
        return None
    if kind == "cut":
        x0, y0 = draw(_coord) * 8, draw(_coord) * 8
        return Rect(x0, y0, x0 + draw(st.integers(1, 400)), y0 + draw(st.integers(1, 400)))
    if kind == "touch":
        return Rect(bbox.x1, bbox.y0 - 7, bbox.x1 + 30, bbox.y1 + 7)
    return Rect(bbox.x1 + 1, bbox.y1 + 1, bbox.x1 + 90, bbox.y1 + 40)


def _cells(top: Cell) -> list[Cell]:
    out = {id(top): top}
    for ref in top.references:
        for cell in _cells(ref.cell):
            out.setdefault(id(cell), cell)
    return list(out.values())


@given(data=st.data(), chunk=st.integers(1, 9), pieces_at=st.integers(1, 9))
@settings(max_examples=150, deadline=None)
def test_regions_match_the_python_walk(data, chunk, pieces_at):
    top = data.draw(hierarchies())
    window = data.draw(windows(top))
    with mock.patch.object(hierarchy, "_CHUNK", chunk), mock.patch.object(
        slabarrays, "_PIECES_AT", pieces_at
    ):
        flat = top.regions(LAYERS, window)
        singles = {layer: top.region(layer, window) for layer in LAYERS}
    assert list(flat) == LAYERS
    for layer in LAYERS:
        expect = layout_reference.region(top, layer, window)
        for got in (flat[layer], singles[layer]):
            assert list(got.rects()) == list(expect.rects())
            assert got.digest() == expect.digest()
            assert got.bbox == expect.bbox


@given(top=hierarchies())
@settings(max_examples=150, deadline=None)
def test_bbox_matches_every_placement(top):
    for cell in _cells(top):
        assert cell.bbox == layout_reference.bbox(cell)


def test_regions_of_no_layers_and_repeated_layers():
    cell = Cell("A")
    cell.add_rect(LAYERS[0], Rect(0, 0, 10, 10))
    assert cell.regions([]) == {}
    flat = cell.regions([LAYERS[0], LAYERS[1], LAYERS[0]])
    assert list(flat) == LAYERS[:2]
    assert flat[LAYERS[0]] == layout_reference.region(cell, LAYERS[0])
    assert flat[LAYERS[1]].is_empty


def test_deep_array_of_arrays():
    """An array of arrays: the lattice chunks of the inner array are
    broadcast over every placement of the outer one."""
    bit = Cell("BIT")
    bit.add_rect(LAYERS[0], Rect(1, 2, 9, 7))
    bit.add_polygon(LAYERS[1], Polygon.l_shape(12, 10, 5, 4))
    row = Cell("ROW")
    row.add_ref(bit, Transform(0, 0, Orientation.MX90), columns=17, rows=1, dx=-14)
    block = Cell("BLOCK")
    block.add_ref(row, Transform(3, -5, Orientation.R270), columns=2, rows=23, dx=300, dy=-16)
    flat = block.regions(LAYERS)
    for layer in LAYERS:
        assert flat[layer] == layout_reference.region(block, layer)
    assert block.bbox == layout_reference.bbox(block)
