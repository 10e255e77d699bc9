"""Unit tests for GDSII records and stream I/O plus JSON interchange."""

import re

import pytest

from repro.gdsii import read_gds, read_json, write_gds, write_json
from repro.gdsii.records import (
    GdsFormatError,
    Record,
    decode_real8,
    encode_real8,
    iter_records,
    make_record,
    rec_ascii,
    rec_int2,
    rec_int4,
    DT_INT2,
    HEADER,
    ENDLIB,
)
from repro.geometry import Orientation, Point, Polygon, Rect, Transform
from repro.layout import Layer, Layout

M1 = Layer(10, 0, "M1")
V1 = Layer(11, 0, "V1")


class TestReal8:
    @pytest.mark.parametrize(
        "value",
        [0.0, 1.0, -1.0, 0.5, 2.0, 1e-3, 1e-9, 1e-6, 123456.789, 0.001953125, -42.5],
    )
    def test_roundtrip(self, value):
        decoded = decode_real8(encode_real8(value))
        assert decoded == pytest.approx(value, rel=1e-12, abs=1e-300)

    def test_wrong_length(self):
        with pytest.raises(GdsFormatError):
            decode_real8(b"\x00" * 4)

    def test_known_encoding_one(self):
        # 1.0 = 0x41 10 00 ... (exponent 65, mantissa 1/16)
        assert encode_real8(1.0)[0] == 0x41


class TestRecords:
    def test_int2_roundtrip(self):
        data = rec_int2(HEADER, [600])
        records = list(iter_records(data + rec_int2(ENDLIB, [])))
        assert records[0].int2() == [600]

    def test_padding_to_even(self):
        rec = rec_ascii(0x02, "ABC")  # odd length payload
        assert len(rec) % 2 == 0

    def test_iter_rejects_bad_length(self):
        with pytest.raises(GdsFormatError):
            list(iter_records(b"\x00\x02\x00\x00"))

    def test_record_name(self):
        assert Record(HEADER, DT_INT2, b"").name == "HEADER"
        assert Record(0x99, 0, b"").name == "0x99"

    def test_int4(self):
        data = rec_int4(0x10, [-1, 2_000_000])
        rec = next(iter_records(data + make_record(ENDLIB, 0)))
        assert rec.int4() == [-1, 2_000_000]


def build_library() -> Layout:
    lib = Layout("TESTLIB")
    child = lib.new_cell("CHILD")
    child.add_rect(M1, Rect(0, 0, 100, 50))
    child.add_polygon(M1, Polygon.l_shape(200, 200, 80, 80, Point(300, 0)))
    top = lib.new_cell("TOP")
    top.add_rect(V1, Rect(5, 5, 45, 45))
    top.add_ref(child, Transform(1000, 2000, Orientation.R90))
    top.add_ref(child, Transform(0, 0, Orientation.MX180), columns=3, rows=2, dx=600, dy=400)
    return lib


class TestStreamRoundtrip:
    def test_full_roundtrip(self, tmp_path):
        lib = build_library()
        path = tmp_path / "t.gds"
        write_gds(lib, path)
        lib2 = read_gds(path, {(10, 0): "M1", (11, 0): "V1"})
        assert set(lib2.cells) == {"CHILD", "TOP"}
        assert lib2.top_cell().name == "TOP"
        for layer in (M1, V1):
            assert lib2.cell("TOP").region(layer) == lib.cell("TOP").region(layer)

    def test_units_preserved(self, tmp_path):
        lib = Layout("U", dbu_nm=1.0)
        lib.new_cell("A").add_rect(M1, Rect(0, 0, 1, 1))
        path = tmp_path / "u.gds"
        write_gds(lib, path)
        assert read_gds(path).dbu_nm == pytest.approx(1.0)

    def test_deterministic_output(self, tmp_path):
        lib = build_library()
        p1, p2 = tmp_path / "a.gds", tmp_path / "b.gds"
        write_gds(lib, p1)
        write_gds(lib, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_children_before_parents(self, tmp_path):
        lib = build_library()
        path = tmp_path / "o.gds"
        write_gds(lib, path)
        raw = path.read_bytes()
        assert raw.index(b"CHILD") < raw.index(b"TOP")

    def test_all_orientations_roundtrip(self, tmp_path):
        lib = Layout("ORIENT")
        child = lib.new_cell("C")
        child.add_rect(M1, Rect(0, 0, 30, 10))
        top = lib.new_cell("TOP")
        for i, orient in enumerate(Orientation):
            top.add_ref(child, Transform(i * 1000, 0, orient))
        path = tmp_path / "orient.gds"
        write_gds(lib, path)
        lib2 = read_gds(path)
        assert lib2.cell("TOP").region(Layer(10, 0)) == top.region(M1)

    def test_unknown_ref_rejected(self, tmp_path):
        # hand-construct a stream with an SREF to a missing cell
        from repro.gdsii import records as rec

        chunks = [
            rec.rec_int2(rec.HEADER, [600]),
            rec.rec_int2(rec.BGNLIB, [1970, 1, 1, 0, 0, 0] * 2),
            rec.rec_ascii(rec.LIBNAME, "BAD"),
            rec.rec_real8(rec.UNITS, [1e-3, 1e-9]),
            rec.rec_int2(rec.BGNSTR, [1970, 1, 1, 0, 0, 0] * 2),
            rec.rec_ascii(rec.STRNAME, "TOP"),
            rec.rec_empty(rec.SREF),
            rec.rec_ascii(rec.SNAME, "MISSING"),
            rec.rec_int4(rec.XY, [0, 0]),
            rec.rec_empty(rec.ENDEL),
            rec.rec_empty(rec.ENDSTR),
            rec.rec_empty(rec.ENDLIB),
        ]
        path = tmp_path / "bad.gds"
        path.write_bytes(b"".join(chunks))
        with pytest.raises(GdsFormatError):
            read_gds(path)


class TestJson:
    def test_roundtrip(self, tmp_path):
        lib = build_library()
        path = tmp_path / "t.json"
        write_json(lib, path)
        lib2 = read_json(path)
        assert set(lib2.cells) == {"CHILD", "TOP"}
        assert lib2.cell("TOP").region(M1) == lib.cell("TOP").region(M1)
        assert lib2.cell("TOP").region(V1) == lib.cell("TOP").region(V1)

    def test_layer_names_preserved(self, tmp_path):
        lib = build_library()
        path = tmp_path / "t.json"
        write_json(lib, path)
        lib2 = read_json(path)
        layers = lib2.cell("CHILD").layers
        assert any(l.name == "M1" for l in layers)


# -- the shared element decoder: both parsers, one verdict -------------------


def _library(top_elements: list[bytes]) -> bytes:
    """A library of LEAF (one rect) and TOP holding ``top_elements``."""
    from repro.gdsii import records as rec

    def structure(name: str, elements: list[bytes]) -> list[bytes]:
        return [
            rec.rec_int2(rec.BGNSTR, [1970, 1, 1, 0, 0, 0] * 2),
            rec.rec_ascii(rec.STRNAME, name),
            *elements,
            rec.rec_empty(rec.ENDSTR),
        ]

    leaf = _boundary([0, 0, 10, 0, 10, 5, 0, 5, 0, 0])
    return b"".join(
        [
            rec.rec_int2(rec.HEADER, [600]),
            rec.rec_int2(rec.BGNLIB, [1970, 1, 1, 0, 0, 0] * 2),
            rec.rec_ascii(rec.LIBNAME, "LIB"),
            rec.rec_real8(rec.UNITS, [1e-3, 1e-9]),
            *structure("LEAF", [leaf]),
            *structure("TOP", top_elements),
            rec.rec_empty(rec.ENDLIB),
        ]
    )


def _boundary(xy: list[int]) -> bytes:
    from repro.gdsii import records as rec

    return b"".join(
        [
            rec.rec_empty(rec.BOUNDARY),
            rec.rec_int2(rec.LAYER, [10]),
            rec.rec_int2(rec.DATATYPE, [0]),
            rec.rec_int4(rec.XY, xy),
            rec.rec_empty(rec.ENDEL),
        ]
    )


def _aref(colrow: list[int], xy: list[int] | None) -> bytes:
    from repro.gdsii import records as rec

    chunks = [
        rec.rec_empty(rec.AREF),
        rec.rec_ascii(rec.SNAME, "LEAF"),
        rec.rec_int2(rec.COLROW, colrow),
    ]
    if xy is not None:
        chunks.append(rec.rec_int4(rec.XY, xy))
    chunks.append(rec.rec_empty(rec.ENDEL))
    return b"".join(chunks)


def _sref(xy: list[int] | None) -> bytes:
    from repro.gdsii import records as rec

    chunks = [rec.rec_empty(rec.SREF), rec.rec_ascii(rec.SNAME, "LEAF")]
    if xy is not None:
        chunks.append(rec.rec_int4(rec.XY, xy))
    chunks.append(rec.rec_empty(rec.ENDEL))
    return b"".join(chunks)


def _parsers():
    from repro.gdsii import scan_gds

    return pytest.mark.parametrize("parse", [read_gds, scan_gds], ids=["read_gds", "scan_gds"])


class TestMalformedReferences:
    """Each malformed reference is a ``GdsFormatError`` from both parsers,
    never a truncated lattice, a dropped array or a bare Python error."""

    @_parsers()
    def test_aref_span_not_a_multiple_of_colrow(self, tmp_path, parse):
        # 100 nm over 3 columns used to place the leaf at x = 0, 33, 66
        path = tmp_path / "f.gds"
        path.write_bytes(_library([_aref([3, 1], [0, 0, 100, 0, 0, 10])]))
        with pytest.raises(GdsFormatError, match="whole multiple"):
            parse(path)

    @_parsers()
    @pytest.mark.parametrize("colrow", [[0, 1], [2, 0], [-2, 1]])
    def test_aref_without_elements(self, tmp_path, parse, colrow):
        path = tmp_path / "f.gds"
        path.write_bytes(_library([_aref(colrow, [0, 0, 100, 0, 0, 10])]))
        with pytest.raises(GdsFormatError, match="elements"):
            parse(path)

    @_parsers()
    def test_sref_without_xy(self, tmp_path, parse):
        path = tmp_path / "f.gds"
        path.write_bytes(_library([_sref(None)]))
        with pytest.raises(GdsFormatError, match="one XY point"):
            parse(path)

    @_parsers()
    def test_aref_with_two_points(self, tmp_path, parse):
        path = tmp_path / "f.gds"
        path.write_bytes(_library([_aref([2, 1], [0, 0, 100, 0])]))
        with pytest.raises(GdsFormatError, match="three XY points"):
            parse(path)

    @_parsers()
    def test_aref_repeating_with_a_zero_step(self, tmp_path, parse):
        path = tmp_path / "f.gds"
        path.write_bytes(_library([_aref([2, 1], [0, 0, 0, 0, 0, 10])]))
        with pytest.raises(GdsFormatError, match="zero step"):
            parse(path)

    def test_well_formed_aref_still_parses(self, tmp_path):
        from repro.gdsii import scan_gds

        path = tmp_path / "f.gds"
        path.write_bytes(_library([_aref([3, 2], [5, 7, 95, 7, 5, 47])]))
        ref = read_gds(path).cell("TOP").references[0]
        assert (ref.columns, ref.rows, ref.dx, ref.dy) == (3, 2, 30, 20)
        assert (ref.transform.dx, ref.transform.dy) == (5, 7)
        assert scan_gds(path).cells["TOP"].refs == [
            ("LEAF", 5, 7, Orientation.R0, 3, 2, 30, 20)
        ]


# (name, XY) of BOUNDARY rings the rect fast path must take, or must
# leave to Polygon, whose shape or error both parsers keep
_RINGS = [
    ("ccw", [0, 0, 100, 0, 100, 50, 0, 50, 0, 0]),
    ("clockwise", [0, 0, 0, 50, 100, 50, 100, 0, 0, 0]),
    ("clockwise-from-top-right", [100, 50, 100, 0, 0, 0, 0, 50, 100, 50]),
    ("unclosed-four-points", [0, 0, 100, 0, 100, 50, 0, 50]),
    ("unclosed-five-points", [0, 0, 50, 0, 100, 0, 100, 50, 0, 50]),
    ("collinear-vertex", [0, 0, 50, 0, 100, 0, 100, 50, 0, 50, 0, 0]),
    ("l-shape", [0, 0, 100, 0, 100, 20, 30, 20, 30, 50, 0, 50, 0, 0]),
    ("zero-height", [0, 0, 100, 0, 100, 0, 0, 0, 0, 0]),
    ("zero-width", [0, 0, 0, 0, 0, 50, 0, 50, 0, 0]),
    ("diagonal", [0, 0, 100, 0, 100, 50, 0, 60, 0, 0]),
    ("bow-tie", [0, 0, 100, 0, 0, 50, 100, 50, 0, 0]),
    ("three-points", [0, 0, 100, 0, 100, 50]),
]


class TestRectFastPath:
    """A closed axis-parallel five-point ring becomes a rect without a
    Polygon; every other ring keeps the Polygon path's shape or error."""

    @staticmethod
    def _polygon_path(xy):
        """What the Polygon path makes of ``xy``: a shape or an exception."""
        try:
            poly = Polygon([Point(xy[i], xy[i + 1]) for i in range(0, len(xy), 2)])
        except ValueError as exc:
            return exc
        return poly.bbox if poly.is_rect else poly

    @pytest.mark.parametrize("xy", [xy for _, xy in _RINGS], ids=[n for n, _ in _RINGS])
    def test_read_gds(self, tmp_path, xy):
        path = tmp_path / "f.gds"
        path.write_bytes(_library([_boundary(xy)]))
        expect = self._polygon_path(xy)
        if isinstance(expect, Exception):
            with pytest.raises(type(expect), match=f"^{re.escape(str(expect))}$"):
                read_gds(path)
            return
        assert read_gds(path).cell("TOP").shapes(M1) == [expect]

    @pytest.mark.parametrize("xy", [xy for _, xy in _RINGS], ids=[n for n, _ in _RINGS])
    def test_scan_gds(self, tmp_path, xy):
        from repro.gdsii import scan_gds

        path = tmp_path / "f.gds"
        path.write_bytes(_library([_boundary(xy)]))
        expect = self._polygon_path(xy)
        if isinstance(expect, Exception):
            with pytest.raises(type(expect), match=f"^{re.escape(str(expect))}$"):
                scan_gds(path)
            return
        rects = [expect] if isinstance(expect, Rect) else list(expect.to_region().rects())
        quads = scan_gds(path).cells["TOP"].quads[(10, 0)].tolist()
        assert quads == [v for r in rects for v in r.as_tuple()]

    def test_rings_cover_both_paths(self):
        shapes = [self._polygon_path(xy) for _, xy in _RINGS]
        assert any(isinstance(s, Rect) for s in shapes)
        assert any(isinstance(s, Polygon) for s in shapes)
        assert any(isinstance(s, Exception) for s in shapes)


# -- the element contract: magnification, labels, unsupported elements ------

# record types of TEXT, PATH, BOX and NODE bodies that the reader never
# interprets (Calma GDSII Stream Format)
_WIDTH, _TEXTTYPE, _PRESENTATION, _STRING, _NODETYPE, _BOXTYPE = (
    0x0F,
    0x16,
    0x17,
    0x19,
    0x2A,
    0x2E,
)


def _placed(kind: str, strans: int | None = None, mag: float | None = None) -> bytes:
    """An SREF (at (20, 0)) or a 2 x 1 AREF (from (20, 0), step 20) of
    LEAF, with optional STRANS and MAG records."""
    from repro.gdsii import records as rec

    chunks = [
        rec.rec_empty(rec.SREF if kind == "SREF" else rec.AREF),
        rec.rec_ascii(rec.SNAME, "LEAF"),
    ]
    if strans is not None:
        chunks.append(rec.make_record(rec.STRANS, rec.DT_BITARRAY, strans.to_bytes(2, "big")))
    if mag is not None:
        chunks.append(rec.rec_real8(rec.MAG, [mag]))
    if kind == "AREF":
        chunks.append(rec.rec_int2(rec.COLROW, [2, 1]))
        chunks.append(rec.rec_int4(rec.XY, [20, 0, 60, 0, 20, 10]))
    else:
        chunks.append(rec.rec_int4(rec.XY, [20, 0]))
    chunks.append(rec.rec_empty(rec.ENDEL))
    return b"".join(chunks)


def _element(rtype: int, body: list[bytes]) -> bytes:
    """An element of record type ``rtype`` holding ``body`` records."""
    from repro.gdsii import records as rec

    return b"".join([rec.rec_empty(rtype), *body, rec.rec_empty(rec.ENDEL)])


def _text_label() -> bytes:
    """A TEXT label whose own STRANS and MAG this reader must not check."""
    from repro.gdsii import records as rec

    return _element(
        rec.TEXT,
        [
            rec.rec_int2(rec.LAYER, [10]),
            rec.rec_int2(_TEXTTYPE, [0]),
            rec.make_record(_PRESENTATION, rec.DT_BITARRAY, (0x0005).to_bytes(2, "big")),
            rec.make_record(rec.STRANS, rec.DT_BITARRAY, (0x8006).to_bytes(2, "big")),
            rec.rec_real8(rec.MAG, [2.0]),
            rec.rec_real8(rec.ANGLE, [45.0]),
            rec.rec_int4(rec.XY, [5, 5]),
            rec.rec_ascii(_STRING, "VDD"),
        ],
    )


def _top(parse, path) -> tuple[list[tuple[int, ...]], list[tuple]]:
    """TOP's own M1 rects and its references, the same shape from both
    parsers: ``[(x0, y0, x1, y1)]`` and ``[(child, x, y, orientation,
    columns, rows, step x, step y)]``."""
    lib = parse(path)
    if isinstance(lib, Layout):
        top = lib.cell("TOP")
        refs = [
            (
                r.cell.name,
                r.transform.dx,
                r.transform.dy,
                r.transform.orientation,
                r.columns,
                r.rows,
                r.dx,
                r.dy,
            )
            for r in top.references
        ]
        return [s.as_tuple() for s in top.shapes(M1)], refs
    top = lib.cells["TOP"]
    quads = top.quads.get((10, 0))
    flat = quads.tolist() if quads is not None else []
    rects = [tuple(flat[i : i + 4]) for i in range(0, len(flat), 4)]
    return rects, list(top.refs)


_RECT = [0, 0, 30, 0, 30, 20, 0, 20, 0, 0]


class TestElementContract:
    """What both parsers make of magnification, TEXT labels and the
    element kinds this Manhattan database has no model for."""

    @_parsers()
    @pytest.mark.parametrize("kind", ["SREF", "AREF"])
    def test_magnified_reference_is_rejected(self, tmp_path, parse, kind):
        # read back at 1x, a MAG 2.0 SREF used to put LEAF's 10 x 5 rect
        # at (20, 0, 30, 5) instead of (20, 0, 40, 10): a wrong answer
        path = tmp_path / "f.gds"
        path.write_bytes(_library([_placed(kind, mag=2.0)]))
        with pytest.raises(GdsFormatError, match=f"{kind} to 'LEAF' has MAG 2"):
            parse(path)

    @_parsers()
    @pytest.mark.parametrize("kind", ["SREF", "AREF"])
    def test_unit_magnification_is_accepted(self, tmp_path, parse, kind):
        plain, unit = tmp_path / "plain.gds", tmp_path / "unit.gds"
        plain.write_bytes(_library([_placed(kind)]))
        unit.write_bytes(_library([_placed(kind, strans=0, mag=1.0)]))
        assert _top(parse, unit) == _top(parse, plain)
        assert _top(parse, unit)[1][0][:3] == ("LEAF", 20, 0)

    @_parsers()
    @pytest.mark.parametrize(
        "bits, field",
        [
            (0x0004, "absolute-magnification"),
            (0x0002, "absolute-angle"),
            (0x8004, "absolute-magnification"),
        ],
        ids=["abs-mag", "abs-angle", "reflected-abs-mag"],
    )
    def test_absolute_strans_bits_are_rejected(self, tmp_path, parse, bits, field):
        path = tmp_path / "f.gds"
        path.write_bytes(_library([_placed("SREF", strans=bits)]))
        with pytest.raises(GdsFormatError, match=f"STRANS {field} bit"):
            parse(path)

    @_parsers()
    def test_text_label_leaves_geometry_unchanged(self, tmp_path, parse):
        bare, labelled = tmp_path / "bare.gds", tmp_path / "labelled.gds"
        bare.write_bytes(_library([_boundary(_RECT), _placed("SREF")]))
        labelled.write_bytes(
            _library([_text_label(), _boundary(_RECT), _text_label(), _placed("SREF")])
        )
        assert _top(parse, labelled) == _top(parse, bare)
        assert _top(parse, labelled) == (
            [(0, 0, 30, 20)],
            [("LEAF", 20, 0, Orientation.R0, 1, 1, 0, 0)],
        )

    @_parsers()
    @pytest.mark.parametrize("name", ["PATH", "BOX", "NODE"])
    def test_unsupported_element_is_rejected_by_name(self, tmp_path, parse, name):
        from repro.gdsii import records as rec

        xy = rec.rec_int4(rec.XY, [0, 0, 100, 0])
        body = {
            "PATH": [rec.rec_int2(rec.LAYER, [10]), rec.rec_int2(rec.DATATYPE, [0]),
                     rec.rec_int4(_WIDTH, [20]), xy],
            "BOX": [rec.rec_int2(rec.LAYER, [10]), rec.rec_int2(_BOXTYPE, [0]),
                    rec.rec_int4(rec.XY, _RECT)],
            "NODE": [rec.rec_int2(rec.LAYER, [10]), rec.rec_int2(_NODETYPE, [0]), xy],
        }[name]
        path = tmp_path / "f.gds"
        path.write_bytes(_library([_boundary(_RECT), _element(getattr(rec, name), body)]))
        with pytest.raises(GdsFormatError, match=f"^unsupported {name} element in 'TOP'$"):
            parse(path)


def _chain(links: dict[str, list[str]]) -> bytes:
    """A library whose structures reference each other as ``links``
    says, each holding one 10 x 10 rect."""
    from repro.gdsii import records as rec

    out = [
        rec.rec_int2(rec.HEADER, [600]),
        rec.rec_int2(rec.BGNLIB, [1970, 1, 1, 0, 0, 0] * 2),
        rec.rec_ascii(rec.LIBNAME, "LIB"),
        rec.rec_real8(rec.UNITS, [1e-3, 1e-9]),
    ]
    for name, children in links.items():
        out += [
            rec.rec_int2(rec.BGNSTR, [1970, 1, 1, 0, 0, 0] * 2),
            rec.rec_ascii(rec.STRNAME, name),
            _boundary([0, 0, 10, 0, 10, 10, 0, 10, 0, 0]),
        ]
        for child in children:
            out.append(
                b"".join(
                    [
                        rec.rec_empty(rec.SREF),
                        rec.rec_ascii(rec.SNAME, child),
                        rec.rec_int4(rec.XY, [20, 0]),
                        rec.rec_empty(rec.ENDEL),
                    ]
                )
            )
        out.append(rec.rec_empty(rec.ENDSTR))
    out.append(rec.rec_empty(rec.ENDLIB))
    return b"".join(out)


class TestReferenceGraph:
    """A reference cycle or a reference to a missing cell is the same
    ``GdsFormatError`` from both parsers."""

    @_parsers()
    @pytest.mark.parametrize(
        "links, message",
        [
            ({"TOP": ["A"], "A": ["B"], "B": ["A"]}, "reference cycle A -> B -> A"),
            ({"TOP": ["A"], "A": ["A"]}, "reference cycle A -> A"),
            ({"TOP": ["A", "NOPE"], "A": []}, "reference to unknown cell 'NOPE'"),
        ],
        ids=["cycle", "self-reference", "unknown-cell"],
    )
    def test_bad_reference_is_a_format_error(self, tmp_path, parse, links, message):
        path = tmp_path / "f.gds"
        path.write_bytes(_chain(links))
        with pytest.raises(GdsFormatError, match=f"^{re.escape(message)}$"):
            parse(path)

    @_parsers()
    def test_shared_child_is_not_a_cycle(self, tmp_path, parse):
        path = tmp_path / "f.gds"
        path.write_bytes(_chain({"TOP": ["A", "B"], "A": ["B"], "B": []}))
        parse(path)


class TestShortPayloads:
    """A record too short for its values is a ``GdsFormatError`` naming
    the record, from both parsers, never a bare ``IndexError``,
    ``ValueError`` or ``struct.error``."""

    @_parsers()
    def test_empty_layer(self, tmp_path, parse):
        from repro.gdsii import records as rec

        body = [
            rec.make_record(rec.LAYER, rec.DT_INT2),
            rec.rec_int2(rec.DATATYPE, [0]),
            rec.rec_int4(rec.XY, _RECT),
        ]
        path = tmp_path / "f.gds"
        path.write_bytes(_library([_element(rec.BOUNDARY, body)]))
        with pytest.raises(GdsFormatError, match="^LAYER record has no value$"):
            parse(path)

    @_parsers()
    @pytest.mark.parametrize(
        "xy, size", [(_RECT[:9], 36), (None, 38)], ids=["nine-ints", "38-bytes"]
    )
    def test_xy_not_whole_int4_pairs(self, tmp_path, parse, xy, size):
        from repro.gdsii import records as rec

        payload = (
            rec.rec_int4(rec.XY, xy)
            if xy is not None
            else rec.make_record(rec.XY, rec.DT_INT4, bytes(size))
        )
        body = [rec.rec_int2(rec.LAYER, [10]), rec.rec_int2(rec.DATATYPE, [0]), payload]
        path = tmp_path / "f.gds"
        path.write_bytes(_library([_element(rec.BOUNDARY, body)]))
        with pytest.raises(GdsFormatError, match=f"^XY record of {size} bytes is not int4 pairs$"):
            parse(path)

    @_parsers()
    def test_colrow_with_one_value(self, tmp_path, parse):
        path = tmp_path / "f.gds"
        path.write_bytes(_library([_aref([2], [0, 0, 100, 0, 0, 10])]))
        with pytest.raises(GdsFormatError, match="^COLROW record of 2 bytes, not 2 int2$"):
            parse(path)

    @_parsers()
    def test_units_with_one_real(self, tmp_path, parse):
        from repro.gdsii import records as rec

        units = rec.rec_real8(rec.UNITS, [1e-3, 1e-9])
        data = _library([_boundary(_RECT)])
        assert data.count(units) == 1
        path = tmp_path / "f.gds"
        path.write_bytes(data.replace(units, rec.rec_real8(rec.UNITS, [1e-3])))
        with pytest.raises(GdsFormatError, match="^UNITS record of 8 bytes, not 2 real8$"):
            parse(path)
