"""The one GDSII element decoder behind both parsers.

:func:`repro.gdsii.read_gds` (which builds a :class:`~repro.layout.Layout`)
and :func:`repro.gdsii.scan_gds` (which keeps compact per-cell quad
tables) read their records through :func:`decode`, so the two cannot
drift on what a record means or on which input is malformed.

``decode`` turns raw ``(record type, data type, payload)`` records into
library events:

* ``(LIBRARY, name)`` and ``(UNITS, nm per database unit)``;
* ``(STRUCTURE, name)`` opens a cell; the elements up to the next
  ``STRUCTURE`` belong to it;
* ``(RECT, (layer, datatype), x0, y0, x1, y1)`` for a BOUNDARY that is
  a rectangle, ``(POLYGON, (layer, datatype), polygon)`` for any other;
* ``(REF, child, x, y, orientation, columns, rows, step_x, step_y)``
  for an SREF (one column, one row, zero steps) or an AREF.

A TEXT element is a label with no geometry: it yields no event, and
its own MAG and STRANS are never checked.  PATH, BOX and NODE elements
raise :class:`~repro.gdsii.records.GdsFormatError` naming the element.

A BOUNDARY whose XY is a closed, axis-parallel five-point ring becomes
a rect straight from its integers.  Any other XY goes through
:class:`~repro.geometry.Polygon`, which collapses collinear vertices,
validates the ring and raises on a malformed one; a polygon with four
vertices left is a rect too.

References are checked here for both parsers: Manhattan angles only,
no magnification (a MAG other than 1, or the STRANS absolute-
magnification or absolute-angle bit), an SREF with exactly one XY
point, an AREF with three, at least one column and one row,
axis-parallel steps, a displacement that is a whole multiple of the
column and row counts, and a non-zero step along every repeated axis.
Each violation raises :class:`~repro.gdsii.records.GdsFormatError`,
naming the field, as does a record too short for its values (an empty
LAYER or DATATYPE, a COLROW without two values, an XY not a whole
number of int4 pairs, a UNITS without two reals).
:func:`check_references` then checks, for both parsers, that every
reference names a cell of the library and that no reference cycle
exists.
"""

from __future__ import annotations

import struct
from typing import Iterable, Iterator, Mapping

from repro.gdsii import records as rec
from repro.gdsii.records import GdsFormatError, decode_real8
from repro.geometry import Orientation, Point, Polygon

# GDSII ANGLE is CCW rotation applied after the (optional) x-axis mirror —
# exactly our Orientation convention.
_ORIENT_TO_GDS: dict[Orientation, tuple[bool, float]] = {
    Orientation.R0: (False, 0.0),
    Orientation.R90: (False, 90.0),
    Orientation.R180: (False, 180.0),
    Orientation.R270: (False, 270.0),
    Orientation.MX: (True, 0.0),
    Orientation.MX90: (True, 90.0),
    Orientation.MX180: (True, 180.0),
    Orientation.MX270: (True, 270.0),
}
_GDS_TO_ORIENT = {v: k for k, v in _ORIENT_TO_GDS.items()}

# STRANS flags, as bits of its big-endian 16-bit word
_REFLECTION = 0x8000
_ABS_MAG = 0x0004
_ABS_ANGLE = 0x0002

# element records this Manhattan database has no model for
_UNSUPPORTED = {rec.PATH: "PATH", rec.BOX: "BOX", rec.NODE: "NODE"}

# decode() event kinds
LIBRARY = "library"
UNITS = "units"
STRUCTURE = "structure"
RECT = "rect"
POLYGON = "polygon"
REF = "ref"

_STRUCTS: dict[tuple[str, int], struct.Struct] = {}


def _ints(code: str, payload: bytes) -> tuple[int, ...]:
    """The big-endian int2 (``code`` "h") or int4 ("i") values of a payload."""
    key = (code, len(payload) // (2 if code == "h" else 4))
    unpacker = _STRUCTS.get(key)
    if unpacker is None:
        unpacker = _STRUCTS[key] = struct.Struct(f">{key[1]}{code}")
    return unpacker.unpack(payload)


def _int2(payload: bytes, name: str) -> int:
    """The first int2 value of a LAYER or DATATYPE payload."""
    if len(payload) < 2:
        raise GdsFormatError(f"{name} record has no value")
    return int.from_bytes(payload[:2], "big", signed=True)


def _ascii(payload: bytes) -> str:
    return payload.rstrip(b"\x00").decode("ascii")


def decode(records: Iterable[tuple[int, int, bytes]]) -> Iterator[tuple]:
    """The library events of a record stream (see the module docstring)."""
    library = False
    structure: str | None = None  # the open structure's name
    kind: int | None = None  # BOUNDARY, SREF, AREF or TEXT while an element is open
    layer = datatype = 0
    sname = ""
    strans = 0
    mag = 1.0
    angle = 0.0
    colrow = (1, 1)
    xy = b""
    for rtype, _, payload in records:
        if kind is not None:
            if rtype == rec.XY:
                if len(payload) % 8:
                    raise GdsFormatError(f"XY record of {len(payload)} bytes is not int4 pairs")
                xy = payload
                continue
            if rtype == rec.LAYER:
                layer = _int2(payload, "LAYER")
                continue
            if rtype == rec.DATATYPE:
                datatype = _int2(payload, "DATATYPE")
                continue
            if rtype == rec.SNAME:
                sname = _ascii(payload)
                continue
            if rtype == rec.STRANS:
                strans = int.from_bytes(payload[:2], "big")
                continue
            if rtype == rec.MAG:
                mag = decode_real8(payload[:8])
                continue
            if rtype == rec.ANGLE:
                angle = decode_real8(payload[:8])
                continue
            if rtype == rec.COLROW:
                if len(payload) != 4:
                    raise GdsFormatError(f"COLROW record of {len(payload)} bytes, not 2 int2")
                cols, rows = _ints("h", payload)
                colrow = (cols, rows)
                continue
        if rtype == rec.ENDEL:
            if structure is None or kind is None:
                raise GdsFormatError("element outside structure")
            if kind == rec.BOUNDARY:
                yield _boundary((layer, datatype), _ints("i", xy))
            elif kind != rec.TEXT:  # a TEXT label has no geometry
                yield _reference(kind, sname, strans, mag, angle, colrow, _ints("i", xy))
            kind = None
        elif (
            rtype == rec.BOUNDARY
            or rtype == rec.SREF
            or rtype == rec.AREF
            or rtype == rec.TEXT
        ):
            kind = rtype
            layer = datatype = 0
            sname = ""
            strans = 0
            mag = 1.0
            angle = 0.0
            colrow = (1, 1)
            xy = b""
        elif rtype == rec.STRNAME:
            structure = _ascii(payload)
            yield STRUCTURE, structure
        elif rtype == rec.ENDSTR:
            structure = None
        elif rtype == rec.LIBNAME:
            library = True
            yield LIBRARY, _ascii(payload)
        elif rtype == rec.UNITS:
            if len(payload) != 16:
                raise GdsFormatError(f"UNITS record of {len(payload)} bytes, not 2 real8")
            metres_per_dbu = decode_real8(payload[8:16])
            if not library:
                raise GdsFormatError("UNITS before LIBNAME")
            yield UNITS, metres_per_dbu * 1e9
        elif rtype in _UNSUPPORTED:
            where = "outside any structure" if structure is None else f"in {structure!r}"
            raise GdsFormatError(f"unsupported {_UNSUPPORTED[rtype]} element {where}")
    if not library:
        raise GdsFormatError("missing LIBNAME")


def _boundary(key: tuple[int, int], xy: tuple[int, ...]) -> tuple:
    """The RECT or POLYGON event of one BOUNDARY."""
    if len(xy) == 10:
        x0, y0, x1, y1, x2, y2, x3, y3, x4, y4 = xy
        if (
            x4 == x0
            and y4 == y0
            and x0 != x2
            and y0 != y2
            and (
                (y1 == y0 and x1 == x2 and y3 == y2 and x3 == x0)
                or (x1 == x0 and y1 == y2 and x3 == x2 and y3 == y0)
            )
        ):
            return RECT, key, min(x0, x2), min(y0, y2), max(x0, x2), max(y0, y2)
    poly = Polygon([Point(xy[i], xy[i + 1]) for i in range(0, len(xy), 2)])
    if poly.is_rect:
        box = poly.bbox
        return RECT, key, box.x0, box.y0, box.x1, box.y1
    return POLYGON, key, poly


def _reference(
    kind: int,
    sname: str,
    strans: int,
    mag: float,
    angle: float,
    colrow: tuple[int, int],
    xy: tuple[int, ...],
) -> tuple:
    """The REF event of one SREF or AREF."""
    element = "SREF" if kind == rec.SREF else "AREF"
    if mag != 1.0:
        raise GdsFormatError(
            f"{element} to {sname!r} has MAG {mag:g}; magnification is not supported"
        )
    if strans & _ABS_MAG:
        raise GdsFormatError(
            f"{element} to {sname!r} sets the STRANS absolute-magnification bit"
        )
    if strans & _ABS_ANGLE:
        raise GdsFormatError(f"{element} to {sname!r} sets the STRANS absolute-angle bit")
    orient = _GDS_TO_ORIENT.get((bool(strans & _REFLECTION), angle % 360.0))
    if orient is None:
        raise GdsFormatError(f"unsupported angle {angle} (Manhattan database)")
    if kind == rec.SREF:
        if len(xy) != 2:
            raise GdsFormatError(
                f"SREF to {sname!r} needs one XY point, got {len(xy)} coordinates"
            )
        return REF, sname, xy[0], xy[1], orient, 1, 1, 0, 0
    cols, rows = colrow
    if cols < 1 or rows < 1:
        raise GdsFormatError(f"AREF to {sname!r} has {cols} x {rows} elements")
    if len(xy) != 6:
        raise GdsFormatError(
            f"AREF to {sname!r} needs three XY points, got {len(xy)} coordinates"
        )
    x0, y0, xc, yc, xr, yr = xy
    if yc != y0 or xr != x0:
        raise GdsFormatError("only axis-parallel AREF steps are supported")
    if (xc - x0) % cols or (yr - y0) % rows:
        raise GdsFormatError(
            f"AREF to {sname!r} spans ({xc - x0}, {yr - y0}), "
            f"not a whole multiple of {cols} x {rows} elements"
        )
    dx, dy = (xc - x0) // cols, (yr - y0) // rows
    if (cols > 1 and dx == 0) or (rows > 1 and dy == 0):
        raise GdsFormatError(f"AREF to {sname!r} repeats {cols} x {rows} with a zero step")
    return REF, sname, x0, y0, orient, cols, rows, dx, dy


def check_references(children: Mapping[str, Iterable[str]]) -> None:
    """Raise ``GdsFormatError`` for a reference to an unknown cell or for
    the first reference cycle found.

    ``children`` maps every structure name to the names its references
    place, in file order.  One iterative depth-first walk over cells
    (each cell's distinct children, not its placements), so a cycle
    fails the parse instead of recursing a flatten until
    ``RecursionError``.
    """
    for name in children:
        for child in children[name]:
            if child not in children:
                raise GdsFormatError(f"reference to unknown cell {child!r}")

    def distinct(name: str) -> Iterator[str]:
        return iter(dict.fromkeys(children[name]))

    done: set[str] = set()
    for root in children:
        if root in done:
            continue
        path, on_path, stack = [root], {root}, [distinct(root)]
        while stack:
            child = next(stack[-1], None)
            if child is None:
                stack.pop()
                on_path.discard(path[-1])
                done.add(path.pop())
            elif child in on_path:
                cycle = " -> ".join(path[path.index(child) :] + [child])
                raise GdsFormatError(f"reference cycle {cycle}")
            elif child not in done:
                path.append(child)
                on_path.add(child)
                stack.append(distinct(child))
