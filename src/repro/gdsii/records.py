"""Low-level GDSII record encoding/decoding."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import BinaryIO, Iterator

# record types
HEADER = 0x00
BGNLIB = 0x01
LIBNAME = 0x02
UNITS = 0x03
ENDLIB = 0x04
BGNSTR = 0x05
STRNAME = 0x06
ENDSTR = 0x07
BOUNDARY = 0x08
PATH = 0x09
SREF = 0x0A
AREF = 0x0B
TEXT = 0x0C
LAYER = 0x0D
DATATYPE = 0x0E
XY = 0x10
ENDEL = 0x11
SNAME = 0x12
COLROW = 0x13
NODE = 0x15
STRANS = 0x1A
MAG = 0x1B
ANGLE = 0x1C
BOX = 0x2D

# data types
DT_NONE = 0x00
DT_BITARRAY = 0x01
DT_INT2 = 0x02
DT_INT4 = 0x03
DT_REAL8 = 0x05
DT_ASCII = 0x06

RECORD_NAMES = {
    HEADER: "HEADER", BGNLIB: "BGNLIB", LIBNAME: "LIBNAME", UNITS: "UNITS",
    ENDLIB: "ENDLIB", BGNSTR: "BGNSTR", STRNAME: "STRNAME", ENDSTR: "ENDSTR",
    BOUNDARY: "BOUNDARY", PATH: "PATH", SREF: "SREF", AREF: "AREF",
    TEXT: "TEXT", LAYER: "LAYER", DATATYPE: "DATATYPE", XY: "XY",
    ENDEL: "ENDEL", SNAME: "SNAME", COLROW: "COLROW", NODE: "NODE",
    STRANS: "STRANS", MAG: "MAG", ANGLE: "ANGLE", BOX: "BOX",
}


class GdsFormatError(ValueError):
    """Raised on malformed GDSII streams."""


def encode_real8(value: float) -> bytes:
    """Encode a float as a GDSII 8-byte excess-64 base-16 real."""
    if value == 0.0:
        return b"\x00" * 8
    sign = 0
    if value < 0:
        sign = 0x80
        value = -value
    exponent = 64
    # normalize mantissa into [1/16, 1)
    while value >= 1.0:
        value /= 16.0
        exponent += 1
    while value < 1.0 / 16.0:
        value *= 16.0
        exponent -= 1
    mantissa = int(value * (1 << 56))
    if mantissa >= 1 << 56:  # float rounding pushed us to the next hexade
        mantissa >>= 4
        exponent += 1
    if not (0 <= exponent <= 127):
        raise GdsFormatError(f"real8 exponent out of range: {exponent}")
    return bytes([sign | exponent]) + struct.pack(">Q", mantissa)[1:]


def decode_real8(data: bytes) -> float:
    """Decode a GDSII 8-byte real."""
    if len(data) != 8:
        raise GdsFormatError("real8 must be 8 bytes")
    first = data[0]
    sign = -1.0 if first & 0x80 else 1.0
    exponent = (first & 0x7F) - 64
    mantissa = int.from_bytes(b"\x00" + data[1:], "big")
    return sign * (mantissa / float(1 << 56)) * (16.0 ** exponent)


@dataclass(frozen=True, slots=True)
class Record:
    rtype: int
    dtype: int
    data: bytes

    @property
    def name(self) -> str:
        return RECORD_NAMES.get(self.rtype, f"0x{self.rtype:02X}")

    # -- payload decoding -----------------------------------------------
    def int2(self) -> list[int]:
        return list(struct.unpack(f">{len(self.data) // 2}h", self.data))

    def int4(self) -> list[int]:
        return list(struct.unpack(f">{len(self.data) // 4}i", self.data))

    def real8(self) -> list[float]:
        return [decode_real8(self.data[i : i + 8]) for i in range(0, len(self.data), 8)]

    def ascii(self) -> str:
        return self.data.rstrip(b"\x00").decode("ascii")


def make_record(rtype: int, dtype: int, payload: bytes = b"") -> bytes:
    if len(payload) % 2:
        payload += b"\x00"
    total = 4 + len(payload)
    if total > 0xFFFF:
        raise GdsFormatError(f"record too long: {total} bytes")
    return struct.pack(">HBB", total, rtype, dtype) + payload


def rec_int2(rtype: int, values: list[int]) -> bytes:
    return make_record(rtype, DT_INT2, struct.pack(f">{len(values)}h", *values))


def rec_int4(rtype: int, values: list[int]) -> bytes:
    return make_record(rtype, DT_INT4, struct.pack(f">{len(values)}i", *values))


def rec_real8(rtype: int, values: list[float]) -> bytes:
    return make_record(rtype, DT_REAL8, b"".join(encode_real8(v) for v in values))


def rec_ascii(rtype: int, text: str) -> bytes:
    return make_record(rtype, DT_ASCII, text.encode("ascii"))


def rec_empty(rtype: int) -> bytes:
    return make_record(rtype, DT_NONE)


_HEADER = struct.Struct(">HBB")  # record length, record type, data type


def raw_records(data: bytes) -> Iterator[tuple[int, int, bytes]]:
    """``(record type, data type, payload)`` per record of a byte stream;
    stops at ENDLIB or end of data."""
    header = _HEADER.unpack_from
    pos = 0
    n = len(data)
    while pos + 4 <= n:
        length, rtype, dtype = header(data, pos)
        if length < 4 or pos + length > n:
            raise GdsFormatError(f"bad record length {length} at offset {pos}")
        yield rtype, dtype, data[pos + 4 : pos + length]
        pos += length
        if rtype == ENDLIB:
            return
    if pos != n:
        raise GdsFormatError("trailing bytes after last record")


def raw_file_records(
    fh: BinaryIO, chunk_size: int = 1 << 16
) -> Iterator[tuple[int, int, bytes]]:
    """:func:`raw_records` of a binary file handle, without reading it whole.

    Same contract — stops at ENDLIB, raises on a record extending past
    the end of the stream, rejects 1–3 trailing bytes, and returns
    silently when the stream ends on a clean record boundary — but
    holds only one buffered chunk (plus the record being assembled) in
    memory, so multi-gigabyte streams never materialize.
    """
    header = _HEADER.unpack_from
    buf = b""
    pos = 0
    base = 0  # absolute file offset of buf[0]
    while True:
        if len(buf) - pos < 4:
            base += pos
            buf = buf[pos:] + fh.read(chunk_size)
            pos = 0
            if len(buf) < 4:
                if buf:
                    raise GdsFormatError("trailing bytes after last record")
                return
        length, rtype, dtype = header(buf, pos)
        if length < 4:
            raise GdsFormatError(f"bad record length {length} at offset {base + pos}")
        while len(buf) - pos < length:
            chunk = fh.read(chunk_size)
            if not chunk:
                raise GdsFormatError(
                    f"bad record length {length} at offset {base + pos}"
                )
            buf += chunk
        yield rtype, dtype, buf[pos + 4 : pos + length]
        pos += length
        if rtype == ENDLIB:
            return


def iter_records(data: bytes) -> Iterator[Record]:
    """Parse a byte stream into records; stops at ENDLIB or end of data."""
    for rtype, dtype, payload in raw_records(data):
        yield Record(rtype, dtype, payload)
