"""GDSII stream-format reader/writer and a JSON interchange format.

Implemented from the Calma GDSII Stream Format specification: each record
is ``[uint16 length][uint8 record-type][uint8 data-type]`` followed by the
payload, with 8-byte reals in excess-64 base-16 floating point.  Only the
records a layout database needs are supported (BOUNDARY, SREF, AREF and
library/structure framing); TEXT labels are skipped, and PATH, BOX and
NODE elements are rejected by name.
"""

from repro.gdsii.io import read_gds, write_gds
from repro.gdsii.jsonio import read_json, write_json
from repro.gdsii.stream import scan_gds

__all__ = ["read_gds", "write_gds", "read_json", "write_json", "scan_gds"]
