"""Out-of-core layout substrate: the ``layoutstore-v1`` flat-rect file.

``ingest`` streams a GDSII file record-by-record (never materializing a
:class:`~repro.layout.Layout`), flattens references on the fly, and
external-sorts each layer's rects into the *same canonical form*
:class:`~repro.geometry.Region` holds in RAM: slab-ordered disjoint
rect quads.  The quads land in an mmap-able int32 file::

    magic (16 bytes, b"layoutstore-v1\\n\\x00")
    <I  directory length
    JSON directory: dbu, cell, source stat signature, per-layer
        {offset, count, extent, digest, run y-extents}
    padding to a 64-byte boundary
    int32 little-endian rect quads (x0, y0, x1, y1), layer by layer

Because the quads are exactly ``Region.rects()`` order, every consumer
of the canonical contract plugs straight in: ``Region.from_canonical_
rects`` rebuilds bit-identical regions, the per-layer digest (computed
while streaming the slabs out) equals ``Region.digest()``, and tile
cache keys derived from either are interchangeable.

Window queries never touch cold pages: canonical order makes both
``x0`` and ``x1`` non-decreasing across a layer (slabs are sorted and
disjoint in x), so a tile's candidate rects are found with two binary
searches, and a per-run y-extent directory skips runs wholly outside
the window.  The candidate set is exactly the set of rects whose
closed bbox touches the window — the same contract as
``GridIndex.query`` — so the pooled engines see identical geometry.

Workers reattach with :class:`StoreRects`, which pickles as
``(path, offset, count)``: the payload for a billion-rect layer is a
few dozen bytes, and the kernel page cache shares the backing pages
between every worker on the host.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import logging
import mmap
import os
import struct
import sys
import tempfile
from array import array
from typing import Iterable, Iterator

from repro.gdsii.stream import flatten, scan_gds
from repro.geometry import Rect, Region
from repro.geometry.intervals import merge_intervals
from repro.obs import get_registry, names

log = logging.getLogger("repro.layout.store")

LayerKey = tuple[int, int]

_MAGIC = b"layoutstore-v1\n\x00"
_MAGIC_PREFIX = b"layoutstore-"
_QUAD = 4
_RUN_LEN = 2048  # rects per y-extent directory run
_SPILL_AT = 65536  # buffered quads per layer before an external-sort spill
_FLUSH_SLOTS = 4 * 8192  # int32 slots buffered before writing through
_I32_MIN = -(1 << 31)
_I32_MAX = (1 << 31) - 1

# sha256 over zero slabs == Region().digest(); absent layers share it so
# store-backed cache keys match the in-RAM path for empty deck layers.
_EMPTY_DIGEST = hashlib.sha256().hexdigest()


class LayoutStoreError(RuntimeError):
    """Raised when a layout store cannot be built, mapped, or resolved."""


class LayoutStoreVersionError(LayoutStoreError):
    """The file is a layout store, but of a different format version."""


# ---------------------------------------------------------------------------
# ingest: external sort + canonical slab sweep
# ---------------------------------------------------------------------------


class _QuadSorter:
    """Buffered external sorter for one layer's flattened rect quads."""

    __slots__ = ("buf", "runs")

    def __init__(self) -> None:
        self.buf: list[tuple[int, int, int, int]] = []
        self.runs: list[tuple[int, int]] = []  # (byte offset, quad count)

    def add(self, x0: int, y0: int, x1: int, y1: int) -> None:
        if x0 >= x1 or y0 >= y1:
            return  # regions drop degenerates; mirror that here
        self.buf.append((x0, y0, x1, y1))

    def spill(self, fh) -> None:
        if not self.buf:
            return
        self.buf.sort()
        packed = array("q")
        for quad in self.buf:
            packed.extend(quad)
        fh.seek(0, os.SEEK_END)
        self.runs.append((fh.tell(), len(self.buf)))
        fh.write(packed.tobytes())
        self.buf = []

    def sorted_quads(self, fh) -> Iterator[tuple[int, int, int, int]]:
        self.buf.sort()
        if not self.runs:
            yield from self.buf
            return
        streams = [_read_run(fh, off, count) for off, count in self.runs]
        if self.buf:
            streams.append(iter(self.buf))
        yield from heapq.merge(*streams)


def _read_run(fh, offset: int, count: int, chunk: int = 8192) -> Iterator[tuple]:
    """Re-seeking chunked reader over one spilled sort run."""
    pos = offset
    remaining = count
    while remaining:
        n = min(chunk, remaining)
        fh.seek(pos)
        quads = array("q")
        quads.frombytes(fh.read(n * 8 * _QUAD))
        pos += n * 8 * _QUAD
        remaining -= n
        for i in range(0, len(quads), _QUAD):
            yield (quads[i], quads[i + 1], quads[i + 2], quads[i + 3])


def _stream_slabs(
    quads: Iterable[tuple[int, int, int, int]],
) -> Iterator[tuple[int, int, list[tuple[int, int]]]]:
    """Canonical slabs from quads sorted by (x0, y0, x1, y1).

    Incremental version of ``region._slabs_from_rects``: the active set
    is swept left to right, cutting only where membership changes, and
    x-adjacent slabs with identical y-interval lists are merged — the
    output is exactly ``Region(rects)._slabs`` without ever holding the
    rect population in memory (only the rects crossing the sweep line).
    """
    it = iter(quads)
    nxt = next(it, None)
    heap: list[tuple[int, int, int]] = []  # (x1, y0, y1)
    pending: tuple[int, int, list[tuple[int, int]]] | None = None
    xa = 0
    while True:
        if not heap:
            if nxt is None:
                break
            xa = nxt[0]
        while nxt is not None and nxt[0] <= xa:
            heapq.heappush(heap, (nxt[2], nxt[1], nxt[3]))
            nxt = next(it, None)
        while heap and heap[0][0] <= xa:
            heapq.heappop(heap)
        if not heap:
            continue
        xb = heap[0][0]
        if nxt is not None and nxt[0] < xb:
            xb = nxt[0]
        ys = merge_intervals([(y0, y1) for (_, y0, y1) in heap])
        if pending is not None and pending[1] == xa and pending[2] == ys:
            pending = (pending[0], xb, ys)
        else:
            if pending is not None:
                yield pending
            pending = (xa, xb, ys)
        xa = xb
    if pending is not None:
        yield pending


class _LayerWriter:
    """Streams one layer's canonical quads to the data file.

    Tracks, without buffering the layer: the ``Region.digest()``-equal
    sha256 (hashed slab by slab with the identical byte packing), the
    layer extent, and per-run [ymin, ymax] for window-query pruning.
    """

    __slots__ = ("fh", "count", "digest", "extent", "runs", "_buf")

    def __init__(self, fh) -> None:
        self.fh = fh
        self.count = 0
        self.digest = hashlib.sha256()
        self.extent: list[int] | None = None
        self.runs: list[list[int]] = []
        self._buf = array("i")

    def write_slab(self, xa: int, xb: int, ys: list[tuple[int, int]]) -> None:
        if not (_I32_MIN <= xa and xb <= _I32_MAX):
            raise LayoutStoreError(f"coordinate out of int32 range: [{xa}, {xb}]")
        self.digest.update(struct.pack("<qqq", xa, xb, len(ys)))
        for y0, y1 in ys:
            if not (_I32_MIN <= y0 and y1 <= _I32_MAX):
                raise LayoutStoreError(f"coordinate out of int32 range: [{y0}, {y1}]")
            self.digest.update(struct.pack("<qq", y0, y1))
            self._buf.extend((xa, y0, xb, y1))
            run = self.count // _RUN_LEN
            if run == len(self.runs):
                self.runs.append([y0, y1])
            else:
                if y0 < self.runs[run][0]:
                    self.runs[run][0] = y0
                if y1 > self.runs[run][1]:
                    self.runs[run][1] = y1
            self.count += 1
            if self.extent is None:
                self.extent = [xa, y0, xb, y1]
            else:
                ext = self.extent
                if xa < ext[0]:
                    ext[0] = xa
                if y0 < ext[1]:
                    ext[1] = y0
                if xb > ext[2]:
                    ext[2] = xb
                if y1 > ext[3]:
                    ext[3] = y1
        if len(self._buf) >= _FLUSH_SLOTS:
            self.flush()

    def flush(self) -> None:
        if self._buf:
            self.fh.write(self._buf.tobytes())
            self._buf = array("i")


def _source_signature(path: str) -> dict:
    st = os.stat(path)
    return {
        "path": os.path.abspath(path),
        "mtime_ns": st.st_mtime_ns,
        "size": st.st_size,
    }


def ingest(
    gds_path: str | os.PathLike,
    store_path: str | os.PathLike,
    *,
    cell: str | None = None,
) -> "StoreView":
    """Stream a GDSII file into a ``layoutstore-v1`` flat-rect store.

    Peak memory is O(distinct cell content + sort buffers), independent
    of the flattened rect count.  The store is written to a sibling
    temp file and moved into place atomically.
    """
    if sys.byteorder != "little":
        raise LayoutStoreError("layout stores require a little-endian host")
    gds_path = os.fspath(gds_path)
    store_path = os.fspath(store_path)
    source = _source_signature(gds_path)
    lib = scan_gds(gds_path)
    cell_name = cell if cell is not None else lib.top_cell_name()

    out_dir = os.path.dirname(os.path.abspath(store_path)) or "."
    sorters: dict[LayerKey, _QuadSorter] = {}
    entries: list[dict] = []
    total_rects = 0
    extent: list[int] | None = None

    with tempfile.TemporaryFile(dir=out_dir) as spill:

        def emit(key: LayerKey, x0: int, y0: int, x1: int, y1: int) -> None:
            sorter = sorters.get(key)
            if sorter is None:
                sorter = sorters[key] = _QuadSorter()
            sorter.add(x0, y0, x1, y1)
            if len(sorter.buf) >= _SPILL_AT:
                sorter.spill(spill)

        flatten(lib, cell_name, emit)

        with tempfile.TemporaryFile(dir=out_dir) as data:
            offset = 0
            for key in sorted(sorters):
                writer = _LayerWriter(data)
                for xa, xb, ys in _stream_slabs(sorters[key].sorted_quads(spill)):
                    writer.write_slab(xa, xb, ys)
                writer.flush()
                if writer.count == 0:
                    continue
                entries.append(
                    {
                        "layer": key[0],
                        "datatype": key[1],
                        "offset": offset,
                        "count": writer.count,
                        "extent": writer.extent,
                        "digest": writer.digest.hexdigest(),
                        "run_len": _RUN_LEN,
                        "runs": writer.runs,
                    }
                )
                offset += writer.count * _QUAD
                total_rects += writer.count
                ext = writer.extent
                if extent is None:
                    extent = list(ext)  # type: ignore[arg-type]
                else:
                    extent = [
                        min(extent[0], ext[0]),
                        min(extent[1], ext[1]),
                        max(extent[2], ext[2]),
                        max(extent[3], ext[3]),
                    ]

            meta = {
                "version": _MAGIC.decode("ascii").rstrip("\n\x00"),
                "dbu_nm": lib.dbu_nm,
                "cell": cell_name,
                "explicit_cell": cell is not None,
                "source": source,
                "extent": extent,
                "layers": entries,
            }
            payload = json.dumps(meta, sort_keys=True).encode("utf-8")
            header = _MAGIC + struct.pack("<I", len(payload)) + payload
            pad = (-len(header)) % 64

            tmp_path = store_path + ".tmp"
            with open(tmp_path, "wb") as out:
                out.write(header)
                out.write(b"\x00" * pad)
                data.seek(0)
                while True:
                    chunk = data.read(1 << 20)
                    if not chunk:
                        break
                    out.write(chunk)
            os.replace(tmp_path, store_path)

    registry = get_registry()
    registry.inc(names.LAYOUTSTORE_INGESTS)
    registry.gauge(names.LAYOUTSTORE_RECTS, total_rects)
    registry.gauge(names.LAYOUTSTORE_BYTES, os.stat(store_path).st_size)
    log.info(
        "ingested %s -> %s (%d rects, %d layers)",
        gds_path,
        store_path,
        total_rects,
        len(entries),
    )
    return open_store(store_path, refresh=True)


# ---------------------------------------------------------------------------
# reading: mmap view, window queries, picklable handles
# ---------------------------------------------------------------------------


class StoreLayer:
    """One layer of a mapped store: canonical rects served on demand.

    Duck-types the slice of :class:`~repro.geometry.Region` the engines
    consume — ``bbox``, ``digest()``, ``rects()`` — plus the windowed
    candidate query the in-RAM path answers with ``GridIndex``.
    """

    __slots__ = ("view", "key", "entry")

    def __init__(self, view: "StoreView", key: LayerKey, entry: dict | None) -> None:
        self.view = view
        self.key = key
        self.entry = entry

    @property
    def count(self) -> int:
        return self.entry["count"] if self.entry else 0

    @property
    def is_empty(self) -> bool:
        return self.entry is None

    @property
    def bbox(self) -> Rect | None:
        if self.entry is None:
            return None
        return Rect(*self.entry["extent"])

    def digest(self) -> str:
        """Equals ``Region.digest()`` of the layer's point set."""
        if self.entry is None:
            return _EMPTY_DIGEST
        return self.entry["digest"]

    def handle(self) -> "StoreRects":
        """Picklable ``(path, offset, count)`` handle for workers."""
        if self.entry is None:
            raise LayoutStoreError(f"layer {self.key} is empty in {self.view.path}")
        return StoreRects(self.view.path, self.entry["offset"], self.entry["count"])

    def rects(self) -> list[Rect]:
        """Every canonical rect, in ``Region.rects()`` order."""
        if self.entry is None:
            return []
        d = self.view.data
        base = self.entry["offset"]
        return [
            Rect(d[i], d[i + 1], d[i + 2], d[i + 3])
            for i in range(base, base + self.entry["count"] * _QUAD, _QUAD)
        ]

    def region(self) -> Region:
        """The layer materialized as an in-RAM canonical region."""
        return Region.from_canonical_rects(self.rects())

    def window(self, window: Rect) -> list[Rect]:
        """Canonical rects whose closed bbox touches ``window``.

        Canonical order makes both x0 and x1 non-decreasing across the
        layer, so the candidate span is found with two binary searches;
        the per-run y-extents then skip runs wholly outside the window
        without faulting their pages in.
        """
        entry = self.entry
        if entry is None:
            return []
        d = self.view.data
        base = entry["offset"]
        n = entry["count"]
        wx0, wy0, wx1, wy1 = window.x0, window.y0, window.x1, window.y1
        lo, hi = 0, n  # first rect with x1 >= wx0
        while lo < hi:
            mid = (lo + hi) >> 1
            if d[base + _QUAD * mid + 2] < wx0:
                lo = mid + 1
            else:
                hi = mid
        start = lo
        lo, hi = start, n  # first rect with x0 > wx1
        while lo < hi:
            mid = (lo + hi) >> 1
            if d[base + _QUAD * mid] <= wx1:
                lo = mid + 1
            else:
                hi = mid
        end = lo
        out: list[Rect] = []
        runs = entry["runs"]
        run_len = entry["run_len"]
        i = start
        while i < end:
            run = i // run_len
            run_end = min((run + 1) * run_len, end)
            ymin, ymax = runs[run]
            if ymin > wy1 or ymax < wy0:
                i = run_end
                continue
            for j in range(i, run_end):
                s = base + _QUAD * j
                ry0 = d[s + 1]
                ry1 = d[s + 3]
                if ry0 <= wy1 and ry1 >= wy0:
                    out.append(Rect(d[s], ry0, d[s + 2], ry1))
            i = run_end
        return out


class StoreView:
    """A read-only mmap of one ``layoutstore-v1`` file."""

    def __init__(self, path: str | os.PathLike) -> None:
        if sys.byteorder != "little":
            raise LayoutStoreError("layout stores require a little-endian host")
        self.path = os.path.abspath(os.fspath(path))
        st = os.stat(self.path)
        self.stat_signature = (st.st_mtime_ns, st.st_size)
        with open(self.path, "rb") as fh:
            head = fh.read(len(_MAGIC))
            if head != _MAGIC:
                if head.startswith(_MAGIC_PREFIX):
                    found = head.rstrip(b"\x00\n").decode("ascii", "replace")
                    want = _MAGIC.rstrip(b"\x00\n").decode("ascii")
                    raise LayoutStoreVersionError(
                        f"{self.path}: layout store version {found!r}, expected {want!r}"
                    )
                raise LayoutStoreError(f"{self.path} is not a layout store")
            try:
                (meta_len,) = struct.unpack("<I", fh.read(4))
                self.meta = json.loads(fh.read(meta_len).decode("utf-8"))
            except (struct.error, UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise LayoutStoreError(f"corrupt layout store {self.path}: {exc}") from exc
            data_start = len(_MAGIC) + 4 + meta_len
            data_start += (-data_start) % 64
            expected = data_start + 4 * _QUAD * sum(
                e["count"] for e in self.meta.get("layers", ())
            )
            if st.st_size != expected:
                raise LayoutStoreError(
                    f"corrupt layout store {self.path}: "
                    f"size {st.st_size}, directory expects {expected}"
                )
            self._mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        self.data = memoryview(self._mm)[data_start:].cast("i")
        self._layers: dict[LayerKey, dict] = {
            (e["layer"], e["datatype"]): e for e in self.meta.get("layers", ())
        }
        self._by_offset: dict[int, dict] = {
            e["offset"]: e for e in self._layers.values()
        }

    # -- metadata -------------------------------------------------------
    @property
    def cell_name(self) -> str:
        return self.meta["cell"]

    @property
    def explicit_cell(self) -> bool:
        return bool(self.meta.get("explicit_cell"))

    @property
    def dbu_nm(self) -> float:
        return float(self.meta["dbu_nm"])

    @property
    def extent(self) -> Rect | None:
        ext = self.meta.get("extent")
        return Rect(*ext) if ext else None

    @property
    def layer_keys(self) -> list[LayerKey]:
        return sorted(self._layers)

    @property
    def total_rects(self) -> int:
        return sum(e["count"] for e in self._layers.values())

    def matches_source(self, gds_path: str | os.PathLike) -> bool:
        """True when the recorded source stat signature is current."""
        try:
            return _source_signature(os.fspath(gds_path)) == self.meta.get("source")
        except OSError:
            return False

    # -- layers ---------------------------------------------------------
    def layer(self, gds_layer: int, gds_datatype: int = 0) -> StoreLayer:
        key = (gds_layer, gds_datatype)
        return StoreLayer(self, key, self._layers.get(key))

    def layer_for(self, layer) -> StoreLayer:
        """The store layer for a :class:`repro.layout.Layer`."""
        return self.layer(layer.gds_layer, layer.gds_datatype)

    def _layer_at(self, offset: int, count: int) -> StoreLayer:
        entry = self._by_offset.get(offset)
        if entry is None or entry["count"] != count:
            raise LayoutStoreError(
                f"no layer at offset {offset} (x{count}) in {self.path}; "
                "store was rewritten since the handle was made"
            )
        return StoreLayer(self, (entry["layer"], entry["datatype"]), entry)

    def close(self) -> None:
        """Release the mapping (views handed out become invalid)."""
        self.data.release()
        self._mm.close()


# Per-process cache of mapped views, keyed by absolute path: workers
# resolving StoreRects handles share one mapping per store file.
_VIEWS: dict[str, StoreView] = {}


def open_store(path: str | os.PathLike, *, refresh: bool = False) -> StoreView:
    """Map a store file, sharing one view per path per process.

    The cached view is re-opened when the file's stat signature changed
    (e.g. re-ingested by another process) or when ``refresh`` is set.
    """
    abspath = os.path.abspath(os.fspath(path))
    view = _VIEWS.get(abspath)
    if view is not None and not refresh:
        try:
            st = os.stat(abspath)
            if (st.st_mtime_ns, st.st_size) == view.stat_signature:
                return view
        except OSError:
            pass
    view = StoreView(abspath)
    _VIEWS[abspath] = view
    return view


def ensure_store(
    gds_path: str | os.PathLike,
    store_path: str | os.PathLike,
    *,
    cell: str | None = None,
    force: bool = False,
) -> StoreView:
    """Map ``store_path``, (re-)ingesting ``gds_path`` when needed.

    An existing store is reused only when its format version, source
    stat signature, and cell selection all match; a version mismatch is
    counted and logged (mirroring the result-file sentinel) and
    the store is rebuilt in place.
    """
    registry = get_registry()
    store_path = os.fspath(store_path)
    if not force and os.path.exists(store_path):
        try:
            view = open_store(store_path)
        except LayoutStoreVersionError as exc:
            registry.inc(names.LAYOUTSTORE_VERSION_MISMATCH)
            log.warning("%s; re-ingesting", exc)
        except (LayoutStoreError, OSError) as exc:
            log.warning("unusable layout store %s (%s); re-ingesting", store_path, exc)
        else:
            cell_ok = (
                view.cell_name == cell if cell is not None else not view.explicit_cell
            )
            if cell_ok and view.matches_source(gds_path):
                registry.inc(names.LAYOUTSTORE_REUSED)
                return view
            log.info("layout store %s is stale; re-ingesting", store_path)
    return ingest(gds_path, store_path, cell=cell)


class StoreRects:
    """Picklable handle to one store layer: ``(path, offset, count)``.

    The worker-side twin of :class:`repro.parallel.shm.ShmRects`, with
    the shm segment replaced by the store file: unpickling costs three
    scalars on the wire, and resolution mmaps (or reuses) the store
    read-only — no geometry ever crosses the pipe.
    """

    __slots__ = ("path", "offset", "count", "_layer")

    def __init__(self, path: str, offset: int, count: int) -> None:
        self.path = path
        self.offset = offset
        self.count = count
        self._layer: StoreLayer | None = None

    def __getstate__(self) -> tuple[str, int, int]:
        return (self.path, self.offset, self.count)

    def __setstate__(self, state: tuple[str, int, int]) -> None:
        self.path, self.offset, self.count = state
        self._layer = None

    def _resolve(self) -> StoreLayer:
        if self._layer is None:
            self._layer = open_store(self.path)._layer_at(self.offset, self.count)
        return self._layer

    def rects(self) -> list[Rect]:
        return self._resolve().rects()

    def window(self, window: Rect) -> list[Rect]:
        return self._resolve().window(window)

    def digest(self) -> str:
        return self._resolve().digest()

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return f"StoreRects({self.path!r}, offset={self.offset}, count={self.count})"
