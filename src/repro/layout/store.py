"""Out-of-core layout substrate: the ``layoutstore-v1`` flat-rect file.

``ingest`` streams a GDSII file record-by-record (never materializing a
:class:`~repro.layout.Layout`), flattens the hierarchy in bounded NumPy
chunks (:func:`repro.geometry.hierarchy.walk`, the walk ``Cell.region``
shares, broadcasts each cell's quads over whole arrays of placements),
and external-sorts each layer's rects into the *same canonical form*
:class:`~repro.geometry.Region` holds in RAM: slab-ordered disjoint rect
quads.  The quads land in an mmap-able int32
file::

    magic (16 bytes, b"layoutstore-v1\\n\\x00")
    <I  directory length
    JSON directory: dbu, cell, source stat signature, per-layer
        {offset, count, extent, digest, run y-extents}
    padding to a 64-byte boundary
    int32 little-endian rect quads (x0, y0, x1, y1), layer by layer

The canonical sweep runs in bounded x bands, never per rect.  Each
layer's quads are spilled as x0-sorted int64 runs, and the runs are
merged a block at a time; a band ends at the smallest last-loaded x0
among runs with unread data, so every rect starting left of that edge
is loaded.  Within a band the bounded column builder of
:mod:`repro.geometry.slabarrays` (the one ``Cell.region`` builds its
slabs with) cuts the rects at every distinct x, merges them column by
column and joins x-adjacent columns with identical interval lists;
rects reaching past the band's edge carry over into the next band, and
a band's first slab joins the previous band's last when the two match.
Cutting x more finely and joining identical neighbours *is* the
canonical form, so band edges cannot change a byte of the output.

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

A :class:`StoreLayer` is its own worker handle: it pickles as the
store's path, the layer key and the layer's digest, so the payload for
a billion-rect layer is a path and a few scalars, and the kernel page
cache shares the backing pages between every worker on the host.  A
layer unpickled against a store re-ingested since with other geometry
for it is refused with :class:`LayoutStoreError`.
"""

from __future__ import annotations

import hashlib
import json
import logging
import mmap
import os
import secrets
import shutil
import struct
import sys
import tempfile
from typing import Iterator

import numpy as np

from repro.gdsii.stream import _flat_chunks, scan_gds
from repro.geometry import Rect, Region
from repro.geometry.slabarrays import Slabs, band_slabs, seamed
from repro.obs import get_registry, names

log = logging.getLogger("repro.layout.store")

LayerKey = tuple[int, int]

_MAGIC = b"layoutstore-v1\n\x00"
_MAGIC_PREFIX = b"layoutstore-"
_QUAD = 4
_RUN_LEN = 2048  # rects per y-extent directory run
_SPILL_AT = 65536  # buffered quads per layer before an external-sort spill
_MERGE_BLOCK = 8192  # quads read from one spilled run at a time
_FAN_IN = 16  # spilled runs merged at once
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


class _LayerRuns:
    """One layer's flattened quads: buffered chunks, spilled as sorted runs.

    At ``_SPILL_AT`` buffered quads the chunks are joined, degenerate
    quads dropped (regions drop them too), and the rest sorted by x0 —
    all the band sweep needs — and appended to the spill file as int64.
    """

    __slots__ = ("chunks", "size", "runs")

    def __init__(self) -> None:
        self.chunks: list[np.ndarray] = []
        self.size = 0
        self.runs: list[tuple[int, int]] = []  # (byte offset, quad count)

    def add(self, quads: np.ndarray, fh) -> None:
        self.chunks.append(quads)
        self.size += len(quads)
        if self.size >= _SPILL_AT:
            self.spill(fh)

    def spill(self, fh) -> None:
        if not self.chunks:
            return
        quads = np.concatenate(self.chunks)
        self.chunks, self.size = [], 0
        quads = quads[(quads[:, 0] < quads[:, 2]) & (quads[:, 1] < quads[:, 3])]
        if not len(quads):
            return
        quads = quads[np.argsort(quads[:, 0], kind="stable")]
        fh.seek(0, os.SEEK_END)
        self.runs.append((fh.tell(), len(quads)))
        fh.write(quads.astype("<i8", copy=False).tobytes())


def _x_bands(fh, runs: list[tuple[int, int]]) -> Iterator[tuple[np.ndarray, int | None]]:
    """Merge x0-sorted spilled runs into bands: ``(quads, X)`` per band.

    Runs are read ``_MERGE_BLOCK`` quads at a time.  A band's right edge
    X is the smallest last-loaded x0 among runs with unread data, so the
    band's quads are every not yet yielded quad with x0 < X; the last
    band (nothing left unread) has X None.  A run is read again once its
    loaded quads are used up or all share the x0 that bounds the band.
    """
    left = [count for _, count in runs]
    pos = [offset for offset, _ in runs]
    loaded = [np.empty((0, _QUAD), dtype=np.int64) for _ in runs]
    while True:
        for i, quads in enumerate(loaded):
            if left[i] and (not len(quads) or quads[0, 0] == quads[-1, 0]):
                n = min(_MERGE_BLOCK, left[i])
                fh.seek(pos[i])
                block = np.frombuffer(fh.read(n * 8 * _QUAD), dtype="<i8")
                loaded[i] = np.concatenate((quads, block.reshape(n, _QUAD)))
                pos[i] += n * 8 * _QUAD
                left[i] -= n
        bounds = [int(quads[-1, 0]) for quads, n in zip(loaded, left) if n]
        x_end = min(bounds) if bounds else None
        band = []
        for i, quads in enumerate(loaded):
            cut = len(quads) if x_end is None else np.searchsorted(quads[:, 0], x_end)
            band.append(quads[:cut])
            loaded[i] = quads[cut:]
        yield np.concatenate(band), x_end
        if x_end is None:
            return


def _fan_in(fh, runs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Merge spilled runs ``_FAN_IN`` at a time until at most ``_FAN_IN``
    remain, appending each merged run to the spill file.

    Bounds the merge's memory (a block per run) and its per-band cost
    (a pass over the runs) whatever the layer's size.
    """
    while len(runs) > _FAN_IN:
        merged = []
        for i in range(0, len(runs), _FAN_IN):
            fh.seek(0, os.SEEK_END)
            start, count = fh.tell(), 0
            for quads, _ in _x_bands(fh, runs[i : i + _FAN_IN]):
                fh.seek(0, os.SEEK_END)
                fh.write(quads[np.argsort(quads[:, 0], kind="stable")].tobytes())
                count += len(quads)
            merged.append((start, count))
        runs = merged
    return runs


def _canonical_slabs(fh, runs: list[tuple[int, int]]) -> Iterator[Slabs]:
    """``Region(quads)._slabs`` of the runs' quads, in bounded batches.

    Each band's quads plus the quads carried over from the band before
    are swept over the band's x-range by the bounded column builder
    (:func:`repro.geometry.slabarrays.band_slabs`); quads reaching past
    its right edge X are carried into the next band with x0 set to X.
    Cutting x more finely than the canonical form does and then merging
    identical neighbours gives the same slabs, so the bands cannot
    change the output: :func:`~repro.geometry.slabarrays.seamed` joins
    each batch's last slab to the next batch's first when the two match.
    """
    if not runs:
        return  # every quad was degenerate
    try:
        yield from seamed(_band_batches(fh, runs))
    except OverflowError as exc:
        raise LayoutStoreError(f"coordinate out of int32 range: {exc}") from exc


def _band_batches(fh, runs: list[tuple[int, int]]) -> Iterator[Slabs]:
    """Each x band's canonical slab batches, bands in x order."""
    carry = np.empty((0, _QUAD), dtype=np.int64)
    for quads, x_end in _x_bands(fh, _fan_in(fh, runs)):
        if x_end is not None and not len(quads):
            continue  # nothing new left of X: the carried quads wait
        band = np.concatenate((carry, quads))
        x1 = band[:, 2]
        if x_end is not None:
            carry = band[x1 > x_end]
            carry[:, 0] = x_end
            x1 = np.minimum(x1, x_end)
        yield from band_slabs(band[:, 0], band[:, 1], x1, band[:, 3])


class _LayerWriter:
    """Streams one layer's canonical quads to the data file.

    Tracks, without buffering the layer: the ``Region.digest()``-equal
    sha256 (hashed batch by batch over the identical byte layout), the
    layer extent, and per-run [ymin, ymax] for window-query pruning.
    """

    __slots__ = ("fh", "count", "digest", "extent", "runs")

    def __init__(self, fh) -> None:
        self.fh = fh
        self.count = 0
        self.digest = hashlib.sha256()
        self.extent: list[int] | None = None
        self.runs: list[list[int]] = []

    def write(
        self, xa: np.ndarray, xb: np.ndarray, n: np.ndarray, y0: np.ndarray, y1: np.ndarray
    ) -> None:
        """Append one x-ordered batch of slabs (see ``Slabs``)."""
        ext = [int(xa[0]), int(y0.min()), int(xb[-1]), int(y1.max())]
        if ext[0] < _I32_MIN or ext[1] < _I32_MIN or ext[2] > _I32_MAX or ext[3] > _I32_MAX:
            raise LayoutStoreError(
                f"coordinate out of int32 range: [{min(ext[:2])}, {max(ext[2:])}]"
            )
        slab = np.repeat(np.arange(len(n)), n)
        # struct.pack("<qqq", xa, xb, n) per slab, then "<qq" per interval
        record = np.empty(3 * len(n) + 2 * len(y0), dtype="<i8")
        head = 3 * np.arange(len(n)) + 2 * (np.cumsum(n) - n)
        record[head], record[head + 1], record[head + 2] = xa, xb, n
        at = 3 * (slab + 1) + 2 * np.arange(len(y0))
        record[at], record[at + 1] = y0, y1
        self.digest.update(record.tobytes())
        quads = np.empty((len(y0), _QUAD), dtype="<i4")
        quads[:, 0], quads[:, 1], quads[:, 2], quads[:, 3] = xa[slab], y0, xb[slab], y1
        self.fh.write(quads.tobytes())
        # y-extent per _RUN_LEN rects; the first cut may continue a run
        cont = (-self.count) % _RUN_LEN
        cuts = np.arange(cont, len(y0), _RUN_LEN)
        if cont:
            cuts = np.r_[0, cuts]
        ymin = np.minimum.reduceat(y0, cuts).tolist()
        ymax = np.maximum.reduceat(y1, cuts).tolist()
        if cont:
            run = self.runs[-1]
            run[0], run[1] = min(run[0], ymin.pop(0)), max(run[1], ymax.pop(0))
        self.runs.extend([lo, hi] for lo, hi in zip(ymin, ymax))
        self.count += len(y0)
        if self.extent is not None:
            lo_x, lo_y, hi_x, hi_y = self.extent
            ext = [min(lo_x, ext[0]), min(lo_y, ext[1]), max(hi_x, ext[2]), max(hi_y, ext[3])]
        self.extent = ext


def _source_signature(path: str) -> dict:
    st = os.stat(path)
    return {
        "path": os.path.abspath(path),
        "mtime_ns": st.st_mtime_ns,
        "size": st.st_size,
    }


def _create_sibling(path: str) -> tuple[int, str]:
    """Create a fresh temp file next to ``path``: ``(fd, temp path)``.

    The name is unique per writer and the open exclusive, so concurrent
    ingests of one store path never share or truncate each other's temp
    file.  Unlike ``tempfile.mkstemp`` (always 0600) the file gets the
    mode ``open`` would give it, 0666 less the umask.
    """
    directory, name = os.path.split(os.path.abspath(path))
    while True:
        tmp = os.path.join(directory, f".{name}.{secrets.token_hex(8)}.tmp")
        try:
            return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), tmp
        except FileExistsError:
            continue


def ingest(
    gds_path: str | os.PathLike,
    store_path: str | os.PathLike,
    *,
    cell: str | None = None,
) -> "StoreView":
    """Stream a GDSII file into a ``layoutstore-v1`` flat-rect store.

    Peak memory is O(distinct cell content + sort buffers), independent
    of the flattened rect count: the sort buffers are one spill buffer
    per layer, one read block per merged run (at most ``_FAN_IN``), and
    the rects crossing the current band edge.  The store is written to
    a temp file of its own next to ``store_path`` and moved into place
    atomically, so concurrent ingests of one path never clobber each
    other, and a failed ingest leaves no file behind.
    """
    if sys.byteorder != "little":
        raise LayoutStoreError("layout stores require a little-endian host")
    gds_path = os.fspath(gds_path)
    store_path = os.fspath(store_path)
    source = _source_signature(gds_path)
    lib = scan_gds(gds_path)
    cell_name = cell if cell is not None else lib.top_cell_name()

    out_dir = os.path.dirname(os.path.abspath(store_path)) or "."
    layers: dict[LayerKey, _LayerRuns] = {}
    entries: list[dict] = []
    total_rects = 0
    extent: list[int] | None = None

    with tempfile.TemporaryFile(dir=out_dir) as spill:
        for key, quads in _flat_chunks(lib, cell_name):
            layer = layers.get(key)
            if layer is None:
                layer = layers[key] = _LayerRuns()
            layer.add(quads, spill)
        for layer in layers.values():
            layer.spill(spill)

        with tempfile.TemporaryFile(dir=out_dir) as data:
            offset = 0
            for key in sorted(layers):
                writer = _LayerWriter(data)
                for slabs in _canonical_slabs(spill, layers[key].runs):
                    writer.write(*slabs)
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

            fd, tmp_path = _create_sibling(store_path)
            try:
                with os.fdopen(fd, "wb") as out:
                    out.write(header)
                    out.write(b"\x00" * pad)
                    data.seek(0)
                    shutil.copyfileobj(data, out, 1 << 20)
                os.replace(tmp_path, store_path)
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise

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
# reading: mmap view, window queries, picklable layers
# ---------------------------------------------------------------------------


class StoreLayer:
    """One layer of a mapped store: canonical rects served on demand.

    Duck-types the slice of :class:`~repro.geometry.Region` the engines
    consume — ``bbox``, ``digest()``, ``rects()``, the windowed
    candidate query ``window()`` and the exact windowed clip
    ``clipped()``.  It pickles as ``(path, key, digest)``, absent
    layers too: a worker maps the store itself, and a layer whose
    geometry changed between pickling and loading (the store was
    re-ingested in between) is refused instead of read, so no worker
    scans other geometry than the parent pickled.
    """

    __slots__ = ("view", "key", "entry", "_region")

    def __init__(self, view: "StoreView", key: LayerKey, entry: dict | None) -> None:
        self.view = view
        self.key = key
        self.entry = entry
        self._region: Region | None = None

    def __reduce__(self):
        return (_load_layer, (self.view.path, self.key, bytes.fromhex(self.digest())))

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
        """The layer materialized as an in-RAM canonical region, built
        on first use and kept: rules sharing a layer read it once."""
        if self._region is None:
            self._region = Region.from_canonical_rects(self.rects())
        return self._region

    def clipped(self, window: Rect) -> Region:
        """``self.region() & Region(window)``, without materializing the
        layer: only the window query's rects are read.

        Exact: canonical rects not touching the window contribute
        nothing to the clip, and the candidates arrive in canonical
        order, so the clip (hence its digest) is bit-identical.
        """
        return Region.from_canonical_rects(self.window(window)) & Region(window)

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

    def close(self) -> None:
        """Release the mapping (views handed out become invalid)."""
        self.data.release()
        self._mm.close()


# Per-process cache of mapped views, keyed by absolute path: layers
# unpickled in one worker share one mapping per store file.
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


def _load_layer(path: str, key: LayerKey, digest: bytes) -> StoreLayer:
    """Unpickle a :class:`StoreLayer`, refusing one whose store was
    rewritten with other geometry for the layer since it was pickled."""
    layer = open_store(path).layer(*key)
    if bytes.fromhex(layer.digest()) != digest:
        raise LayoutStoreError(
            f"layer {key} of {path} changed since it was pickled; store was rewritten"
        )
    return layer
