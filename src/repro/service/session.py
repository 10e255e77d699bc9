"""Resident layout sessions: load a GDSII once, serve many requests.

The one-shot CLI pays the full cost — parse the GDSII, flatten the
hierarchy, canonicalize each layer, pack geometry into shared memory —
on *every* invocation, which dwarfs the incremental tile work the cache
makes cheap.  A :class:`LayoutSession` pays it once: the layout, the
per-layer canonical regions, and the packed shared-memory arenas are
all cached for the life of the session, so a verify request against a
warm session is queue + dirty-tile simulation and nothing else.

Sessions hand the engines *unowned* :class:`~repro.parallel.shm.SharedPayload`
wrappers (``owned=False``): the executor maps the same arena into the
warm worker pool on every request and leaves the block alone when the
run ends; the session unlinks its arenas on :meth:`close` or reload.

Staleness is stat-based: :class:`SessionManager` re-stats the file per
request and reloads when size or mtime changed — an edited layout gets
a fresh session (and fresh arenas, hence new cache keys for dirty
tiles) on its next request.

With a ``store_dir``, a session is backed by an out-of-core layout
store instead (:mod:`repro.layout.store`): the GDSII is streamed once
into a cached ``.lstore`` file, requests window rects straight out of
the mmap, and the session never materializes the layout at all.  The
store file outlives the daemon, so a restarted service re-maps it —
``layoutstore.reused`` — instead of re-parsing and re-packing.  Any
failure to build or map the store falls back to the classic in-RAM
parse (``layoutstore.fallback``), with identical results.
"""

from __future__ import annotations

import hashlib
import logging
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, fields, replace
from typing import Any, Callable

from repro.drc.engine import _DrcPayload, _SharedLayerRegions, _share_drc_payload
from repro.gdsii import read_gds
from repro.gdsii.records import GdsFormatError
from repro.geometry import Rect, Region
from repro.layout import Layer
from repro.layout.cell import Cell
from repro.layout.library import Layout
from repro.layout.store import LayoutStoreError, StoreView, ensure_store
from repro.litho.fullchip import _ScanPayload, _share_payload
from repro.obs import get_registry, names
from repro.parallel.shm import ShmArena, SharedPayload
from repro.service.jobs import BadRequestError

log = logging.getLogger("repro.service")


def resolve_layer(tech: Any, name: str) -> Layer:
    """Look up a tech layer by name, with a typed error for the wire."""
    for f in fields(tech.layers):
        layer = getattr(tech.layers, f.name)
        if isinstance(layer, Layer) and layer.name == name:
            return layer
    raise BadRequestError(f"unknown layer {name!r} for this tech node")


@dataclass(frozen=True)
class SessionKey:
    """Identity of a loaded layout file: path plus stat signature."""

    path: str
    mtime_ns: int
    size: int

    @classmethod
    def stat(cls, path: str) -> "SessionKey":
        try:
            st = os.stat(path)
        except OSError as exc:
            raise BadRequestError(f"cannot stat layout {path!r}: {exc}") from exc
        return cls(path=os.path.abspath(path), mtime_ns=st.st_mtime_ns, size=st.st_size)


class LayoutSession:
    """One resident layout: parsed cells, cached regions, packed arenas.

    All caches are keyed so that a request can only ever hit geometry
    derived from this exact file version; the manager retires the whole
    session (arenas included) when the file changes.
    """

    def __init__(self, key: SessionKey, store_dir: str | None = None) -> None:
        self.key = key
        self._lock = threading.Lock()
        self._regions: dict[tuple[str, str, str], Region] = {}
        # (kind, cell, discriminator) -> (arena, parent-side shared object)
        self._arenas: dict[tuple[str, ...], tuple[ShmArena, Any]] = {}
        self._closed = False
        self._layout: Layout | None = None
        self.store_view: StoreView | None = None
        if store_dir is not None:
            self.store_view = self._open_store(store_dir)
        if self.store_view is None:
            # classic eager parse: first-request latency stays where it
            # always was when no store is in play
            self._layout = read_gds(key.path)

    def _open_store(self, store_dir: str) -> StoreView | None:
        """Map (building if needed) this layout's cached store file.

        The file name is a hash of the absolute path, so a re-ingested
        layout overwrites its own store in place and a restarted daemon
        finds the previous run's file.  Any failure — unreadable dir,
        malformed GDSII, foreign or stale store that cannot be rebuilt —
        drops to the in-RAM path rather than failing the session.
        """
        digest = hashlib.sha256(self.key.path.encode("utf-8")).hexdigest()[:16]
        store_path = os.path.join(store_dir, f"{digest}.lstore")
        try:
            os.makedirs(store_dir, exist_ok=True)
            return ensure_store(self.key.path, store_path)
        except (LayoutStoreError, GdsFormatError, OSError) as exc:
            get_registry().inc(names.LAYOUTSTORE_FALLBACK)
            log.warning(
                "layout store unusable for %s (%s); falling back to in-RAM parse",
                self.key.path,
                exc,
            )
            return None

    @property
    def layout(self) -> Layout:
        """The parsed layout, materialized on first use.

        Store-backed sessions serve requests without ever touching this;
        it parses lazily only when a request needs the hierarchy (an
        explicit non-top cell, or a store that went unusable).
        """
        # double-checked locking: the unlocked read is deliberate — the
        # reference is written exactly once (under the lock below) and
        # never torn; after that, every request skips the lock entirely
        layout = self._layout  # repro-lint: disable=RL008
        if layout is None:
            with self._lock:
                if self._layout is None:
                    self._layout = read_gds(self.key.path)
                layout = self._layout
        return layout

    def store_for(self, cell_name: str | None) -> StoreView | None:
        """The session's store view, if it covers this cell selection.

        The store is ingested for the top cell; a request naming any
        other cell (or naming the top cell of a store that failed to
        map) gets ``None`` and takes the in-RAM path.
        """
        view = self.store_view
        if view is None:
            return None
        if cell_name is not None and cell_name != view.cell_name:
            return None
        return view

    def cell(self, name: str | None = None) -> Cell:
        try:
            if name:
                return self.layout.cell(name)
            return self.layout.top_cell()
        except (KeyError, ValueError) as exc:
            raise BadRequestError(str(exc)) from exc

    def region(self, cell: Cell, layer: Layer, window: Rect | None = None) -> Region:
        """``cell.region(layer, window)``, cached per session."""
        cache_key = (cell.name, repr(layer), repr(window))
        with self._lock:
            region = self._regions.get(cache_key)
        if region is None:
            region = cell.region(layer, window)
            with self._lock:
                region = self._regions.setdefault(cache_key, region)
        return region

    def region_source(
        self, cell: Cell
    ) -> Callable[[Layer, Rect | None], Region]:
        """A ``region_source`` hook for :func:`repro.drc.engine.run_drc`
        serving this session's cached regions."""

        def source(layer: Layer, window: Rect | None) -> Region:
            return self.region(cell, layer, window)

        return source

    # -- shared-memory residency ----------------------------------------
    def scan_sharer(
        self, cell: Cell, layer: Layer
    ) -> Callable[[_ScanPayload], SharedPayload | None]:
        """A ``sharer`` for :func:`~repro.litho.fullchip.scan_full_chip`
        that reuses one packed arena per (cell, layer) for the session's
        lifetime.

        Valid because the payload's drawn geometry is rebuilt from this
        session's cached :class:`Region` on every request — same
        canonical rect order, so substituting the resident shared
        geometry is bit-identical to packing afresh.  A payload with a
        mask layer, which the resident arena cannot represent, falls back
        to the per-run packer.
        """
        arena_key = ("scan", cell.name, repr(layer))

        def sharer(payload: _ScanPayload) -> SharedPayload | None:
            if payload.mask is not None:
                return _share_payload(payload)
            with self._lock:
                cached = self._arenas.get(arena_key)
            if cached is None:
                arena = ShmArena.pack([payload.drawn.rects])
                if arena is None:
                    return None
                geometry = payload.drawn.shared(arena.handles[0])
                with self._lock:
                    if arena_key in self._arenas:
                        arena.close()  # lost a race: use the winner's
                    else:
                        self._arenas[arena_key] = (arena, geometry)
                    cached = self._arenas[arena_key]
            arena, geometry = cached
            return SharedPayload(
                replace(payload, drawn=geometry), arena, owned=False
            )

        return sharer

    def drc_sharer(
        self, cell: Cell, window: Rect | None
    ) -> Callable[[_DrcPayload], SharedPayload | None]:
        """A ``sharer`` for :func:`~repro.drc.engine.run_drc` reusing
        one packed arena per (cell, window, layer set)."""

        def sharer(payload: _DrcPayload) -> SharedPayload | None:
            if isinstance(payload.regions, _SharedLayerRegions):
                return _share_drc_payload(payload)
            layers = sorted(payload.regions, key=repr)
            arena_key = (
                "drc",
                cell.name,
                repr(window),
                *(repr(layer) for layer in layers),
            )
            with self._lock:
                cached = self._arenas.get(arena_key)
            if cached is None:
                arena = ShmArena.pack(
                    [list(payload.regions[layer].rects()) for layer in layers]
                )
                if arena is None:
                    return None
                handles = dict(zip(layers, arena.handles))
                with self._lock:
                    if arena_key in self._arenas:
                        arena.close()
                    else:
                        self._arenas[arena_key] = (arena, handles)
                    cached = self._arenas[arena_key]
            arena, handles = cached
            store = _SharedLayerRegions(handles, payload.regions)
            return SharedPayload(
                replace(payload, regions=store), arena, owned=False
            )

        return sharer

    def close(self) -> None:
        """Unlink every resident arena (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            arenas = [arena for arena, _ in self._arenas.values()]
            self._arenas.clear()
        for arena in arenas:
            arena.close()


class SessionManager:
    """LRU-bounded pool of resident sessions with stat-based reload.

    ``store_dir`` switches new sessions to the out-of-core layout store
    (see :class:`LayoutSession`); store files live there keyed by a hash
    of the layout path and survive manager — and daemon — restarts.
    """

    def __init__(self, max_sessions: int = 4, store_dir: str | None = None) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        self.max_sessions = max_sessions
        self.store_dir = store_dir
        self._sessions: OrderedDict[str, LayoutSession] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, path: str) -> LayoutSession:
        """The resident session for ``path``, loading or reloading as
        needed (reload when the file's stat signature changed)."""
        key = SessionKey.stat(path)
        registry = get_registry()
        stale: LayoutSession | None = None
        with self._lock:
            session = self._sessions.get(key.path)
            if session is not None:
                if session.key == key:
                    self._sessions.move_to_end(key.path)
                    registry.inc(names.SERVICE_SESSIONS_REUSED)
                    return session
                stale = self._sessions.pop(key.path)
        if stale is not None:
            stale.close()
            registry.inc(names.SERVICE_SESSIONS_RELOADED)
            log.info("reloading changed layout %s", key.path)
        else:
            registry.inc(names.SERVICE_SESSIONS_LOADED)
            log.info("loading layout %s", key.path)
        session = LayoutSession(key, store_dir=self.store_dir)
        evicted: list[LayoutSession] = []
        with self._lock:
            self._sessions[key.path] = session
            self._sessions.move_to_end(key.path)
            while len(self._sessions) > self.max_sessions:
                _, old = self._sessions.popitem(last=False)
                evicted.append(old)
        for old in evicted:
            old.close()
            registry.inc(names.SERVICE_SESSIONS_EVICTED)
        return session

    def close(self) -> None:
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        for session in sessions:
            session.close()
