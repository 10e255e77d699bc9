"""Resident layout sessions: load a GDSII once, serve many requests.

The one-shot CLI parses the GDSII on *every* invocation.  A
:class:`LayoutSession` parses it once and keeps the :class:`Layout` for
the life of the session, so a verify request against a warm session
starts from the parsed hierarchy.  Each request then flattens its
layers and hands them to the engines exactly as ``repro scan`` and
``repro drc`` do; a pooled run's forked workers inherit them.

Staleness is stat-based: :class:`SessionManager` re-stats the file per
request and reloads when size or mtime changed — an edited layout gets
a fresh session on its next request, and tile keys, which digest tile
content, still hit the result store for unchanged tiles.

With a ``store_dir``, a session is backed by an out-of-core layout
store instead (:mod:`repro.layout.store`): the GDSII is streamed once
into a cached ``.lstore`` file, requests window rects straight out of
the mmap, and the session never materializes the layout at all.  The
store file outlives the daemon, so a restarted service re-maps it —
``layoutstore.reused`` — instead of re-parsing.  Any failure to build
or map the store falls back to the classic in-RAM parse
(``layoutstore.fallback``), with identical results.
"""

from __future__ import annotations

import hashlib
import logging
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Any

from repro.gdsii import read_gds
from repro.gdsii.records import GdsFormatError
from repro.layout import Layer
from repro.layout.cell import Cell
from repro.layout.library import Layout
from repro.layout.store import LayoutStoreError, StoreView, ensure_store
from repro.obs import get_registry, names
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
    """One resident layout: the parsed cells, or a mapped layout store.

    A session holds geometry of exactly one file version; the manager
    retires the whole session when the file changes.
    """

    def __init__(self, key: SessionKey, store_dir: str | None = None) -> None:
        self.key = key
        self._lock = threading.Lock()
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
            registry.inc(names.SERVICE_SESSIONS_RELOADED)
            log.info("reloading changed layout %s", key.path)
        else:
            registry.inc(names.SERVICE_SESSIONS_LOADED)
            log.info("loading layout %s", key.path)
        session = LayoutSession(key, store_dir=self.store_dir)
        evicted = 0
        with self._lock:
            self._sessions[key.path] = session
            self._sessions.move_to_end(key.path)
            while len(self._sessions) > self.max_sessions:
                self._sessions.popitem(last=False)
                evicted += 1
        if evicted:
            registry.inc(names.SERVICE_SESSIONS_EVICTED, evicted)
        return session

    def close(self) -> None:
        """Drop every resident session."""
        with self._lock:
            self._sessions.clear()
