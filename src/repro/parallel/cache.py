"""One result store behind incremental runs, checkpoints and the daemon.

A tile's verification result is a pure function of (a) the engine
parameters and (b) the geometry inside the tile's halo window.  Hashing
exactly those inputs gives an *incremental* engine for free: after a
local edit, only tiles whose halo window intersects the edit change
their key, so a re-scan re-simulates just the dirty tiles.  Keys hash
canonical-form geometry (see :meth:`repro.geometry.Region.digest`), so
two layouts describing the same point set always hit the same entry.

:class:`ResultStore` holds such results: a locked map of namespaced
entries with an optional LRU bound, hit/miss/eviction counters, and one
atomic :meth:`~ResultStore.save`/:meth:`~ResultStore.load` under one
format sentinel.  The engines see it through :class:`TileCache`, a
handle on one namespace, in three ways:

* ``TileCache()`` owns a private unbounded store: the ``--incremental``
  cache, persisted with ``--cache-file``;
* :meth:`ResultStore.view` hands out handles over a shared store: the
  daemon's LRU-bounded store, namespaced by deck signature and engine
  version so results of different decks or releases never collide;
* a checkpoint (:func:`open_checkpoint`) is a store tied to the
  checkpoint file and viewed under the run signature.  The executor
  fills it with :meth:`TileCache.put` and persists it with
  :meth:`TileCache.flush`.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from typing import Any, Iterator

from repro.obs import get_registry, names

log = logging.getLogger("repro.parallel")

# On-disk format sentinel of every persisted result file (--cache-file
# and --checkpoint-file alike).  Bump whenever the shape of stored
# values or keys changes: a mismatched file is discarded — full
# recompute — instead of serving stale-shaped values.
_FORMAT_VERSION = "resultstore-v2"


def digest_parts(*parts: Any) -> str:
    """Stable hex digest of a heterogeneous key tuple.

    Parts are reduced to their ``repr`` — fine for the primitives,
    tuples, and frozen dataclasses used in cache keys.  Pre-hashed
    geometry digests are passed through as strings.
    """
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x1f")
    return h.hexdigest()


class ResultStore:
    """Thread-safe map of ``(namespace, key) -> result``.

    ``max_entries`` bounds the store with LRU eviction (``None``: no
    bound).  :meth:`get` counts hits and misses and refreshes recency;
    ``(namespace, key) in store`` and ``store[namespace, key]`` read
    without counting.  ``path`` ties the store to a file that
    :meth:`flush` rewrites when entries changed.
    """

    def __init__(
        self,
        max_entries: int | None = 100_000,
        *,
        path: str | os.PathLike | None = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.path = os.fspath(path) if path is not None else None
        self._entries: OrderedDict[tuple[str, Any], Any] = OrderedDict()
        self._lock = threading.Lock()
        self._dirty = False
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, full: tuple[str, Any]) -> bool:
        with self._lock:
            return full in self._entries

    def __getitem__(self, full: tuple[str, Any]) -> Any:
        with self._lock:
            return self._entries[full]

    def __iter__(self) -> Iterator[tuple[str, Any]]:
        with self._lock:
            return iter(list(self._entries))

    @property
    def hit_rate(self) -> float:
        # snapshot both counters under the lock: reading them free-running
        # can pair a pre-increment hits with a post-increment misses and
        # report a rate that was never true
        with self._lock:
            hits, misses = self.hits, self.misses
        total = hits + misses
        return hits / total if total else 0.0

    @staticmethod
    def namespace(*parts: Any) -> str:
        """Digest a deck-signature/engine-version tuple into a
        namespace."""
        return digest_parts("resultstore-ns", *parts)

    def get(self, namespace: str, key: Any) -> Any:
        """Look up a namespaced key, counting hit or miss; None on
        miss.  A hit refreshes LRU recency."""
        full = (namespace, key)
        with self._lock:
            if full in self._entries:
                self._entries.move_to_end(full)
                self.hits += 1
                get_registry().inc(names.STORE_HITS)
                return self._entries[full]
            self.misses += 1
            get_registry().inc(names.STORE_MISSES)
            return None

    def put(self, namespace: str, key: Any, value: Any) -> None:
        """Store a namespaced result, evicting the least recently used
        entries past the bound."""
        full = (namespace, key)
        with self._lock:
            self._entries[full] = value
            self._entries.move_to_end(full)
            self._dirty = True
            while self.max_entries is not None and len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
                get_registry().inc(names.STORE_EVICTIONS)

    def view(self, namespace: str) -> "TileCache":
        """A :class:`TileCache` handle bound to ``namespace``."""
        return TileCache(self, namespace)

    def clear(self, namespace: str) -> None:
        """Drop ``namespace``'s entries and delete the tied file: the
        run that file checkpointed has completed."""
        with self._lock:
            for full in [full for full in self._entries if full[0] == namespace]:
                del self._entries[full]
            self._dirty = False
        if self.path is not None:
            try:
                os.unlink(self.path)
            except OSError:
                pass

    # -- persistence ----------------------------------------------------
    def flush(self) -> None:
        """Rewrite the tied file if entries changed since the last
        flush; a store without a file does nothing."""
        with self._lock:
            if not self._dirty or self.path is None:
                return
            path, entries, self._dirty = self.path, dict(self._entries), False
        _write(path, entries)

    def save(self, path: str | os.PathLike) -> None:
        """Persist entries (not counters) for a later process to reuse."""
        with self._lock:
            entries = dict(self._entries)
        _write(os.fspath(path), entries)

    @classmethod
    def load(cls, path: str | os.PathLike, max_entries: int | None = 100_000) -> "ResultStore":
        """Load a saved store, tied to ``path``.

        A missing or unreadable file yields an empty store (an
        incremental run then degrades to a full run, a resume to a
        fresh run).  A file written under another format — including
        the per-kind formats that preceded this one — is discarded the
        same way, with a warning and the ``tilecache.version_mismatch``
        counter, instead of serving values shaped for another schema.
        """
        store = cls(max_entries, path=path)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
        except FileNotFoundError:
            return store
        except Exception:  # repro-lint: disable=RL004
            # pickle surfaces corruption as many exception types
            # (UnpicklingError, ValueError, EOFError, ...); any of them
            # just means the file is unusable.
            return store
        if (
            isinstance(payload, dict)
            and payload.get("format") == _FORMAT_VERSION
            and isinstance(payload.get("entries"), dict)
        ):
            entries = payload["entries"]
            # honour the bound on load, keeping the most recent tail
            keep = list(entries) if max_entries is None else list(entries)[-max_entries:]
            for full in keep:
                store._entries[full] = entries[full]
        else:
            log.warning(
                "discarding result file %s: format %r does not match %r",
                path,
                payload.get("format") if isinstance(payload, dict) else None,
                _FORMAT_VERSION,
            )
            get_registry().inc(names.TILECACHE_VERSION_MISMATCH)
        return store


def _write(path: str, entries: dict) -> None:
    """Atomically pickle ``entries`` to ``path`` under the format sentinel.

    Parent directories are created as needed, and the write goes through
    a temp file renamed in the target directory: a run killed mid-save
    leaves the previous file intact instead of a truncated one that
    would poison the next run.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".resultstore-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            payload = {"format": _FORMAT_VERSION, "entries": entries}
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class TileCache:
    """The engines' handle on one namespace of a :class:`ResultStore`.

    ``TileCache()`` owns a private unbounded store.  :meth:`get` is the
    counted cache lookup: this handle's ``hits``/``misses`` and the
    ``tilecache.*`` counters count this run's traffic, while the store
    counts its lifetime traffic.  ``key in cache`` and ``cache[key]``
    read without counting, which is how the executor replays a
    checkpoint.  Length, membership and iteration cover this namespace
    only.
    """

    def __init__(self, store: ResultStore | None = None, namespace: str = "") -> None:
        self.store = store if store is not None else ResultStore(max_entries=None)
        self.namespace = namespace
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def __contains__(self, key: Any) -> bool:
        return (self.namespace, key) in self.store

    def __getitem__(self, key: Any) -> Any:
        return self.store[self.namespace, key]

    def __iter__(self) -> Iterator[Any]:
        return (key for namespace, key in self.store if namespace == self.namespace)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def get(self, key: Any) -> Any:
        """Look up ``key``, counting the hit or miss; None on miss."""
        value = self.store.get(self.namespace, key)
        if value is None:
            self.misses += 1
            get_registry().inc(names.TILECACHE_MISSES)
        else:
            self.hits += 1
            get_registry().inc(names.TILECACHE_HITS)
        return value

    def put(self, key: Any, value: Any) -> None:
        self.store.put(self.namespace, key, value)

    def flush(self) -> None:
        """Rewrite the store's tied file if anything changed."""
        self.store.flush()

    def clear(self) -> None:
        """Drop this namespace's entries and delete the store's file."""
        self.store.clear(self.namespace)

    def save(self, path: str | os.PathLike) -> None:
        """Persist the store's entries (not counters) to ``path``."""
        self.store.save(path)

    @classmethod
    def load(cls, path: str | os.PathLike) -> "TileCache":
        """A handle on the unbounded store saved at ``path``; a missing,
        unreadable or other-format file yields an empty one."""
        return cls(ResultStore.load(path, max_entries=None))


def open_checkpoint(path: str | os.PathLike, signature: str, *, resume: bool = True) -> TileCache:
    """A run's checkpoint: an unbounded store tied to ``path``, viewed
    under the run ``signature`` (a digest of everything that determines
    the run's tile results).

    With ``resume`` the file's entries are loaded.  Only entries stored
    under the same signature are visible, so a checkpoint written for
    other settings or other geometry resumes nothing: the run starts
    fresh instead of splicing in stale results.
    """
    if resume:
        store = ResultStore.load(path, max_entries=None)
    else:
        store = ResultStore(max_entries=None, path=path)
    return store.view(signature)
