"""Shared-memory transport for worker payload geometry — unused.

The engines no longer call this module.  Their pools fork on Linux, so
workers inherit the payload from the parent's memory and never read an
arena (a wrapped :func:`_attach` logged no call over pooled scans and
DRC), while each process's first ``SharedMemory(create=True)`` started
a resource-tracker interpreter beside the workers.  The module stays
importable until the benchmark's ``parallel.share`` trace target,
which resolves :meth:`ShmArena.pack`, is dropped (ROADMAP item 1); the
module and its transport tests go after that.

What it does: the parent packs every layer's rects into **one**
:mod:`multiprocessing.shared_memory` block as int32 quads
``(x0, y0, x1, y1)``, and what crosses the process boundary is only a
:class:`ShmRects` handle — ``(block name, offset, count)`` — so the
pickled payload stays constant-size however large the chip grows.

Workers reattach lazily: the first geometry query in a worker process
maps the block, materializes the rects (plain Python ints, so all
downstream integer geometry is unchanged), and rebuilds whatever
spatial index the engine layers on top.  Rect order is preserved
exactly, which is what keeps results and cache keys bit-identical to
the pickled path.

Lifecycle: whoever packs an arena owns it and unlinks it with
:meth:`ShmArena.close`; the tile executor no longer knows the
:class:`SharedPayload` wrapper.  When shared memory is unavailable
(restricted sandboxes, hosts without ``/dev/shm``, ``REPRO_NO_SHM=1``)
or a coordinate exceeds int32, :meth:`ShmArena.pack` degrades to
``None`` with a logged warning and the ``pool.shm_fallback`` gauge.
"""

from __future__ import annotations

import logging
import os
from array import array
from typing import Any, Sequence

from repro.geometry import Rect
from repro.obs import get_registry, names

log = logging.getLogger("repro.parallel")

try:  # restricted hosts may lack _multiprocessing/posixshmem entirely
    from multiprocessing import shared_memory as _shared_memory
except Exception:  # repro-lint: disable=RL004
    _shared_memory = None  # type: ignore[assignment]

# Environment kill-switch for hosts where shared memory exists but is
# unreliable (container /dev/shm quotas, spawn-restricted runners).
ENV_DISABLE = "REPRO_NO_SHM"

# Wire format: four little 'i' (int32) values per rect.  array('i') is
# 4 bytes on every supported platform, but probe instead of assuming.
_QUAD = 4
_INT32 = array("i").itemsize == 4

# Per-process cache of attached segments, keyed by block name.  Workers
# keep their attachment for the life of the process (they die with the
# pool); the parent never attaches — its handles keep direct rect
# references.
_ATTACHED: dict[str, Any] = {}


def available() -> bool:
    """True when shared-memory transport can be used on this host."""
    return (
        _shared_memory is not None
        and _INT32
        and not os.environ.get(ENV_DISABLE)
    )


def _attach(name: str) -> Any:
    """Attach (once per process) to the named block.

    The parent owns the segment's lifetime and unlinks it at run end,
    so the attachment must not re-register the name with the resource
    tracker — that would double-unlink and warn at shutdown.  Python
    3.13 has ``track=False``; older versions unregister by hand.
    """
    segment = _ATTACHED.get(name)
    if segment is None:
        assert _shared_memory is not None
        try:
            segment = _shared_memory.SharedMemory(name=name, track=False)
        except TypeError:  # Python < 3.13
            segment = _shared_memory.SharedMemory(name=name)
            try:
                from multiprocessing import resource_tracker

                resource_tracker.unregister(segment._name, "shared_memory")
            except Exception:  # repro-lint: disable=RL004
                pass  # tracking is cosmetic; never fail an attach over it
        _ATTACHED[name] = segment
    return segment


class ShmRects:
    """Picklable handle to one rect list inside a shared block.

    In the packing process it keeps a direct reference to the original
    list, so parent-side reads never round-trip through the mapping.
    Unpickled in a worker it carries only ``(name, offset, count)``
    — ``offset`` counts int32 slots, not bytes — and materializes the
    rects on first use, once per process.
    """

    __slots__ = ("name", "offset", "count", "_rects")

    def __init__(
        self,
        name: str,
        offset: int,
        count: int,
        rects: "list[Rect] | None" = None,
    ) -> None:
        self.name = name
        self.offset = offset
        self.count = count
        self._rects = rects

    def __getstate__(self) -> tuple[str, int, int]:
        return (self.name, self.offset, self.count)

    def __setstate__(self, state: tuple[str, int, int]) -> None:
        self.name, self.offset, self.count = state
        self._rects = None

    def rects(self) -> list[Rect]:
        """The rect list, attaching and materializing if needed."""
        if self._rects is None:
            segment = _attach(self.name)
            # the mapped size may be page-rounded past the packed data;
            # cast the whole buffer and slice by int32 slots.  tolist()
            # yields plain Python ints, so geometry arithmetic (area,
            # digests, reprs) is identical to the pickled path.
            view = memoryview(segment.buf).cast("i")
            lo = self.offset
            quads = view[lo : lo + self.count * _QUAD].tolist()
            self._rects = [
                Rect(quads[j], quads[j + 1], quads[j + 2], quads[j + 3])
                for j in range(0, len(quads), _QUAD)
            ]
            view.release()
        return self._rects


class ShmArena:
    """Parent-side owner of one run's shared rect block."""

    def __init__(self, segment: Any, handles: list[ShmRects]) -> None:
        self.segment = segment
        self.handles = handles
        self._closed = False

    @classmethod
    def pack(cls, rect_lists: Sequence[Sequence[Rect]]) -> "ShmArena | None":
        """Pack rect lists into one shared int32 block, order-preserving.

        Returns ``None`` — after a warning and the ``pool.shm_fallback``
        gauge — when shared memory is unavailable on this host, disabled
        via ``REPRO_NO_SHM``, or a coordinate does not fit int32; the
        caller then ships its payload pickled, as before.
        """
        if not available():
            return cls._fallback("shared_memory unavailable or disabled")
        flat = array("i")
        bounds: list[tuple[int, int]] = []
        try:
            for rects in rect_lists:
                start = len(flat)
                for r in rects:
                    flat.append(r.x0)
                    flat.append(r.y0)
                    flat.append(r.x1)
                    flat.append(r.y1)
                bounds.append((start, (len(flat) - start) // _QUAD))
        except OverflowError:
            return cls._fallback("coordinates exceed int32")
        data = flat.tobytes()
        segment = None
        try:
            assert _shared_memory is not None
            segment = _shared_memory.SharedMemory(
                create=True, size=max(len(data), 1)
            )
            segment.buf[: len(data)] = data
        # any failure here (ENOSPC on /dev/shm, sandbox EPERM, missing
        # posixshmem) means "no shared memory on this host": fall back
        except Exception as exc:  # repro-lint: disable=RL004
            if segment is not None:
                # the segment was created but the copy failed: without
                # this, the kernel object lingers in /dev/shm forever
                try:
                    segment.close()
                    segment.unlink()
                except OSError:
                    pass
            return cls._fallback(f"{type(exc).__name__}: {exc}")
        handles = [
            ShmRects(segment.name, offset, count, rects=list(rects))
            for (offset, count), rects in zip(bounds, rect_lists)
        ]
        return cls(segment, handles)

    @staticmethod
    def _fallback(reason: str) -> None:
        log.warning(
            "shared-memory payload unavailable (%s); shipping pickled payload",
            reason,
        )
        get_registry().gauge(names.POOL_SHM_FALLBACK, 1)
        return None

    @property
    def nbytes(self) -> int:
        """Mapped size of the block (page-rounded by the OS)."""
        return int(self.segment.size)

    def close(self) -> None:
        """Release and unlink the block (idempotent).

        Called by the executor when the run finishes; worker
        attachments die with the worker processes, and on POSIX the
        backing pages outlive the unlink until the last map closes.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self.segment.close()
            self.segment.unlink()
        except Exception:  # repro-lint: disable=RL004
            pass  # best-effort: a vanished segment is already gone


def _unwrap(inner: Any) -> Any:
    """Pickle target for :class:`SharedPayload` (workers get the inner
    payload directly; the wrapper never crosses the process boundary)."""
    return inner


class SharedPayload:
    """Wrapper marking an shm-backed payload and the arena behind it.

    Pickles as the inner payload alone, so a process that unpickles it
    receives the payload object whose :class:`ShmRects` handles reattach
    lazily.  The arena stays the caller's to close.
    """

    __slots__ = ("inner", "arena")

    def __init__(self, inner: Any, arena: ShmArena) -> None:
        self.inner = inner
        self.arena = arena

    def __reduce__(self) -> tuple[Any, tuple[Any]]:
        return (_unwrap, (self.inner,))
