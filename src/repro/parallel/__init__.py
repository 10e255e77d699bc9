"""Parallel, incremental, and fault-tolerant verification.

The shared machinery behind the full-chip litho scan
(:func:`repro.litho.scan_full_chip`) and tiled DRC
(:func:`repro.drc.run_drc`), exposed on the command line as
``--jobs`` / ``--incremental`` / ``--timeout`` / ``--resume``:

* :func:`tile_grid` / :class:`Tile` — cut an extent into core tiles
  with halo windows.  Seam ownership is half-open on interior high
  edges and closed on the extent's high edges, so every point
  (including the extreme corner) has exactly one owning tile and tiled
  results are independent of the tiling.
* :class:`TileExecutor` — deterministic chunked fan-out of tile work
  over a ``multiprocessing`` pool, whose workers fork on Linux and
  inherit the payload from the parent's memory.  Results are
  reassembled in tile order, so a ``jobs=N`` run is byte-identical to
  ``jobs=1``.  :meth:`TileExecutor.run` adds the fault-tolerant
  contract: chunks completed by event with one queued ahead per worker,
  per-chunk timeouts counted from the chunk's start, bounded retry
  with exponential backoff, a failed attempt for a chunk whose worker
  died, poison-tile quarantine (:class:`QuarantinedTile`), and
  checkpoint/resume.
* :class:`ResultStore` / :class:`TileCache` — the one result store and
  the engines' handle on one of its namespaces.  Each tile's entry is
  keyed by a content hash (:meth:`repro.geometry.Region.digest`) of
  the geometry clipped to the tile's *halo window* — the full region
  that can influence the tile's result (optical influence radius for
  litho, rule reach for DRC) — plus the engine parameters.  An edit
  therefore invalidates exactly the tiles whose halo window it
  touches: a re-scan after a local edit re-verifies only dirty tiles,
  and an unedited re-scan re-verifies nothing (100% hit rate).  Hashes
  are taken over canonical-form geometry, so rebuilding the same point
  set differently still hits.  The same store, tied to a checkpoint
  file and viewed under the run signature, persists completed tiles
  so an interrupted run resumes instead of starting over; the
  verification daemon shares one LRU-bounded store across clients.
* :class:`FaultPlan` — deterministic fault injection (``fail`` /
  ``hang`` / ``abort`` at exact tiles), driven programmatically or via
  ``$REPRO_FAULT_SPEC``, so the retry/timeout/quarantine matrix is
  testable in CI.
* :class:`ShmArena` / :class:`ShmRects` / :class:`SharedPayload` —
  a shared-memory rect transport that the engines no longer use: fork
  workers inherit the payload, so nothing reads an arena.  The names
  stay importable until the benchmark's ``parallel.share`` trace
  target leaves them (ROADMAP item 1); the module goes after that.
"""

from repro.parallel.cache import ResultStore, TileCache, digest_parts
from repro.parallel.faults import (
    AbortRun,
    FaultPlan,
    FaultRule,
    InjectedAbort,
    InjectedFault,
    QuarantinedTile,
)
from repro.parallel.pool import (
    ExecutionOutcome,
    TileExecutor,
    WorkerFailure,
    resolve_jobs,
)
from repro.parallel.shm import SharedPayload, ShmArena, ShmRects
from repro.parallel.tiles import Tile, tile_grid

__all__ = [
    "Tile",
    "tile_grid",
    "TileExecutor",
    "ExecutionOutcome",
    "WorkerFailure",
    "resolve_jobs",
    "ResultStore",
    "TileCache",
    "digest_parts",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "InjectedAbort",
    "AbortRun",
    "QuarantinedTile",
    "SharedPayload",
    "ShmArena",
    "ShmRects",
]
