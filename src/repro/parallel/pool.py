"""Worker-pool tile executor.

A thin deterministic fan-out layer over :mod:`multiprocessing`: the
shared read-only payload (litho model, flattened layer regions, rule
deck) reaches each worker exactly once through the pool initializer,
work items travel in contiguous chunks, and results come back flattened
in submission order — so a parallel run produces byte-identical output
to a serial one.  On Linux the pool is pinned to ``fork`` (Python 3.14
makes ``forkserver`` the default), so workers inherit the payload from
the parent's memory; elsewhere it is pickled once per worker.

Workers are *processes*, not threads: the geometry kernel is pure
Python, so threads would serialize on the GIL.  ``jobs <= 1`` (the
default everywhere) runs inline with zero pool overhead.  If the host
cannot stand a pool up at all (restricted sandboxes without semaphores,
missing fork support), *construction* degrades to the serial path with
a logged warning and a ``pool_fallback`` gauge — but an exception
raised by worker code mid-run propagates; it is never silently
re-run serially.

Two entry points:

* :meth:`TileExecutor.map` — the plain fan-out: :meth:`run` with no
  retries, so any failure propagates, a dead worker's included.
* :meth:`TileExecutor.run` — the fault-tolerant fan-out used by the
  long-running engines: per-chunk timeouts, bounded retry with
  exponential backoff, poison-tile quarantine (a chunk that exhausts
  its retries is bisected down to the failing tile, which is recorded
  as a :class:`~repro.parallel.faults.QuarantinedTile` instead of
  killing the run), periodic checkpointing into a
  :class:`~repro.parallel.cache.TileCache` tied to the checkpoint file,
  and deterministic fault injection via
  :class:`~repro.parallel.faults.FaultPlan`.

:meth:`TileExecutor.run` completes chunks by event, not by polling,
with one chunk queued ahead of each worker so that no worker waits on
the parent between chunks.  The worker that starts a chunk stamps its
pid and start time in a small shared array: a chunk's timeout clock
starts when it starts, and a chunk whose worker died (OOM kill,
SIGKILL) fails like any other attempt instead of hanging the run.

Observability: when the parent's :class:`~repro.obs.MetricsRegistry` is
enabled, workers enable their own process registry, reset it at each
chunk boundary, and ship the chunk's metric snapshot back alongside the
results.  The parent merges snapshots in submission order, so counters
(and gauge last-writes) from a ``jobs=N`` run are identical to a serial
run — only wall-clock timings differ.  The fault-tolerant path
additionally maintains ``pool.retries``, ``pool.timeouts``,
``pool.bisections``, and ``pool.quarantined`` counters in the parent.
"""

from __future__ import annotations

import itertools
import logging
import multiprocessing
import multiprocessing.context
import multiprocessing.pool
import os
import signal
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from queue import Empty, SimpleQueue
from typing import Any, Callable, Iterable, Sequence, TypeVar

from repro.obs import get_registry, names
from repro.parallel.cache import TileCache
from repro.parallel.faults import (
    AbortRun,
    FaultPlan,
    InjectedAbort,
    QuarantinedTile,
)

log = logging.getLogger("repro.parallel")

Item = TypeVar("Item")
Result = TypeVar("Result")

# Failure modes of standing up a process pool (sandboxes without
# semaphores, missing _multiprocessing, fork restrictions).  Only pool
# *construction* is guarded by these — see TileExecutor.run.
_POOL_ERRORS = (OSError, ImportError, PermissionError)

# How many completed-tile records may accumulate before the checkpoint
# is flushed to disk on the inline path (the pooled path flushes at
# every chunk boundary).
_CHECKPOINT_FLUSH_EVERY = 8

# How often, at least, the pooled fault-tolerant loop checks that each
# running chunk's worker lives, and (with a cancel event) for a cancel.
_LIVENESS_S = 0.25
_CANCEL_CHECK_S = 0.05

# Per-worker payload, fault plan and chunk stamp slots (the initializer's).
_PAYLOAD: Any = None
_FAULTS: FaultPlan | None = None
_SLOTS: Any = None


def _context() -> multiprocessing.context.BaseContext:
    """``fork`` on Linux, so workers inherit the payload; else the default."""
    if sys.platform.startswith("linux"):
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _init_worker(
    payload: Any,
    obs_enabled: bool = False,
    faults: FaultPlan | None = None,
    slots: Any = None,
) -> None:
    global _PAYLOAD, _FAULTS, _SLOTS
    # fork inherits whatever SIGTERM handler the parent installed (e.g.
    # the service daemon's graceful-shutdown trap); restore the default
    # so Pool.terminate() reliably kills workers instead of racing a
    # handler that only sets a parent-side event
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):
        pass  # non-main thread or exotic platform; terminate() may lag
    _PAYLOAD = payload
    _FAULTS = faults
    _SLOTS = slots
    _pin_worker()
    if obs_enabled:
        get_registry().enable()


def _pin_worker() -> None:
    """Bind this pool worker to one of the CPUs the process may use, a
    different one for each worker of a pool while CPUs last.

    A scheduler that does not spread freshly forked workers leaves them
    on the CPU they were forked on: on a two-vCPU virtual machine two
    workers starting their tiles together were seen sharing one CPU for
    the whole tile while the other CPU idled, halving a pooled run's
    speed at random.  Pool workers are numbered consecutively as they
    are created, so ``number mod n`` spreads them.  Without
    ``sched_setaffinity`` (not Linux) or with one usable CPU the worker
    stays unpinned.
    """
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return
    # multiprocessing numbers each child process it creates (the number
    # also ends the worker's name, e.g. ``ForkPoolWorker-3``)
    identity = multiprocessing.current_process()._identity
    if len(cpus) < 2 or not identity:
        return
    try:
        os.sched_setaffinity(0, {cpus[identity[-1] % len(cpus)]})
    except OSError:
        pass  # the CPU went away or the sandbox forbids it: stay unpinned


class WorkerFailure(Exception):
    """An item inside a chunk raised, or (from :meth:`TileExecutor.map`)
    its worker died; carries the failing tile's key."""

    def __init__(self, key: Any, message: str) -> None:
        super().__init__(key, message)
        self.key = key
        self.message = message

    def __str__(self) -> str:
        return self.message


def _guarded(fn: Callable[[Any, Any], Any], payload: Any, item: Any) -> tuple[bool, Any]:
    """``(True, fn(payload, item))``, or ``(False, exc)`` when it raises:
    :meth:`TileExecutor.map` re-raises an item's own exception."""
    try:
        return True, fn(payload, item)
    except Exception as exc:  # repro-lint: disable=RL004
        return False, exc


def _run_chunk_ft(
    fn: Callable[[Any, Any], Any],
    chunk_id: int,
    chunk_attempt: int,
    slot: int,
    entries: Sequence[tuple[Any, int, Any]],
) -> tuple[list[tuple[Any, Any]], dict | None]:
    """Fault-aware chunk body: ``entries`` is ``[(key, attempt, item)]``.

    The worker first stamps its start time, then its pid (the parent
    reads a slot with a pid as started), into the chunk's ``slot``.  An
    item failure is wrapped in :class:`WorkerFailure` (carrying the
    failing key, so the parent can bisect straight to it); an injected
    abort propagates unchanged.
    """
    if _SLOTS is not None:
        _SLOTS[2 * slot + 1] = time.monotonic()
        _SLOTS[2 * slot] = os.getpid()
    registry = get_registry()
    if registry.enabled:
        registry.reset()
    if _FAULTS is not None:
        _FAULTS.fire("chunk", chunk_id, chunk_attempt)
    out: list[tuple[Any, Any]] = []
    for key, attempt, item in entries:
        try:
            if _FAULTS is not None:
                _FAULTS.fire("tile", key, attempt)
            out.append((key, fn(_PAYLOAD, item)))
        except InjectedAbort:
            raise
        except Exception as exc:
            # `from None`: the cause must not travel back through the
            # pool's pickler (arbitrary worker exceptions may not pickle)
            raise WorkerFailure(key, f"{type(exc).__name__}: {exc}") from None
    snapshot = registry.snapshot() if registry.enabled else None
    return out, snapshot


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a jobs request: ``None``/``0`` means all available CPUs."""
    if jobs is None or jobs <= 0:
        try:
            return max(len(os.sched_getaffinity(0)), 1)
        except AttributeError:  # pragma: no cover - non-Linux
            return os.cpu_count() or 1
    return jobs


@dataclass
class ExecutionOutcome:
    """What :meth:`TileExecutor.run` produced.

    ``results`` aligns index-for-index with the submitted items; a
    quarantined item's slot holds ``None``.  ``resumed_keys`` are the
    keys replayed from the checkpoint rather than computed.
    """

    results: list[Any]
    quarantined: list[QuarantinedTile] = field(default_factory=list)
    resumed_keys: frozenset = frozenset()
    retries: int = 0
    timeouts: int = 0
    bisections: int = 0

    @property
    def computed(self) -> int:
        """Items actually executed this run (not resumed, not quarantined)."""
        return len(self.results) - len(self.resumed_keys) - len(self.quarantined)


@dataclass
class _Chunk:
    """Parent-side unit of pooled work: ``items`` is ``[(key, item)]``."""

    id: int
    items: list[tuple[Any, Any]]
    attempt: int = 0
    not_before: float = 0.0
    # submission-order rank of the chunk's first item, for deterministic
    # metric-snapshot merging however retries/bisections reorder completion
    rank: int = 0


@dataclass
class _Workers:
    """A worker pool and its stamp array: two doubles per in-flight
    chunk, ``(pid, start)``, 0 until a worker starts the chunk."""

    pool: multiprocessing.pool.Pool
    slots: Any

    def stamp(self, slot: int) -> tuple[int, float] | None:
        """``(pid, start)`` of the chunk in ``slot``; None until started."""
        pid = int(self.slots[2 * slot])
        start = float(self.slots[2 * slot + 1])
        return (pid, start) if pid and start else None

    def stop(self) -> None:
        """Kill the workers (mid-chunk ones included) and reap them."""
        self.pool.terminate()
        self.pool.join()


def _post(events: SimpleQueue, token: int, ok: bool, value: Any) -> None:
    """Pool callback (on the pool's result thread): one finished attempt."""
    events.put((token, ok, value))


def _gone(pid: int) -> bool:
    """True once process ``pid`` is gone; a pool reaps a dead worker as
    soon as its sentinel fires.  POSIX only: on Windows signal 0 would
    deliver CTRL_C_EVENT."""
    try:
        if os.name == "posix":
            os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except OSError:  # e.g. EPERM: it exists
        pass
    return False


class TileExecutor:
    """Deterministic chunked fan-out of ``fn(payload, item)`` calls.

    ``fn`` must be a module-level function (it is sent to workers by
    reference) and the payload must be picklable.  Results are returned
    in the order of ``items`` regardless of which worker finished first.

    Every pooled ``map``/``run`` call stands its own pool up, as wide as
    its work needs (at most ``jobs``), and tears it down before it
    returns, so an executor holds no processes between calls and needs
    no closing.

    ``cancel_event`` (a :class:`threading.Event`) cooperatively cancels
    an in-flight :meth:`run` between chunks: the run flushes its
    checkpoint and raises :class:`AbortRun`, exactly like an injected
    abort — the seam the service's per-job cancel and deadline reuse.
    """

    def __init__(self, jobs: int | None = 1, chunk_size: int | None = None) -> None:
        self.jobs = resolve_jobs(jobs)
        self.chunk_size = chunk_size
        self.cancel_event: threading.Event | None = None

    def _cancelled(self) -> bool:
        event = self.cancel_event
        return event is not None and event.is_set()

    # -- shared plumbing ------------------------------------------------
    def _resolve_chunk(self, n_items: int) -> int:
        # ~4 chunks per worker balances scheduling slack against IPC cost
        return self.chunk_size or max(1, -(-n_items // (self.jobs * 4)))

    def _make_pool(self, payload: Any, faults: FaultPlan | None, workers: int) -> _Workers:
        """Stand up a worker pool; raises ``_POOL_ERRORS`` when the host
        cannot (``multiprocessing.Pool`` spawns its workers eagerly, so
        construction failures surface here, not mid-run)."""
        registry = get_registry()
        if registry.enabled:
            # the payload's pickled size: what a non-fork start sends each
            # worker (a fork start sends none of it), so payload growth
            # shows up in the manifest whichever start method runs
            try:
                import pickle

                size = len(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
                registry.gauge(names.POOL_PAYLOAD_BYTES, float(size))
            # the gauge is advisory; an unpicklable payload fails later,
            # loudly, at submission time
            except Exception:  # repro-lint: disable=RL004
                pass
        context = _context()
        # two stamp slots per worker: a running chunk and one queued ahead
        slots = context.RawArray("d", 4 * workers)
        pool = context.Pool(
            processes=workers,
            initializer=_init_worker,
            initargs=(payload, registry.enabled, faults, slots),
        )
        return _Workers(pool, slots)

    @staticmethod
    def _fallback(exc: BaseException) -> None:
        log.warning(
            "process pool unavailable (%s: %s); falling back to serial execution",
            type(exc).__name__,
            exc,
        )
        get_registry().gauge(names.POOL_FALLBACK, 1)

    # -- plain fan-out --------------------------------------------------
    def map(
        self,
        fn: Callable[[Any, Item], Result],
        payload: Any,
        items: Iterable[Item],
    ) -> list[Result]:
        """Fan ``fn(payload, item)`` out over the pool; failures propagate.

        Pooled, this is :meth:`run` without retries or a fault plan:
        the first failing item in submission order raises its own
        exception, and an item whose worker died (OOM kill, SIGKILL)
        raises :class:`WorkerFailure` instead of hanging the call (a
        chunk lost with its worker is first bisected down to that
        item).  Only *standing the pool up* degrades to the serial path
        (with a warning and the ``pool_fallback`` gauge).
        """
        work = list(items)
        if self.jobs <= 1 or len(work) <= 1:
            return [fn(payload, item) for item in work]
        outcome = self.run(
            partial(_guarded, fn), payload, work, max_retries=0, fault_plan=FaultPlan()
        )
        errors = {q.index: q.error for q in outcome.quarantined}
        results: list[Result] = []
        for key, value in enumerate(outcome.results):
            if value is None:
                raise WorkerFailure(key, errors[key])
            ok, result = value
            if not ok:
                raise result
            results.append(result)
        return results

    # -- fault-tolerant fan-out -----------------------------------------
    def run(
        self,
        fn: Callable[[Any, Item], Result],
        payload: Any,
        items: Iterable[Item],
        *,
        keys: Sequence[Any] | None = None,
        timeout: float | None = None,
        max_retries: int = 2,
        backoff_s: float = 0.05,
        fault_plan: FaultPlan | None = None,
        checkpoint: TileCache | None = None,
    ) -> ExecutionOutcome:
        """Fault-tolerant fan-out: retry, quarantine, checkpoint, resume.

        ``keys`` are stable per-item identities (tile indices); they name
        items in checkpoints, quarantine records, and fault plans, and
        default to positions.  Failing chunks are retried up to
        ``max_retries`` times with exponential backoff, then bisected
        down to the failing tile, which is quarantined (its result slot
        stays ``None``) instead of killing the run.  ``timeout`` bounds
        each chunk attempt's wall time from the moment a worker starts
        it; a hung chunk's workers are killed and the chunk is retried
        like any failure (timeouts need the pool, so ``jobs=1`` with a
        timeout still runs one worker).  A chunk whose worker dies
        mid-chunk fails the same way, with or without a timeout.

        ``fault_plan`` (or ``$REPRO_FAULT_SPEC``) injects deterministic
        failures for testing.  ``checkpoint`` (a handle on a store tied
        to the checkpoint file) replays already-completed keys without
        counting them as cache traffic, and new completions are ``put``
        into it and flushed periodically; on an abort the checkpoint is
        flushed before :class:`AbortRun` is raised.
        """
        work = list(items)
        item_keys = list(keys) if keys is not None else list(range(len(work)))
        if len(item_keys) != len(work):
            raise ValueError("keys must align one-to-one with items")
        faults = fault_plan if fault_plan is not None else FaultPlan.from_env()
        registry = get_registry()

        results: dict[Any, Any] = {}
        resumed: set[Any] = set()
        if checkpoint is not None:
            for key in item_keys:
                if key in checkpoint:
                    results[key] = checkpoint[key]
                    resumed.add(key)
        pending = [(k, item) for k, item in zip(item_keys, work) if k not in resumed]

        outcome = ExecutionOutcome(results=[], resumed_keys=frozenset(resumed))
        state = _RunState(
            results=results,
            outcome=outcome,
            registry=registry,
            faults=faults,
            checkpoint=checkpoint,
            max_retries=max_retries,
            backoff_s=backoff_s,
        )
        try:
            if pending:
                use_pool = self.jobs > 1 or timeout is not None
                pooled = False
                if use_pool:
                    pooled = self._run_pooled(fn, payload, pending, timeout, state)
                if not pooled:
                    self._run_inline(fn, payload, pending, state)
        except InjectedAbort as exc:
            if checkpoint is not None:
                checkpoint.flush()
            raise AbortRun(str(exc)) from exc
        except BaseException:
            # real interrupts (Ctrl-C, SIGTERM via KeyboardInterrupt/
            # SystemExit) keep their checkpoint too
            if checkpoint is not None:
                checkpoint.flush()
            raise
        if checkpoint is not None:
            checkpoint.flush()
        outcome.results = [results.get(key) for key in item_keys]
        registry.inc(names.POOL_RETRIES, outcome.retries)
        registry.inc(names.POOL_TIMEOUTS, outcome.timeouts)
        registry.inc(names.POOL_BISECTIONS, outcome.bisections)
        registry.inc(names.POOL_QUARANTINED, len(outcome.quarantined))
        return outcome

    def _run_inline(
        self,
        fn: Callable[[Any, Any], Any],
        payload: Any,
        pending: list[tuple[Any, Any]],
        state: "_RunState",
    ) -> None:
        """Serial fault-tolerant path (no timeout support — nothing can
        interrupt an in-process hang; pass a timeout to force the pool)."""
        unflushed = 0
        for key, item in pending:
            if self._cancelled():
                raise AbortRun("run cancelled")
            failures = 0
            while True:
                attempt = state.execs.get(key, 0)
                state.execs[key] = attempt + 1
                try:
                    if state.faults is not None:
                        state.faults.fire("tile", key, attempt)
                    value = fn(payload, item)
                except InjectedAbort:
                    raise
                except Exception as exc:
                    failures += 1
                    if failures > state.max_retries:
                        state.quarantine(key, f"{type(exc).__name__}: {exc}", failures)
                        break
                    state.outcome.retries += 1
                    if state.backoff_s:
                        time.sleep(state.backoff_s * (2 ** (failures - 1)))
                    continue
                state.results[key] = value
                if state.checkpoint is not None:
                    state.checkpoint.put(key, value)
                    unflushed += 1
                    if unflushed >= _CHECKPOINT_FLUSH_EVERY:
                        state.checkpoint.flush()
                        unflushed = 0
                break

    def _run_pooled(
        self,
        fn: Callable[[Any, Any], Any],
        payload: Any,
        pending: list[tuple[Any, Any]],
        timeout: float | None,
        state: "_RunState",
    ) -> bool:
        """Pooled fault-tolerant path; False when no pool is available.

        Each submission's callbacks post ``(token, ok, value)`` to one
        queue, which the loop blocks on until the next event, the
        nearest started chunk's deadline, the nearest retry backoff, or
        the next liveness or cancel check.  Tokens are never reused, so
        the event of an attempt already failed (its pool stopped by a
        timeout, or its worker found dead) is stale and dropped.
        """
        chunk = self._resolve_chunk(len(pending))
        queue: deque[_Chunk] = deque()
        rank_of = {key: i for i, (key, _) in enumerate(pending)}
        for i in range(0, len(pending), chunk):
            items = pending[i : i + chunk]
            queue.append(_Chunk(len(queue), items, rank=rank_of[items[0][0]]))
        state.next_chunk_id = len(queue)
        state.rank_of = rank_of
        width = max(min(self.jobs, len(queue)), 1)
        try:
            workers = self._make_pool(payload, state.faults, width)
        except _POOL_ERRORS as exc:
            self._fallback(exc)
            return False

        # one chunk running and one queued ahead per worker, so a worker
        # that finishes takes its next chunk without waiting on the parent
        capacity = 2 * width
        events: SimpleQueue[tuple[int, bool, Any]] = SimpleQueue()
        tokens = itertools.count()
        # token -> (chunk, stamp slot) for chunks in flight, in submission order
        flights: dict[int, tuple[_Chunk, int]] = {}
        try:
            while queue or flights:
                if self._cancelled():
                    # the caller's except-path flushes the checkpoint
                    raise AbortRun("run cancelled")
                now = time.monotonic()
                busy = {slot for _, slot in flights.values()}
                while queue and len(flights) < capacity:
                    eligible = next((c for c in queue if c.not_before <= now), None)
                    if eligible is None:
                        break
                    queue.remove(eligible)
                    slot = next(s for s in range(capacity) if s not in busy)
                    busy.add(slot)
                    workers.slots[2 * slot] = workers.slots[2 * slot + 1] = 0.0
                    wire = []
                    for key, item in eligible.items:
                        attempt = state.execs.get(key, 0)
                        state.execs[key] = attempt + 1
                        wire.append((key, attempt, item))
                    token = next(tokens)
                    flights[token] = (eligible, slot)
                    workers.pool.apply_async(
                        _run_chunk_ft,
                        (fn, eligible.id, eligible.attempt, slot, wire),
                        callback=partial(_post, events, token, True),
                        error_callback=partial(_post, events, token, False),
                    )

                waits: list[float] = []
                if flights:
                    waits.append(_LIVENESS_S)
                if self.cancel_event is not None:
                    waits.append(_CANCEL_CHECK_S)
                if timeout is not None:
                    for slot in busy:
                        stamp = workers.stamp(slot)
                        if stamp is not None:
                            waits.append(stamp[1] + timeout - now)
                if queue and len(flights) < capacity:
                    waits.append(min(c.not_before for c in queue) - now)
                event: tuple[int, bool, Any] | None
                try:
                    event = events.get(timeout=max(min(waits), 0.0) if waits else None)
                except Empty:
                    event = None
                while event is not None:
                    token, ok, value = event
                    flight = flights.pop(token, None)
                    if flight is not None:  # else stale: already failed
                        state.settle(flight[0], ok, value, queue)
                    try:
                        event = events.get_nowait()
                    except Empty:
                        event = None

                # the stamps of the chunks still running: a dead worker
                # fails its chunk; an overdue chunk times out
                now = time.monotonic()
                hung = None
                for token, (chunk_obj, slot) in list(flights.items()):
                    stamp = workers.stamp(slot)
                    if stamp is None:
                        continue  # queued ahead, not started yet
                    pid, start = stamp
                    if _gone(pid):
                        del flights[token]
                        state.fail(chunk_obj, f"worker {pid} died mid-chunk", queue)
                    elif hung is None and timeout is not None and now - start >= timeout:
                        hung = token
                if hung is not None:
                    # hung chunk: kill every worker (the only way to stop
                    # runaway C-level or sleeping code), requeue the
                    # innocents unpenalized, charge the hung chunk
                    hung_chunk = flights.pop(hung)[0]
                    state.outcome.timeouts += 1
                    workers.stop()
                    for other, _slot in flights.values():
                        # unpenalized: roll back the execution ordinals
                        # bumped at submission, so fault plans see the
                        # per-tile attempt sequence of a serial run
                        for key, _item in other.items:
                            state.execs[key] -= 1
                        other.not_before = 0.0
                        queue.append(other)
                    flights.clear()
                    state.fail(hung_chunk, f"timeout after {timeout:g}s", queue)
                    if queue:
                        workers = self._make_pool(payload, state.faults, width)
        finally:
            workers.stop()
        for _, snapshot in sorted(state.snapshots, key=lambda pair: pair[0]):
            state.registry.merge(snapshot)
        return True


@dataclass
class _RunState:
    """Mutable bookkeeping shared by the inline and pooled runners."""

    results: dict[Any, Any]
    outcome: ExecutionOutcome
    registry: Any
    faults: FaultPlan | None
    checkpoint: TileCache | None
    max_retries: int
    backoff_s: float
    # per-key execution ordinals (drives deterministic fault injection)
    execs: dict[Any, int] = field(default_factory=dict)
    next_chunk_id: int = 0
    rank_of: dict[Any, int] = field(default_factory=dict)
    # (rank, metric snapshot) of every pooled chunk that completed
    snapshots: list[tuple[int, dict]] = field(default_factory=list)

    def settle(self, chunk: _Chunk, ok: bool, value: Any, queue: deque) -> None:
        """Apply one finished pooled chunk attempt: its results, or its
        failure (an injected abort propagates)."""
        if ok:
            part, snapshot = value
            for key, result in part:
                self.results[key] = result
                if self.checkpoint is not None:
                    self.checkpoint.put(key, result)
            if self.checkpoint is not None:
                self.checkpoint.flush()
            if snapshot is not None:
                self.snapshots.append((chunk.rank, snapshot))
        elif isinstance(value, InjectedAbort):
            raise value
        elif isinstance(value, WorkerFailure):
            self.fail(chunk, str(value), queue, failing_key=value.key)
        else:
            self.fail(chunk, f"{type(value).__name__}: {value}", queue)

    def quarantine(self, key: Any, error: str, attempts: int) -> None:
        self.outcome.quarantined.append(QuarantinedTile(key, error, attempts))
        log.warning("quarantined tile %s after %d attempts: %s", key, attempts, error)

    def _new_chunk(self, items: list[tuple[Any, Any]]) -> _Chunk:
        chunk = _Chunk(self.next_chunk_id, items, rank=self.rank_of[items[0][0]])
        self.next_chunk_id += 1
        return chunk

    def fail(
        self,
        chunk: _Chunk,
        error: str,
        queue: deque,
        failing_key: Any = None,
    ) -> None:
        """Retry, bisect, or quarantine a failed chunk attempt."""
        chunk.attempt += 1
        if chunk.attempt <= self.max_retries:
            self.outcome.retries += 1
            if self.backoff_s:
                chunk.not_before = time.monotonic() + self.backoff_s * (
                    2 ** (chunk.attempt - 1)
                )
            queue.append(chunk)
            return
        if len(chunk.items) == 1:
            self.quarantine(chunk.items[0][0], error, chunk.attempt)
            return
        # retries exhausted on a multi-tile chunk: isolate the poison.
        # A known failing key splits off directly; a hang (no key)
        # bisects — each half gets a fresh retry budget.
        self.outcome.bisections += 1
        if failing_key is not None and any(k == failing_key for k, _ in chunk.items):
            halves = (
                [(k, it) for k, it in chunk.items if k == failing_key],
                [(k, it) for k, it in chunk.items if k != failing_key],
            )
        else:
            mid = len(chunk.items) // 2
            halves = (chunk.items[:mid], chunk.items[mid:])
        for half in halves:
            if half:
                queue.append(self._new_chunk(half))
