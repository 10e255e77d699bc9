"""The socket front end: a threaded TCP server around the service.

One daemon process holds the resident sessions and the shared result
store; any number of short-lived clients connect,
speak one :mod:`repro.service.protocol` request, and disconnect.  The
listener binds localhost only — the service trusts its callers (it
opens the files they name), so it must never be reachable off-host.

Discovery is file-based: the daemon atomically writes a JSON *state
file* (``{"host", "port", "pid", "schema"}``) once the socket is bound
— ``--port 0`` picks a free port, so the state file is how clients
learn the real one — and removes it on clean shutdown.  Clients
(:class:`repro.service.client.SocketClient`) read it instead of taking
host/port flags.

Shutdown is graceful from three directions — the ``shutdown`` wire op,
SIGTERM, SIGINT — and always the same sequence: stop accepting, cancel
queued jobs, let the in-flight job finish (its worker pool stops with
it), release the sessions, remove the state file.
"""

from __future__ import annotations

import json
import logging
import os
import signal
import socketserver
import tempfile
import threading
from typing import Any

from repro import __version__
from repro.obs import get_registry, names
from repro.service import protocol
from repro.service.core import VerificationService
from repro.service.jobs import (
    BadRequestError,
    Job,
    Priority,
    ServiceError,
    UnknownJobError,
)

log = logging.getLogger("repro.service")


def write_state_file(path: str, state: dict[str, Any]) -> None:
    """Atomically publish daemon coordinates (temp file + rename)."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".repro-serve-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(state, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class _Handler(socketserver.StreamRequestHandler):
    """One connection: any number of request/response exchanges in
    sequence, until the client hangs up (one-shot clients hang up after
    the first).  Streaming ops write several response lines, flushed
    incrementally, before the next request is read."""

    server: "ServiceDaemon"

    def handle(self) -> None:
        while True:
            try:
                line = self.rfile.readline(protocol.MAX_LINE_BYTES + 1)
            except OSError:
                return
            if not line:
                return  # client hung up: connection done
            get_registry().inc(names.SERVICE_REQUESTS)
            try:
                request = protocol.decode(line)
                if request.get("op") in protocol.STREAM_OPS:
                    if not self._stream(request):
                        return
                    continue
                response = self.server.dispatch(request)
            except ServiceError as exc:
                response = protocol.error_response(exc)
            # a handler crash must not take the daemon down; the failure
            # is routed back to the one client that caused it
            except Exception as exc:  # repro-lint: disable=RL004
                log.exception("request handler failed")
                response = protocol.error_response(
                    ServiceError(f"internal error: {type(exc).__name__}: {exc}")
                )
            if not self._write(response):
                return

    def _write(self, response: dict[str, Any]) -> bool:
        """One response line, flushed; False when the client hung up."""
        try:
            self.wfile.write(protocol.encode(response))
            self.wfile.flush()
            return True
        except OSError:
            return False

    def _stream(self, request: dict[str, Any]) -> bool:
        """Run a streaming op, writing each response line as it is
        produced; False when the client hung up mid-stream."""
        try:
            for response in self.server.dispatch_stream(request):
                if not self._write(response):
                    return False
            return True
        except ServiceError as exc:
            return self._write(protocol.error_response(exc))
        except Exception as exc:  # repro-lint: disable=RL004
            log.exception("stream handler failed")
            return self._write(
                protocol.error_response(
                    ServiceError(f"internal error: {type(exc).__name__}: {exc}")
                )
            )


class ServiceDaemon(socketserver.ThreadingTCPServer):
    """Localhost JSON-over-TCP server owning a
    :class:`VerificationService`."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        service: VerificationService,
        host: str = "127.0.0.1",
        port: int = 0,
        state_file: str | None = None,
    ) -> None:
        super().__init__((host, port), _Handler)
        self.service = service
        self.state_file = state_file
        self._stop = threading.Event()
        if state_file:
            write_state_file(
                state_file,
                {
                    "schema": protocol.SCHEMA,
                    "host": self.server_address[0],
                    "port": self.server_address[1],
                    "pid": os.getpid(),
                    "version": __version__,
                },
            )

    @property
    def address(self) -> tuple[str, int]:
        return (self.server_address[0], self.server_address[1])

    # -- request dispatch (runs on handler threads) ---------------------
    def dispatch(self, request: dict[str, Any]) -> dict[str, Any]:
        op = request.get("op")
        if op == "ping":
            return protocol.ok_response(
                pong=True, version=__version__, pid=os.getpid()
            )
        if op == "submit":
            return self._op_submit(request)
        if op == "status":
            return protocol.ok_response(
                job=self.service.status(self._job_id(request))
            )
        if op == "cancel":
            return protocol.ok_response(
                job=self.service.cancel(self._job_id(request))
            )
        if op == "metrics":
            return protocol.ok_response(metrics=self.service.metrics())
        if op == "shutdown":
            self._stop.set()
            return protocol.ok_response(stopping=True)
        raise BadRequestError(
            f"unknown op {op!r} (expected one of {', '.join(protocol.OPS)})"
        )

    def dispatch_stream(self, request: dict[str, Any]):
        """Dispatch a streaming op: yields response lines — an ack, then
        one incremental result per job, then an ``end`` event."""
        op = request.get("op")
        if op == "batch-submit":
            yield from self._op_batch_submit(request)
        elif op == "stream-results":
            yield from self._op_stream_results(request)
        else:  # unreachable: the handler routes only STREAM_OPS here
            raise BadRequestError(f"op {op!r} does not stream")

    @staticmethod
    def _job_id(request: dict[str, Any]) -> int:
        job_id = request.get("id")
        if not isinstance(job_id, int):
            raise BadRequestError("missing or non-integer job 'id'")
        return job_id

    def _op_submit(self, request: dict[str, Any]) -> dict[str, Any]:
        kind = request.get("kind")
        if not isinstance(kind, str):
            raise BadRequestError("missing job 'kind'")
        params = request.get("params") or {}
        if not isinstance(params, dict):
            raise BadRequestError("'params' must be a JSON object")
        timeout_s = request.get("timeout_s")
        if timeout_s is not None and not isinstance(timeout_s, (int, float)):
            raise BadRequestError("'timeout_s' must be a number")
        job = self.service.submit(
            kind,
            params,
            client=str(request.get("client", "anonymous")),
            priority=Priority.from_name(request.get("priority", "interactive")),
            timeout_s=timeout_s,
        )
        if request.get("wait", True):
            self.service.wait(job)
        return protocol.ok_response(job=job.snapshot())

    def _op_batch_submit(self, request: dict[str, Any]):
        """``batch-submit``: queue every item, ack with per-item accept/
        reject (partial failure — one bad item never aborts the batch),
        then stream each accepted job's snapshot as it finishes."""
        items = request.get("items")
        if not isinstance(items, list) or not items:
            raise BadRequestError("'items' must be a non-empty array")
        timeout_s = request.get("timeout_s")
        if timeout_s is not None and not isinstance(timeout_s, (int, float)):
            raise BadRequestError("'timeout_s' must be a number")
        entries = self.service.submit_batch(
            items,
            client=str(request.get("client", "anonymous")),
            priority=Priority.from_name(request.get("priority", "background")),
            timeout_s=timeout_s,
        )
        accepted = [
            {"index": i, "id": e.id}
            for i, e in enumerate(entries)
            if isinstance(e, Job)
        ]
        errors = [
            {"index": i, "error": e.to_dict()}
            for i, e in enumerate(entries)
            if isinstance(e, ServiceError)
        ]
        yield protocol.ok_response(
            batch={"count": len(entries), "accepted": accepted, "errors": errors}
        )
        if not request.get("stream", True):
            return
        for index, entry in enumerate(entries):
            if not isinstance(entry, Job):
                continue
            self.service.wait(entry)
            yield protocol.ok_response(
                event="result", index=index, job=entry.snapshot()
            )
        yield protocol.ok_response(event="end", count=len(accepted))

    def _op_stream_results(self, request: dict[str, Any]):
        """``stream-results``: snapshots for previously submitted job
        ids (e.g. submits with ``wait: false``), one line per id as each
        finishes; an unknown id is a typed per-item error event."""
        ids = request.get("ids")
        if (
            not isinstance(ids, list)
            or not ids
            or not all(isinstance(i, int) for i in ids)
        ):
            raise BadRequestError("'ids' must be a non-empty array of job ids")
        for index, job_id in enumerate(ids):
            try:
                job = self.service.job(job_id)
            except UnknownJobError as exc:
                yield protocol.ok_response(
                    event="error", index=index, id=job_id, error_detail=exc.to_dict()
                )
                continue
            self.service.wait(job)
            yield protocol.ok_response(event="result", index=index, job=job.snapshot())
        yield protocol.ok_response(event="end", count=len(ids))

    # -- lifecycle (runs on the serving thread) -------------------------
    def serve_until_shutdown(self) -> None:
        """Serve until the ``shutdown`` op, SIGTERM, or SIGINT.

        Blocks the calling thread; the socket loop runs on a helper so a
        handler's ``shutdown`` never deadlocks against it.
        """
        self._install_signal_handlers()
        server_thread = threading.Thread(
            target=self.serve_forever, name="repro-service-accept", daemon=True
        )
        server_thread.start()
        try:
            self._stop.wait()
        except KeyboardInterrupt:
            pass
        finally:
            self.shutdown()
            server_thread.join(timeout=10.0)
            self.close()

    def _install_signal_handlers(self) -> None:
        def _terminate(signum: int, frame: Any) -> None:
            self._stop.set()

        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                signal.signal(sig, _terminate)
            except ValueError:
                # not the main thread (embedded/test use); rely on the
                # shutdown op instead
                return

    def close(self) -> None:
        """Release the socket, the service, and the state file."""
        self._stop.set()
        self.server_close()
        self.service.close()
        if self.state_file:
            try:
                os.unlink(self.state_file)
            except OSError:
                pass
