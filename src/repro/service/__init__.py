"""DFM verification as a service: resident layouts, shared results.

The one-shot CLI re-pays layout parse and cache warm-up on every
invocation.  This package keeps them resident in a long-lived daemon:
layouts stay loaded (:mod:`~repro.service.session`; a store-backed
session also skips the flatten), and per-tile results accumulate in a
content-addressed :class:`~repro.parallel.cache.ResultStore` shared
across runs and clients — so the steady-state cost of "verify the cell
I just edited" is the dirty tiles, not the chip.  A pooled job forks
its workers as the CLI does: an edit changes the payload a warm pool
would hold, so one could not be reused.

Entry points:

* ``repro serve`` / ``repro submit`` — the CLI daemon and client;
* :class:`VerificationService` + :class:`ServiceClient` — the same
  engine in-process, no socket (see :func:`repro.api.make_service`);
* :class:`SocketClient` — programmatic access to a running daemon.
"""

from repro.parallel.cache import ResultStore
from repro.service import errors
from repro.service.client import (
    DEFAULT_STATE_FILE,
    DaemonUnreachableError,
    ServiceClient,
    SocketClient,
)
from repro.service.core import VerificationService
from repro.service.daemon import ServiceDaemon
from repro.service.jobs import (
    BadRequestError,
    Job,
    JobState,
    Priority,
    QueueFullError,
    ServiceClosedError,
    ServiceError,
    UnknownJobError,
)
from repro.service.queue import PriorityJobQueue
from repro.service.session import LayoutSession, SessionKey, SessionManager

__all__ = [
    "BadRequestError",
    "DEFAULT_STATE_FILE",
    "DaemonUnreachableError",
    "Job",
    "JobState",
    "LayoutSession",
    "Priority",
    "PriorityJobQueue",
    "QueueFullError",
    "ResultStore",
    "ServiceClient",
    "ServiceClosedError",
    "ServiceDaemon",
    "ServiceError",
    "errors",
    "SessionKey",
    "SessionManager",
    "SocketClient",
    "UnknownJobError",
    "VerificationService",
]
