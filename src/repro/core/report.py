"""The common report surface every ``*Report`` class shares.

Every engine in the package returns a report object (``DrcReport``,
``FullChipScanReport``, ``OrcReport``, ...).  Historically each invented
its own field names and serialization; :class:`BaseReport` is the
compatibility contract they all implement now:

* ``ok`` — True when the run is clean: no findings and no quarantined
  tiles.  The one health check (it replaced the ad-hoc ``is_clean`` /
  ``passed`` spellings).
* ``findings`` / ``findings_count`` — the engine's findings (violations,
  hotspots, opens/shorts, ...) as a sequence and a count.
* ``to_dict()`` / ``to_json()`` — deterministic JSON-able serialization
  of every dataclass field, for dashboards and programmatic consumers.
* ``summary()`` — the one-paragraph human rendering.

Field-naming conventions for tiled engines: ``tiles``, ``tiles_computed``,
``tiles_cached``, ``tiles_resumed``, ``quarantined``, ``compute_s``,
``elapsed_s``.

This module is dependency-free on purpose: any subpackage may import it
without risking an import cycle.
"""

from __future__ import annotations

import dataclasses
import json
from enum import Enum
from typing import Any, Sequence


def jsonable(value: Any) -> Any:
    """Reduce ``value`` to JSON-serializable primitives, recursively.

    Dataclasses become dicts (reports via their own :meth:`to_dict`),
    enums become their values, and anything else unrepresentable falls
    back to ``repr`` — lossy but deterministic.
    """
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, Enum):
        return jsonable(value.value)
    if isinstance(value, BaseReport):
        return value.to_dict()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(jsonable(v) for v in value)
    to_dict = getattr(value, "to_dict", None)
    if callable(to_dict):
        return to_dict()
    return repr(value)


class BaseReport:
    """Mixin giving every engine report one consistent API.

    Subclasses are dataclasses; they override :attr:`findings` (or
    :attr:`findings_count` directly when the findings are counted, not
    collected) and keep their domain-specific ``summary()``.
    """

    @property
    def findings(self) -> Sequence[Any]:
        """The run's findings; empty for measurement-only reports."""
        return ()

    @property
    def findings_count(self) -> int:
        """Number of findings reported by the run."""
        return len(self.findings)

    @property
    def ok(self) -> bool:
        """True when the run is clean: no findings, nothing quarantined."""
        return self.findings_count == 0 and not getattr(self, "quarantined", ())

    def to_dict(self) -> dict[str, Any]:
        """Every dataclass field plus ``ok``/``findings_count``, JSON-able."""
        out: dict[str, Any] = {
            "report": type(self).__name__,
            "ok": self.ok,
            "findings_count": self.findings_count,
        }
        if dataclasses.is_dataclass(self):
            for f in dataclasses.fields(self):
                out[f.name] = jsonable(getattr(self, f.name))
        return out

    def to_json(self, indent: int | None = None) -> str:
        """Deterministic (sorted-keys) JSON rendering of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def summary(self) -> str:
        status = "clean" if self.ok else f"{self.findings_count} findings"
        return f"{type(self).__name__}: {status}"
