"""Wire protocol of the multi-tenant job service.

``repro serve`` speaks newline-delimited JSON: every request and every
response is one JSON object on one line.  This module owns the typed
Python shapes on both sides of that boundary:

* :class:`JobState` — the job lifecycle state machine
  (``queued -> admitted -> running -> done | failed | cancelled``),
* request/response dataclasses with ``to_wire()`` / ``from_wire()``
  converters — the in-process API returns the *same* typed objects the
  socket protocol serializes, so tests and clients share one vocabulary,
* :class:`RetryLater` — the **typed backpressure response**.  Admission
  control never signals an over-quota or over-capacity submission with an
  exception; it returns (or serializes) a ``RetryLater`` carrying a machine
  readable ``reason`` and a suggested ``retry_after_s``.

Requests are plain dictionaries with an ``op`` field (``submit``, ``wait``,
``status``, ``metrics``, ``cancel``, ``drain``, ``trace``); responses carry
``ok`` and ``type`` so clients can dispatch without guessing.
"""

from __future__ import annotations

import enum
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional

__all__ = [
    "JobState",
    "TERMINAL_STATES",
    "Submitted",
    "RetryLater",
    "JobReport",
    "ServeError",
    "encode_line",
    "decode_line",
    "response_from_wire",
]


class JobState(str, enum.Enum):
    """Lifecycle states of one submitted job.

    ``REJECTED`` is an accounting state only — a rejected submission never
    enters the queue; it exists so per-tenant accounting sums to the number
    of submissions.
    """

    QUEUED = "queued"        #: accepted into the tenant's admission queue
    ADMITTED = "admitted"    #: popped by the admission policy, nodes allocated
    RUNNING = "running"      #: simulation started
    DONE = "done"            #: finished with a result
    FAILED = "failed"        #: finished with an error
    CANCELLED = "cancelled"  #: cancelled while queued or running
    REJECTED = "rejected"    #: bounced with RetryLater (accounting only)


#: states a job can never leave
TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.CANCELLED})


class _Response:
    """What the four response types share: the wire form is ``ok`` and
    ``type`` (class attributes of each type) followed by the fields."""

    ok: bool
    type: str

    def to_wire(self) -> Dict[str, Any]:
        out = {"ok": self.ok, "type": self.type}
        out.update(asdict(self))
        return out


@dataclass
class Submitted(_Response):
    """A submission was accepted and queued."""

    job_id: int
    tenant: str
    state: str = JobState.QUEUED.value
    tag: Optional[str] = None

    ok = True
    type = "submitted"


@dataclass
class RetryLater(_Response):
    """Typed backpressure: the submission was *not* accepted, try again.

    Reasons (stable identifiers):

    * ``tenant-queue-full`` — the tenant's bounded admission queue is full,
    * ``tenant-quota`` — the tenant is at its in-flight quota and its queue
      would exceed the configured in-system limit,
    * ``server-busy`` — the global queue-depth limit was hit,
    * ``draining`` — the service is draining; no new admissions.
    """

    reason: str
    tenant: Optional[str] = None
    retry_after_s: float = 0.02
    tag: Optional[str] = None

    ok = False
    type = "retry_later"


@dataclass
class JobReport(_Response):
    """Status/result of one job (terminal or in flight)."""

    job_id: int
    tenant: str
    state: str
    result: Any = None
    error: Optional[str] = None
    queue_wait_s: Optional[float] = None
    run_wall_s: Optional[float] = None
    makespan_s: Optional[float] = None
    orphans_requeued: int = 0
    tag: Optional[str] = None
    #: kind-histogram of the per-job observability stream (cheap summary;
    #: the full Chrome trace travels via the ``trace`` op)
    event_kinds: Dict[str, int] = field(default_factory=dict)

    ok = True
    type = "job"

    @property
    def terminal(self) -> bool:
        return self.state in {s.value for s in TERMINAL_STATES}


@dataclass
class ServeError(_Response):
    """A request failed for a non-backpressure reason (unknown tenant,
    unknown job id, malformed request)."""

    error: str
    message: str = ""
    tag: Optional[str] = None

    ok = False
    type = "error"


# ---------------------------------------------------------------------------
# NDJSON framing
# ---------------------------------------------------------------------------

def encode_line(msg: Any) -> str:
    """One response/request as one newline-terminated JSON line."""
    if hasattr(msg, "to_wire"):
        msg = msg.to_wire()
    return json.dumps(msg, sort_keys=True, separators=(",", ":"),
                      default=str) + "\n"


def decode_line(line: str) -> Dict[str, Any]:
    """Parse one NDJSON line into a request/response dictionary."""
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValueError("protocol messages must be JSON objects")
    return obj


_RESPONSE_TYPES = {
    "submitted": Submitted,
    "retry_later": RetryLater,
    "job": JobReport,
    "error": ServeError,
}


def response_from_wire(obj: Dict[str, Any]) -> Any:
    """Rehydrate a typed response from its wire dictionary (client side)."""
    kind = obj.get("type")
    cls = _RESPONSE_TYPES.get(kind)  # type: ignore[arg-type]
    if cls is None:
        raise ValueError(f"unknown response type {kind!r}")
    fields = {k: v for k, v in obj.items() if k not in ("ok", "type")}
    return cls(**fields)
