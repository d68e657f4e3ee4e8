"""The observability event bus.

A :class:`EventBus` hangs off every :class:`repro.sim.engine.Environment`
(as ``env.obs``) and is the *single source of truth* for everything the
runtimes, the network, the nodes and the devices observe about themselves:
spawns, steals, transfers, kernel launches, crashes, orphan re-queues and
scheduling decisions all flow through it as structured, virtual-time-stamped
:class:`ObsEvent` records.

Design constraints (see docs/observability.md):

* **zero overhead when disabled** — ``emit()`` returns immediately when the
  bus is off, and hot call sites additionally guard on ``bus.enabled`` so
  no field dictionaries are even built;
* **deterministic** — events carry a monotone sequence number and the
  virtual timestamp of the simulation clock; for a fixed seed the full
  serialized stream is byte-identical across runs (locked down by
  ``tests/test_obs_determinism.py``);
* **no engine dependencies** — this module imports only the standard
  library, so the simulation engine can own a bus without import cycles.
"""

from __future__ import annotations

import itertools
import json
import json.encoder
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

__all__ = ["ObsEvent", "EventBus", "INTERVAL_KINDS", "POINT_KINDS"]


#: kinds that describe a time *interval* (they carry ``start``/``end`` and a
#: ``lane``, and map 1:1 onto Gantt-chart bars / Chrome-trace slices)
INTERVAL_KINDS = frozenset({
    "cpu",       # host CPU busy (leaf computation or protocol handling)
    "kernel",    # device kernel execution
    "h2d",       # host-to-device PCIe transfer
    "d2h",       # device-to-host PCIe transfer
    "send",      # node-to-node network transfer (NIC serialization + fabric)
    "recv",      # reserved (receive-side processing)
    "steal",     # steal-request service on the victim
})

#: kinds that describe a *point* in virtual time
POINT_KINDS = frozenset({
    "spawn",           # a job was created and pushed into a work deque
    "steal_attempt",   # a thief sent a steal request
    "steal_success",   # a thief received a job
    "steal_salvage",   # a late steal reply's job was pushed on the thief
    "result_recv",     # a stolen job's result arrived back at its origin
    "crash",           # fault injection took a node down
    "orphan_requeue",  # a dead thief's job was re-queued at its origin
    "sched_decision",  # the intra-node device scheduler placed a job
    # happens-before race sanitizer (repro.analyze.races; only emitted
    # when the runtime carries a detector, i.e. detect_races=True)
    "hb_spawn",        # vector-clock fork: parent spawned a child job
    "hb_sync",         # vector-clock join: parent synced its children
    "hb_guard",        # a guard ordered a waiter after a write
    "shared_access",   # a shared-object read/write was recorded
    "race",            # two concurrent conflicting accesses were found
    # DAG executor lifecycle (repro.graph.executor)
    "graph_node_ready",     # all data dependencies of a node resolved
    "graph_node_dispatch",  # a node was placed on a device lane
    "graph_node_complete",  # a node's kernel (and output copy) finished
})


#: ``json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)``'s
#: encoder; ``ensure_ascii``, ``allow_nan`` and ``check_circular`` keep
#: their defaults.  The canonical form of every serialized event.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                              default=str)


def _stream_encoder() -> Callable[[Any], str]:
    """An encoder for one stream, byte-identical to ``_CANONICAL.encode``.

    ``json.dumps`` builds a fresh ``JSONEncoder`` and C encoder for every
    call; a stream builds the C encoder once, with a fresh circular-check
    markers dict (an encode that raises leaves its markers behind, so a
    failed stream's encoder is not reused).  Without the C accelerator it
    falls back to ``_CANONICAL.encode``, as ``json`` itself does.
    """
    # read per stream, as JSONEncoder.iterencode reads it per call
    make = getattr(json.encoder, "c_make_encoder", None)
    if make is None:
        return _CANONICAL.encode
    enc = _CANONICAL
    encode = make({}, enc.default, json.encoder.encode_basestring_ascii,
                  enc.indent, enc.key_separator, enc.item_separator,
                  enc.sort_keys, enc.skipkeys, enc.allow_nan)
    join = "".join

    def encode_one(obj: Any) -> str:
        return join(encode(obj, 0))

    return encode_one


@dataclass(slots=True)
class ObsEvent:
    """One structured observability event.

    ``ts`` is the virtual time of emission.  Interval events additionally
    carry ``start``/``end`` (with ``end == ts``) and a ``lane`` — the
    Gantt queue they belong to, e.g. ``"node3/gtx480[0]/kernel"``.
    ``fields`` holds kind-specific payload (labels, byte counts, victim
    ranks, scheduler snapshots, ...).
    """

    seq: int
    ts: float
    kind: str
    node: Optional[int] = None
    lane: Optional[str] = None
    start: Optional[float] = None
    end: Optional[float] = None
    fields: Dict[str, Any] = field(default_factory=dict)

    @property
    def is_interval(self) -> bool:
        return self.start is not None and self.end is not None

    @property
    def duration(self) -> float:
        if not self.is_interval:
            return 0.0
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        """Canonical dictionary form (``None`` members omitted)."""
        out: Dict[str, Any] = {"seq": self.seq, "ts": self.ts, "kind": self.kind}
        if self.node is not None:
            out["node"] = self.node
        if self.lane is not None:
            out["lane"] = self.lane
        if self.start is not None:
            out["start"] = self.start
        if self.end is not None:
            out["end"] = self.end
        if self.fields:
            out["fields"] = self.fields
        return out

    def serialize(self) -> str:
        """One canonical JSON line (sorted keys, compact separators)."""
        return _stream_encoder()(self.to_dict())


class EventBus:
    """Ordered stream of :class:`ObsEvent` records.

    The bus is *disabled* by default: ``emit()`` is then a constant-time
    no-op, so instrumented code paths cost nothing in ordinary runs.
    Readers work on the recorded ``events`` after the run (e.g. the
    :class:`repro.obs.export.Intervals` view behind the Gantt charts).
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 enabled: bool = False):
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.enabled = enabled
        self.events: List[ObsEvent] = []
        self._seq = itertools.count()

    # -- configuration -----------------------------------------------------
    def enable(self) -> "EventBus":
        self.enabled = True
        return self

    # -- emission ----------------------------------------------------------
    def emit(self, kind: str, node: Optional[int] = None,
             lane: Optional[str] = None, start: Optional[float] = None,
             end: Optional[float] = None, **fields: Any) -> Optional[ObsEvent]:
        """Record one event (no-op while the bus is disabled)."""
        if not self.enabled:
            return None
        ev = ObsEvent(next(self._seq), self._clock(), kind, node, lane, start,
                      end, fields)
        self.events.append(ev)
        return ev

    # -- queries -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def by_kind(self, *kinds: str) -> List[ObsEvent]:
        wanted = frozenset(kinds)
        return [ev for ev in self.events if ev.kind in wanted]

    def by_node(self, node: int) -> List[ObsEvent]:
        return [ev for ev in self.events if ev.node == node]

    def kinds(self) -> Dict[str, int]:
        """Histogram of event kinds (taxonomy summary)."""
        out: Dict[str, int] = {}
        for ev in self.events:
            out[ev.kind] = out.get(ev.kind, 0) + 1
        return out

    # -- serialization -----------------------------------------------------
    def serialize(self) -> str:
        """The full stream as deterministic JSON lines.

        Byte-identical across runs with the same seed — the contract the
        determinism regression tests enforce.  Each line equals
        :meth:`ObsEvent.serialize`; the stream shares one encoder.
        """
        encode = _stream_encoder()
        return "\n".join([encode(ev.to_dict()) for ev in self.events])
