"""Typed message protocol of the Satin runtime.

The runtime's node-to-node protocol (Sec. II-A: steal requests/replies,
stolen-result returns, shared-object updates, the master's runtime-info
broadcast) used to be ad-hoc ``(tag, dict)`` payloads decoded inline in the
runtime's message loop.  This module makes the protocol a first-class layer
over :class:`repro.sim.network.Endpoint`:

* **typed messages** — one frozen-shape dataclass per protocol message
  (:class:`StealRequest`, :class:`StealReply`, :class:`ResultReturn`,
  :class:`SharedObjectUpdate`, :class:`RuntimeInfo`);
  the wire tag is a class attribute, so the tag/shape pairing lives in
  exactly one place,
* **dispatch** — each node runs one :class:`CommChannel` whose callback
  pump decodes incoming messages and routes them to handlers registered by
  message *type* (unknown tags are dropped),
* **request/reply** — :meth:`CommChannel.request` pairs a request with its
  reply via a runtime-global ``req_id``, with optional *reply-timeout +
  bounded-retry* semantics: a dead or partitioned victim makes the request
  return ``None`` after the configured attempts instead of hanging the
  thief, so call sites need no per-victim special-casing,
* **failure notification** — :meth:`CommLayer.fail_pending_to` resolves
  every in-flight request aimed at a crashed rank with ``None`` (the Ibis
  membership-service path the paper's fault tolerance relies on); the
  timeout path covers failures the membership service never reports.

The layer deliberately knows nothing about jobs, deques or scheduling —
that is :mod:`repro.satin.runtime` (orchestration), :mod:`repro.satin.steal`
(victim selection) and :mod:`repro.satin.ft` (recovery).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    Generator,
    Iterable,
    Optional,
    Set,
    Tuple,
    Type,
)

from ..sim.engine import Environment, Event, Timeout, first_of
from ..sim.network import Endpoint
from .job import Job

__all__ = [
    "SatinMessage",
    "StealRequest",
    "StealReply",
    "ResultReturn",
    "SharedObjectUpdate",
    "RuntimeInfo",
    "CommChannel",
    "CommLayer",
]


@dataclass(slots=True)
class SatinMessage:
    """Base class of all typed protocol messages.

    ``WIRE_TAG`` is the tag charged on the simulated network; subclasses
    keep the historical tag strings so traces stay comparable across
    versions of the runtime.
    """

    WIRE_TAG: ClassVar[str] = ""


@dataclass(slots=True)
class StealRequest(SatinMessage):
    """A thief asks a victim for work."""

    WIRE_TAG: ClassVar[str] = "steal_request"
    req_id: int
    thief: int


@dataclass(slots=True)
class StealReply(SatinMessage):
    """The victim's answer: a job, or ``None`` for an empty deque."""

    WIRE_TAG: ClassVar[str] = "steal_reply"
    req_id: int
    job: Optional[Job]


@dataclass(slots=True)
class ResultReturn(SatinMessage):
    """A stolen job's result travelling back to its origin node."""

    WIRE_TAG: ClassVar[str] = "result"
    job_id: int
    result: Any


@dataclass(slots=True)
class SharedObjectUpdate(SatinMessage):
    """An asynchronous shared-object write broadcast to all replicas."""

    WIRE_TAG: ClassVar[str] = "shared_update"
    name: str
    method: Callable[[Any, Any], Any]
    payload: Any
    #: originating task (job id or root) — carried for the happens-before
    #: race sanitizer; ``None`` whenever ``detect_races`` is off
    task: Optional[int] = None


@dataclass(slots=True)
class RuntimeInfo(SatinMessage):
    """The master's runtime-information broadcast at initialization
    (Sec. III-B: "rank 0 becomes the master and broadcasts run-time
    information")."""

    WIRE_TAG: ClassVar[str] = "runtime-info"
    payload: Any = None


#: sentinel distinguishing "reply timed out" from a ``None`` reply value
_TIMED_OUT = object()


@dataclass(slots=True)
class _PendingRequest:
    """Bookkeeping for one in-flight request awaiting its reply."""

    event: Event
    dst: int


class CommLayer:
    """Runtime-wide protocol state: channels, request ids, pending table.

    One instance per runtime.  The request-id counter is global across all
    channels so ids in the observability stream stay unique and
    deterministic; the pending table is global so a crash can fail every
    request aimed at the dead rank in one place.
    """

    def __init__(self, env: Environment,
                 reply_timeout_s: Optional[float] = None,
                 reply_retries: int = 1):
        self.env = env
        #: reply timeout (seconds) of each :meth:`CommChannel.request`
        #: attempt; ``None`` waits for the reply or a failure notification
        self.reply_timeout_s = reply_timeout_s
        #: extra attempts after the first timeout (bounded retry)
        self.reply_retries = reply_retries
        self.channels: Dict[int, "CommChannel"] = {}
        self._req_ids = itertools.count()
        self._pending: Dict[int, _PendingRequest] = {}
        #: ranks the membership service reported dead (via
        #: :meth:`fail_pending_to`); requests to these fail immediately
        self.dead_ranks: Set[int] = set()

    # -- channels ------------------------------------------------------------
    def attach(self, endpoint: Endpoint) -> "CommChannel":
        """Create the channel wrapping one node's endpoint."""
        if endpoint.rank in self.channels:
            raise ValueError(f"rank {endpoint.rank} already has a channel")
        channel = CommChannel(self, endpoint)
        self.channels[endpoint.rank] = channel
        return channel

    def channel(self, rank: int) -> "CommChannel":
        return self.channels[rank]

    # -- request bookkeeping -------------------------------------------------
    def open_request(self, dst: int) -> Tuple[int, _PendingRequest]:
        req_id = next(self._req_ids)
        pending = _PendingRequest(event=self.env.event(), dst=dst)
        self._pending[req_id] = pending
        return req_id, pending

    def close_request(self, req_id: int) -> None:
        self._pending.pop(req_id, None)

    def resolve(self, req_id: int, value: Any) -> bool:
        """Deliver a reply to a waiting request.

        Returns ``False`` when nobody is waiting anymore (late reply after
        a timeout/retry) so the caller can salvage the payload.
        """
        pending = self._pending.get(req_id)
        if pending is None or pending.event.triggered:
            return False
        pending.event.succeed(value)
        return True

    def fail_pending_to(self, dead_rank: int) -> int:
        """Resolve every in-flight request to ``dead_rank`` with ``None``.

        Called by the fault-tolerance layer when the membership service
        reports a crash; returns the number of requests failed.  Idempotent:
        a second call for the same rank finds nothing pending and returns 0.
        The rank is remembered in :attr:`dead_ranks`, so a request *opened
        after* the notification (a thief racing the membership broadcast)
        fails immediately instead of hanging until its reply timeout — or
        forever, when no timeout is configured.
        """
        self.dead_ranks.add(dead_rank)
        failed = 0
        for req_id, pending in list(self._pending.items()):
            if pending.dst == dead_rank and not pending.event.triggered:
                pending.event.succeed(None)
                failed += 1
        return failed

    def pending_to(self, rank: int) -> int:
        """Number of unresolved requests aimed at ``rank`` (introspection)."""
        return sum(1 for p in self._pending.values()
                   if p.dst == rank and not p.event.triggered)


class CommChannel:
    """One node's attachment to the typed protocol: send, request, dispatch."""

    def __init__(self, layer: CommLayer, endpoint: Endpoint):
        self.layer = layer
        self.env = layer.env
        self.endpoint = endpoint
        self.rank = endpoint.rank
        #: message type -> handler(msg); handlers run inside the pump's
        #: callback and must not block (start a process or callback chain
        #: for slow work)
        self._handlers: Dict[Type[SatinMessage], Callable[[SatinMessage], None]] = {}
        #: whether the pump runs handlers (cleared by :meth:`stop_pump`)
        self._pumping = False

    # -- handler registration ------------------------------------------------
    def on(self, msg_type: Type[SatinMessage],
           handler: Callable[[Any], None]) -> None:
        """Route incoming messages of ``msg_type`` to ``handler``."""
        if not msg_type.WIRE_TAG:
            raise ValueError(f"{msg_type.__name__} has no wire tag")
        self._handlers[msg_type] = handler

    # -- sending -------------------------------------------------------------
    def send(self, dst: int, msg: SatinMessage,
             nbytes: float = 0.0) -> Generator:
        """Process: transmit one typed message (blocks this node's NIC).

        Calls the network's transmit process directly rather than through
        :meth:`Endpoint.send` — the extra delegating generator frame costs
        real wall-clock at millions of protocol messages per run.
        """
        endpoint = self.endpoint
        yield from endpoint.network.transmit(endpoint, dst, msg.WIRE_TAG,
                                             msg, nbytes)

    def post(self, dst: int, msg: SatinMessage, nbytes: float = 0.0) -> None:
        """Fire-and-forget send: like ``env.process(channel.send(...))``
        but with no Process (see :meth:`Network.post`)."""
        endpoint = self.endpoint
        endpoint.network.post(endpoint, dst, msg.WIRE_TAG, msg, nbytes)

    def send_nowait(self, dst: int, msg: SatinMessage,
                    nbytes: float = 0.0) -> None:
        """Start a transfer that claims the NIC *at this exact moment* —
        as a blocking :meth:`send` from a running process would — but
        resumes nobody on delivery.  For a sender with nothing left to do
        after the send (e.g. a steal reply)."""
        endpoint = self.endpoint
        endpoint.network._transfer(endpoint, dst, msg.WIRE_TAG, msg, nbytes,
                                   None).start()

    def broadcast(self, msg: SatinMessage, nbytes: float,
                  ranks: Optional[Iterable[int]] = None) -> Generator:
        """Process: send a typed message to every (other) endpoint."""
        yield from self.endpoint.network.broadcast(
            self.endpoint, msg.WIRE_TAG, payload=msg, nbytes=nbytes,
            ranks=ranks)

    def request(self, dst: int,
                build: Callable[[int], SatinMessage],
                nbytes: float,
                on_attempt: Optional[Callable[[int, int], None]] = None
                ) -> Generator:
        """Process: send a request and wait for its reply.

        ``build(req_id)`` constructs the message for each attempt (each
        attempt gets a fresh id, so a late reply to a timed-out attempt is
        recognizably stale).  Each attempt waits the layer's
        ``reply_timeout_s``, and ``reply_retries`` more attempts follow the
        first; with ``reply_timeout_s=None`` the request waits until the
        reply arrives or :meth:`CommLayer.fail_pending_to` fails it.
        ``on_attempt(req_id, attempt)`` runs before each send (the runtime
        hooks statistics and ``steal_attempt`` events here).

        Returns the reply value, or ``None`` after all attempts timed out.
        """
        layer = self.layer
        timeout = layer.reply_timeout_s
        attempts = 1 + (layer.reply_retries if timeout is not None else 0)
        for attempt in range(attempts):
            if dst in layer.dead_ranks:
                # Membership already declared the destination dead: fail
                # fast, exactly as fail_pending_to would have.
                return None
            req_id, pending = layer.open_request(dst)
            if on_attempt is not None:
                on_attempt(req_id, attempt)
            yield from self.send(dst, build(req_id), nbytes=nbytes)
            if timeout is None:
                reply = yield pending.event
                layer.close_request(req_id)
                return reply
            timer = Timeout(self.env, timeout, value=_TIMED_OUT)
            yield first_of(self.env, pending.event, timer)
            layer.close_request(req_id)
            if pending.event.triggered:
                return pending.event.value
        return None

    # -- receiving -----------------------------------------------------------
    def start_pump(self) -> None:
        """Begin the node's receive loop: take delivered messages via hops.

        A front-lane starter hop arms the endpoint's receiver; each message
        it takes from the mailbox is decoded into its typed payload and
        routed to the registered handler, and the receiver is re-armed
        right after the handler runs.  Messages whose type has no handler,
        and below-protocol traffic (app broadcasts etc.), are dropped.  A
        node crash ends the loop via :meth:`stop_pump`.
        """
        self._pumping = True
        self.env._schedule_front(self._arm)

    def _arm(self) -> None:
        self.endpoint.arm(self._pump)

    def _pump(self) -> None:
        if not self._pumping:
            return  # stopped while armed or queued
        msg = self.endpoint.mailbox.popleft().payload
        if isinstance(msg, SatinMessage):
            handler = self._handlers.get(type(msg))
            if handler is not None:
                handler(msg)
        self._arm()

    def stop_pump(self) -> None:
        """Stop the pump (node crash): a receiver hop already armed or
        queued still runs once, at the next delivery, but it takes no
        message, runs no handler and never re-arms.  No-op when the pump
        never started."""
        self._pumping = False
