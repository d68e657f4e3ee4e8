"""Process-based discrete-event simulation engine.

This is the substrate on which the simulated DAS-4 cluster, the network, the
many-core devices, and the Satin/Cashmere runtimes execute.  It follows the
classic process-interaction style (cf. SimPy): simulation *processes* are
Python generators that ``yield`` events; the environment advances a virtual
clock from event to event.

The engine is deliberately deterministic: events scheduled for the same
virtual time fire in FIFO order of scheduling (process starts, interrupts
and starters ahead of the rest), so every simulated experiment is exactly
reproducible given a seed for the model-level random generators.

The queue is split the way asyncio's event loop splits its ready deque from
its timer heap.  Work at the current instant waits in two FIFO lanes, the
*front* lane (process starts, interrupts, starters) and the *ready* lane
(everything else), and work at a later time waits in a ``(time, seq,
item)`` heap.  The clock advances only when both lanes are empty, and then
every heap item at the new time moves to the ready lane in ``seq`` order.
That gives exactly the order of one heap sorted by ``(time, priority,
seq)`` with priority 0 for the front lane: a heap item at ``T`` was pushed
while the clock was below ``T``, so its ``seq`` precedes that of every
ready item pushed at ``T``.  A queue item is
an :class:`Event`, whose callbacks the run loop dispatches, or a *hop*: a
zero-argument bound method the run loop calls directly, for internal steps
that nothing else waits on (see :meth:`Environment._schedule`).
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from types import MethodType
from typing import Any, Callable, Deque, Generator, List, Optional

from ..obs.bus import EventBus

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "first_of",
    "Interrupt",
    "SimulationError",
]


class SimulationError(Exception):
    """Raised for misuse of the simulation engine."""


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Sentinel distinguishing "not yet triggered" from a triggered None value.
_PENDING = object()


class Event:
    """A condition that may happen at a point in simulated time.

    Processes wait for events by yielding them.  An event is *triggered* with
    either a value (:meth:`succeed`) or an exception (:meth:`fail`); all
    registered callbacks then run at the event's scheduled time.

    Events are the single hottest allocation of the simulator (tens of
    millions per paper-scale run), so the whole hierarchy is ``__slots__``-ed
    and the hot subclasses initialize their slots inline instead of
    chaining ``super().__init__`` calls.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        pool = env._cb_pool
        self.callbacks: Optional[List[Callable[["Event"], None]]] = (
            pool.pop() if pool else []
        )
        self._value: Any = _PENDING
        self._ok: bool = True
        #: Whether a failure was handed to some waiter (unhandled failures
        #: propagate out of :meth:`Environment.run`).
        self._defused = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value or exception."""
        return self._value is not _PENDING

    @property
    def ok(self) -> bool:
        if not self.triggered:
            raise SimulationError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event not yet triggered")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        # Inlined self.env._schedule(self) — succeed() fires once per
        # resolved event, millions of times per paper-scale run.
        self.env._ready.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() needs an exception instance")
        self._ok = False
        self._value = exception
        self.env._ready.append(self)
        return self

    def _first_of_check(self, ev: "Event") -> None:
        """Callback used by :func:`first_of`: the first constituent to be
        dispatched triggers us; later ones find us triggered and are
        no-ops."""
        if self._value is _PENDING:
            self.succeed({ev: ev._value})

    def __repr__(self) -> str:
        return f"<{type(self).__name__} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after a fixed delay."""

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        # Inlined Event.__init__ (hot path: one Timeout per simulated delay).
        self.env = env
        pool = env._cb_pool
        self.callbacks = pool.pop() if pool else []
        self._defused = False
        self._delay = delay
        self._ok = True
        self._value = value
        # Inlined env._schedule(self, delay).
        now = env._now
        when = now + delay
        if when == now:
            env._ready.append(self)
        else:
            heapq.heappush(env._heap, (when, next(env._seq), self))

    def __repr__(self) -> str:
        return f"<Timeout delay={self._delay}>"


class Initialize(Event):
    """Immediate event that starts a new process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        self.env = env
        self.callbacks = [process._resume]
        self._defused = False
        self._ok = True
        self._value = None
        env._front.append(self)


class Process(Event):
    """Wraps a generator as a simulation process.

    The process itself is an event that triggers with the generator's return
    value when the generator finishes (or with its exception).
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` into the process.

        Delivery is deferred to an immediate front-lane event, and the
        unhooking from the process's current wait target happens at
        *delivery* time, not here.  That ordering matters for a process
        that has not started yet (its :class:`Initialize` event is still
        queued): the initializer — also in the front lane, queued earlier —
        fires first, the generator runs to its first ``yield`` (entering
        any ``try`` block that guards its loop), and only then is the
        interrupt thrown.  Unhooking eagerly would instead cancel the
        initialization and throw into a never-started generator, where no
        handler can catch it.
        """
        if not self.is_alive:
            return  # interrupting a dead process is a no-op
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        event.callbacks.append(self._deliver_interrupt)
        self.env._schedule_front(event)

    def _deliver_interrupt(self, event: Event) -> None:
        if not self.is_alive:
            return  # finished (or a second interrupt landed) meanwhile
        # Unhook from whatever the process is waiting for *now*.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        self._resume(event)

    def _resume(self, event: Event) -> None:
        env = self.env
        generator = self._generator
        send = generator.send
        env._active_proc = self
        while True:
            try:
                if event._ok:
                    next_event = send(event._value)
                else:
                    event._defused = True
                    exc = event._value
                    next_event = generator.throw(exc)
            except StopIteration as exc:
                self._ok = True
                self._value = exc.value
                env._ready.append(self)
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                env._ready.append(self)
                break

            if not isinstance(next_event, Event):
                error = SimulationError(
                    f"process yielded non-event {next_event!r}")
            elif next_event.env is not env:
                error = SimulationError(
                    "event belongs to a different environment")
            elif next_event.callbacks is not None:
                # Not yet processed: register and suspend.
                next_event.callbacks.append(self._resume)
                self._target = next_event
                break
            else:
                # Already processed: continue immediately with its value.
                event = next_event
                continue
            # A misused yield: throw the error into the generator through
            # the failure path above, so a process that catches it goes on
            # with what it yields next and one that does not fails.
            event = Event(env)
            event._ok = False
            event._value = error

        env._active_proc = None

    def __repr__(self) -> str:
        name = getattr(self._generator, "__name__", str(self._generator))
        return f"<Process {name}>"


def first_of(env: "Environment", *events: Event) -> Event:
    """An event that triggers once the first of ``events`` succeeds: a
    steal request racing its reply timeout, an idle worker racing its
    backoff timer against the deque, a sync racing its children against
    new local work.

    The constituents (one or more) must be events of ``env`` that can only
    succeed, never fail.  When none has been processed yet, the returned
    event's ``succeed`` runs inside the first constituent's callback
    dispatch, and its value is ``{that constituent: its value}``; the
    later constituents find it triggered and leave it be.  When one was
    already processed at the call (e.g. a steal reply failed by the
    membership service while the requester was still mid-send), it
    triggers at once with every constituent that holds a value.
    """
    ev = Event(env)
    for d in events:
        if d.callbacks is None:
            ev.succeed({d: d._value for d in events
                        if d._value is not _PENDING and d._ok})
            return ev
    check = ev._first_of_check
    for d in events:
        d.callbacks.append(check)
    return ev


class Environment:
    """Holds the virtual clock and the event queue."""

    # The clock, lanes, heap and seq counter are touched on every push and
    # pop; slotted access shaves measurable time off paper-scale runs.
    __slots__ = ("_now", "_front", "_ready", "_heap", "_seq", "_active_proc",
                 "_cb_pool", "events_processed", "obs")

    #: upper bound on the recycled callback-list pool (plenty for the
    #: handful of events alive between two queue pops)
    _CB_POOL_MAX = 64

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        #: items at ``now`` that precede every ready item: process starts,
        #: interrupts and starters
        self._front: Deque[Any] = deque()
        #: the other items at ``now``, in scheduling order
        self._ready: Deque[Any] = deque()
        #: ``(time, seq, item)`` for every item after ``now``
        self._heap: List = []
        self._seq = itertools.count()
        self._active_proc: Optional[Process] = None
        #: recycled callback lists: every processed event's (cleared) list
        #: is returned here and handed to the next event created, so the
        #: hot loop stops allocating one throwaway list per event
        self._cb_pool: List[List[Callable[["Event"], None]]] = []
        #: queue items processed so far, events and hops alike (each
        #: :meth:`step`, or loop iteration of :meth:`run`, handles exactly
        #: one) — the repository benchmark in ``bench/`` reads it as
        #: ``sim.engine.events``
        self.events_processed: int = 0
        #: observability event bus (repro.obs): disabled by default, so the
        #: instrumented call sites throughout the stack cost nothing.
        self.obs: EventBus = EventBus(clock=lambda: self._now)

    @property
    def now(self) -> float:
        """Current simulated time (seconds, by convention of this repo)."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_proc

    # -- factories ----------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    # -- scheduling -----------------------------------------------------------
    def _schedule(self, item: Any, delay: float = 0.0) -> None:
        """Queue ``item`` at ``now + delay``.

        ``item`` is an :class:`Event`, whose callbacks run when it pops, or
        a *hop*: a zero-argument bound method that the run loop calls with
        no event, for an internal step that nothing else waits on (the
        network's transfer chain, a core-occupying delay, a mailbox pump).
        A hop pop counts in :attr:`events_processed` like an event pop.
        The lane is chosen by the time, not by ``delay``: a delay that the
        clock absorbs (``now + delay == now``) queues at ``now``.
        """
        now = self._now
        when = now + delay
        if when == now:
            self._ready.append(item)
        else:
            heapq.heappush(self._heap, (when, next(self._seq), item))

    def _schedule_front(self, item: Any) -> None:
        """Queue ``item`` (an event or a hop) at ``now``, behind the other
        front items but ahead of every ready item: a starter that must act
        in the step that asked for it, before later work at this instant."""
        self._front.append(item)

    def _advance(self) -> Any:
        """Move the clock to the earliest heap time and return its first
        item; the other heap items at that time move to the ready lane in
        ``seq`` order.  Both lanes must be empty."""
        heap = self._heap
        pop = heapq.heappop
        when, _seq, item = pop(heap)
        self._now = when
        ready = self._ready
        while heap and heap[0][0] == when:
            ready.append(pop(heap)[2])
        return item

    def peek(self) -> float:
        """Time of the next queued item: ``now`` while the front or ready
        lane holds one, else the earliest heap time, or ``inf`` if none."""
        if self._front or self._ready:
            return self._now
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process the next queued item."""
        if self._front:
            item = self._front.popleft()
        elif self._ready:
            item = self._ready.popleft()
        elif self._heap:
            item = self._advance()
        else:
            raise SimulationError("no more events")
        self.events_processed += 1
        if type(item) is MethodType:
            item()
            return
        event = item
        pool = self._cb_pool
        callbacks, event.callbacks = event.callbacks, None
        if len(callbacks) == 1:
            # Single-waiter events (the overwhelmingly common case: one
            # process resuming on one Timeout/grant) skip the loop setup
            # and recycle their callback list before dispatch.
            cb = callbacks[0]
            callbacks.clear()
            if len(pool) < self._CB_POOL_MAX:
                pool.append(callbacks)
            cb(event)
        else:
            for cb in callbacks:
                cb(event)
            callbacks.clear()
            if len(pool) < self._CB_POOL_MAX:
                pool.append(callbacks)
        if not event._ok and not event._defused:
            raise event._value

    def run(self, until: Any = None) -> Any:
        """Run until the given time, event, or queue exhaustion.

        ``until`` may be ``None`` (run to exhaustion), a number (run up to
        that virtual time), or an :class:`Event` (run until it is processed,
        returning its value).

        The event form, which every runtime drives, inlines :meth:`step` —
        paper-scale runs process tens of millions of queue items, so one
        method call plus re-resolved attribute lookups per item is
        measurable wall-clock.  Its semantics (lane order, failure
        propagation) are exactly :meth:`step`'s, which the other two forms
        call.
        """
        front = self._front
        ready = self._ready
        heap = self._heap
        if until is None:
            while front or ready or heap:
                self.step()
            return None
        if isinstance(until, Event):
            pop = heapq.heappop
            pop_front = front.popleft
            pop_ready = ready.popleft
            push_ready = ready.append
            hop_type = MethodType
            pool = self._cb_pool
            pool_max = self._CB_POOL_MAX
            steps = 0
            target = until
            try:
                while target.callbacks is not None:  # i.e. not yet processed
                    if front:
                        item = pop_front()
                    elif ready:
                        item = pop_ready()
                    elif heap:
                        # Inlined self._advance().
                        when, _seq, item = pop(heap)
                        self._now = when
                        while heap and heap[0][0] == when:
                            push_ready(pop(heap)[2])
                    else:
                        raise SimulationError(
                            f"event queue empty before {target!r} triggered "
                            "(deadlock?)"
                        )
                    steps += 1
                    if type(item) is hop_type:
                        item()
                        continue
                    callbacks, item.callbacks = item.callbacks, None
                    if len(callbacks) == 1:
                        cb = callbacks[0]
                        callbacks.clear()
                        if len(pool) < pool_max:
                            pool.append(callbacks)
                        cb(item)
                    else:
                        for cb in callbacks:
                            cb(item)
                        callbacks.clear()
                        if len(pool) < pool_max:
                            pool.append(callbacks)
                    if not item._ok and not item._defused:
                        raise item._value
            finally:
                self.events_processed += steps
            if not target._ok:
                raise target._value
            return target._value
        stop_at = float(until)
        if stop_at < self._now:
            raise SimulationError("cannot run into the past")
        # Items queued *exactly at* ``stop_at`` are processed; the clock
        # then lands on ``stop_at``.
        while front or ready or (heap and heap[0][0] <= stop_at):
            self.step()
        self._now = stop_at
        return None
