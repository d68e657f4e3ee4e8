"""Shared-resource primitives for the simulation engine.

These model contention: a :class:`Resource` is a set of interchangeable
slots (e.g. CPU cores, DMA engines), held for a span of time with
:meth:`Resource.hold`, and a :class:`Container` holds a continuous amount
(e.g. device memory in bytes).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Generator, List, Optional

from .engine import _PENDING, Environment, Event, SimulationError, Timeout

__all__ = ["Resource", "Container"]


class _Request(Event):
    """A pending claim on a resource slot.

    A claim made with a ``hop`` (a zero-argument bound method, see
    :meth:`Environment._schedule`) is granted by queueing the hop in the
    slot its grant event would take.  It has no callback list: nothing
    waits on it, and the hop's owner keeps it to release the slot.
    """

    __slots__ = ("resource", "hop")

    def __init__(self, resource: "Resource",
                 hop: Optional[Callable[[], None]] = None):
        # Inlined Event.__init__ — one _Request per cpu_delay/NIC claim
        # makes this one of the hottest allocations of a run.
        env = resource.env
        self.env = env
        if hop is None:
            pool = env._cb_pool
            self.callbacks = pool.pop() if pool else []
        else:
            self.callbacks = None
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self.resource = resource
        self.hop = hop
        # Uncontended grant inline (what _trigger would do, minus the
        # queue round-trip) — the common case for CPU cores and NICs.
        if len(resource._users) < resource.capacity and not resource._queue:
            resource._users.append(self)
            self._grant()
        else:
            resource._queue.append(self)

    def _grant(self) -> None:
        """Trigger the claim (its value is itself until it is released),
        or queue its hop."""
        hop = self.hop
        if hop is None:
            self._value = self
            self.env._ready.append(self)
        else:
            # The hop's owner holds this claim, so keeping the hop, or the
            # claim as its own value, would leave a reference cycle per
            # claim for the collector.
            self._value = None
            self.hop = None
            self.env._ready.append(hop)

    def cancel(self) -> None:
        """Withdraw a not-yet-granted request."""
        if self in self.resource._queue:
            self.resource._queue.remove(self)


class Resource:
    """``capacity`` interchangeable slots granted in FIFO order."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise SimulationError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self._users: List[_Request] = []
        # deque: grants pop from the left on every release; a list's
        # pop(0) is O(waiters) and CPU cores queue deeply under load
        self._queue: Deque[_Request] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self._users)

    def request(self, hop: Optional[Callable[[], None]] = None) -> _Request:
        """Claim a slot; with ``hop``, the grant calls it instead of
        triggering the request (see :class:`_Request`)."""
        return _Request(self, hop)

    def hold(self, seconds: float) -> Generator[Event, Any, float]:
        """Process body: claim a slot, keep it ``seconds``, then free it.

        The slot is freed also when the holder is interrupted while it
        holds the slot.  Returns the time the claim was granted, so the
        caller of ``yield from`` can charge the span up to ``now``.
        """
        env = self.env
        req = yield _Request(self)
        try:
            start = env._now
            yield Timeout(env, seconds)
        finally:
            self.release(req)
        return start

    def release(self, request: _Request) -> None:
        try:
            self._users.remove(request)
        except ValueError:
            request.cancel()
        else:
            # A granted event claim is its own value, a reference cycle
            # until the released claim lets go of it.
            request._value = None
        self._trigger()

    def _trigger(self) -> None:
        users = self._users
        queue = self._queue
        capacity = self.capacity
        while queue and len(users) < capacity:
            req = queue.popleft()
            users.append(req)
            req._grant()


class _ContainerGet(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float):
        super().__init__(container.env)
        self.amount = amount
        container._getters.append(self)
        container._trigger()


class _ContainerPut(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float):
        super().__init__(container.env)
        self.amount = amount
        container._putters.append(self)
        container._trigger()


class Container:
    """A continuous quantity with blocking get/put (e.g. device memory)."""

    def __init__(self, env: Environment, capacity: float, init: float = 0.0):
        if capacity <= 0:
            raise SimulationError("capacity must be positive")
        if not 0 <= init <= capacity:
            raise SimulationError("init outside [0, capacity]")
        self.env = env
        self.capacity = capacity
        self._level = init
        self._getters: List[_ContainerGet] = []
        self._putters: List[_ContainerPut] = []

    @property
    def level(self) -> float:
        return self._level

    def get(self, amount: float) -> _ContainerGet:
        if amount < 0:
            raise SimulationError("negative get amount")
        return _ContainerGet(self, amount)

    def put(self, amount: float) -> _ContainerPut:
        if amount < 0:
            raise SimulationError("negative put amount")
        return _ContainerPut(self, amount)

    def _trigger(self) -> None:
        progress = True
        while progress:
            progress = False
            for put in list(self._putters):
                if self._level + put.amount <= self.capacity:
                    self._level += put.amount
                    self._putters.remove(put)
                    put.succeed()
                    progress = True
            for get in list(self._getters):
                if get.amount <= self._level:
                    self._level -= get.amount
                    self._getters.remove(get)
                    get.succeed(get.amount)
                    progress = True
