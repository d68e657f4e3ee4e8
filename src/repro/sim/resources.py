"""Shared-resource primitives for the simulation engine.

These model contention: a :class:`Resource` is a set of interchangeable
slots (e.g. CPU cores, DMA engines), a :class:`Store` is a FIFO buffer of
items (e.g. a device's job queue), and a :class:`Container` holds a
continuous amount (e.g. device memory in bytes).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional

from .engine import _PENDING, Environment, Event, SimulationError

__all__ = ["Resource", "Store", "PriorityStore", "Container"]


class _Request(Event):
    """A pending claim on a resource slot; usable as a context manager.

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
        """Trigger the claim (its value is itself), or queue its hop."""
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

    def __enter__(self) -> "_Request":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.resource.release(self)

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

    def release(self, request: _Request) -> None:
        try:
            self._users.remove(request)
        except ValueError:
            request.cancel()
        self._trigger()

    def _trigger(self) -> None:
        users = self._users
        queue = self._queue
        capacity = self.capacity
        while queue and len(users) < capacity:
            req = queue.popleft()
            users.append(req)
            req._grant()


class _StoreGet(Event):
    """A pending get; with a ``hop``, the grant queues the hop instead of
    triggering the get (as for a :class:`_Request`), and the hop reads the
    item from the get's ``_value``."""

    __slots__ = ("filt", "hop")

    def __init__(self, store: "Store", filt: Optional[Callable[[Any], bool]] = None,
                 hop: Optional[Callable[[], None]] = None):
        env = store.env
        self.env = env
        if hop is None:
            pool = env._cb_pool
            self.callbacks = pool.pop() if pool else []
        else:
            self.callbacks = None
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self.filt = filt
        self.hop = hop
        store._getters.append(self)
        store._trigger()

    def _grant(self, item: Any) -> None:
        """Trigger the get with ``item``, or queue its hop."""
        self._value = item
        hop = self.hop
        self.env._ready.append(self if hop is None else hop)


class _StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        env = store.env
        self.env = env
        pool = env._cb_pool
        self.callbacks = pool.pop() if pool else []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self.item = item
        store._putters.append(self)
        store._trigger()


class Store:
    """FIFO item buffer with optional capacity and filtered gets."""

    def __init__(self, env: Environment, capacity: float = float("inf")):
        self.env = env
        self.capacity = capacity
        self.items: List[Any] = []
        self._getters: List[_StoreGet] = []
        self._putters: Deque[_StorePut] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> _StorePut:
        return _StorePut(self, item)

    def get(self, filt: Optional[Callable[[Any], bool]] = None,
            hop: Optional[Callable[[], None]] = None) -> _StoreGet:
        """Get the first item (matching ``filt`` if given); with ``hop``,
        the grant calls it instead of triggering the get."""
        return _StoreGet(self, filt, hop)

    def _insert(self, item: Any) -> None:
        self.items.append(item)

    def put_nowait(self, item: Any) -> None:
        """Insert ``item`` synchronously, with no queue event.

        Valid only when the store has room and no queued putters — callers
        (the network delivery fast path) check both.  Waiting getters are
        satisfied exactly as a queued :meth:`put` would have, in the same
        order, just without the intermediate ``_StorePut`` event.
        """
        self._insert(item)
        if self._getters:
            self._trigger()

    def _trigger(self) -> None:
        items = self.items
        putters = self._putters
        getters = self._getters
        if not putters:
            # Fast paths for the common shapes: nothing to match, or one
            # waiting getter and an item for it.  Grant order and filter
            # semantics are exactly the general loop's below.
            if not items or not getters:
                return
            if len(getters) == 1:
                get = getters[0]
                filt = get.filt
                if filt is None:
                    del getters[0]
                    get._grant(items.pop(0))
                    return
                for item in items:
                    if filt(item):
                        del getters[0]
                        items.remove(item)
                        get._grant(item)
                        return
                return
        progress = True
        while progress:
            progress = False
            # Admit puts while there is room.
            while putters and len(items) < self.capacity:
                put = putters.popleft()
                self._insert(put.item)
                put.succeed()
                progress = True
            # Satisfy getters (no matches are possible while empty).
            if not items or not getters:
                continue
            for get in list(getters):
                matched = None
                if get.filt is None:
                    if items:
                        matched = items[0]
                else:
                    for item in items:
                        if get.filt(item):
                            matched = item
                            break
                if matched is not None:
                    items.remove(matched)
                    getters.remove(get)
                    get._grant(matched)
                    progress = True


class PriorityStore(Store):
    """Store whose items come out lowest-key first.

    Items must be orderable, or a ``key`` function must be supplied.
    """

    def __init__(self, env: Environment, capacity: float = float("inf"),
                 key: Optional[Callable[[Any], Any]] = None):
        super().__init__(env, capacity)
        self._key = key

    def _insert(self, item: Any) -> None:
        self.items.append(item)
        self.items.sort(key=self._key)


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
