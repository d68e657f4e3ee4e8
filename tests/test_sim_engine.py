"""Unit tests for the discrete-event simulation engine."""

import heapq
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    Environment,
    Interrupt,
    SimulationError,
)
from repro.sim.engine import first_of


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(5.0)
        return env.now

    p = env.process(proc())
    assert env.run(p) == 5.0
    assert env.now == 5.0


def test_timeout_value_passthrough():
    env = Environment()

    def proc():
        v = yield env.timeout(1.0, value="hello")
        return v

    assert env.run(env.process(proc())) == "hello"


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_processes_interleave_deterministically():
    env = Environment()
    order = []

    def proc(name, delay):
        yield env.timeout(delay)
        order.append((name, env.now))

    env.process(proc("a", 3))
    env.process(proc("b", 1))
    env.process(proc("c", 2))
    env.run()
    assert order == [("b", 1), ("c", 2), ("a", 3)]


def test_same_time_events_fire_in_fifo_order():
    env = Environment()
    order = []

    def proc(name):
        yield env.timeout(1.0)
        order.append(name)

    for name in "abcd":
        env.process(proc(name))
    env.run()
    assert order == list("abcd")


def test_process_return_value():
    env = Environment()

    def child():
        yield env.timeout(2)
        return 42

    def parent():
        result = yield env.process(child())
        return result + 1

    assert env.run(env.process(parent())) == 43


def test_event_succeed_wakes_waiter():
    env = Environment()
    ev = env.event()
    results = []

    def waiter():
        v = yield ev
        results.append((env.now, v))

    def trigger():
        yield env.timeout(4)
        ev.succeed("done")

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert results == [(4, "done")]


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_propagates_to_waiter():
    env = Environment()
    ev = env.event()

    def waiter():
        with pytest.raises(ValueError, match="boom"):
            yield ev
        return "handled"

    def trigger():
        yield env.timeout(1)
        ev.fail(ValueError("boom"))

    p = env.process(waiter())
    env.process(trigger())
    assert env.run(p) == "handled"


def test_unhandled_process_exception_propagates_out_of_run():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise RuntimeError("kernel failed")

    env.process(bad())
    with pytest.raises(RuntimeError, match="kernel failed"):
        env.run()


def test_anyof_returns_at_first():
    env = Environment()

    def proc():
        t1 = env.timeout(1, value="x")
        t2 = env.timeout(5, value="y")
        yield first_of(env, t1, t2)
        return env.now

    assert env.run(env.process(proc())) == 1



def test_first_of_fires_in_its_first_constituents_dispatch():
    """Three pending constituents: the first one dispatched triggers the
    wait from inside its own callbacks.  So the wait fires at that instant
    behind the work already queued there (including work queued after the
    constituent was triggered), holds that constituent alone, and the later
    constituents neither trigger it again nor raise."""
    env = Environment()
    a, b, c = env.event(), env.event(), env.event()
    log = []

    def marker(name):
        ev = env.event()
        ev.callbacks.append(lambda _ev: log.append((name, env.now)))
        return ev

    def waiter():
        value = yield first_of(env, a, b, c)
        log.append(("waiter", env.now))
        return value

    def producer():
        yield env.timeout(2.0)
        marker("queued before b").succeed()
        b.succeed("vb")
        marker("queued after b").succeed()
        yield env.timeout(1.0)
        a.succeed("va")
        yield env.timeout(1.0)
        c.succeed("vc")

    proc = env.process(waiter())
    env.process(producer())
    env.run()
    assert log == [("queued before b", 2.0), ("queued after b", 2.0),
                   ("waiter", 2.0)]
    assert list(proc.value) == [b]
    assert proc.value[b] == "vb"
    assert env.now == 4.0


def test_first_of_fires_at_once_on_a_processed_constituent():
    """A constituent already processed at the call triggers the wait at
    once, with every processed constituent's value."""
    env = Environment()
    first = env.event().succeed("x")
    second = env.timeout(0.0, value="y")
    pending = env.event()
    env.run()

    def waiter():
        yield env.timeout(1.0)
        value = yield first_of(env, pending, first, second)
        return env.now, value

    proc = env.process(waiter())
    env.run()
    assert proc.value == (1.0, {first: "x", second: "y"})
    assert not pending.triggered

def test_interrupt_delivers_cause():
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(100)
        except Interrupt as i:
            log.append((env.now, i.cause))

    def attacker(p):
        yield env.timeout(3)
        p.interrupt("stop it")

    v = env.process(victim())
    env.process(attacker(v))
    env.run()
    assert log == [(3, "stop it")]


def test_interrupt_dead_process_is_noop():
    env = Environment()

    def victim():
        yield env.timeout(1)

    def attacker(p):
        yield env.timeout(5)
        p.interrupt()  # victim already finished

    v = env.process(victim())
    env.process(attacker(v))
    env.run()
    assert not v.is_alive


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc():
        while True:
            yield env.timeout(10)

    env.process(proc())
    env.run(until=25)
    assert env.now == 25


def test_run_until_past_raises():
    env = Environment()
    env.run(until=5)
    with pytest.raises(SimulationError):
        env.run(until=1)


def test_run_until_event_deadlock_detected():
    env = Environment()
    ev = env.event()  # never triggered
    with pytest.raises(SimulationError, match="deadlock"):
        env.run(until=ev)


def test_yield_non_event_raises_in_process():
    env = Environment()

    def bad():
        yield 42

    env.process(bad())
    with pytest.raises(SimulationError):
        env.run()


def test_yielding_non_event_throws_into_a_process_that_catches_it():
    env = Environment()
    log = []

    def proc():
        try:
            yield 42
        except SimulationError:
            log.append(("caught", env.now))
        value = yield env.timeout(5, value="t5")
        log.append((env.now, value))

    env.process(proc())
    env.run()
    assert log == [("caught", 0), (5, "t5")]


def test_yielding_non_event_fails_a_process_that_does_not_catch_it():
    env = Environment()

    def bad():
        yield 42

    def waiter(p):
        try:
            yield p
        except SimulationError as exc:
            return (env.now, str(exc))

    b = env.process(bad())
    w = env.process(waiter(b))
    assert env.run(w) == (0, "process yielded non-event 42")
    assert not b.is_alive
    assert not b.ok
    assert env.active_process is None


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7)
    assert env.peek() == 7
    env.event().succeed()  # ready work at now
    assert env.peek() == 0
    env.run(until=3)
    assert env.peek() == 7

    def proc():
        yield env.timeout(1)

    env.process(proc())  # its start is front work at now
    assert env.peek() == 3
    env.step()
    assert env.peek() == 4
    env.run()
    assert env.peek() == float("inf")


def test_run_until_fires_ready_work_before_landing_on_the_stop():
    env = Environment()
    seen = []
    ev = env.event()
    ev.callbacks.append(lambda e: seen.append(env.now))
    ev.succeed()
    env.run(until=5)
    assert seen == [0]
    assert env.now == 5
    assert env.events_processed == 1


# ---------------------------------------------------------------------------
# dispatch order against the single-heap reference model
# ---------------------------------------------------------------------------
#
# A drawn program is a list of root actions plus one action script per
# created item.  Every item gets the next label when it is created and,
# when it fires, logs ``(label, now)`` and performs its script.  The same
# program runs on the engine and on a reference model: one heap sorted by
# ``(time, priority, seq)``, priority 0 for process starts, interrupts and
# starters and 1 for the rest, whose order the engine's front lane, ready
# lane and timer heap must reproduce.  Both logs and both pop counts must
# agree.

# 0.1 + 0.2 ties 0.30000000000000004 exactly; 1e20 absorbs later delays
_DELAYS = [0.0, 0.1, 0.2, 0.30000000000000004, 0.3, 1.0, 1e20]

_ACTION = st.one_of(
    st.tuples(st.just("timeout"), st.sampled_from(_DELAYS)),
    st.tuples(st.just("hop"), st.sampled_from(_DELAYS)),
    st.sampled_from([("succeed",), ("fail",), ("process",), ("sleeper",),
                     ("front",)]),
    st.tuples(st.just("interrupt"), st.integers(0, 7)),
)
_SCRIPTS = st.lists(st.lists(_ACTION, max_size=3), max_size=40)


class _Hop:
    """Owner of a hop: :meth:`fire` is a zero-argument bound method."""

    def __init__(self, fire_label, label):
        self.fire_label = fire_label
        self.label = label

    def fire(self):
        self.fire_label(self.label)


def _run_engine(initial, root, scripts, stops, final):
    env = Environment(initial)
    log = []
    labels = itertools.count()
    sleepers = []

    def fire(n):
        log.append((n, env.now))
        for action in scripts[n] if n < len(scripts) else ():
            perform(action)

    def on_fail(event, n):
        event._defused = True
        fire(n)

    def ended(n):
        return lambda _e: log.append(("end", n, env.now))

    def body(n):
        fire(n)
        return
        yield  # pragma: no cover - makes this a generator

    def sleeper(n):
        log.append(("start", n, env.now))
        try:
            yield env.event()
        except Interrupt:
            log.append(("interrupted", n, env.now))

    def perform(action):
        kind, n = action[0], next(labels)
        if kind == "timeout":
            env.timeout(action[1]).callbacks.append(lambda _e: fire(n))
        elif kind == "hop":
            env._schedule(_Hop(fire, n).fire, action[1])
        elif kind == "front":
            env._schedule_front(_Hop(fire, n).fire)
        elif kind == "succeed":
            ev = env.event()
            ev.callbacks.append(lambda _e: fire(n))
            ev.succeed()
        elif kind == "fail":
            ev = env.event()
            ev.callbacks.append(lambda e: on_fail(e, n))
            ev.fail(ValueError(n))
        elif kind == "process":
            env.process(body(n)).callbacks.append(ended(n))
        elif kind == "sleeper":
            proc = env.process(sleeper(n))
            proc.callbacks.append(ended(n))
            sleepers.append(proc)
        elif sleepers:  # interrupt
            sleepers[action[1] % len(sleepers)].interrupt()

    for action in root:
        perform(action)
    for stop in stops:
        env.run(until=stop)
        log.append(("stop", env.now, env.peek()))
    if final == "exhaust":
        env.run()
    else:
        with pytest.raises(SimulationError, match="deadlock"):
            env.run(until=env.event())
    return log, env.events_processed


def _run_reference(initial, root, scripts, stops):
    heap = []
    seq = itertools.count()
    labels = itertools.count()
    log = []
    sleepers = []
    alive = {}
    now = initial
    pops = 0

    def push(when, priority, fn):
        heapq.heappush(heap, (when, priority, next(seq), fn))

    def fire(n):
        log.append((n, now))
        for action in scripts[n] if n < len(scripts) else ():
            perform(action)

    def end(n):
        log.append(("end", n, now))

    def start(n):
        fire(n)
        push(now, 1, lambda: end(n))

    def wake(n):
        log.append(("start", n, now))

    def deliver(n):
        if alive[n]:
            alive[n] = False
            log.append(("interrupted", n, now))
            push(now, 1, lambda: end(n))

    def perform(action):
        kind, n = action[0], next(labels)
        if kind in ("timeout", "hop"):
            push(now + action[1], 1, lambda: fire(n))
        elif kind == "front":
            push(now, 0, lambda: fire(n))
        elif kind in ("succeed", "fail"):
            push(now, 1, lambda: fire(n))
        elif kind == "process":
            push(now, 0, lambda: start(n))
        elif kind == "sleeper":
            alive[n] = True
            sleepers.append(n)
            push(now, 0, lambda: wake(n))
        elif sleepers:  # interrupt
            target = sleepers[action[1] % len(sleepers)]
            if alive[target]:
                push(now, 0, lambda: deliver(target))

    def run(stop=None):
        nonlocal now, pops
        while heap and (stop is None or heap[0][0] <= stop):
            now, _prio, _seq, fn = heapq.heappop(heap)
            pops += 1
            fn()

    for action in root:
        perform(action)
    for stop in stops:
        run(stop)
        now = stop
        log.append(("stop", now, heap[0][0] if heap else float("inf")))
    run()
    return log, pops


@settings(max_examples=300, deadline=None)
@given(initial=st.sampled_from([0.0, 1e20]),
       root=st.lists(_ACTION, min_size=1, max_size=6),
       scripts=_SCRIPTS,
       offsets=st.lists(st.sampled_from([0.0, 0.1, 0.3, 1.0, 2.5, 1e20]),
                        max_size=3),
       final=st.sampled_from(["exhaust", "event"]))
def test_dispatch_order_matches_single_heap_reference(initial, root, scripts,
                                                      offsets, final):
    stops = sorted(initial + offset for offset in offsets)
    engine = _run_engine(initial, root, scripts, stops, final)
    reference = _run_reference(initial, root, scripts, stops)
    assert engine == reference
