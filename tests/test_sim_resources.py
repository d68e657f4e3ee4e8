"""Unit tests for simulation resources: Resource, Container."""

import gc
import weakref

import pytest

from repro.sim import Container, Environment, Resource, SimulationError


def test_resource_serializes_users():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def user(name, hold):
        req = res.request()
        yield req
        log.append((name, "start", env.now))
        yield env.timeout(hold)
        res.release(req)
        log.append((name, "end", env.now))

    env.process(user("a", 5))
    env.process(user("b", 3))
    env.run()
    assert log == [("a", "start", 0), ("a", "end", 5), ("b", "start", 5), ("b", "end", 8)]


def test_resource_capacity_two_runs_in_parallel():
    env = Environment()
    res = Resource(env, capacity=2)
    ends = []

    def user(hold):
        req = yield res.request()
        try:
            yield env.timeout(hold)
        finally:
            res.release(req)
        ends.append(env.now)

    env.process(user(5))
    env.process(user(5))
    env.run()
    assert ends == [5, 5]


def test_resource_release_frees_the_slot():
    env = Environment()
    res = Resource(env, capacity=1)

    def user():
        req = yield res.request()
        try:
            yield env.timeout(1)
        finally:
            res.release(req)
        return res.count

    assert env.run(env.process(user())) == 0


def test_hop_claims_grant_in_fifo_order_and_free_their_owner():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    class Holder:
        def __init__(self, name, hold):
            self.name = name
            self.hold = hold
            self.req = res.request(self.granted)

        def granted(self):
            log.append((self.name, env.now))
            env._schedule(self.done, self.hold)

        def done(self):
            res.release(self.req)

    def user():
        req = yield res.request()
        try:
            log.append(("proc", env.now))
            yield env.timeout(1)
        finally:
            res.release(req)

    gc.disable()  # the owners must be freed by reference counting alone
    try:
        a = Holder("a", 2)
        env.process(user())  # claims at its start, behind b
        b = Holder("b", 1)
        refs = [weakref.ref(a), weakref.ref(b)]
        env.run()
        del a, b
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
    assert log == [("a", 0), ("b", 2), ("proc", 3)]
    # process start, two pops per holder, the process's grant and
    # timeout, and its completion
    assert env.events_processed == 8


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_container_get_blocks_until_level():
    env = Environment()
    tank = Container(env, capacity=100, init=0)
    times = []

    def consumer():
        yield tank.get(50)
        times.append(env.now)

    def producer():
        yield env.timeout(2)
        yield tank.put(30)
        yield env.timeout(2)
        yield tank.put(30)

    env.process(consumer())
    env.process(producer())
    env.run()
    assert times == [4]
    assert tank.level == 10


def test_container_put_blocks_at_capacity():
    env = Environment()
    tank = Container(env, capacity=10, init=10)
    log = []

    def putter():
        yield tank.put(5)
        log.append(env.now)

    def getter():
        yield env.timeout(3)
        yield tank.get(5)

    env.process(putter())
    env.process(getter())
    env.run()
    assert log == [3]


def test_container_rejects_bad_args():
    env = Environment()
    with pytest.raises(SimulationError):
        Container(env, capacity=0)
    with pytest.raises(SimulationError):
        Container(env, capacity=10, init=20)
    tank = Container(env, capacity=10)
    with pytest.raises(SimulationError):
        tank.get(-1)
    with pytest.raises(SimulationError):
        tank.put(-1)
