"""Invariant tests for the hot paths: zero-process transfers, batched
leaf execution, and the engine's ``run(until=...)`` boundary.

The seeded obs streams themselves are locked by the golden hashes in
``tests/test_obs_determinism.py``; these tests check the properties the
hot paths must keep whatever the schedule.
"""

from __future__ import annotations

from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import kmeans, matmul, nbody
from repro.sim.engine import Environment, Timeout
from repro.sim.network import QDR_INFINIBAND, Network

#: slack for comparing sums of float virtual times
_EPS = 1e-12


# ----------------------------------------------------------------------
# property: transfer invariants under random contention
# ----------------------------------------------------------------------
#: (src, dst, nbytes granularity, start-delay granularity, blocking?)
_sends = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2),
              st.integers(0, 2 ** 20), st.integers(0, 200),
              st.booleans()),
    min_size=1, max_size=12,
).filter(lambda sends: any(s != d for s, d, *_ in sends))


@settings(max_examples=60, deadline=None)
@given(_sends)
def test_transmit_invariants(sends):
    env = Environment()
    env.obs.enabled = True
    spec = QDR_INFINIBAND
    net = Network(env, spec)
    endpoints = [net.attach(i) for i in range(3)]

    def sender(index, src, dst, nbytes, delay_us, blocking):
        yield Timeout(env, delay_us * 1e-6)
        if blocking:
            yield from net.transmit(endpoints[src], dst, "msg", index,
                                    float(nbytes))
        else:
            net.post(endpoints[src], dst, "msg", index, float(nbytes))

    sent = {}
    for index, (src, dst, nbytes, delay_us, blocking) in enumerate(sends):
        if src == dst:
            continue
        sent[index] = (src, dst, nbytes)
        env.process(sender(index, src, dst, nbytes, delay_us, blocking))
    env.run()

    # Every sent message lands exactly once, in its destination mailbox.
    landed = Counter()
    for ep in endpoints:
        for msg in ep.mailbox:
            src, dst, nbytes = sent[msg.payload]
            assert (msg.src, msg.dst, ep.rank) == (src, dst, dst)
            assert msg.nbytes == nbytes
            # No transfer beats an uncontended one.
            assert (msg.recv_time - msg.send_time
                    >= spec.transfer_time(nbytes) - _EPS)
            landed[msg.payload] += 1
    assert landed == Counter(sent.keys())

    # Byte and message counters close.
    total = sum(nbytes for _src, _dst, nbytes in sent.values())
    assert sum(ep.bytes_sent for ep in endpoints) == total
    assert sum(ep.bytes_received for ep in endpoints) == total
    assert net.total_bytes == total
    assert sum(ep.messages_sent for ep in endpoints) == len(sent)
    assert sum(ep.messages_received for ep in endpoints) == len(sent)
    assert net.total_messages == len(sent)

    # The NIC is exclusive: a sender's serializations never overlap.
    for ep in endpoints:
        intervals = sorted((ev.start, ev.fields["nbytes"])
                           for ev in env.obs.by_kind("send")
                           if ev.node == ep.rank)
        for (start, nbytes), (next_start, _) in zip(intervals,
                                                    intervals[1:]):
            serialize = (spec.per_message_overhead_s
                         + nbytes / spec.bandwidth_bps)
            assert next_start >= start + serialize - _EPS


# ----------------------------------------------------------------------
# property: a leaf's value does not depend on which batch computes it
# ----------------------------------------------------------------------
def _round_leaves(app, task):
    """The leaf tasks of one subtask round, in task order."""
    if app.is_leaf(task):
        return [task]
    return [leaf for child in app.divide(task)
            for leaf in _round_leaves(app, child)]


@st.composite
def _real_apps(draw):
    """(build, side_effects) for a real-data k-means, matmul or n-body app
    of drawn size and seed; ``build()`` returns a fresh app ready for one
    round of leaves."""
    seed = draw(st.integers(0, 2 ** 16))
    kind = draw(st.sampled_from(["kmeans", "matmul", "nbody"]))
    if kind == "kmeans":
        k = draw(st.integers(1, 8))
        n = draw(st.integers(k, 256))
        return partial(kmeans.small_app, n_points=n, k=k,
                       d=draw(st.integers(1, 12)),
                       leaf_points=draw(st.integers(1, n)),
                       seed=seed), lambda app: ()
    if kind == "matmul":
        leaf = draw(st.integers(1, 32))
        return partial(matmul.small_app, n=leaf * 2 ** draw(st.integers(0, 3)),
                       leaf_block=leaf, seed=seed), lambda app: (app.data[2],)
    n = draw(st.integers(1, 256))
    leaf = draw(st.integers(1, n))

    def build():
        app = nbody.small_app(n_bodies=n, leaf_bodies=leaf, seed=seed)
        app._prepare_iteration()
        return app

    return build, lambda app: (app._staged_pos, app._staged_vel)


def _assert_same(got, want):
    if isinstance(want, (tuple, list)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same(g, w)
    elif isinstance(want, np.ndarray):
        assert np.array_equal(got, want)
    else:
        assert got == want


@settings(max_examples=100, deadline=None)
@given(_real_apps(), st.data())
def test_leaf_batch_split_invariant(app_case, data):
    """The schedule decides which pending leaves one ``leaf_batch`` call
    computes, so deferral is exact only if any split of a round's leaves,
    in any completion order, gives the values and side effects of
    computing one leaf per call."""
    build, side_effects = app_case
    single = build()
    leaves = _round_leaves(single, single.root_task())
    want = [single.leaf_batch([t])[0] for t in leaves]

    batched = build()
    order = data.draw(st.permutations(range(len(leaves))))
    cuts = data.draw(st.lists(st.booleans(), min_size=len(leaves) - 1,
                              max_size=len(leaves) - 1))
    batches = [[order[0]]]
    for i, cut in zip(order[1:], cuts):
        if cut:
            batches.append([])
        batches[-1].append(i)
    got = [None] * len(leaves)
    for batch in batches:
        values = batched.leaf_batch([leaves[i] for i in batch])
        for i, value in zip(batch, values):
            got[i] = value

    _assert_same(got, want)
    _assert_same(side_effects(batched), side_effects(single))


# ----------------------------------------------------------------------
# byte counters stay exact for integral payload sizes
# ----------------------------------------------------------------------
def test_byte_counters_exact_for_integral_sizes():
    env = Environment()
    net = Network(env, QDR_INFINIBAND)
    a, b = net.attach(0), net.attach(1)

    def go():
        # float accumulation would lose the +1 at this magnitude
        # (2.0**53 + 1.0 == 2.0**53)
        yield from net.transmit(a, 1, "big", None, float(2 ** 53))
        yield from net.transmit(a, 1, "one", None, 1.0)

    env.process(go())
    env.run()
    assert a.bytes_sent == 2 ** 53 + 1
    assert b.bytes_received == 2 ** 53 + 1
    assert net.total_bytes == 2 ** 53 + 1
    assert isinstance(a.bytes_sent, int)


# ----------------------------------------------------------------------
# run(until=<number>) boundary: events exactly at stop_at are processed
# ----------------------------------------------------------------------
def test_run_until_number_boundary():
    env = Environment()
    fired = []

    def proc():
        yield Timeout(env, 1.0)
        fired.append(env.now)
        yield Timeout(env, 1.0)   # lands exactly at stop_at
        fired.append(env.now)
        yield Timeout(env, 0.5)   # beyond stop_at: must NOT run
        fired.append(env.now)

    env.process(proc())
    env.run(until=2.0)
    assert fired == [1.0, 2.0]
    assert env.now == 2.0
    # The clock lands on stop_at even when no event sits there.
    env.run(until=2.25)
    assert env.now == 2.25
    assert fired == [1.0, 2.0]
    # Resuming past the boundary delivers the deferred event.
    env.run(until=3.0)
    assert fired == [1.0, 2.0, 2.5]
    assert env.now == 3.0
    # Running into the past is refused.
    from repro.sim.engine import SimulationError
    with pytest.raises(SimulationError):
        env.run(until=1.0)
