"""Invariant tests for the hot paths: zero-process transfers, batched
leaf execution, and the engine's ``run(until=...)`` boundary.

The seeded obs streams themselves are locked by the golden hashes in
``tests/test_obs_determinism.py``; these tests check the properties the
hot paths must keep whatever the schedule.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.base import run_cashmere, run_satin
from repro.apps.kmeans import KMeansApp
from repro.apps.matmul import MatmulApp
from repro.apps.nbody import NBodyApp
from repro.apps.raytracer import RaytracerApp
from repro.cluster.das4 import ClusterConfig
from repro.core.runtime import CashmereConfig
from repro.satin.runtime import RuntimeConfig
from repro.sim.engine import Environment, Timeout
from repro.sim.network import QDR_INFINIBAND, Network
from repro.sweep.spec import ClusterSpec

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
        for msg in ep.mailbox.items:
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
# determinism hashes: leaf_batch on/off for all five seeded apps
# ----------------------------------------------------------------------
def _det_cluster() -> ClusterConfig:
    return ClusterConfig(
        name="det-3",
        nodes=[("gtx480",), ("k20", "xeon_phi"), ("c2050",)])


def _stream_hash(app_name: str, leaf_batch: bool) -> str:
    if app_name == "kmeans":
        app = KMeansApp(n_points=1 << 18, iterations=2, leaf_points=1 << 15)
    elif app_name == "matmul":
        app = MatmulApp(n=2048, leaf_block=512)
    elif app_name == "nbody":
        app = NBodyApp(n_bodies=1 << 14, iterations=2, leaf_bodies=1 << 11)
    elif app_name == "raytracer":
        app = RaytracerApp(width=256, height=128, samples=4, leaf_rows=16)
    else:  # satin-raytracer
        app = RaytracerApp(width=512, height=256, samples=4, leaf_rows=16)
        cluster_config = ClusterSpec(kind="satin_cpu", num_nodes=4).build()
        _res, _rt, cluster = run_satin(
            app, cluster_config, app.root_task(),
            config=RuntimeConfig(seed=42, leaf_batch=leaf_batch),
            obs=True, return_runtime=True)
        return hashlib.sha256(
            cluster.obs.serialize().encode()).hexdigest()
    _res, _rt, cluster = run_cashmere(
        app, _det_cluster(), app.root_task(),
        config=CashmereConfig(seed=42, leaf_batch=leaf_batch),
        obs=True, return_runtime=True)
    return hashlib.sha256(cluster.obs.serialize().encode()).hexdigest()


@pytest.mark.parametrize(
    "app_name", ["kmeans", "matmul", "nbody", "raytracer", "satin-raytracer"])
def test_leaf_batch_stream_hash_invariant(app_name):
    assert _stream_hash(app_name, leaf_batch=True) == \
        _stream_hash(app_name, leaf_batch=False)


# ----------------------------------------------------------------------
# leaf_batch values match the scalar reference bit-for-bit (real data)
# ----------------------------------------------------------------------
def _small_cluster() -> ClusterConfig:
    return ClusterConfig(name="t3", nodes=[(), (), ()])


def test_leaf_batch_values_match_scalar():
    import numpy as np

    from repro.apps import kmeans, matmul, nbody

    for mod, key in ((matmul, "matmul"), (nbody, "nbody"),
                     (kmeans, "kmeans")):
        outputs = []
        for leaf_batch in (True, False):
            app = mod.small_app(seed=3)
            result = run_satin(app, _small_cluster(), app.root_task(),
                               config=RuntimeConfig(seed=7,
                                                    leaf_batch=leaf_batch))
            if key == "matmul":
                outputs.append((result.result, app.data[2].copy()))
            elif key == "nbody":
                outputs.append((result.result, app.data[0].copy(),
                                app.data[1].copy()))
            else:
                outputs.append((app.centroids.copy(),))
        for batched, scalar in zip(*outputs):
            if isinstance(batched, np.ndarray):
                assert np.array_equal(batched, scalar), key
            else:
                assert batched == scalar, key


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
