"""Tests for the typed message-protocol layer (repro.satin.comm)."""

import pytest

from repro.cluster import SimCluster, satin_cpu_cluster
from repro.satin import RuntimeConfig, SatinRuntime
from repro.satin.comm import (
    CommLayer,
    ResultReturn,
    RuntimeInfo,
    SharedObjectUpdate,
    StealReply,
    StealRequest,
)
from repro.satin.job import Job

from test_satin_runtime import TreeSum, expected_sum


def test_wire_tags_are_the_historical_strings():
    """The tag/shape pairing is the protocol's stability contract: traces
    stay comparable across runtime versions."""
    assert StealRequest.WIRE_TAG == "steal_request"
    assert StealReply.WIRE_TAG == "steal_reply"
    assert ResultReturn.WIRE_TAG == "result"
    assert SharedObjectUpdate.WIRE_TAG == "shared_update"
    assert RuntimeInfo.WIRE_TAG == "runtime-info"


def _two_node_layer(**layer_kwargs):
    cluster = SimCluster(satin_cpu_cluster(2))
    env = cluster.env
    layer = CommLayer(env, **layer_kwargs)
    ch0 = layer.attach(cluster.node(0).endpoint)
    ch1 = layer.attach(cluster.node(1).endpoint)
    ch0.start_pump()
    ch1.start_pump()
    return cluster, env, layer, ch0, ch1


def test_duplicate_attach_rejected():
    cluster = SimCluster(satin_cpu_cluster(2))
    layer = CommLayer(cluster.env)
    layer.attach(cluster.node(0).endpoint)
    with pytest.raises(ValueError, match="already has a channel"):
        layer.attach(cluster.node(0).endpoint)


def test_request_reply_roundtrip():
    cluster, env, layer, ch0, ch1 = _two_node_layer()

    def serve(msg):
        env.process(ch1.send(
            msg.thief, StealReply(req_id=msg.req_id, job=None), nbytes=64))

    ch1.on(StealRequest, serve)
    ch0.on(StealReply,
           lambda msg: layer.resolve(msg.req_id, ("served", msg.req_id)))

    def thief():
        reply = yield from ch0.request(
            1, lambda rid: StealRequest(req_id=rid, thief=0), nbytes=64)
        return reply

    reply = env.run(until=env.process(thief()))
    assert reply == ("served", 0)
    assert layer.pending_to(1) == 0  # bookkeeping cleaned up


def test_request_timeout_with_bounded_retries():
    """An unserved request times out; each retry gets a fresh req_id and
    the caller gets ``None`` after the final attempt."""
    cluster, env, layer, ch0, ch1 = _two_node_layer(
        reply_timeout_s=0.005, reply_retries=2)
    attempt_ids = []
    # node 1 registers no StealRequest handler: requests vanish silently

    def thief():
        reply = yield from ch0.request(
            1, lambda rid: StealRequest(req_id=rid, thief=0), nbytes=64,
            on_attempt=lambda rid, attempt: attempt_ids.append(rid))
        return reply

    start = env.now
    reply = env.run(until=env.process(thief()))
    assert reply is None
    assert attempt_ids == [0, 1, 2]  # 1 try + 2 retries, fresh ids
    assert env.now >= start + 3 * 0.005
    assert layer.pending_to(1) == 0


def test_layer_defaults_apply_to_requests():
    cluster, env, layer, ch0, ch1 = _two_node_layer(
        reply_timeout_s=0.002, reply_retries=1)
    attempts = []

    def thief():
        reply = yield from ch0.request(
            1, lambda rid: StealRequest(req_id=rid, thief=0), nbytes=64,
            on_attempt=lambda rid, attempt: attempts.append(attempt))
        return reply

    assert env.run(until=env.process(thief())) is None
    assert attempts == [0, 1]


def test_fail_pending_to_unblocks_waiters():
    """The membership-service path: failing a dead rank's requests
    resolves them with ``None`` immediately (no timeout needed)."""
    cluster, env, layer, ch0, ch1 = _two_node_layer()

    def thief():
        reply = yield from ch0.request(
            1, lambda rid: StealRequest(req_id=rid, thief=0), nbytes=64)
        return (reply, env.now)

    def crasher():
        yield env.timeout(0.01)
        assert layer.pending_to(1) == 1
        assert layer.fail_pending_to(1) == 1

    env.process(crasher())
    reply, when = env.run(until=env.process(thief()))
    assert reply is None
    assert when == pytest.approx(0.01)


def test_resolve_returns_false_for_unknown_request():
    cluster, env, layer, ch0, ch1 = _two_node_layer()
    assert layer.resolve(12345, "late") is False


def test_dispatch_drops_untyped_and_unhandled_traffic():
    """Raw app broadcasts (below-protocol) and typed messages without a
    handler are both dropped, like the historical message loop."""
    cluster, env, layer, ch0, ch1 = _two_node_layer()
    seen = []
    ch1.on(RuntimeInfo, lambda msg: seen.append(msg.payload))

    def sender():
        # below-protocol: raw payload with an arbitrary tag
        yield from cluster.node(0).endpoint.send(1, "app-bcast",
                                                 payload={"x": 1}, nbytes=10)
        # typed but unhandled on node 1
        yield from ch0.send(1, ResultReturn(job_id=0, result=None),
                            nbytes=10)
        # typed and handled
        yield from ch0.send(1, RuntimeInfo(payload="hello"), nbytes=10)
        yield env.timeout(1.0)

    env.run(until=env.process(sender()))
    assert seen == ["hello"]


def test_stopped_pump_costs_one_inert_pop_then_none():
    """After ``stop_pump`` (a crash) the armed receiver still runs once, at
    the next delivery: one queue pop that runs no handler and re-arms
    nothing.  Later deliveries cost no pop.  Serve places crash injections
    by event count, so that one pop is part of the schedule."""
    cluster, env, layer, ch0, ch1 = _two_node_layer()
    seen = []
    ch1.on(RuntimeInfo, lambda msg: seen.append(msg.payload))
    env.run()  # the pumps' starters arm both receivers

    def pops_to_deliver(payload):
        before = env.events_processed
        ch0.post(1, RuntimeInfo(payload=payload), nbytes=10)
        env.run()
        return env.events_processed - before

    live = pops_to_deliver("live")
    ch1.stop_pump()
    first = pops_to_deliver("first")
    later = [pops_to_deliver("later"), pops_to_deliver("later")]
    assert seen == ["live"]
    assert first == live
    assert later == [live - 1, live - 1]


# --------------------------------------------------------------------------
# runtime integration
# --------------------------------------------------------------------------


def test_late_steal_reply_salvages_job():
    """A reply that arrives after its request was timed out still carries
    the job the victim handed over; the runtime pushes it into the thief's
    deque instead of losing it."""
    cluster = SimCluster(satin_cpu_cluster(2))
    runtime = SatinRuntime(cluster, TreeSum(), RuntimeConfig(seed=1))
    env = cluster.env
    job = Job(task=(0, 8), origin_rank=1, depth=1, manycore=False,
              done=env.event(), id=777)
    # req_id 999 was never opened (== already closed by a timeout)
    runtime._on_steal_reply(cluster.node(0),
                            StealReply(req_id=999, job=job))
    assert runtime.deques[0].pop() is job


def test_reply_timeout_config_reaches_comm_layer():
    cluster = SimCluster(satin_cpu_cluster(2))
    runtime = SatinRuntime(
        cluster, TreeSum(),
        RuntimeConfig(seed=1, steal_reply_timeout_s=0.25,
                      steal_reply_retries=3))
    assert runtime.comm.reply_timeout_s == 0.25
    assert runtime.comm.reply_retries == 3


def test_run_with_reply_timeouts_still_correct():
    """With timeouts enabled, a normal (failure-free) run is unaffected in
    outcome: replies beat the generous timeout."""
    cluster = SimCluster(satin_cpu_cluster(3))
    runtime = SatinRuntime(
        cluster, TreeSum(),
        RuntimeConfig(seed=5, steal_reply_timeout_s=1.0))
    result = runtime.run((0, 1024))
    assert result.result == expected_sum(1024)
    assert result.stats.steal_successes > 0
