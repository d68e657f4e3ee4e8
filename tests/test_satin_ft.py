"""Tests for the extracted fault-tolerance layer (repro.satin.ft)."""

import numpy as np
import pytest

from repro.apps import matmul
from repro.cluster import SimCluster, satin_cpu_cluster
from repro.satin import RuntimeConfig, SatinRuntime
from repro.satin.ft import FaultTolerance
from repro.satin.job import Job

from test_satin_runtime import TreeSum, expected_sum


def _runtime(nodes=3, **cfg):
    cluster = SimCluster(satin_cpu_cluster(nodes))
    runtime = SatinRuntime(cluster, TreeSum(leaf_size=16),
                           RuntimeConfig(seed=3, **cfg))
    return cluster, runtime


# --------------------------------------------------------------------------
# orphan table
# --------------------------------------------------------------------------


def test_orphan_table_record_and_take():
    cluster, runtime = _runtime()
    ft = runtime.ft
    assert isinstance(ft, FaultTolerance)
    job = Job(task=(0, 8), origin_rank=0, depth=1, manycore=False,
              done=cluster.env.event(), id=5)
    ft.record_stolen(job)
    assert ft.take_stolen(5) is job
    assert ft.take_stolen(5) is None  # claimed exactly once


def test_crash_fails_in_flight_requests_via_comm():
    """crash_node routes through CommLayer.fail_pending_to: nothing stays
    pending toward the dead rank (the membership-service model)."""
    cluster, runtime = _runtime()
    env = cluster.env
    log = {}

    def probe():
        # open a request to node 2, then crash it mid-flight
        channel = runtime.comm.channel(0)
        from repro.satin.comm import StealRequest
        reply = yield from channel.request(
            2, lambda rid: StealRequest(req_id=rid, thief=0), nbytes=64)
        log["reply"] = reply
        log["pending"] = runtime.comm.pending_to(2)

    def crasher():
        yield env.timeout(1e-4)
        runtime.crash_node(2)

    env.process(crasher())
    env.run(until=env.process(probe()))
    assert log == {"reply": None, "pending": 0}


def test_silent_crash_recovered_by_reply_timeout():
    """notify_comm=False models a failure the membership service misses: a
    thief's in-flight request is only rescued by the comm layer's
    reply-timeout + bounded-retry path, and the run still completes with
    the correct answer (orphans are re-executed)."""
    cluster = SimCluster(satin_cpu_cluster(4))
    runtime = SatinRuntime(
        cluster, TreeSum(leaf_size=16, flops_per_item=1e7),
        RuntimeConfig(seed=3, steal_reply_timeout_s=0.01,
                      steal_reply_retries=1))
    runtime.ft.crash_after(2, delay=0.02)
    # replace the normal crash with a silent one at the same instant
    orig = runtime.ft.crash_node
    runtime.ft.crash_node = lambda rank, notify_comm=True: orig(
        rank, notify_comm=False)
    result = runtime.run((0, 2048))
    assert result.result == expected_sum(2048)
    assert cluster.node(2).crashed
    # nothing left pending toward the dead node: timeouts drained it
    assert runtime.comm.pending_to(2) == 0


def test_crash_node_delegates_preserve_public_behavior():
    cluster = SimCluster(satin_cpu_cluster(3))
    runtime = SatinRuntime(
        cluster, TreeSum(leaf_size=16, flops_per_item=1e7),
        RuntimeConfig(seed=3))
    with pytest.raises(ValueError, match="master"):
        runtime.crash_node(0)
    runtime.ft.crash_after(1, delay=0.02)
    result = runtime.run((0, 2048))
    assert result.result == expected_sum(2048)
    assert cluster.node(1).crashed


# --------------------------------------------------------------------------
# idempotence of crash handling (regression: serve-layer churn and in-job
# fault injection may both report the same dead node)
# --------------------------------------------------------------------------


def test_crash_node_twice_is_idempotent():
    """A second crash_node for the same rank must not re-interrupt,
    double-requeue orphans, double-increment counters or re-emit the
    crash event."""
    cluster = SimCluster(satin_cpu_cluster(4), obs_enabled=True)
    runtime = SatinRuntime(
        cluster, TreeSum(leaf_size=16, flops_per_item=1e7),
        RuntimeConfig(seed=3))

    def double_crash():
        yield cluster.env.timeout(0.02)
        runtime.crash_node(2)
        runtime.crash_node(2)  # duplicate report (e.g. churn + membership)
        yield cluster.env.timeout(0.005)
        runtime.crash_node(2)  # late duplicate, after the notify latency

    cluster.env.process(double_crash())
    result = runtime.run((0, 2048))
    assert result.result == expected_sum(2048)
    crash_events = [ev for ev in cluster.obs.events if ev.kind == "crash"]
    assert len(crash_events) == 1
    # every orphan requeue is unique: no job id re-queued by the same crash
    requeues = [ev.fields["job_id"] for ev in cluster.obs.events
                if ev.kind == "orphan_requeue"]
    assert len(requeues) == len(set(requeues))
    assert result.stats.orphans_requeued == len(requeues)


def test_fail_pending_to_twice_is_idempotent():
    cluster, runtime = _runtime()
    env = cluster.env
    log = {}

    def probe():
        channel = runtime.comm.channel(0)
        from repro.satin.comm import StealRequest
        reply = yield from channel.request(
            2, lambda rid: StealRequest(req_id=rid, thief=0), nbytes=64)
        log["reply"] = reply

    def failer():
        yield env.timeout(1e-4)
        log["first"] = runtime.comm.fail_pending_to(2)
        log["second"] = runtime.comm.fail_pending_to(2)

    env.process(failer())
    env.run(until=env.process(probe()))
    assert log["first"] == 1
    assert log["second"] == 0  # second call finds nothing pending
    assert log["reply"] is None
    assert runtime.comm.pending_to(2) == 0


def test_silent_crash_then_membership_notification_drains_pending():
    """A silent crash followed by a later membership notification for the
    same rank must still fail the pending requests (regression: the old
    early-return skipped fail_pending_to entirely on the second call,
    leaving the request pending forever when no reply timeout is set)."""
    cluster, runtime = _runtime()  # no steal_reply_timeout_s configured
    env = cluster.env
    log = {}

    def probe():
        channel = runtime.comm.channel(0)
        from repro.satin.comm import StealRequest
        reply = yield from channel.request(
            2, lambda rid: StealRequest(req_id=rid, thief=0), nbytes=64)
        log["reply"] = reply

    def crasher():
        yield env.timeout(1e-4)
        runtime.ft.crash_node(2, notify_comm=False)   # partition: silent
        yield env.timeout(1e-3)
        runtime.ft.crash_node(2, notify_comm=True)    # membership catches up

    env.process(crasher())
    env.run(until=env.process(probe()))
    assert log == {"reply": None}
    assert runtime.comm.pending_to(2) == 0


def test_requests_opened_after_notification_fail_fast():
    """Once the membership service reported a rank dead, a *new* request to
    it resolves None immediately instead of hanging."""
    cluster, runtime = _runtime()
    env = cluster.env
    log = {}

    def probe():
        yield env.timeout(1e-3)
        runtime.comm.fail_pending_to(2)
        from repro.satin.comm import StealRequest
        channel = runtime.comm.channel(0)
        reply = yield from channel.request(
            2, lambda rid: StealRequest(req_id=rid, thief=0), nbytes=64)
        log["reply"] = reply
        log["pending"] = runtime.comm.pending_to(2)

    env.run(until=env.process(probe()))
    assert log == {"reply": None, "pending": 0}


def test_orphans_requeued_at_origin_after_notify_latency():
    cluster = SimCluster(satin_cpu_cluster(4))
    runtime = SatinRuntime(
        cluster, TreeSum(leaf_size=16, flops_per_item=1e7),
        RuntimeConfig(seed=3))
    runtime.crash_after(2, delay=0.02)
    result = runtime.run((0, 2048))
    assert result.stats.orphans_requeued > 0
    # the orphan table holds no entries stolen by the dead rank anymore
    assert all(job.thief_rank != 2
               for job in runtime.ft.stolen_out.values())


def _matmul_run(crash=None):
    app = matmul.small_app(n=256, leaf_block=32, seed=1)
    runtime = SatinRuntime(SimCluster(satin_cpu_cluster(4)), app,
                           RuntimeConfig(seed=5))
    if crash is not None:
        runtime.crash_after(*crash)
    return app, runtime.run(app.root_task())


@pytest.mark.parametrize("rank, fraction", [(1, 0.25), (2, 0.3), (3, 0.4)])
def test_reexecuted_matmul_leaf_writes_its_block_once(rank, fraction):
    """A thief that crashes after computing a stolen leaf has the job
    re-executed as an orphan, so that leaf's block of C is computed twice.
    C must still come out as in the crash-free run, not with the block
    added twice."""
    clean_app, clean = _matmul_run()
    app, result = _matmul_run((rank, fraction * clean.stats.makespan_s))
    assert result.stats.orphans_requeued > 0
    assert result.result == clean.result
    assert np.array_equal(app.data[2], clean_app.data[2])
