"""Tests for the Fig. 4 kernel front-end: Cashmere / MCL / handles."""

import pytest

from repro.cluster import SimCluster, gtx480_cluster, satin_cpu_cluster
from repro.core import Cashmere, CashmereConfig, CashmereRuntime, MCL
from repro.core.api import KernelHandle
from repro.core.runtime import KernelLaunchError
from repro.mcl import KernelLibrary
from repro.satin import DivideConquerApp, LeafContext, SatinRuntime

SRC = """
perfect void scale(int n, float[n] a) {
  foreach (int i in n threads) {
    a[i] = a[i] * 2.0;
  }
}
"""


class NoopApp(DivideConquerApp):
    name = "noop"

    def is_leaf(self, task):
        return True

    def leaf_flops(self, task):
        return 1.0

    def task_bytes(self, task):
        return 1.0

    def result_bytes(self, task):
        return 1.0


def make_runtime(initialized=True):
    cluster = SimCluster(gtx480_cluster(1))
    lib = KernelLibrary()
    lib.add_source(SRC)
    runtime = CashmereRuntime(cluster, NoopApp(), lib, CashmereConfig())
    if initialized:
        runtime._start_nodes()
        cluster.env.run(until=cluster.env.process(runtime._initialize()))
    return runtime, cluster


def test_get_kernel_returns_handle():
    runtime, cluster = make_runtime()
    ctx = LeafContext(runtime, cluster.node(0))
    kernel = Cashmere.get_kernel(ctx)
    assert isinstance(kernel, KernelHandle)
    assert kernel.name == "scale"


def test_get_kernel_before_init_fails():
    runtime, cluster = make_runtime(initialized=False)
    ctx = LeafContext(runtime, cluster.node(0))
    with pytest.raises(KeyError, match="no compiled kernel"):
        Cashmere.get_kernel(ctx)


def test_get_kernel_requires_cashmere_runtime():
    cluster = SimCluster(satin_cpu_cluster(1))
    runtime = SatinRuntime(cluster, NoopApp())
    ctx = LeafContext(runtime, cluster.node(0))
    with pytest.raises(KernelLaunchError, match="CashmereRuntime"):
        Cashmere.get_kernel(ctx)


def test_kernel_launch_is_single_use():
    runtime, cluster = make_runtime()
    env = cluster.env
    ctx = LeafContext(runtime, cluster.node(0))
    kernel = Cashmere.get_kernel(ctx)
    kl = kernel.create_launch()

    def run():
        yield from MCL.launch(kl, {"n": 1024}, h2d_bytes=4096, d2h_bytes=4096)

    env.run(until=env.process(run()))

    def rerun():
        yield from MCL.launch(kl, {"n": 1024})

    with pytest.raises(KernelLaunchError, match="single-use"):
        env.run(until=env.process(rerun()))


def test_launch_releases_memory_and_reservation():
    runtime, cluster = make_runtime()
    env = cluster.env
    dev = cluster.node(0).devices[0]
    ctx = LeafContext(runtime, cluster.node(0))

    def run():
        kl = Cashmere.get_kernel(ctx).create_launch()
        yield from MCL.launch(kl, {"n": 1024}, h2d_bytes=1e6, d2h_bytes=1e6)

    env.run(until=env.process(run()))
    assert dev.free_memory == dev.spec.mem_bytes
    assert dev.pending_work_s == 0.0
    assert dev.launch_counts["scale"] == 1


def test_oversized_launch_raises_and_leaks_nothing():
    """A launch whose buffers exceed device memory fails fast: no hang on
    an impossible free, no leaked scheduler reservation."""
    runtime, cluster = make_runtime()
    env = cluster.env
    dev = cluster.node(0).devices[0]
    mem = dev.spec.mem_bytes
    ctx = LeafContext(runtime, cluster.node(0))

    def run():
        kl = Cashmere.get_kernel(ctx).create_launch()
        yield from MCL.launch(kl, {"n": 1024}, h2d_bytes=mem, d2h_bytes=mem)

    env.process(run())
    with pytest.raises(MemoryError):
        env.run(until=5.0)  # bounded: a hung launch must fail, not stall
    assert dev.free_memory == mem
    assert dev.pending_work_s == 0.0
    assert not dev.memory._putters  # no free() stuck above capacity


def test_released_device_handle_rejects_use():
    runtime, cluster = make_runtime()
    env = cluster.env
    ctx = LeafContext(runtime, cluster.node(0))

    def run():
        handle = Cashmere.get_kernel(ctx).get_device()
        yield from handle.copy_to_device(1024)
        handle.release()
        handle.release()  # idempotent
        try:
            yield from handle.copy_to_device(1024)
        except KernelLaunchError:
            return "rejected"
        return "accepted"

    assert env.run(until=env.process(run())) == "rejected"


def test_pinned_launch_shares_scheduler_reservation():
    runtime, cluster = make_runtime()
    env = cluster.env
    dev = cluster.node(0).devices[0]
    ctx = LeafContext(runtime, cluster.node(0))

    def run():
        kernel = Cashmere.get_kernel(ctx)
        handle = kernel.get_device()
        reserved_mid = None
        for _ in range(2):
            kl = kernel.create_launch(device=handle)
            yield from MCL.launch(kl, {"n": 1024})
            reserved_mid = dev.pending_work_s
        handle.release()
        return reserved_mid

    mid = env.run(until=env.process(run()))
    # While pinned, the reservation persists; release() clears it.
    assert mid > 0.0
    assert dev.pending_work_s == 0.0
