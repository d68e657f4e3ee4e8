"""Tests for the Cashmere runtime: device leaves, many-core mode, overlap."""

import dataclasses

import pytest

from repro.cluster import ClusterConfig, SimCluster, gtx480_cluster
from repro.core import Cashmere, CashmereConfig, CashmereRuntime, MCL
from repro.mcl import KernelLibrary
from repro.obs import Intervals
from repro.satin import DivideConquerApp, RuntimeConfig

SCALE_KERNEL = """
perfect void scale(int n, float[n] a) {
  foreach (int i in n threads) {
    a[i] = a[i] * 2.0 + 1.0;
  }
}
"""


class VecOp(DivideConquerApp):
    """Scales a vector: D&C over index ranges, leaves run the MCL kernel."""

    name = "vecop"

    def __init__(self, leaf_size=1 << 14, manycore_size=1 << 16):
        self.leaf_size = leaf_size
        self.manycore_size = manycore_size

    def is_leaf(self, task):
        lo, hi = task
        return hi - lo <= self.leaf_size

    def is_manycore(self, task):
        lo, hi = task
        return hi - lo <= self.manycore_size

    def divide(self, task):
        lo, hi = task
        mid = (lo + hi) // 2
        return [(lo, mid), (mid, hi)]

    def combine(self, task, results):
        return sum(results)

    def task_bytes(self, task):
        lo, hi = task
        return 4.0 * (hi - lo)

    def result_bytes(self, task):
        lo, hi = task
        return 4.0 * (hi - lo)

    def leaf_flops(self, task):
        lo, hi = task
        return 2.0 * (hi - lo)

    def leaf_result(self, task):
        lo, hi = task
        return hi - lo  # count of processed elements

    def leaf_kernel_name(self, task):
        return "scale"

    def leaf_kernel_params(self, task):
        lo, hi = task
        return {"n": hi - lo}


def make_library():
    lib = KernelLibrary()
    lib.add_source(SCALE_KERNEL)
    return lib


def run_vecop(config_nodes, size=1 << 20, app=None, obs=False, seed=42,
              **cfg):
    cluster = SimCluster(config_nodes, obs_enabled=obs)
    runtime = CashmereRuntime(cluster, app or VecOp(), make_library(),
                              CashmereConfig(seed=seed, **cfg))
    result = runtime.run((0, size))
    return result, runtime, cluster


def test_completes_and_counts_all_elements():
    result, _, _ = run_vecop(gtx480_cluster(2))
    assert result.result == 1 << 20


def test_leaves_run_on_devices():
    result, _, cluster = run_vecop(gtx480_cluster(2))
    launches = sum(d.launch_counts.get("scale", 0)
                   for n in cluster.nodes for d in n.devices)
    assert launches == result.stats.total_leaves
    assert launches == (1 << 20) // (1 << 14)


def test_devices_record_measured_times():
    _, _, cluster = run_vecop(gtx480_cluster(1))
    dev = cluster.node(0).devices[0]
    assert "scale" in dev.measured_times
    assert dev.measured_times["scale"] > 0


def test_manycore_mode_avoids_tiny_cluster_jobs():
    """Spawns below the many-core threshold become local threads, so the
    number of *stealable* jobs is much smaller than the number of leaves."""
    result, runtime, cluster = run_vecop(gtx480_cluster(2))
    spawned = result.stats.registry.get("satin_jobs_spawned_total").total
    assert spawned < result.stats.total_leaves


def test_heterogeneous_node_uses_both_devices():
    config = ClusterConfig(name="het", nodes=[("k20", "xeon_phi")])
    result, _, cluster = run_vecop(config, size=1 << 20)
    k20, phi = cluster.node(0).devices
    assert k20.launch_counts.get("scale", 0) > 0
    assert phi.launch_counts.get("scale", 0) > 0
    # The K20 must take more jobs than the (slower) Phi.
    assert k20.launch_counts["scale"] > phi.launch_counts["scale"]


def test_transfers_overlap_kernels():
    """Sec. II-C3: with multiple device jobs in flight, H2D transfers of one
    job overlap kernel execution of another."""
    result, _, cluster = run_vecop(gtx480_cluster(1), obs=True)
    trace = Intervals(cluster.obs.events)
    kernels = trace.by_kind("kernel")
    h2ds = trace.by_kind("h2d")
    assert kernels and h2ds
    overlapped = any(
        k.start < h.end and h.start < k.end
        for k in kernels for h in h2ds)
    assert overlapped


def test_kernel_time_scales_with_leaf_size():
    _, _, c_small = run_vecop(gtx480_cluster(1), size=1 << 18)
    app_big = VecOp(leaf_size=1 << 16, manycore_size=1 << 18)
    _, _, c_big = run_vecop(gtx480_cluster(1), size=1 << 18, app=app_big)
    t_small = c_small.node(0).devices[0].measured_times["scale"]
    t_big = c_big.node(0).devices[0].measured_times["scale"]
    assert t_big > t_small


def test_cpu_fallback_on_oversized_leaf():
    """A leaf whose working set exceeds device memory falls back to the CPU
    (Fig. 4's catch clause)."""

    class HugeLeaf(VecOp):
        def leaf_h2d_bytes(self, task):
            return 10e9  # > 1.5 GB GTX480 memory

    result, _, cluster = run_vecop(gtx480_cluster(1), size=1 << 16,
                                   app=HugeLeaf(leaf_size=1 << 14,
                                                manycore_size=1 << 15))
    assert result.stats.cpu_fallbacks == result.stats.total_leaves > 0
    assert result.result == 1 << 16


def test_cpu_only_node_still_works():
    config = ClusterConfig(name="mixed", nodes=[("gtx480",), ()])
    result, _, _ = run_vecop(config)
    assert result.result == 1 << 20


def test_get_kernel_without_name_single_kernel():
    _, runtime, cluster = run_vecop(gtx480_cluster(1), size=1 << 16)
    compiled = runtime.get_kernel(cluster.node(0))
    assert "gtx480" in compiled


def test_get_kernel_requires_name_with_multiple_kernels():
    lib = make_library()
    lib.add_source(SCALE_KERNEL.replace("void scale", "void scale2"))
    cluster = SimCluster(gtx480_cluster(1))
    runtime = CashmereRuntime(cluster, VecOp(), lib, CashmereConfig())
    runtime.run((0, 1 << 16))
    with pytest.raises(KeyError, match="exactly one"):
        runtime.get_kernel(cluster.node(0))
    assert runtime.get_kernel(cluster.node(0), "scale")


def test_explicit_fig4_api_in_leaf():
    """A leaf can drive the Kernel/KernelLaunch/MCL.launch API directly."""

    class ExplicitLeaf(VecOp):
        def leaf(self, task, ctx):
            kernel = Cashmere.get_kernel(ctx, "scale")
            kl = kernel.create_launch()
            lo, hi = task
            yield from MCL.launch(kl, {"n": hi - lo},
                                  h2d_bytes=self.leaf_h2d_bytes(task),
                                  d2h_bytes=self.leaf_d2h_bytes(task))
            return hi - lo

        def leaf_kernel_name(self, task):
            raise NotImplementedError  # force the runtime down the leaf() path

    result, _, cluster = run_vecop(gtx480_cluster(1), size=1 << 17,
                                   app=ExplicitLeaf())
    assert result.result == 1 << 17
    assert cluster.node(0).devices[0].launch_counts.get("scale", 0) > 0


def test_device_pinning_for_multi_launch():
    """Kernel.getDevice()/Device.copy() keep data resident across launches."""

    class PinnedLeaf(VecOp):
        def leaf(self, task, ctx):
            lo, hi = task
            kernel = Cashmere.get_kernel(ctx, "scale")
            dev = kernel.get_device()
            yield from dev.copy_to_device(self.task_bytes(task))
            for _ in range(3):
                kl = kernel.create_launch(device=dev)
                yield from MCL.launch(kl, {"n": hi - lo})  # no re-transfer
            yield from dev.copy_from_device(self.result_bytes(task))
            dev.release()
            return hi - lo

        def leaf_kernel_name(self, task):
            raise NotImplementedError

    result, _, cluster = run_vecop(gtx480_cluster(1), size=1 << 17,
                                   app=PinnedLeaf())
    assert result.result == 1 << 17
    dev = cluster.node(0).devices[0]
    # 3 launches per leaf, but only one input transfer per leaf.
    leaves = (1 << 17) // (1 << 14)
    assert dev.launch_counts["scale"] == 3 * leaves
    assert dev.free_memory == dev.spec.mem_bytes  # everything released


def test_gantt_lanes_present():
    from repro.core import gantt_overview, kernel_lanes
    _, _, cluster = run_vecop(gtx480_cluster(2), obs=True)
    trace = Intervals(cluster.obs.events)
    lanes = kernel_lanes(trace)
    assert any("gtx480" in l for l in lanes)
    chart = gantt_overview(trace, width=60)
    assert "#" in chart


def test_out_of_core_streams_oversized_leaf():
    """Extension (paper Sec. VI future work): a leaf whose working set
    exceeds device memory is streamed in pipelined chunks instead of
    falling back to the CPU."""

    class HugeLeaf(VecOp):
        def leaf_h2d_bytes(self, task):
            return 4e9  # > 1.5 GB GTX480 memory

    from repro.cluster import SimCluster
    from repro.core.runtime import CashmereRuntime

    cluster = SimCluster(gtx480_cluster(1), obs_enabled=True)
    app = HugeLeaf(leaf_size=1 << 14, manycore_size=1 << 15)
    runtime = CashmereRuntime(cluster, app, make_library(),
                              CashmereConfig(seed=1, out_of_core=True))
    result = runtime.run((0, 1 << 15))
    assert result.result == 1 << 15
    assert result.stats.cpu_fallbacks == 0
    assert result.stats.out_of_core_launches == result.stats.total_leaves > 0
    dev = cluster.node(0).devices[0]
    # Multiple chunk kernels per leaf, all memory released at the end.
    assert dev.launch_counts.get("scale", 0) > result.stats.total_leaves
    assert dev.free_memory == dev.spec.mem_bytes


def test_out_of_core_streams_oversized_explicit_launch():
    """An explicit MCL.launch honours out_of_core exactly like a leaf."""

    class HugeExplicitLeaf(VecOp):
        def leaf(self, task, ctx):
            lo, hi = task
            kl = Cashmere.get_kernel(ctx, "scale").create_launch()
            yield from MCL.launch(kl, {"n": hi - lo}, h2d_bytes=4e9,
                                  d2h_bytes=self.leaf_d2h_bytes(task))
            return hi - lo

        def leaf_kernel_name(self, task):
            raise NotImplementedError  # force the runtime down the leaf() path

    cluster = SimCluster(gtx480_cluster(1))
    app = HugeExplicitLeaf(leaf_size=1 << 14, manycore_size=1 << 15)
    runtime = CashmereRuntime(cluster, app, make_library(),
                              CashmereConfig(seed=1, out_of_core=True))
    root = runtime.begin((0, 1 << 15))
    cluster.env.run(until=10.0)  # bounded: a hung launch must fail, not stall
    assert root.triggered
    result = runtime.complete(root)
    assert result.result == 1 << 15
    dev = cluster.node(0).devices[0]
    assert dev.launch_counts.get("scale", 0) > result.stats.total_leaves > 0
    assert dev.free_memory == dev.spec.mem_bytes
    assert dev.pending_work_s == 0.0


def test_out_of_core_disabled_falls_back_to_cpu():
    class HugeLeaf(VecOp):
        def leaf_h2d_bytes(self, task):
            return 4e9

    result, _, _ = run_vecop(gtx480_cluster(1), size=1 << 15,
                             app=HugeLeaf(leaf_size=1 << 14,
                                          manycore_size=1 << 15))
    assert result.stats.cpu_fallbacks == result.stats.total_leaves > 0


def test_out_of_core_chunks_pipeline_transfers_with_kernels():
    class HugeLeaf(VecOp):
        def leaf_h2d_bytes(self, task):
            return 4e9

    from repro.cluster import SimCluster
    from repro.core.runtime import CashmereRuntime

    cluster = SimCluster(gtx480_cluster(1), obs_enabled=True)
    app = HugeLeaf(leaf_size=1 << 14, manycore_size=1 << 14)
    runtime = CashmereRuntime(cluster, app, make_library(),
                              CashmereConfig(seed=1, out_of_core=True,
                                             workers_per_node=1))
    runtime.run((0, 1 << 14))  # a single leaf
    trace = Intervals(cluster.obs.events)
    kernels = trace.by_kind("kernel")
    h2ds = trace.by_kind("h2d")
    overlapped = any(k.start < h.end and h.start < k.end
                     for k in kernels for h in h2ds)
    assert overlapped


def test_cashmere_config_is_a_value():
    assert CashmereConfig(scheduler_policy="static") != CashmereConfig()
    text = repr(CashmereConfig())
    assert "scheduler_policy=" in text and "out_of_core=" in text
    cfg = dataclasses.replace(
        CashmereConfig(scheduler_policy="static", out_of_core=True), seed=3)
    assert (cfg.scheduler_policy, cfg.out_of_core, cfg.seed) == \
        ("static", True, 3)
    assert (cfg.workers_per_node, cfg.steal_backoff_max_s) == (4, 0.02)
    base = RuntimeConfig()
    assert (base.workers_per_node, base.steal_backoff_max_s) == (8, 0.1)
