"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import SimCluster, satin_cpu_cluster
from repro.core.scheduler import DeviceScheduler
from repro.devices import (
    DEVICE_SPECS,
    KernelProfile,
    SimDevice,
    device_spec,
    kernel_time,
    transfer_time,
)
from repro.mcl import analyze_cost, execute, parse_kernel
from repro.mcl.kernels import effective_device_bytes
from repro.satin.job import Job
from repro.satin.queues import WorkDeque
from repro.sim import Environment, NetworkSpec
from repro.sim.engine import first_of
from repro.util.tables import format_table

# --------------------------------------------------------------------------
# simulation engine
# --------------------------------------------------------------------------


@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
                min_size=1, max_size=20))
def test_timeouts_fire_in_nondecreasing_time_order(delays):
    env = Environment()
    order = []

    def waiter(d):
        yield env.timeout(d)
        order.append(env.now)

    for d in delays:
        env.process(waiter(d))
    env.run()
    assert order == sorted(order)
    assert len(order) == len(delays)


@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
                min_size=1, max_size=10))
def test_allof_completes_at_max_anyof_at_min(delays):
    """Waiting for all of the timeouts (each in turn: one already processed
    resumes the waiter at once) ends at the latest; ``first_of`` ends at
    the earliest."""
    env = Environment()
    times = {}

    def all_waiter():
        for timeout in [env.timeout(d) for d in delays]:
            yield timeout
        times["all"] = env.now

    def any_waiter():
        yield first_of(env, *[env.timeout(d) for d in delays])
        times["any"] = env.now

    env.process(all_waiter())
    env.process(any_waiter())
    env.run()
    assert times["all"] == max(delays)
    assert times["any"] == min(delays)


# --------------------------------------------------------------------------
# work deque: owner pops LIFO, thieves steal FIFO
# --------------------------------------------------------------------------


@given(st.lists(st.sampled_from(["push", "pop", "steal"]), max_size=60))
def test_work_deque_matches_list_model(ops):
    env = Environment()
    deque = WorkDeque(env)
    model = []
    counter = [0]
    for op in ops:
        if op == "push":
            counter[0] += 1
            job = Job(task=counter[0], origin_rank=0, done=env.event())
            deque.push(job)
            model.append(job.task)
        elif op == "pop":
            got = deque.pop()
            want = model.pop() if model else None
            assert (got.task if got else None) == want
        else:
            got = deque.steal()
            want = model.pop(0) if model else None
            assert (got.task if got else None) == want
    assert [j.task for j in deque.items] == model


# --------------------------------------------------------------------------
# intra-node scheduler: the min-makespan choice really minimizes makespan
# --------------------------------------------------------------------------


@given(
    st.lists(st.sampled_from(sorted(DEVICE_SPECS)), min_size=1, max_size=4),
    st.lists(st.floats(min_value=1e-4, max_value=1.0, allow_nan=False),
             min_size=4, max_size=4),
    st.lists(st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
             min_size=4, max_size=4),
)
def test_scheduler_choice_is_makespan_optimal(names, times, pendings):
    env = Environment()
    devices = []
    for i, name in enumerate(names):
        dev = SimDevice(env, device_spec(name), "node0", index=i)
        dev.measured_times["k"] = times[i]
        dev.pending_work_s = pendings[i]
        devices.append(dev)
    decision = DeviceScheduler().choose(devices, "k")
    # Brute force: the chosen device's makespan must be minimal.
    def makespan_if(chosen):
        return max(d.pending_work_s - (decision.predicted_s if d is decision.device else 0)
                   + (d.measured_times["k"] if d is chosen else 0)
                   for d in devices)
    best = min(makespan_if(d) for d in devices)
    assert decision.makespan_s <= best + 1e-12


@given(st.integers(min_value=1, max_value=40))
def test_scheduler_reservations_balance_out(njobs):
    env = Environment()
    k20 = SimDevice(env, device_spec("k20"), "node0", 0)
    phi = SimDevice(env, device_spec("xeon_phi"), "node0", 1)
    k20.measured_times["k"] = 0.1
    phi.measured_times["k"] = 0.4
    sched = DeviceScheduler()
    decisions = [sched.choose([k20, phi], "k") for _ in range(njobs)]
    for d in decisions:
        sched.job_finished(d)
    assert k20.pending_work_s < 1e-9
    assert phi.pending_work_s < 1e-9


# --------------------------------------------------------------------------
# performance model
# --------------------------------------------------------------------------


@given(
    st.floats(min_value=1.0, max_value=1e15, allow_nan=False),
    st.floats(min_value=1.0, max_value=1e12, allow_nan=False),
    st.sampled_from(sorted(DEVICE_SPECS)),
)
def test_kernel_time_positive_and_monotone(flops, nbytes, device):
    spec = device_spec(device)
    prof = KernelProfile(name="k", flops=flops, device_bytes=nbytes,
                         compute_efficiency=0.5, memory_efficiency=0.5)
    t = kernel_time(prof, spec)
    assert t > 0
    bigger = KernelProfile(name="k", flops=flops * 2, device_bytes=nbytes,
                           compute_efficiency=0.5, memory_efficiency=0.5)
    assert kernel_time(bigger, spec) >= t


@given(st.floats(min_value=0.01, max_value=1.0, allow_nan=False))
def test_profile_scaling_is_linear(fraction):
    prof = KernelProfile(name="k", flops=1e9, device_bytes=1e6,
                         compute_efficiency=0.5, memory_efficiency=0.5,
                         h2d_bytes=100.0, d2h_bytes=50.0)
    scaled = prof.scaled(fraction)
    assert scaled.flops == 1e9 * fraction
    assert scaled.h2d_bytes == 100.0 * fraction
    assert scaled.compute_efficiency == prof.compute_efficiency


@given(st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
       st.sampled_from(sorted(DEVICE_SPECS)))
def test_transfer_time_monotone(nbytes, device):
    spec = device_spec(device)
    assert transfer_time(nbytes, spec) <= transfer_time(nbytes * 2 + 1, spec)


# --------------------------------------------------------------------------
# network spec
# --------------------------------------------------------------------------


@given(st.floats(min_value=1e6, max_value=1e11, allow_nan=False),
       st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
       st.floats(min_value=0.0, max_value=1e9, allow_nan=False))
def test_transfer_time_at_least_latency(bw, lat, nbytes):
    spec = NetworkSpec("t", bandwidth_bps=bw, latency_s=lat)
    assert spec.transfer_time(nbytes) >= lat


# --------------------------------------------------------------------------
# MCPL interpreter vs numpy on random shapes
# --------------------------------------------------------------------------

MATMUL = """
perfect void matmul(int n, int m, int p,
    float[n,m] c, float[n,p] a, float[p,m] b) {
  foreach (int i in n threads) {
    foreach (int j in m threads) {
      float sum = 0.0;
      for (int k = 0; k < p; k++) {
        sum += a[i,k] * b[k,j];
      }
      c[i,j] += sum;
    }
  }
}
"""
_MATMUL_AST = parse_kernel(MATMUL)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8),
       st.integers(0, 2 ** 31 - 1))
def test_interpreter_matmul_matches_numpy_any_shape(n, m, p, seed):
    rng = np.random.default_rng(seed)
    a = rng.random((n, p))
    b = rng.random((p, m))
    c = np.zeros((n, m))
    execute(_MATMUL_AST, n, m, p, c, a, b)
    np.testing.assert_allclose(c, a @ b, rtol=1e-10)


# --------------------------------------------------------------------------
# static analysis invariants
# --------------------------------------------------------------------------

SCALE = """
perfect void scale(int n, float[n] a) {
  foreach (int i in n threads) {
    a[i] = a[i] * 2.0 + 1.0;
  }
}
"""
_SCALE_AST = parse_kernel(SCALE)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=1 << 20))
def test_analysis_scales_linearly_with_n(n):
    analysis = analyze_cost(_SCALE_AST, {"n": n})
    assert analysis.flops == 2.0 * n
    assert analysis.global_bytes == 8.0 * n  # one read + one write
    assert 0.0 <= analysis.divergence <= 1.0
    assert analysis.parallelism == n


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=1 << 16),
       st.sampled_from(sorted(DEVICE_SPECS)))
def test_effective_traffic_never_exceeds_analyzed(n, device):
    analysis = analyze_cost(_SCALE_AST, {"n": n})
    eff = effective_device_bytes(analysis, device_spec(device))
    assert 0 <= eff <= analysis.global_bytes + 1e-9


# --------------------------------------------------------------------------
# runtime end-to-end determinism and correctness under random parameters
# --------------------------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=10_000),
       st.sampled_from([16, 32, 64]))
def test_treesum_correct_for_random_configs(nodes, seed, leaf):
    from tests.test_satin_runtime import TreeSum, expected_sum
    from repro.satin import RuntimeConfig, SatinRuntime

    cluster = SimCluster(satin_cpu_cluster(nodes))
    runtime = SatinRuntime(cluster, TreeSum(leaf_size=leaf),
                           RuntimeConfig(seed=seed))
    result = runtime.run((0, 1024))
    assert result.result == expected_sum(1024)


# --------------------------------------------------------------------------
# table formatting
# --------------------------------------------------------------------------


@given(st.lists(st.lists(st.one_of(st.integers(-10**6, 10**6),
                                   st.floats(allow_nan=False,
                                             allow_infinity=False,
                                             min_value=-1e6, max_value=1e6),
                                   st.text(
                                       alphabet=st.characters(
                                           whitelist_categories=("Lu", "Ll",
                                                                 "Nd")),
                                       max_size=8)),
                         min_size=2, max_size=2),
                min_size=1, max_size=8))
def test_format_table_rows_align(rows):
    text = format_table(["first", "second"], rows)
    lines = text.splitlines()
    assert len(lines) == 2 + len(rows)
    width = len(lines[0])
    # Header/separator/rows all padded to consistent column boundaries.
    sep = lines[1]
    assert set(sep) <= {"-", " "}
