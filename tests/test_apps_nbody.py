"""N-body application: kernel correctness and iterative distributed runs."""

import tracemalloc

import numpy as np

from repro.apps.base import run_cashmere, run_satin
from repro.apps.nbody import (
    KERNELS_GPU,
    KERNELS_MIC,
    KERNELS_PERFECT,
    NBodyApp,
    NBodyTask,
    reference_nbody_step,
    small_app,
)
from repro.cluster import ClusterConfig, gtx480_cluster, satin_cpu_cluster
from repro.mcl import execute, parse_kernel


def make_bodies(n=64, seed=5):
    rng = np.random.default_rng(seed)
    pos = rng.random((n, 4))
    pos[:, 3] = rng.random(n) + 0.5
    vel = rng.standard_normal((n, 4)) * 0.01
    vel[:, 3] = 0.0
    return pos, vel


def run_kernel(src, pos, vel, dt=0.01):
    n = pos.shape[0]
    out = np.zeros_like(pos)
    v = vel.copy()
    execute(parse_kernel(src), n, n, dt, pos.copy(), pos.copy(), v, out)
    return out, v


def test_perfect_kernel_matches_reference():
    pos, vel = make_bodies()
    out, v = run_kernel(KERNELS_PERFECT, pos, vel)
    want_pos, want_vel = reference_nbody_step(pos, vel, 0.01)
    np.testing.assert_allclose(out[:, :3], want_pos[:, :3], rtol=1e-10)
    np.testing.assert_allclose(v[:, :3], want_vel[:, :3], rtol=1e-10)


def test_gpu_kernel_matches_reference():
    pos, vel = make_bodies(n=70)  # not a multiple of the 256-tile
    out, v = run_kernel(KERNELS_GPU, pos, vel)
    want_pos, want_vel = reference_nbody_step(pos, vel, 0.01)
    np.testing.assert_allclose(out[:, :3], want_pos[:, :3], rtol=1e-10)
    np.testing.assert_allclose(v[:, :3], want_vel[:, :3], rtol=1e-10)


def test_mic_kernel_matches_reference():
    pos, vel = make_bodies(n=70)
    out, v = run_kernel(KERNELS_MIC, pos, vel)
    want_pos, _ = reference_nbody_step(pos, vel, 0.01)
    np.testing.assert_allclose(out[:, :3], want_pos[:, :3], rtol=1e-10)


def test_leaf_batch_memory_is_bounded():
    """One call computing all 8 leaves of 1024 bodies: the stacked rows
    are walked in blocks, where a (1024, 1024, 3) broadcast peaks near
    64 MiB."""
    app = small_app(n_bodies=1024, leaf_bodies=128)
    app._prepare_iteration()
    leaves = [NBodyTask(0, lo, lo + 128) for lo in range(0, 1024, 128)]
    tracemalloc.start()
    try:
        app.leaf_batch(leaves)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def sequential_steps(pos, vel, dt, iterations):
    history = []
    p, v = pos.copy(), vel.copy()
    for _ in range(iterations):
        p, v = reference_nbody_step(p, v, dt)
        history.append(p.copy())
    return history


def test_end_to_end_cashmere_matches_sequential():
    app = small_app(n_bodies=256, iterations=2, leaf_bodies=64)
    pos0 = app.data[0].copy()
    vel0 = app.data[1].copy()
    run_cashmere(app, gtx480_cluster(2), app.root_task())
    expected = sequential_steps(pos0, vel0, app.dt, 2)
    assert len(app.history) == 2
    for got, want in zip(app.history, expected):
        np.testing.assert_allclose(got[:, :3], want[:, :3], rtol=1e-9)


def test_end_to_end_satin_matches_sequential():
    app = small_app(n_bodies=256, iterations=2, leaf_bodies=64)
    pos0 = app.data[0].copy()
    vel0 = app.data[1].copy()
    run_satin(app, satin_cpu_cluster(3), app.root_task())
    expected = sequential_steps(pos0, vel0, app.dt, 2)
    for got, want in zip(app.history, expected):
        np.testing.assert_allclose(got[:, :3], want[:, :3], rtol=1e-9)


def test_end_to_end_heterogeneous():
    app = small_app(n_bodies=256, iterations=1, leaf_bodies=64)
    pos0 = app.data[0].copy()
    vel0 = app.data[1].copy()
    config = ClusterConfig(name="het",
                           nodes=[("titan",), ("k20", "xeon_phi")])
    run_cashmere(app, config, app.root_task())
    expected = sequential_steps(pos0, vel0, app.dt, 1)
    np.testing.assert_allclose(app.history[0][:, :3], expected[0][:, :3],
                               rtol=1e-9)


def test_communication_heavier_than_kmeans():
    """O(n) broadcast per iteration (Table II: moderate communication)."""
    from repro.apps.kmeans import KMeansApp
    nb = NBodyApp(n_bodies=1 << 20, leaf_bodies=1 << 14)
    km = KMeansApp(n_points=1 << 20, k=64, d=4, leaf_points=1 << 14)
    # N-body rebroadcasts all positions each iteration: O(n) bytes; k-means
    # only the centroids: O(k) bytes.
    nbody_bcast = nb.n_bodies * 4 * 4.0
    kmeans_bcast = km.k * km.d * 4.0
    assert nbody_bcast > 100 * kmeans_bcast
    # A stolen n-body leaf still moves its own bodies.
    t = nb.divide(nb.root_task())[0]
    assert nb.task_bytes(t) == 4.0 * t.count * 8


def test_library_levels():
    lib = NBodyApp.build_library(optimized=True)
    assert set(lib.versions("nbody")) == {"perfect", "gpu", "mic"}
