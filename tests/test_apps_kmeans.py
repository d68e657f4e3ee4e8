"""K-means application: kernel correctness and iterative distributed runs."""

import tracemalloc

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.base import run_cashmere, run_satin
from repro.apps.kmeans import (
    KERNELS_GPU,
    KERNELS_MIC,
    KERNELS_PERFECT,
    KMeansApp,
    _gram_settle,
    _squared_distances,
    nearest_centroid,
    reference_kmeans_iteration,
    small_app,
)
from repro.cluster import ClusterConfig, gtx480_cluster, satin_cpu_cluster
from repro.mcl import execute, parse_kernel


def make_data(n=64, k=8, d=4, seed=3):
    rng = np.random.default_rng(seed)
    points = rng.random((n, d))
    centroids = points[rng.choice(n, size=k, replace=False)].copy()
    return points, centroids


def run_kernel(src, points, centroids, transpose_points=False):
    n, d = points.shape
    k = centroids.shape[0]
    sums = np.zeros((k, d))
    counts = np.zeros(k)
    assign = np.zeros(n, dtype=np.int64)
    pts = np.ascontiguousarray(points.T) if transpose_points else points
    execute(parse_kernel(src), k, d, n, pts, centroids, sums, counts, assign)
    return assign, sums, counts


# The broadcast form the blocked distances must equal bit for bit.  Cases
# are sized so that its (n, k, d) temporary stays under 16 MiB.
BROADCAST_ELEMENTS = 1 << 21

#: Inputs whose rows the Gram pass must leave to the exact pass: points a
#: few ulps off the midpoint of two centroids, NaN or infinite entries in
#: the points or in one centroid, and scales near overflow (a float) or in
#: the subnormal range.  ``None`` leaves the drawn data as it is.
ADVERSARIES = (None, "midpoint", "nonfinite", "centroid",
               1e160, 1e-160, 1e300, 1e-310)


@st.composite
def _distance_cases(draw):
    d = draw(st.integers(1, 260))
    k = draw(st.integers(1, 80))
    n = draw(st.integers(1, min(1500, BROADCAST_ELEMENTS // (k * d))))
    return (n, k, d, draw(st.floats(-3, 3)), draw(st.integers(0, k - 1)),
            draw(st.integers(0, 2 ** 32 - 1)),
            draw(st.sampled_from(ADVERSARIES)))


def _adversarial(adversary, points, centroids, rng):
    """Overwrite rows of ``points`` or ``centroids`` in place."""
    (n, d), k = points.shape, centroids.shape[0]
    if adversary == "midpoint" and k > 1:
        a = rng.integers(k, size=n)
        b = (a + rng.integers(1, k, size=n)) % k
        mid = (centroids[a] + centroids[b]) / 2
        ulps = rng.integers(-4, 5, size=mid.shape)
        for step in range(4):
            nudge = np.abs(ulps) > step
            mid[nudge] = np.nextafter(mid[nudge],
                                      np.copysign(np.inf, ulps[nudge]))
        rows = rng.random(n) < 0.5
        points[rows] = mid[rows]
    elif adversary == "nonfinite":
        hit = rng.random((n, d)) < 0.05
        points[hit] = rng.choice([np.nan, np.inf, -np.inf], size=hit.sum())
    elif adversary == "centroid":
        centroids[rng.integers(k), rng.integers(d)] = rng.choice(
            [np.nan, np.inf, -np.inf])


@settings(deadline=None)
@given(_distance_cases())
@example((1100, 37, 1, 0.0, 5, 1, None))
@example((1100, 37, 7, 2.5, 5, 2, None))
@example((1100, 37, 8, -2.5, 5, 3, None))
@example((1100, 37, 9, 1.0, 5, 4, None))
@example((1100, 37, 16, -1.0, 5, 5, None))
@example((600, 16, 128, 0.0, 3, 6, None))
@example((600, 16, 129, 0.0, 3, 7, None))
@example((600, 16, 136, 3.0, 3, 8, None))
@example((1100, 37, 8, 0.0, 5, 9, "midpoint"))
@example((1100, 37, 8, 0.0, 5, 10, "nonfinite"))
@example((1100, 37, 8, 0.0, 5, 11, "centroid"))
@example((1100, 37, 8, 0.0, 5, 12, 1e160))
@example((1100, 37, 1, 0.0, 5, 13, 1e-160))
@example((1100, 37, 8, 0.0, 5, 14, 1e300))
@example((1100, 37, 8, 0.0, 5, 15, 1e-310))
def test_blocked_numerics_equal_broadcast(case):
    """The blocked distances add in numpy's own order, so they, the
    assignments and the bincount sums are exactly the broadcast's.  A
    numpy that sums in another order fails here, and so does a Gram pass
    that settles a row it has not proven: the adversarial inputs put rows
    within its rounding bound or outside the range the bound covers."""
    n, k, d, exponent, duplicates, seed, adversary = case
    rng = np.random.default_rng(seed)
    scale = adversary if isinstance(adversary, float) else 10.0 ** exponent
    points = rng.standard_normal((n, d)) * scale
    centroids = rng.standard_normal((k, d)) * scale
    # repeated centroids tie exactly; argmin keeps the first
    centroids[k - duplicates:] = centroids[:duplicates]
    _adversarial(adversary, points, centroids, rng)
    with np.errstate(all="ignore"):
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assign = d2.argmin(axis=1)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assign, points)

        got = _squared_distances(points, np.ascontiguousarray(centroids.T))
        assert np.array_equal(got, d2, equal_nan=True)
        assert np.array_equal(nearest_centroid(points, centroids), assign)
        got_assign, got_sums, got_counts = reference_kmeans_iteration(
            points, centroids)
    assert np.array_equal(got_assign, assign)
    assert np.array_equal(got_sums, sums, equal_nan=True)
    assert np.array_equal(got_counts, np.bincount(assign, minlength=k))


def test_gram_pass_leaves_only_ties_to_the_exact_pass():
    """On Gaussian blobs shaped like the kmeans-real workload (k = 64,
    d = 8, sigma = 0.05) the Gram pass settles every row of three Lloyd
    iterations.  Rows whose nearest centroid is duplicated tie exactly, so
    they, and only they, are left to the exact pass."""
    rng = np.random.default_rng(43)
    k, d, n = 64, 8, 1 << 15
    centers = rng.random((k, d))
    points = (centers[rng.integers(k, size=n)]
              + 0.05 * rng.standard_normal((n, d)))
    centroids = points[rng.choice(n, size=k, replace=False)].copy()
    for _ in range(3):
        _, refine = _gram_settle(points, np.ascontiguousarray(centroids.T))
        assert refine.size == 0
        _, sums, counts = reference_kmeans_iteration(points, centroids)
        centroids = np.where(counts[:, None] > 0,
                             sums / np.maximum(counts[:, None], 1.0),
                             centroids)

    centroids[k - 8:] = centroids[:8]
    _, refine = _gram_settle(points, np.ascontiguousarray(centroids.T))
    tied = np.flatnonzero(nearest_centroid(points, centroids) < 8)
    assert tied.size > 0
    assert np.array_equal(refine, tied)


def test_reference_iteration_memory_is_bounded():
    """No (points, k, d) temporary: 2^15 points, k = 64, d = 8 would
    need 128 MiB for one."""
    rng = np.random.default_rng(0)
    points = rng.random((1 << 15, 8))
    centroids = rng.random((64, 8))
    tracemalloc.start()
    try:
        reference_kmeans_iteration(points, centroids)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def test_perfect_kernel_matches_reference():
    points, centroids = make_data()
    assign, sums, counts = run_kernel(KERNELS_PERFECT, points, centroids)
    ref_assign, ref_sums, ref_counts = reference_kmeans_iteration(points, centroids)
    np.testing.assert_array_equal(assign, ref_assign)
    np.testing.assert_allclose(sums, ref_sums, rtol=1e-12)
    np.testing.assert_allclose(counts, ref_counts)


def test_gpu_kernel_matches_reference():
    points, centroids = make_data(n=300, k=20)
    assign, sums, counts = run_kernel(KERNELS_GPU, points, centroids,
                                      transpose_points=True)
    ref_assign, ref_sums, ref_counts = reference_kmeans_iteration(points, centroids)
    np.testing.assert_array_equal(assign, ref_assign)
    np.testing.assert_allclose(sums, ref_sums, rtol=1e-12)
    np.testing.assert_allclose(counts, ref_counts)


def test_mic_kernel_matches_reference():
    points, centroids = make_data(n=300, k=20)
    assign, sums, counts = run_kernel(KERNELS_MIC, points, centroids)
    ref_assign, _, ref_counts = reference_kmeans_iteration(points, centroids)
    np.testing.assert_array_equal(assign, ref_assign)
    np.testing.assert_allclose(counts, ref_counts)


def sequential_iterations(points, centroids, iterations):
    c = centroids.copy()
    history = []
    for _ in range(iterations):
        _, sums, counts = reference_kmeans_iteration(points, c)
        c = np.where(counts[:, None] > 0,
                     sums / np.maximum(counts[:, None], 1.0), c)
        history.append(c.copy())
    return history


def test_end_to_end_cashmere_iterations_match_sequential():
    app = small_app(n_points=2048, k=8, iterations=2, leaf_points=256)
    points = app.data.copy()
    c0 = app.centroids.copy()
    run_cashmere(app, gtx480_cluster(2), app.root_task())
    expected = sequential_iterations(points, c0, 2)
    assert len(app.centroid_history) == 2
    for got, want in zip(app.centroid_history, expected):
        np.testing.assert_allclose(got, want, rtol=1e-10)


def test_end_to_end_satin_iterations_match_sequential():
    app = small_app(n_points=2048, k=8, iterations=2, leaf_points=256)
    points = app.data.copy()
    c0 = app.centroids.copy()
    run_satin(app, satin_cpu_cluster(2), app.root_task())
    expected = sequential_iterations(points, c0, 2)
    for got, want in zip(app.centroid_history, expected):
        np.testing.assert_allclose(got, want, rtol=1e-10)


def test_end_to_end_heterogeneous():
    app = small_app(n_points=2048, k=8, iterations=1, leaf_points=256)
    points = app.data.copy()
    c0 = app.centroids.copy()
    config = ClusterConfig(name="het",
                           nodes=[("gtx480",), ("k20", "xeon_phi")])
    run_cashmere(app, config, app.root_task())
    expected = sequential_iterations(points, c0, 1)
    np.testing.assert_allclose(app.centroid_history[0], expected[0], rtol=1e-10)


def test_iteration_count_respected():
    app = small_app(n_points=1024, k=4, iterations=3, leaf_points=256)
    result = run_cashmere(app, gtx480_cluster(1), app.root_task())
    assert len(app.centroid_history) == 3
    # 3 iterations x 4 leaves each
    assert result.stats.total_leaves == 3 * (1024 // 256)


def test_communication_is_light():
    """O(k) steal/broadcast traffic against O(n*k) computation."""
    app = KMeansApp(n_points=1 << 22, k=64, d=4, iterations=2,
                    leaf_points=1 << 19)
    t = app.root_task()
    # Points are pre-distributed: a stolen task carries only centroids.
    assert app.task_bytes(t) == 4.0 * app.k * app.d + 64.0
    assert app.result_bytes(t) == 4.0 * (app.k * app.d + app.k)
    assert app.leaf_flops(app.divide(t)[0]) > 1e9


def test_library_levels():
    lib = KMeansApp.build_library(optimized=True)
    assert set(lib.versions("kmeans")) == {"perfect", "gpu", "mic"}
    assert lib.select_version("kmeans", "xeon_phi").level == "mic"
    assert lib.select_version("kmeans", "titan").level == "gpu"
