"""Raytracer application: kernel-vs-reference and end-to-end rendering."""

import numpy as np

from repro.apps.base import run_cashmere, run_satin
from repro.apps.raytracer import (
    KERNELS_GPU,
    KERNELS_PERFECT,
    RaytracerApp,
    cornell_scene,
    reference_trace,
    small_app,
)
from repro.cluster import gtx480_cluster, satin_cpu_cluster
from repro.mcl import analyze_cost, execute, kernels, parse_kernel


def run_kernel(src, w=16, h=8, row0=0, nrows=8, ns=2, seed=1):
    spheres, material = cornell_scene()
    image = np.zeros((nrows, w))
    execute(parse_kernel(src), w, h, row0, nrows, ns, spheres.shape[0],
            seed, spheres, material, image)
    return image


def test_perfect_kernel_matches_reference_exactly():
    spheres, material = cornell_scene()
    image = run_kernel(KERNELS_PERFECT)
    want = reference_trace(16, 8, 0, 8, 2, 1, spheres, material)
    np.testing.assert_allclose(image, want, rtol=0, atol=0)


def test_gpu_version_same_output_as_perfect():
    a = run_kernel(KERNELS_PERFECT)
    b = run_kernel(KERNELS_GPU)
    np.testing.assert_array_equal(a, b)


def test_row_offset_changes_rays():
    top = run_kernel(KERNELS_PERFECT, row0=0)
    bottom = run_kernel(KERNELS_PERFECT, row0=8)
    assert not np.array_equal(top, bottom)


def test_image_receives_light():
    # The ceiling light must illuminate some pixels.
    image = run_kernel(KERNELS_PERFECT, ns=8)
    assert image.max() > 0.0


def test_kernel_is_divergence_bound():
    params = {"w": 1024, "h": 512, "row0": 0, "nrows": 64, "ns": 16,
              "no": 9, "seed": 1}
    analysis = analyze_cost(parse_kernel(KERNELS_PERFECT), params)
    assert analysis.divergence > 0.9


def test_end_to_end_cashmere_renders_full_image(monkeypatch):
    analyses = []

    def counting_analyze_cost(info, params):
        analyses.append(params)
        return analyze_cost(info, params)

    monkeypatch.setattr(kernels, "analyze_cost", counting_analyze_cost)
    app = small_app(width=16, height=16, samples=2, leaf_rows=4)
    run_cashmere(app, gtx480_cluster(2), app.root_task())
    want = reference_trace(16, 16, 0, 16, 2, app.seed, app.spheres,
                           app.material)
    np.testing.assert_allclose(app.image, want)
    # The four leaves run on one device type and differ only in row0, which
    # reaches no loop bound or array size: one cost analysis serves them all.
    assert len(analyses) == 1


def test_end_to_end_satin_renders_full_image():
    app = small_app(width=16, height=16, samples=2, leaf_rows=4)
    run_satin(app, satin_cpu_cluster(2), app.root_task())
    want = reference_trace(16, 16, 0, 16, 2, app.seed, app.spheres,
                           app.material)
    np.testing.assert_allclose(app.image, want)


def test_communication_is_light():
    app = RaytracerApp()
    t = app.divide(app.root_task())[0]
    # Scene upload is tiny; only the pixels come back.
    assert app.task_bytes(t) < 1024
    assert app.result_bytes(t) == 4.0 * t.nrows * app.width


def test_no_mic_version():
    """Divergent code does not vectorize; the Phi gets the perfect kernel."""
    lib = RaytracerApp.build_library(optimized=True)
    assert set(lib.versions("raytrace")) == {"perfect", "gpu"}
    assert lib.select_version("raytrace", "xeon_phi").level == "perfect"
    assert lib.select_version("raytrace", "gtx480").level == "gpu"
