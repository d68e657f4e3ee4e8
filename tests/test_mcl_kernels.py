"""Tests for kernel versions, most-specific selection and compilation."""

import numpy as np
import pytest

from repro.apps.raytracer import RaytracerApp
from repro.devices import kernel_gflops, device_spec
from repro.mcl import KernelLibrary, analyze_cost, kernels, leaf_names

PERFECT_MATMUL = """
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

# Tiled gpu version: the threads of a block cooperatively stage 32x32 tiles
# of a and b through local memory (each thread loads one element per tile),
# so global traffic drops by the tile size.  foreach boundaries act as
# work-group barriers.
GPU_MATMUL = """
gpu void matmul(int n, int m, int p,
    float[n,m] c, float[n,p] a, float[p,m] b) {
  foreach (int bi in n / 32 blocks) {
    foreach (int bj in m / 32 blocks) {
      local float[32,32] ta;
      local float[32,32] tb;
      local float[32,32] cacc;
      foreach (int ti in 32 threads) {
        foreach (int tj in 32 threads) {
          cacc[ti,tj] = 0.0;
        }
      }
      for (int kk = 0; kk < p; kk += 32) {
        foreach (int ti in 32 threads) {
          foreach (int tj in 32 threads) {
            ta[ti,tj] = a[bi * 32 + ti, kk + tj];
            tb[ti,tj] = b[kk + ti, bj * 32 + tj];
          }
        }
        foreach (int ti in 32 threads) {
          foreach (int tj in 32 threads) {
            float sum = cacc[ti,tj];
            for (int k = 0; k < 32; k++) {
              sum += ta[ti,k] * tb[k,tj];
            }
            cacc[ti,tj] = sum;
          }
        }
      }
      foreach (int ti in 32 threads) {
        foreach (int tj in 32 threads) {
          c[bi * 32 + ti, bj * 32 + tj] += cacc[ti,tj];
        }
      }
    }
  }
}
"""

HD7970_MATMUL = GPU_MATMUL.replace("gpu void", "hd7970 void")


@pytest.fixture()
def library():
    lib = KernelLibrary()
    lib.add_source(PERFECT_MATMUL)
    return lib


@pytest.fixture()
def multi_version_library():
    lib = KernelLibrary()
    lib.add_source(PERFECT_MATMUL)
    lib.add_source(GPU_MATMUL)
    lib.add_source(HD7970_MATMUL)
    return lib


def test_duplicate_version_rejected(library):
    with pytest.raises(ValueError, match="duplicate"):
        library.add_source(PERFECT_MATMUL)


def test_most_specific_selection_matches_paper(multi_version_library):
    """Sec. III-A: versions at perfect/gpu/hd7970 — the Xeon Phi gets
    perfect, NVIDIA GPUs get gpu, the HD7970 gets its own version."""
    lib = multi_version_library
    assert lib.select_version("matmul", "xeon_phi").level == "perfect"
    for dev in ("gtx480", "k20", "c2050", "gtx680", "titan"):
        assert lib.select_version("matmul", dev).level == "gpu"
    assert lib.select_version("matmul", "hd7970").level == "hd7970"


def test_unknown_kernel_and_device(library):
    with pytest.raises(KeyError, match="no kernel"):
        library.select_version("nope", "k20")
    with pytest.raises(KeyError, match="unknown device"):
        library.compile("matmul", "gtx9000")


def test_compile_all_covers_seven_leaves(library):
    compiled = library.compile_all("matmul")
    assert sorted(compiled) == leaf_names()
    for ck in compiled.values():
        assert "__kernel void matmul" in ck.opencl_source


def test_compile_caches(library):
    a = library.compile("matmul", "k20")
    b = library.compile("matmul", "k20")
    assert a is b


def test_compiled_kernel_executes_correctly(multi_version_library):
    ck = multi_version_library.compile("matmul", "gtx480")
    assert ck.version_level == "gpu"
    n = 32  # one tile
    rng = np.random.default_rng(2)
    a = rng.random((n, n))
    b = rng.random((n, n))
    c = np.zeros((n, n))
    ck.execute(n, n, n, c, a, b)
    np.testing.assert_allclose(c, a @ b, rtol=1e-10)


def test_optimized_version_much_faster_fig6_shape(multi_version_library):
    """Fig. 6: the optimized matmul kernel beats the naive one by a lot."""
    lib = KernelLibrary()
    lib.add_source(PERFECT_MATMUL)
    naive = lib.compile("matmul", "gtx480")
    opt = multi_version_library.compile("matmul", "gtx480")
    params = {"n": 4096, "m": 4096, "p": 4096}
    spec = device_spec("gtx480")
    g_naive = kernel_gflops(naive.profile(params), spec)
    g_opt = kernel_gflops(opt.profile(params), spec)
    assert g_opt > 4 * g_naive
    # Sanity: the optimized kernel is within the device's peak.
    assert g_opt < spec.peak_gflops_sp


def test_profile_respects_device_ratios(multi_version_library):
    """A compute-bound optimized kernel should run ~K20/Phi speed ratio of
    about 4x (Sec. V-C)."""
    lib = multi_version_library
    params = {"n": 4096, "m": 4096, "p": 4096}
    k20 = kernel_gflops(lib.compile("matmul", "k20").profile(params),
                        device_spec("k20"))
    # Phi falls back to the perfect-level version (scalar, unvectorized).
    phi = kernel_gflops(lib.compile("matmul", "xeon_phi").profile(params),
                        device_spec("xeon_phi"))
    assert k20 > 2 * phi


def test_launch_config_through_compiled_kernel(multi_version_library):
    ck = multi_version_library.compile("matmul", "gtx480")
    cfg = ck.launch_config({"n": 1024, "m": 1024, "p": 1024})
    assert cfg.work_items > 0
    assert all(l >= 1 for l in cfg.local_size)


def test_glue_code_lists_selected_versions(multi_version_library):
    glue = multi_version_library.generate_glue("matmul")
    assert "'xeon_phi': 'perfect'" in glue
    assert "'hd7970': 'hd7970'" in glue
    assert "'k20': 'gpu'" in glue


def test_profile_carries_transfer_sizes(library):
    ck = library.compile("matmul", "k20")
    prof = ck.profile({"n": 64, "m": 64, "p": 64},
                      h2d_bytes=1000.0, d2h_bytes=500.0)
    assert prof.h2d_bytes == 1000.0
    assert prof.d2h_bytes == 500.0
    assert prof.flops > 0


RAY_PARAMS = {"w": 64, "h": 64, "row0": 0, "nrows": 16, "ns": 2, "no": 9,
              "seed": 1}


@pytest.fixture()
def raytrace_kernel():
    return RaytracerApp.build_library().compile("raytrace", "k20")


def test_cost_cache_keys_on_cost_relevant_params(raytrace_kernel, monkeypatch):
    analyses = []

    def counting_analyze_cost(info, params):
        analyses.append(params)
        return analyze_cost(info, params)

    monkeypatch.setattr(kernels, "analyze_cost", counting_analyze_cost)
    first = raytrace_kernel.profile(RAY_PARAMS)
    # row0 and seed reach no loop bound or array size: a hit
    assert raytrace_kernel.profile({**RAY_PARAMS, "row0": 48, "seed": 7}) \
        == first
    assert len(analyses) == 1
    # nrows is a foreach count: a miss
    assert raytrace_kernel.profile({**RAY_PARAMS, "nrows": 8}) != first
    assert len(analyses) == 2


def test_warm_cost_cache_still_rejects_missing_params(raytrace_kernel):
    raytrace_kernel.profile(RAY_PARAMS)
    partial = {k: v for k, v in RAY_PARAMS.items() if k != "row0"}
    for _ in range(2):
        with pytest.raises(ValueError, match="missing parameter"):
            raytrace_kernel.profile(partial)
