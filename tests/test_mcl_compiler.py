"""Tests for the MCL compiler: analysis, feedback, translation, codegen."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.kmeans import KMeansApp
from repro.apps.matmul import MatmulApp
from repro.apps.nbody import NBodyApp
from repro.apps.raytracer import RaytracerApp
from repro.devices import device_spec
from repro.mcl import (
    analyze_cost,
    derive_launch_config,
    generate_opencl,
    get_feedback,
    is_optimized_for,
    leaf_names,
    parse_kernel,
    translate,
)
from repro.mcl.compiler.analysis import cost_params
from repro.mcl.compiler.efficiency import estimate_efficiency
from repro.mcl.compiler.translate import TranslationError
from repro.mcl.hdl import get_description
from repro.mcl.mcpl.interpreter import execute
from repro.mcl.mcpl.semantics import analyze
from repro.mcl.verify import render_json, verify_kernel
from repro.mcl.verify.intervals import analyze_intervals

MATMUL_PERFECT = """
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

VECTOR_SCALE = """
perfect void scale(int n, float[n] a) {
  foreach (int i in n threads) {
    a[i] = a[i] * 2.0;
  }
}
"""


# --------------------------------------------------------------------------
# static cost analysis
# --------------------------------------------------------------------------

def test_matmul_flop_count():
    analysis = analyze_cost(parse_kernel(MATMUL_PERFECT),
                            {"n": 64, "m": 64, "p": 64})
    # 2 flops (mul+add) per k-iteration per (i,j), plus the final += per cell.
    expected = 64 * 64 * (64 * 2 + 1)
    assert analysis.flops == pytest.approx(expected)


def test_matmul_naive_traffic_is_per_access():
    n = 32
    analysis = analyze_cost(parse_kernel(MATMUL_PERFECT),
                            {"n": n, "m": n, "p": n})
    # Every a/b element read goes to global memory: 2 reads * 4 bytes per k.
    assert analysis.global_bytes >= n * n * n * 8


def test_matmul_parallelism_is_2d_product():
    analysis = analyze_cost(parse_kernel(MATMUL_PERFECT),
                            {"n": 16, "m": 8, "p": 4})
    assert analysis.parallelism == 16 * 8


def test_straight_line_kernel_has_zero_divergence():
    analysis = analyze_cost(parse_kernel(VECTOR_SCALE), {"n": 100})
    assert analysis.divergence == 0.0


def test_data_dependent_branch_creates_divergence():
    src = """
    perfect void f(int n, float[n] a) {
      foreach (int i in n threads) {
        if (a[i] > 0.5) { a[i] = sqrt(a[i]) + 1.0; }
        else { a[i] = a[i] * 2.0; }
      }
    }
    """
    analysis = analyze_cost(parse_kernel(src), {"n": 100})
    assert analysis.divergence > 0.5


def test_missing_params_rejected():
    with pytest.raises(ValueError, match="missing parameter"):
        analyze_cost(parse_kernel(VECTOR_SCALE), {})


def test_local_accesses_not_charged_to_global():
    tiled = """
    gpu void f(int n, float[n] a, float[n] out) {
      foreach (int b in n / 16 blocks) {
        local float[16] tile;
        for (int t = 0; t < 16; t++) { tile[t] = a[b * 16 + t]; }
        foreach (int t in 16 threads) {
          float acc = 0.0;
          for (int k = 0; k < 16; k++) { acc += tile[k]; }
          out[b * 16 + t] = acc;
        }
      }
    }
    """
    analysis = analyze_cost(parse_kernel(tiled), {"n": 256})
    # Global traffic: one staging read + one result write per element; the
    # 16x reuse happens in local memory.
    assert analysis.global_bytes == pytest.approx(256 * 4 * 2)
    assert analysis.local_bytes > analysis.global_bytes


# --------------------------------------------------------------------------
# cost-relevant parameters (the slice the kernel cost cache keys on)
# --------------------------------------------------------------------------

@pytest.mark.parametrize("app, expected", [
    # row0, seed and h reach only float_cast'ed ray math and the RNG state
    (RaytracerApp, ("no", "nrows", "ns", "w")),
    (NBodyApp, ("n", "nl")),              # dt only scales velocities
    (KMeansApp, ("d", "nk", "np")),
    (MatmulApp, ("m", "n", "p")),
])
@pytest.mark.parametrize("optimized", [False, True])
def test_app_kernel_cost_params(app, expected, optimized):
    lib = app.build_library(optimized=optimized)
    (name,) = lib.kernel_names()
    for leaf in leaf_names():
        info = lib.compile(name, leaf).leaf_info
        names = [p.name for p in info.kernel.scalar_params]
        assert cost_params(info, names) == expected, leaf


# One kernel per sink kind.  ``k`` never reaches a sink in any of them.
SINK_KERNELS = {
    "foreach-count": ("""
    perfect void f(int n, int k, float[16] a) {
      foreach (int i in n threads) { a[0] = float_cast(k); }
    }
    """, ("n",)),
    "for-bound-via-div-locals": ("""
    perfect void f(int n, int k, float[16] a) {
      foreach (int i in 4 threads) {
        int half = n / 2;
        int stop = half + 1;
        for (int j = 0; j < stop; j++) { a[0] += float_cast(k); }
      }
    }
    """, ("n",)),
    "if-on-param-local": ("""
    perfect void f(int n, int k, float[16] a) {
      foreach (int i in 16 threads) {
        int lim = n - 1;
        if (i < lim) { a[i] = 2.0 * float_cast(k); }
      }
    }
    """, ("n",)),
    "array-param-dim": ("""
    perfect void f(int m, int k, float[m] a) {
      foreach (int i in 16 threads) { a[i] = float_cast(k); }
    }
    """, ("m",)),
    "opaque-locals": ("""
    perfect void f(int n, int k, int s, float[n] a) {
      foreach (int i in 8 threads) {
        float x = float_cast(k + i) / 4.0;
        float y = a[s] + 1.0;
        for (int t = 0; t < 8; t++) {
          if (x > y) { a[i] = x; }
        }
      }
    }
    """, ("n",)),
}


@pytest.mark.parametrize("case", sorted(SINK_KERNELS))
def test_sink_kernel_cost_params_are_exact(case):
    src, expected = SINK_KERNELS[case]
    info = analyze(parse_kernel(src))
    names = [p.name for p in info.kernel.scalar_params]
    assert cost_params(info, names) == expected
    base = {name: 6 for name in names}
    for name in names:
        other = analyze_cost(info, {**base, name: 11})
        if name in expected:
            assert other != analyze_cost(info, base), name   # a real sink
        else:
            assert other == analyze_cost(info, base), name


def test_cost_params_depend_on_the_passed_names():
    # ``x`` never binds as a local (float_cast), but a passed ``x`` is bound
    # by the walker and then decides the branch.
    info = analyze(parse_kernel("""
    perfect void f(int n, int k, float[16] a) {
      foreach (int i in 8 threads) {
        float x = float_cast(k);
        if (x > 2.0) { a[i] = sqrt(x); }
      }
    }
    """))
    assert cost_params(info, ["n", "k"]) == ()
    assert cost_params(info, ["n", "k", "x"]) == ("x",)
    base = {"n": 4, "k": 1, "x": 1}
    assert analyze_cost(info, base) != analyze_cost(info, {**base, "x": 3})
    assert analyze_cost(info, base) == analyze_cost(
        info, {**base, "n": 9, "k": 7})


# Generated kernels: int locals built from the parameters with + - * / %
# min, never-bound float locals, nested for/if and array writes, under one
# top-level foreach that translation decomposes.  Expressions mostly read
# the newest names, so locals chain through one another into the sinks:
# dropping either the closure through locals or the bindable-locals
# fixpoint from ``cost_params`` fails this property.
_INT_PARAMS = ("p0", "p1", "p2", "p3")
_STMT_KINDS = ("int", "int", "opaque", "for", "if", "write")
_EXPR_KINDS = ("lit", "name", "name", "op", "op", "min")


@st.composite
def _cost_kernels(draw):
    fresh = iter(range(1000))

    def int_expr(ints, depth=0):
        kind = draw(st.sampled_from(_EXPR_KINDS[:3] if depth == 2
                                    else _EXPR_KINDS))
        if kind == "lit":
            return str(draw(st.integers(0, 9)))
        if kind == "name":
            return draw(st.sampled_from(ints[-2:] if draw(st.integers(0, 3))
                                        else ints))
        left, right = int_expr(ints, depth + 1), int_expr(ints, depth + 1)
        if kind == "min":
            return f"min({left}, {right})"
        return f"({left} {draw(st.sampled_from('++--**/%'))} {right})"

    def condition(ints, floats):
        kind = draw(st.integers(0, 3 if floats else 2))
        if kind == 3:                      # data-dependent: never bound
            return f"{draw(st.sampled_from(floats))} > 0.5"
        cmp = draw(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
        cond = f"{int_expr(ints)} {cmp} {int_expr(ints)}"
        if kind == 2:
            cond = f"{cond} {draw(st.sampled_from(['&&', '||']))} " \
                   f"{int_expr(ints)} < {int_expr(ints)}"
        return cond

    def write(ints, floats):
        value = draw(st.sampled_from(floats + ["2.0 * q"]))
        return f"a[{int_expr(ints)}] += {value};"

    def block(ints, floats, depth):
        lines = []
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(_STMT_KINDS if depth < 3
                                        else _STMT_KINDS[:3]))
            n = next(fresh)
            if kind == "int":
                lines.append(f"int v{n} = {int_expr(ints)};")
                ints = ints + [f"v{n}"]
            elif kind == "opaque":
                init = draw(st.sampled_from([
                    f"float_cast({int_expr(ints)}) * q",
                    f"a[{int_expr(ints)}] + 1.0"]))
                lines.append(f"float f{n} = {init};")
                floats = floats + [f"f{n}"]
            elif kind == "for":
                var = f"j{n}"
                cond = f"{var} {draw(st.sampled_from(['<', '<=']))} " \
                       f"{int_expr(ints)}"
                if draw(st.booleans()):
                    cond += f" && {var} < {int_expr(ints)}"
                step = draw(st.sampled_from(["++", f" += {int_expr(ints)}"]))
                lines.append(f"for (int {var} = {int_expr(ints)}; {cond}; "
                             f"{var}{step}) {{")
                lines += block(ints + [var], floats, depth + 1)
                lines += [write(ints + [var], floats), "}"]
            elif kind == "if":
                lines.append(f"if ({condition(ints, floats)}) {{")
                lines += block(ints, floats, depth + 1)
                if draw(st.booleans()):
                    lines.append("} else {")
                    lines += block(ints, floats, depth + 1)
                lines.append("}")
            else:
                lines.append(write(ints, floats))
        return lines

    ints = list(_INT_PARAMS)
    top = []
    for n in range(draw(st.integers(2, 3))):
        top.append(f"int t{n} = {int_expr(ints)};")
        ints.append(f"t{n}")
    return "\n".join([
        "perfect void g(int p0, int p1, int p2, int p3, float q, "
        f"float[{int_expr(list(_INT_PARAMS))}] a) {{",
        *top,
        f"foreach (int i in {int_expr(ints)} threads) {{",
        *block(ints + ["i"], [], 1), "}", "}"])


_LAUNCH_PARAMS = st.fixed_dictionaries({
    **{name: st.integers(-2, 40) for name in _INT_PARAMS},
    "q": st.sampled_from([0.25, 0.5, 2.0])})
#: the leaf each level's estimate is judged against; the untranslated
#: ``perfect`` kernel gets the AMD leaf, which the other two levels miss
_JUDGED_ON = {"perfect": "hd7970", "gtx480": "gtx480", "xeon_phi": "xeon_phi"}


@given(src=_cost_kernels(), params=_LAUNCH_PARAMS, fresh=_LAUNCH_PARAMS)
@settings(max_examples=150, deadline=None)
def test_launches_agreeing_on_cost_params_cost_the_same(src, params, fresh):
    kernel = parse_kernel(src)
    for level, device in _JUDGED_ON.items():
        info = analyze(translate(kernel, level), get_description(level))
        relevant = cost_params(info, params)
        other = {**fresh, **{name: params[name] for name in relevant}}
        spec = device_spec(device)
        first = analyze_cost(info, params)
        second = analyze_cost(info, other)
        assert first == second, (level, relevant)
        assert (estimate_efficiency(info, first, spec, params)
                == estimate_efficiency(info, second, spec, other)), level


# --------------------------------------------------------------------------
# feedback (stepwise refinement)
# --------------------------------------------------------------------------

def test_perfect_level_kernel_gets_no_feedback_at_its_level():
    # At level perfect the compiler knows nothing about the hardware.
    assert get_feedback(parse_kernel(MATMUL_PERFECT)) == []
    assert is_optimized_for(parse_kernel(MATMUL_PERFECT))


def test_gpu_level_matmul_gets_local_memory_feedback():
    gpu_matmul = MATMUL_PERFECT.replace("perfect void", "gpu void")
    items = get_feedback(parse_kernel(gpu_matmul))
    codes = [i.code for i in items]
    assert "use-local-memory" in codes


def test_tiled_gpu_kernel_resolves_local_memory_feedback():
    tiled = """
    gpu void f(int n, float[n] a, float[n] out) {
      foreach (int b in n / 16 blocks) {
        local float[16] tile;
        for (int t = 0; t < 16; t++) { tile[t] = a[b * 16 + t]; }
        foreach (int t in 16 threads) {
          out[b * 16 + t] = tile[t];
        }
      }
    }
    """
    codes = [i.code for i in get_feedback(parse_kernel(tiled))]
    assert "use-local-memory" not in codes


@pytest.mark.parametrize("src", [
    pytest.param("""
    gpu void transpose_bad(int n, float[n,n] a, float[n,n] out) {
      foreach (int i in n threads) {
        foreach (int j in n threads) {
          out[j,i] = a[i,j];
        }
      }
    }
    """, id="transpose"),
    # the strided read sits in a `for` initializer, not in the loop body
    pytest.param("""
    gpu void f(int n, float[n,n] m, float[n] out) {
      foreach (int i in n threads) {
        float s = 0.0;
        for (int k = int_cast(m[i, 0]); k < n; k += 1) { s = s + 1.0; }
        out[i] = s;
      }
    }
    """, id="for-header"),
])
def test_uncoalesced_access_detected(src):
    codes = [i.code for i in get_feedback(parse_kernel(src))]
    assert "uncoalesced-access" in codes


def test_mic_level_requests_vectorization():
    src = """
    mic void f(int n, float[n] a) {
      foreach (int c in 60 cores) {
        foreach (int t in 4 threads) {
          a[c * 4 + t] = 1.0;
        }
      }
    }
    """
    codes = [i.code for i in get_feedback(parse_kernel(src))]
    assert "vectorize-inner-loop" in codes


def test_mic_vectorized_kernel_is_clean():
    src = """
    mic void f(int n, float[n] a) {
      foreach (int c in n / 64 cores) {
        foreach (int t in 4 threads) {
          foreach (int v in 16 vectors) {
            a[c * 64 + t * 16 + v] = 1.0;
          }
        }
      }
    }
    """
    codes = [i.code for i in get_feedback(parse_kernel(src))]
    assert "vectorize-inner-loop" not in codes


def test_nvidia_divergence_feedback():
    src = """
    nvidia void f(int n, float[n] a) {
      foreach (int i in n threads) {
        if (a[i] > 0.0) { a[i] = 0.0; }
      }
    }
    """
    codes = [i.code for i in get_feedback(parse_kernel(src))]
    assert "divergent-control-flow" in codes


def test_working_set_check_needs_params():
    big = """
    accelerator void f(int n, float[n,n] a) {
      foreach (int i in n threads) { a[i,0] = 0.0; }
    }
    """
    kernel = parse_kernel(big)
    # 32768^2 floats = 4 GiB > 1 GiB accelerator memory.
    codes = [i.code for i in get_feedback(kernel, {"n": 32768})]
    assert "working-set-too-large" in codes
    codes_small = [i.code for i in get_feedback(kernel, {"n": 1024})]
    assert "working-set-too-large" not in codes_small


# --------------------------------------------------------------------------
# translation
# --------------------------------------------------------------------------

def test_translate_relabels_level():
    out = translate(parse_kernel(MATMUL_PERFECT), "gtx480")
    assert out.level == "gtx480"


def test_translate_preserves_semantics_gpu():
    kernel = parse_kernel(VECTOR_SCALE)
    translated = translate(kernel, "gtx480")
    a0 = np.arange(10.0)
    a1 = a0.copy()
    execute(kernel, 10, a0)
    execute(translated, 10, a1)
    np.testing.assert_allclose(a0, a1)


def test_translate_preserves_semantics_matmul_on_k20():
    kernel = parse_kernel(MATMUL_PERFECT)
    translated = translate(kernel, "k20")
    rng = np.random.default_rng(1)
    n = 4
    a = rng.random((n, n))
    b = rng.random((n, n))
    c0 = np.zeros((n, n))
    c1 = np.zeros((n, n))
    execute(kernel, n, n, n, c0, a, b)
    execute(translated, n, n, n, c1, a, b)
    np.testing.assert_allclose(c0, c1)


def test_translate_preserves_semantics_xeon_phi():
    kernel = parse_kernel(VECTOR_SCALE)
    translated = translate(kernel, "xeon_phi")
    assert translated.level == "xeon_phi"
    a0 = np.arange(1000.0)
    a1 = a0.copy()
    execute(kernel, 1000, a0)
    execute(translated, 1000, a1)
    np.testing.assert_allclose(a0, a1)


def test_translate_to_gpu_introduces_blocks():
    translated = translate(parse_kernel(VECTOR_SCALE), "gpu")
    from repro.mcl.mcpl.semantics import analyze
    from repro.mcl.hdl import get_description
    info = analyze(translated, get_description("gpu"))
    assert "blocks" in info.units_used


def test_translate_upward_rejected():
    gpu_kernel = parse_kernel(VECTOR_SCALE.replace("perfect", "gpu"))
    with pytest.raises(TranslationError):
        translate(gpu_kernel, "perfect")


def test_translate_across_branches_rejected():
    gpu_kernel = parse_kernel(VECTOR_SCALE.replace("perfect", "nvidia"))
    with pytest.raises(TranslationError):
        translate(gpu_kernel, "hd7970")


def test_translate_same_level_is_identity_copy():
    kernel = parse_kernel(VECTOR_SCALE)
    out = translate(kernel, "perfect")
    assert out is not kernel
    assert out.level == "perfect"


# --------------------------------------------------------------------------
# codegen
# --------------------------------------------------------------------------

def test_opencl_generation_structure():
    translated = translate(parse_kernel(MATMUL_PERFECT), "gtx480")
    src = generate_opencl(translated)
    assert "__kernel void matmul" in src
    assert "__global float* c" in src
    assert "get_group_id(0)" in src
    assert "get_local_id(0)" in src


def test_opencl_linearizes_multidim_access():
    src = generate_opencl(parse_kernel(MATMUL_PERFECT))
    # a[i,k] with declared dims [n,p] must linearize with stride p.
    assert "a[(i) * (p) + (k)]" in src.replace("  ", " ") or "* (p) +" in src


def test_opencl_local_memory_qualifier():
    tiled = """
    gpu void f(int n, float[n] a) {
      foreach (int b in n / 16 blocks) {
        local float[16] tile;
        foreach (int t in 16 threads) { tile[t] = a[b * 16 + t]; }
      }
    }
    """
    src = generate_opencl(parse_kernel(tiled))
    assert "__local float tile[(16)];" in src


def test_launch_config_for_translated_kernel():
    translated = translate(parse_kernel(VECTOR_SCALE), "gtx480")
    cfg = derive_launch_config(translated, {"n": 10000})
    # ceil(10000/256)=40 blocks of 256 threads
    assert cfg.local_size == (256,)
    assert cfg.global_size == (40 * 256,)
    assert cfg.work_groups == 40


def test_launch_config_untranslated_uses_global_dims():
    cfg = derive_launch_config(parse_kernel(MATMUL_PERFECT),
                               {"n": 512, "m": 128, "p": 64})
    assert cfg.global_size == (512, 128)


def test_launch_config_coarser_on_xeon_phi():
    gpu = derive_launch_config(translate(parse_kernel(VECTOR_SCALE), "gtx480"),
                               {"n": 1 << 20})
    phi = derive_launch_config(translate(parse_kernel(VECTOR_SCALE), "xeon_phi"),
                               {"n": 1 << 20})
    # The Phi runs 240 fat work-items; the GPU a million fine ones.
    assert phi.work_items < gpu.work_items / 100


# --------------------------------------------------------------------------
# golden hash: the compiler's outputs on the builtin kernels are frozen
# --------------------------------------------------------------------------
#
# One sha256 over what the compiler and the verifier say about the shipped
# kernels, with every scalar parameter bound to GOLDEN_PARAM_VALUE:
# - per app, {unoptimized, optimized} library, kernel and leaf device: the
#   OpenCL text, the launch profile and the leaf-level feedback;
# - per kernel version: the verifier's findings before inline suppressions,
#   the feedback without and with parameters, and the cost parameters.
# A refactor of the AST traversal, the cost walker or the verifier that
# changes any of these by one character must be reverted or consciously
# re-golden-ed with a changelog note.

COMPILER_GOLDEN_HASH = \
    "1df30b753b3a81d956e63cdd7cb0c658909940d5a9eab07eeeb1200dd6a845ea"
GOLDEN_PARAM_VALUE = 256


def _builtin_versions():
    """``(app/name@level, version)`` for every builtin kernel version.

    The optimized library of each app holds the versions of both sources.
    """
    for app in (MatmulApp, KMeansApp, NBodyApp, RaytracerApp):
        lib = app.build_library(optimized=True)
        for name in lib.kernel_names():
            for level, version in lib.versions(name).items():
                yield f"{app.name}/{name}@{level}", version


def _compiler_outputs():
    def scalars(info):
        return {p.name: GOLDEN_PARAM_VALUE for p in info.kernel.scalar_params}

    def feedback(info, params=None):
        return [str(item) for item in get_feedback(info, params)]

    out = {}
    for app in (MatmulApp, KMeansApp, NBodyApp, RaytracerApp):
        for optimized in (False, True):
            lib = app.build_library(optimized=optimized)
            for name in lib.kernel_names():
                for leaf in leaf_names():
                    compiled = lib.compile(name, leaf)
                    params = scalars(compiled.leaf_info)
                    out[f"{app.name}/{optimized}/{name}/{leaf}"] = {
                        "opencl": compiled.opencl_source,
                        "profile": repr(compiled.profile(params)),
                        "feedback": feedback(compiled.leaf_info, params),
                    }
    for key, version in _builtin_versions():
        params = scalars(version.info)
        out[key] = {
            "verify": render_json(verify_kernel(version.info)),
            "feedback": feedback(version.info),
            "feedback_params": feedback(version.info, params),
            "cost_params": list(cost_params(version.info, params)),
        }
    return out


def test_compiler_outputs_match_golden():
    outputs = _compiler_outputs()
    assert len(outputs) == 4 * 2 * len(leaf_names()) + 11
    digest = hashlib.sha256(
        json.dumps(outputs, sort_keys=True).encode()).hexdigest()
    assert digest == COMPILER_GOLDEN_HASH, (
        "the compiler's or the verifier's output on the builtin kernels "
        "changed; it is no longer identical to the committed golden")


# The golden above pins the verifier's findings only, so a change to the
# interval analysis that loosened a bound without crossing a dimension
# would still pass it.  This one pins every access record of every builtin
# kernel version: the array, line and write flag, each dimension's index
# expression, interval and polynomial, and the guard facts at the access.

INTERVALS_GOLDEN_HASH = \
    "b3d220a339f4248f8b85e27d4da37181d0db78ef9963aeeddd37e2c43af714cc"


def _interval_records():
    def record(rec):
        return {"array": rec.array, "line": rec.line, "write": rec.write,
                "dims": [[str(idx), repr(iv), repr(poly)]
                         for idx, iv, poly in rec.dims],
                "facts": [[repr(lhs), repr(bound)] for lhs, bound in rec.facts]}

    return {key: [record(rec) for rec in analyze_intervals(version.info).accesses]
            for key, version in _builtin_versions()}


def test_interval_records_match_golden():
    records = _interval_records()
    assert len(records) == 11
    digest = hashlib.sha256(
        json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert digest == INTERVALS_GOLDEN_HASH, (
        "the interval analysis's access records on the builtin kernels "
        "changed; they are no longer identical to the committed golden")
