"""Unit tests for the dataflow core: polynomials, CFG, intervals.

These exercise the shared machinery underneath the lints: the polynomial
normal form, the control-flow graph with reaching definitions and def-use
chains, and the interval abstract interpretation.
"""

from fractions import Fraction

import pytest

from repro.apps.matmul import MatmulApp
from repro.mcl.mcpl.parser import parse_kernel
from repro.mcl.mcpl.semantics import analyze
from repro.mcl.verify import verify_source
from repro.mcl.verify.cfg import build_cfg, def_use_chains, reaching_definitions
from repro.mcl.verify.intervals import IntervalAnalysis, analyze_intervals
from repro.mcl.verify.poly import Poly


def info_of(source):
    return analyze(parse_kernel(source))


# ---------------------------------------------------------------------------
# Poly
# ---------------------------------------------------------------------------

def test_poly_arithmetic_normalizes():
    n = Poly.var("n")
    assert (n + Poly.const(1) - n).constant_value() == Fraction(1)
    assert (n * Poly.const(0)).is_zero()
    assert ((n + n) - n.scale(2)).is_zero()


def test_poly_nonnegativity_assumes_nonnegative_symbols():
    n = Poly.var("n")
    assert n.is_nonnegative()
    assert (n + Poly.const(3)).is_nonnegative()
    assert not (n - Poly.const(1)).is_nonnegative()    # n could be 0
    assert (-n).is_nonpositive()


def test_poly_substitute_and_coefficient():
    n, i = Poly.var("n"), Poly.var("i")
    p = n * Poly.const(2) + i
    assert p.coefficient_of("i").constant_value() == Fraction(1)
    q = p.substitute("i", Poly.const(5))
    assert (q - n.scale(2)).constant_value() == Fraction(5)


def test_expr_to_poly_handles_nonlinear_atoms():
    src = """
    perfect void f(int n, float[n] a) {
      foreach (int i in n threads) {
        a[i * i] = 0.0;  // lint: ignore[MCL201] probe
      }
    }
    """
    info = info_of(src)
    # i * i is not linear: it becomes an opaque atom, but stays stable
    # (the same expression maps to the same atom).
    analysis = analyze_intervals(info)
    assert analysis.accesses          # the access is still recorded


# ---------------------------------------------------------------------------
# CFG: reaching definitions and def-use chains
# ---------------------------------------------------------------------------

BRANCHY = """
perfect void f(int n, float[n] a) {
  foreach (int i in n threads) {
    float x = 1.0;
    if (i < 2) {
      x = 2.0;
    }
    a[i] = x;
  }
}
"""


def test_reaching_definitions_merge_at_join():
    info = info_of(BRANCHY)
    cfg = build_cfg(info)
    in_sets = reaching_definitions(cfg)
    # At the read of x (the a[i] = x node), both definitions of x reach.
    read_nodes = [n for n in cfg.nodes if "x" in n.uses]
    assert read_nodes
    node = read_nodes[-1]
    defs_of_x = {d.def_id for d in cfg.definitions if d.var == "x"}
    assert len(defs_of_x & in_sets[node.index]) == 2


def test_def_use_chains_connect_both_branches():
    info = info_of(BRANCHY)
    cfg = build_cfg(info)
    chains = def_use_chains(cfg, reaching_definitions(cfg))
    for d in cfg.definitions:
        if d.var == "x":
            assert chains[d.def_id], "both defs of x are read at the join"


def test_straightline_kill():
    src = """
    perfect void f(int n, float[n] a) {
      foreach (int i in n threads) {
        float x = 1.0;
        x = 2.0;
        a[i] = x;
      }
    }
    """
    info = info_of(src)
    cfg = build_cfg(info)
    chains = def_use_chains(cfg, reaching_definitions(cfg))
    dead = [d for d in cfg.definitions
            if d.var == "x" and not chains[d.def_id]]
    # the first store (x = 1.0) is killed by the second before any use
    assert len(dead) == 1


# ---------------------------------------------------------------------------
# intervals
# ---------------------------------------------------------------------------

def test_foreach_variable_interval_is_loop_range():
    src = """
    perfect void f(int n, float[n] a) {
      foreach (int i in n threads) {
        a[i] = 0.0;
      }
    }
    """
    analysis = analyze_intervals(info_of(src))
    (rec,) = [r for r in analysis.accesses if r.array == "a"]
    ((_, iv, _),) = rec.dims
    assert iv.nonneg()
    assert iv.bounded_above_by(Poly.var("n") - Poly.const(1))


def test_guard_refines_interval():
    src = """
    perfect void f(int n, int m, float[m] a) {
      foreach (int i in n threads) {
        if (i < m) {
          a[i] = 0.0;
        }
      }
    }
    """
    analysis = analyze_intervals(info_of(src))
    (rec,) = [r for r in analysis.accesses if r.array == "a"]
    ((_, iv, _),) = rec.dims
    assert iv.bounded_above_by(Poly.var("m") - Poly.const(1))


def test_for_loop_bound_is_tracked():
    src = """
    perfect void f(int n, float[n] a) {
      foreach (int i in n threads) {
        for (int k = 0; k < n; k++) {
          a[k] = a[k] + 1.0;  // lint: ignore[MCL101] probe
        }
      }
    }
    """
    analysis = analyze_intervals(info_of(src))
    recs = [r for r in analysis.accesses if r.array == "a"]
    assert len(recs) == 2     # one read, one write: the last pass only
    for rec in recs:
        ((_, iv, _),) = rec.dims
        assert iv.nonneg()
        assert iv.bounded_above_by(Poly.var("n") - Poly.const(1))


def test_division_upper_bound_floors_constants():
    # x in [0, 1023] => x / 4 in [0, 255]: the rational 1023/4 must floor.
    src = """
    perfect void f(float[256] a) {
      foreach (int i in 1024 threads) {
        a[i / 4] = 0.0;
      }
    }
    """
    from repro.mcl.verify import verify_source
    assert not [f for f in verify_source(src) if f.code == "MCL201"]


# ---------------------------------------------------------------------------
# loop passes: the pass that stops a loop is also its recording pass
# ---------------------------------------------------------------------------

@pytest.fixture
def loop_calls(monkeypatch):
    """Count IntervalAnalysis._loop_body_fix calls (one per loop entry)."""
    calls = []
    fix = IntervalAnalysis._loop_body_fix

    def counted(self, *args, **kwargs):
        calls.append(1)
        return fix(self, *args, **kwargs)

    monkeypatch.setattr(IntervalAnalysis, "_loop_body_fix", counted)
    return calls


def foreach_nest(depth):
    """``depth`` nested foreach loops, each declaring a local."""
    loops = "".join(f"foreach (int i{k} in n threads) {{ int x{k} = i{k};\n"
                    for k in range(depth))
    return (f"perfect void f(int n, float[n] a) {{\n{loops}"
            f"a[x{depth - 1}] = 0.0;\n" + "}" * depth + "\n}\n")


@pytest.mark.parametrize("depth", [2, 4, 6])
def test_foreach_nest_takes_one_pass_per_loop(loop_calls, depth):
    # A body-local declaration is out of scope after the loop, so it does
    # not keep the loop running: each foreach is entered exactly once.
    analysis = analyze_intervals(info_of(foreach_nest(depth)))
    assert len(loop_calls) == depth
    (rec,) = analysis.accesses
    ((_, iv, _),) = rec.dims
    assert iv.nonneg()
    assert iv.bounded_above_by(Poly.var("n") - Poly.const(1))


def test_optimized_matmul_loop_passes_stay_bounded(loop_calls):
    # Every pass of a loop enters each inner loop once, so extra passes
    # multiply with the nesting depth; this source needs 697 loop entries.
    assert not verify_source(MatmulApp.KERNELS_OPTIMIZED)
    assert len(loop_calls) <= 1000
