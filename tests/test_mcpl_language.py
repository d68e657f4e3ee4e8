"""Tests for the MCPL lexer, parser, AST traversal and semantic analysis."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mcl.mcpl import (
    McplSemanticError,
    McplSyntaxError,
    analyze,
    ast,
    parse_kernel,
    parse_kernels,
    tokenize,
)

MATMUL_SRC = """
perfect void matmul(int n, int m, int p,
    float[n,m] c,
    float[n,p] a, float[p,m] b) {
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


def test_tokenize_positions_and_kinds():
    toks = tokenize("foreach (int i in n threads)")
    kinds = [t.kind for t in toks]
    assert kinds == ["keyword", "punct", "keyword", "ident", "keyword",
                     "ident", "ident", "punct", "eof"]
    assert toks[0].line == 1 and toks[0].col == 1


def test_tokenize_float_suffix_and_comments():
    toks = tokenize("1.5f // comment\n/* block */ 2")
    assert [t.text for t in toks[:-1]] == ["1.5", "2"]
    assert toks[1].line == 2


def test_tokenize_rejects_garbage():
    with pytest.raises(McplSyntaxError):
        tokenize("a @ b")


def test_parse_paper_matmul_kernel():
    k = parse_kernel(MATMUL_SRC)
    assert k.level == "perfect"
    assert k.name == "matmul"
    assert k.return_type.base == "void"
    assert [p.name for p in k.params] == ["n", "m", "p", "c", "a", "b"]
    assert [p.name for p in k.array_params] == ["c", "a", "b"]
    # c is declared float[n,m]
    c = k.param("c")
    assert c.type.base == "float" and len(c.type.dims) == 2
    # body: foreach > foreach > {decl, for, +=}
    outer = k.body.stmts[0]
    assert isinstance(outer, ast.Foreach) and outer.unit == "threads"
    inner = outer.body.stmts[0] if isinstance(outer.body, ast.Block) else outer.body
    assert isinstance(inner, ast.Foreach)


def test_parse_operator_precedence():
    k = parse_kernel("perfect void f(int x) { int y = 1 + 2 * 3; }")
    decl = k.body.stmts[0]
    assert isinstance(decl.init, ast.Binary) and decl.init.op == "+"
    assert decl.init.right.op == "*"


def test_parse_bitops_for_rng():
    k = parse_kernel(
        "perfect void f(int s) { int t = (s << 13) ^ s; t = t >> 7 & 255; }")
    assert isinstance(k.body.stmts[0], ast.VarDecl)


def test_parse_if_else_and_while():
    k = parse_kernel(
        """
        perfect void f(int n, float[n] a) {
          foreach (int i in n threads) {
            if (a[i] > 0.5) { a[i] = 1.0; } else { a[i] = 0.0; }
            while (a[i] < 0.0) { a[i] += 1.0; }
          }
        }
        """
    )
    fe = k.body.stmts[0]
    body = fe.body
    assert isinstance(body.stmts[0], ast.If)
    assert isinstance(body.stmts[1], ast.While)


def test_parse_increment_forms():
    k = parse_kernel(
        "perfect void f(int n) { for (int i = 0; i < n; i++) { int x = i; } }")
    loop = k.body.stmts[0]
    assert isinstance(loop.step, ast.Assign) and loop.step.op == "+="


def test_parse_multiple_kernels():
    ks = parse_kernels(MATMUL_SRC + "\ngpu void other(int n) { int x = n; }")
    assert [k.name for k in ks] == ["matmul", "other"]


def test_parse_error_reports_position():
    with pytest.raises(McplSyntaxError, match="line"):
        parse_kernel("perfect void f(int n) { foreach }")


def test_parse_trailing_garbage_rejected():
    with pytest.raises(McplSyntaxError, match="trailing"):
        parse_kernel("perfect void f(int n) { } xxx")


# --------------------------------------------------------------------------
# AST traversal: walk / names
# --------------------------------------------------------------------------
#
# Random trees built straight from the node constructors (they need not be
# valid kernels): every Expr and Stmt class, absent (None) children, and
# scalar, array-typed and untyped declarations.  The reference enumerates
# children generically through ``dataclasses.fields``, so a child field that
# ``walk`` does not know about makes the two disagree.

_NAMES = st.sampled_from(["a", "b", "i", "n"])

_LEAF_EXPRS = {
    ast.IntLit: st.builds(ast.IntLit, value=st.integers(0, 9)),
    ast.FloatLit: st.builds(ast.FloatLit, value=st.sampled_from([0.5, 2.0])),
    ast.Var: st.builds(ast.Var, name=_NAMES),
}


def _inner_exprs(children):
    maybe = st.none() | children
    return {
        ast.Index: st.builds(ast.Index, array=_NAMES,
                             indices=st.lists(children, max_size=3)),
        ast.Binary: st.builds(ast.Binary, op=st.just("+"), left=maybe, right=maybe),
        ast.Unary: st.builds(ast.Unary, op=st.just("-"), operand=maybe),
        ast.Call: st.builds(ast.Call, name=st.just("min"),
                            args=st.lists(children, max_size=3)),
    }


_EXPRS = st.recursive(st.one_of(*_LEAF_EXPRS.values()),
                      lambda c: st.one_of(*_inner_exprs(c).values()),
                      max_leaves=6)
_MAYBE_EXPR = st.none() | _EXPRS

_LEAF_STMTS = {
    ast.VarDecl: st.builds(
        ast.VarDecl, name=_NAMES, init=_MAYBE_EXPR,
        type=st.none() | st.builds(ast.Type, base=st.just("float"),
                                   dims=st.lists(_EXPRS, max_size=2))),
    ast.Assign: st.builds(ast.Assign, target=_MAYBE_EXPR, value=_MAYBE_EXPR),
    ast.Return: st.builds(ast.Return, value=_MAYBE_EXPR),
    ast.Break: st.builds(ast.Break),
    ast.Continue: st.builds(ast.Continue),
    ast.ExprStmt: st.builds(ast.ExprStmt, expr=_MAYBE_EXPR),
}


def _inner_stmts(children):
    maybe = st.none() | children
    return {
        ast.Block: st.builds(ast.Block, stmts=st.lists(children, max_size=3)),
        ast.Foreach: st.builds(ast.Foreach, var=_NAMES, count=_MAYBE_EXPR,
                               unit=st.just("threads"), body=maybe),
        ast.For: st.builds(ast.For, init=maybe, cond=_MAYBE_EXPR, step=maybe,
                           body=maybe),
        ast.If: st.builds(ast.If, cond=_MAYBE_EXPR, then=maybe, orelse=maybe),
        ast.While: st.builds(ast.While, cond=_MAYBE_EXPR, body=maybe),
    }


_STMTS = st.recursive(st.one_of(*_LEAF_STMTS.values()),
                      lambda c: st.one_of(*_inner_stmts(c).values()),
                      max_leaves=8)


def _reference_walk(value):
    """Every Expr/Stmt reachable from ``value`` through dataclass fields and
    lists; each node comes before the nodes of its fields, which come in
    declaration order."""
    if isinstance(value, list):
        return [node for item in value for node in _reference_walk(item)]
    if not dataclasses.is_dataclass(value):
        return []
    nodes = [value] if isinstance(value, (ast.Expr, ast.Stmt)) else []
    for f in dataclasses.fields(value):
        nodes += _reference_walk(getattr(value, f.name))
    return nodes


def test_tree_strategies_cover_every_node_class():
    def subclasses(base):
        return {c for c in vars(ast).values()
                if isinstance(c, type) and issubclass(c, base) and c is not base}

    assert set(_LEAF_EXPRS) | set(_inner_exprs(_EXPRS)) == subclasses(ast.Expr)
    assert set(_LEAF_STMTS) | set(_inner_stmts(_STMTS)) == subclasses(ast.Stmt)


@given(st.none() | _EXPRS | _STMTS)
@settings(max_examples=300, deadline=None)
def test_walk_is_complete_and_ordered(root):
    reference = _reference_walk(root)
    assert [id(n) for n in ast.walk(root)] == [id(n) for n in reference]
    assert ast.names(root) == (
        {n.name for n in reference if isinstance(n, ast.Var)}
        | {n.array for n in reference if isinstance(n, ast.Index)})


# --------------------------------------------------------------------------
# semantics
# --------------------------------------------------------------------------

def test_analyze_matmul_ok():
    info = analyze(parse_kernel(MATMUL_SRC))
    assert info.description.name == "perfect"
    assert len(info.foreachs) == 2
    assert info.foreachs[0].depth == 0
    assert info.foreachs[1].depth == 1
    assert info.units_used == ["threads"]


def test_analyze_rejects_unknown_level():
    with pytest.raises(KeyError, match="gtx9000"):
        analyze(parse_kernel("gtx9000 void f(int n) { }"))


def test_analyze_rejects_unknown_par_unit():
    src = "perfect void f(int n) { foreach (int i in n warps) { int x = i; } }"
    with pytest.raises(McplSemanticError, match="warps"):
        analyze(parse_kernel(src))


def test_nvidia_level_allows_warps():
    src = "nvidia void f(int n) { foreach (int i in n warps) { int x = i; } }"
    info = analyze(parse_kernel(src))
    assert info.units_used == ["warps"]


def test_gpu_level_allows_blocks_and_local_memory():
    src = """
    gpu void f(int n, float[n] a) {
      foreach (int b in n / 16 blocks) {
        local float[16] tile;
        foreach (int t in 16 threads) {
          tile[t] = a[b * 16 + t];
        }
      }
    }
    """
    info = analyze(parse_kernel(src))
    assert "tile" in info.local_arrays


def test_perfect_level_rejects_local_memory():
    src = """
    perfect void f(int n, float[n] a) {
      foreach (int i in n threads) {
        local float[4] tile;
      }
    }
    """
    with pytest.raises(McplSemanticError, match="local"):
        analyze(parse_kernel(src))


def test_undeclared_variable_rejected():
    with pytest.raises(McplSemanticError, match="undeclared"):
        analyze(parse_kernel("perfect void f(int n) { int x = y; }"))


def test_redeclaration_rejected():
    with pytest.raises(McplSemanticError, match="redeclaration"):
        analyze(parse_kernel("perfect void f(int n) { int x = 0; int x = 1; }"))


def test_index_arity_checked():
    src = "perfect void f(int n, float[n,n] a) { foreach (int i in n threads) { a[i] = 0.0; } }"
    with pytest.raises(McplSemanticError, match="dims"):
        analyze(parse_kernel(src))


def test_scalar_indexing_rejected():
    with pytest.raises(McplSemanticError, match="not an array"):
        analyze(parse_kernel("perfect void f(int n) { int x = n[0]; }"))


def test_array_as_scalar_rejected():
    src = "perfect void f(int n, float[n] a) { float x = a + 1.0; }"
    with pytest.raises(McplSemanticError, match="as a scalar"):
        analyze(parse_kernel(src))


def test_unknown_function_rejected():
    with pytest.raises(McplSemanticError, match="unknown function"):
        analyze(parse_kernel("perfect void f(int n) { float x = frobnicate(n); }"))


def test_builtin_arity_checked():
    with pytest.raises(McplSemanticError, match="takes 2 args"):
        analyze(parse_kernel("perfect void f(int n) { float x = min(1.0); }"))


def test_void_kernel_cannot_return_value():
    with pytest.raises(McplSemanticError, match="void"):
        analyze(parse_kernel("perfect void f(int n) { return n; }"))
