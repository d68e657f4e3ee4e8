"""Cross-iteration race detection for ``foreach`` loops.

MCPL's ``foreach`` declares that its iterations may run in parallel; the
interpreter's sequential order is only the *reference* semantics.  A kernel
is therefore racy when two iterations of the same ``foreach`` may touch the
same array element with at least one write (MCL101), when an iteration
writes a scalar declared outside the loop (MCL102), or when a ``barrier``
is only reached under data-dependent control flow (MCL401).

Consecutive ``foreach`` statements are separate *phases* (the translation
to OpenCL/OpenMP synchronizes between them), so only accesses inside the
same ``foreach`` are compared.  Arrays and scalars declared inside the loop
body are iteration-private.

The dependence test works on the polynomial normal form of subscripts
(:mod:`.poly`), after inlining single-definition locals such as
``int i = b * 256 + t;``.  Writing a subscript as ``a*u + f + s`` — ``u``
the foreach variable, ``f`` over iteration-*independent* symbols, ``s``
over *uniform* symbols (same value in every iteration) — two iterations
``u1 != u2`` conflict only if ``a*(u1-u2) + f1 - f2 + (s1-s2) = 0`` has a
solution.  Four sufficient independence tests are applied per dimension:

* **same form** — ``f = 0`` and the uniform parts cancel: forces ``u1=u2``;
* **bounded residual** — ``|f1 - f2|`` is provably smaller than ``|a|``
  (e.g. ``32*bi + ti`` with ``ti in [0,31]``: block-private tiles);
* **GCD / modular** — all residual coefficients share a divisor ``g`` and
  ``a*(u1-u2) ≡ 0 (mod g)`` has no solution with ``0 < |u1-u2| < count``
  (e.g. interleaved staging ``x = t; x < 1024; x += 256``);
* **chunk disjointness** — the subscript is a ``for`` variable running from
  ``E0(u)`` to a bound ``E1(u)`` with ``E0(u+1) >= E1(u)``: Xeon-Phi-style
  chunked loops partition the index range.

Everything the tests cannot prove independent is reported as a *may* race;
intentional patterns (SIMD reductions, data-dependent scatter) carry
``// lint: ignore[...]`` justifications in the kernel source.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..mcpl import ast
from ..mcpl.semantics import KernelInfo
from ...analyze.findings import Finding
from .poly import ATOM_PREFIX, Poly, expr_to_poly

__all__ = ["check_races"]


# ---------------------------------------------------------------------------
# Alpha renaming — shadowed names (`int i` in two sibling foreachs) must not
# be conflated by the name-keyed dependence machinery.
# ---------------------------------------------------------------------------

class _Renamer:
    """Produce a copy of the kernel body with unique variable names."""

    def __init__(self, params: Sequence[ast.Param]):
        self.used: Set[str] = {p.name for p in params}
        self.scopes: List[Dict[str, str]] = [{p.name: p.name
                                              for p in params}]

    def fresh(self, name: str) -> str:
        if name not in self.used:
            self.used.add(name)
            self.scopes[-1][name] = name
            return name
        k = 2
        while f"{name}.{k}" in self.used:
            k += 1
        new = f"{name}.{k}"
        self.used.add(new)
        self.scopes[-1][name] = new
        return new

    def resolve(self, name: str) -> str:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return name  # undeclared: semantics would have rejected it

    # -- expressions --------------------------------------------------------
    def expr(self, e: Optional[ast.Expr]) -> Optional[ast.Expr]:
        if e is None:
            return None
        if isinstance(e, (ast.IntLit, ast.FloatLit)):
            return e
        if isinstance(e, ast.Var):
            return replace(e, name=self.resolve(e.name))
        if isinstance(e, ast.Index):
            return replace(e, array=self.resolve(e.array),
                           indices=[self.expr(i) for i in e.indices])
        if isinstance(e, ast.Binary):
            return replace(e, left=self.expr(e.left),
                           right=self.expr(e.right))
        if isinstance(e, ast.Unary):
            return replace(e, operand=self.expr(e.operand))
        if isinstance(e, ast.Call):
            return replace(e, args=[self.expr(a) for a in e.args])
        return e  # pragma: no cover

    # -- statements ---------------------------------------------------------
    def stmt(self, s: Optional[ast.Stmt]) -> Optional[ast.Stmt]:
        if s is None:
            return None
        if isinstance(s, ast.Block):
            self.scopes.append({})
            out = replace(s, stmts=[self.stmt(x) for x in s.stmts])
            self.scopes.pop()
            return out
        if isinstance(s, ast.VarDecl):
            assert s.type is not None
            typ = replace(s.type, dims=[self.expr(d) for d in s.type.dims])
            init = self.expr(s.init)
            return replace(s, type=typ, name=self.fresh(s.name), init=init)
        if isinstance(s, ast.Assign):
            return replace(s, target=self.expr(s.target),
                           value=self.expr(s.value))
        if isinstance(s, ast.Foreach):
            count = self.expr(s.count)
            self.scopes.append({})
            out = replace(s, var=self.fresh(s.var), count=count,
                          body=self.stmt(s.body))
            self.scopes.pop()
            return out
        if isinstance(s, ast.For):
            self.scopes.append({})
            out = replace(s, init=self.stmt(s.init), cond=self.expr(s.cond),
                          step=self.stmt(s.step), body=self.stmt(s.body))
            self.scopes.pop()
            return out
        if isinstance(s, ast.If):
            return replace(s, cond=self.expr(s.cond),
                           then=self.stmt(s.then),
                           orelse=self.stmt(s.orelse))
        if isinstance(s, ast.While):
            return replace(s, cond=self.expr(s.cond), body=self.stmt(s.body))
        if isinstance(s, ast.Return):
            return replace(s, value=self.expr(s.value))
        if isinstance(s, ast.ExprStmt):
            return replace(s, expr=self.expr(s.expr))
        return s  # Break / Continue


# ---------------------------------------------------------------------------
# Fact collection over the renamed tree
# ---------------------------------------------------------------------------

@dataclass
class _VarFacts:
    name: str
    kind: str                        #: 'param' | 'local' | 'foreach' | 'for'
    is_array: bool = False
    dims: List[ast.Expr] = field(default_factory=list)
    qualifier: Optional[str] = None
    #: id() of every Foreach whose body (transitively) contains the decl
    enclosing: Tuple[int, ...] = ()
    #: initializer, for VarDecl-with-init variables
    init: Optional[ast.Expr] = None
    #: number of value definitions (decl init + assignments + loop steps)
    n_defs: int = 0


@dataclass
class _ForeachScope:
    stmt: ast.Foreach
    var: str
    const_count: Optional[int]
    #: id() of enclosing Foreachs, outermost first (excluding itself)
    outer: Tuple[int, ...]


@dataclass
class _ForLoop:
    var: str
    stmt: ast.For
    init: Optional[ast.Expr]
    conds: List[ast.Expr]            #: conjuncts of the condition
    step_value: Optional[ast.Expr]   #: increment expression, if `v += e`
    enclosing: Tuple[int, ...]


@dataclass
class _Access:
    node: ast.Index
    array: str
    write: bool
    line: int
    foreachs: Tuple[int, ...]


@dataclass
class _ScalarWrite:
    var: str
    line: int
    foreachs: Tuple[int, ...]


@dataclass
class _BarrierSite:
    line: int
    conds: List[Tuple[ast.Expr, Tuple[int, ...]]]   #: (cond, foreachs at cond)
    foreachs: Tuple[int, ...]


def _contains_load(e: Optional[ast.Expr]) -> bool:
    return any(isinstance(x, ast.Index) for x in ast.walk(e))


class _Collector:
    """One walk of the renamed body gathering every fact the tests need."""

    def __init__(self, params: Sequence[ast.Param]):
        self.vars: Dict[str, _VarFacts] = {}
        self.foreachs: Dict[int, _ForeachScope] = {}
        self.foreach_order: List[int] = []
        self.for_loops: Dict[str, _ForLoop] = {}
        self.accesses: List[_Access] = []
        self.scalar_writes: List[_ScalarWrite] = []
        self.barriers: List[_BarrierSite] = []
        #: atom name -> variable names mentioned (for uniformity)
        self.atom_deps: Dict[str, Set[str]] = {}
        #: (var, rhs var names, rhs has array load) for taint propagation
        self.taint_defs: List[Tuple[str, Set[str], bool]] = []
        self.fstack: List[int] = []
        self.cstack: List[Tuple[ast.Expr, Tuple[int, ...]]] = []
        for p in params:
            self.vars[p.name] = _VarFacts(
                name=p.name, kind="param", is_array=p.type.is_array,
                dims=list(p.type.dims), n_defs=1)

    # -- expression facts ---------------------------------------------------
    def _register_atoms(self, e: Optional[ast.Expr]) -> None:
        """Record, for every sub-expression, which variables its printed
        form mentions — the dependency set of the opaque atom it may
        normalize to."""
        for x in ast.walk(e):
            if not isinstance(x, (ast.IntLit, ast.FloatLit, ast.Var)):
                self.atom_deps[ATOM_PREFIX + str(x)] = ast.names(x)

    def expr(self, e: Optional[ast.Expr], write: bool = False) -> None:
        if e is None:
            return
        self._register_atoms(e)
        self._expr(e, write)

    def _expr(self, e: ast.Expr, write: bool) -> None:
        if isinstance(e, ast.Index):
            self.accesses.append(_Access(
                node=e, array=e.array, write=write, line=e.line,
                foreachs=tuple(self.fstack)))
            for i in e.indices:
                self._expr(i, False)
            return
        if isinstance(e, ast.Binary):
            if e.left is not None:
                self._expr(e.left, False)
            if e.right is not None:
                self._expr(e.right, False)
        elif isinstance(e, ast.Unary):
            if e.operand is not None:
                self._expr(e.operand, False)
        elif isinstance(e, ast.Call):
            if e.name == "barrier":
                self.barriers.append(_BarrierSite(
                    line=e.line, conds=list(self.cstack),
                    foreachs=tuple(self.fstack)))
            for a in e.args:
                self._expr(a, False)

    # -- statements ---------------------------------------------------------
    def _declare(self, decl: ast.VarDecl) -> None:
        assert decl.type is not None
        self.vars[decl.name] = _VarFacts(
            name=decl.name, kind="local", is_array=decl.type.is_array,
            dims=list(decl.type.dims), qualifier=decl.qualifier,
            enclosing=tuple(self.fstack), init=decl.init,
            n_defs=1 if decl.init is not None else 0)
        for d in decl.type.dims:
            self.expr(d)
        if decl.init is not None:
            self.expr(decl.init)
            self.taint_defs.append((decl.name, ast.names(decl.init),
                                    _contains_load(decl.init)))

    def stmt(self, s: Optional[ast.Stmt]) -> None:
        if s is None:
            return
        if isinstance(s, ast.Block):
            for x in s.stmts:
                self.stmt(x)
        elif isinstance(s, ast.VarDecl):
            self._declare(s)
        elif isinstance(s, ast.Assign):
            self.expr(s.value)
            target = s.target
            if isinstance(target, ast.Index):
                self.expr(target, write=True)
            elif isinstance(target, ast.Var):
                facts = self.vars.get(target.name)
                if facts is not None:
                    facts.n_defs += 1
                    if set(facts.enclosing) < set(self.fstack):
                        self.scalar_writes.append(_ScalarWrite(
                            var=target.name, line=s.line,
                            foreachs=tuple(self.fstack)))
                deps = ast.names(s.value)
                if s.op != "=":
                    deps.add(target.name)
                self.taint_defs.append((target.name, deps,
                                        _contains_load(s.value)))
        elif isinstance(s, ast.ExprStmt):
            self.expr(s.expr)
        elif isinstance(s, ast.Return):
            self.expr(s.value)
        elif isinstance(s, (ast.Break, ast.Continue)):
            pass
        elif isinstance(s, ast.If):
            self.expr(s.cond)
            self.cstack.append((s.cond, tuple(self.fstack)))
            self.stmt(s.then)
            self.stmt(s.orelse)
            self.cstack.pop()
        elif isinstance(s, ast.While):
            self.expr(s.cond)
            self.cstack.append((s.cond, tuple(self.fstack)))
            self.stmt(s.body)
            self.cstack.pop()
        elif isinstance(s, ast.For):
            var = None
            if isinstance(s.init, ast.VarDecl):
                self._declare(s.init)
                var = s.init.name
            elif isinstance(s.init, ast.Assign):
                self.stmt(s.init)
                if isinstance(s.init.target, ast.Var):
                    var = s.init.target.name
            self.expr(s.cond)
            step_value = None
            if isinstance(s.step, ast.Assign) \
                    and isinstance(s.step.target, ast.Var) \
                    and s.step.target.name == var:
                if s.step.op == "+=":
                    step_value = s.step.value
                elif s.step.op == "=" and isinstance(s.step.value, ast.Binary) \
                        and s.step.value.op == "+" \
                        and isinstance(s.step.value.left, ast.Var) \
                        and s.step.value.left.name == var:
                    step_value = s.step.value.right
            if var is not None:
                init_expr = s.init.init if isinstance(s.init, ast.VarDecl) \
                    else (s.init.value if isinstance(s.init, ast.Assign)
                          else None)
                self.for_loops[var] = _ForLoop(
                    var=var, stmt=s, init=init_expr,
                    conds=ast.conjuncts(s.cond), step_value=step_value,
                    enclosing=tuple(self.fstack))
                if var in self.vars:
                    self.vars[var].kind = "for"
            if s.cond is not None:
                self.cstack.append((s.cond, tuple(self.fstack)))
            self.stmt(s.body)
            self.stmt(s.step)
            if s.cond is not None:
                self.cstack.pop()
        elif isinstance(s, ast.Foreach):
            self.expr(s.count)
            const_count = s.count.value \
                if isinstance(s.count, ast.IntLit) else None
            scope = _ForeachScope(stmt=s, var=s.var, const_count=const_count,
                                  outer=tuple(self.fstack))
            self.foreachs[id(s)] = scope
            self.foreach_order.append(id(s))
            self.fstack.append(id(s))
            self.vars[s.var] = _VarFacts(
                name=s.var, kind="foreach", enclosing=tuple(self.fstack),
                n_defs=1)
            self.stmt(s.body)
            self.fstack.pop()


# ---------------------------------------------------------------------------
# The analysis proper
# ---------------------------------------------------------------------------

class _RaceAnalysis:
    def __init__(self, info: KernelInfo):
        self.info = info
        renamer = _Renamer(info.kernel.params)
        body = renamer.stmt(info.kernel.body)
        self.col = _Collector(info.kernel.params)
        self.col.stmt(body)
        self.subs = self._build_substitutions()
        self.const_ranges = self._build_const_ranges()
        self._uniform_cache: Dict[Tuple[int, str], bool] = {}

    # -- single-definition inlining -----------------------------------------
    def _build_substitutions(self) -> Dict[str, Poly]:
        subs: Dict[str, Poly] = {}
        visiting: Set[str] = set()

        def resolve(name: str) -> Optional[Poly]:
            if name in subs:
                return subs[name]
            facts = self.col.vars.get(name)
            if facts is None or facts.kind != "local" or facts.is_array \
                    or facts.n_defs != 1 or facts.init is None \
                    or name in visiting:
                return None
            visiting.add(name)
            inner: Dict[str, Poly] = {}
            for dep in ast.names(facts.init):
                p = resolve(dep)
                if p is not None:
                    inner[dep] = p
            visiting.discard(name)
            subs[name] = expr_to_poly(facts.init, inner)
            return subs[name]

        for name in list(self.col.vars):
            resolve(name)
        return subs

    def _poly(self, e: ast.Expr) -> Poly:
        return expr_to_poly(e, self.subs)

    # -- constant ranges -----------------------------------------------------
    def _build_const_ranges(self) -> Dict[str, Tuple[int, int]]:
        out: Dict[str, Tuple[int, int]] = {}
        for scope in self.col.foreachs.values():
            if scope.const_count is not None and scope.const_count > 0:
                out[scope.var] = (0, scope.const_count - 1)
        for fl in self.col.for_loops.values():
            if fl.init is None or fl.step_value is None:
                continue
            lo = expr_to_poly(fl.init, self.subs).constant_value()
            step = expr_to_poly(fl.step_value, self.subs).constant_value()
            if lo is None or step is None or step <= 0 \
                    or lo.denominator != 1 or step.denominator != 1:
                continue
            hi: Optional[int] = None
            for cond in fl.conds:
                bound = self._cond_bound(cond, fl.var)
                if bound is None:
                    continue
                limit, strict = bound
                c = self._poly(limit).constant_value()
                if c is None or c.denominator != 1:
                    continue
                top = int(c) - 1 if strict else int(c)
                # align to the stride
                if top >= int(lo):
                    top = int(lo) + (top - int(lo)) // int(step) * int(step)
                hi = top if hi is None else min(hi, top)
            if hi is not None and hi >= int(lo):
                out[fl.var] = (int(lo), hi)
        return out

    @staticmethod
    def _cond_bound(cond: ast.Expr, var: str
                    ) -> Optional[Tuple[ast.Expr, bool]]:
        """``var < E`` / ``var <= E`` (possibly flipped): (E, strict)."""
        if not isinstance(cond, ast.Binary):
            return None
        left, right, op = cond.left, cond.right, cond.op
        if isinstance(left, ast.Var) and left.name == var and right is not None:
            if op == "<":
                return right, True
            if op == "<=":
                return right, False
        if isinstance(right, ast.Var) and right.name == var and left is not None:
            if op == ">":
                return left, True
            if op == ">=":
                return left, False
        return None

    # -- uniformity ----------------------------------------------------------
    def _is_uniform(self, sym: str, fid: int) -> bool:
        """Same value in every iteration of the given foreach?"""
        key = (fid, sym)
        if key in self._uniform_cache:
            return self._uniform_cache[key]
        self._uniform_cache[key] = False   # cycle-safe default
        result = self._compute_uniform(sym, fid)
        self._uniform_cache[key] = result
        return result

    def _compute_uniform(self, sym: str, fid: int) -> bool:
        if sym.startswith(ATOM_PREFIX):
            deps = self.col.atom_deps.get(sym)
            if deps is None:
                return False
            return all(self._is_uniform(d, fid) for d in deps)
        facts = self.col.vars.get(sym)
        if facts is None:
            return False       # stride placeholders and unknowns
        if fid not in facts.enclosing:
            return True        # declared outside the foreach body
        if facts.kind == "local" and facts.n_defs == 1 \
                and facts.init is not None:
            return all(self._is_uniform(d, fid) for d in ast.names(facts.init))
        return False

    # -- bounds over independent symbols -------------------------------------
    def _subst_bound(self, p: Poly, fid: int, u: str, lower: bool
                     ) -> Optional[Poly]:
        """Replace independent symbols by range endpoints.

        ``lower=True`` produces a valid lower bound, else an upper bound.
        Symbols are non-negative, so 0 is always a usable lower endpoint.
        """
        for sym in set(p.symbols()):
            if sym == u or self._is_uniform(sym, fid):
                continue
            try:
                coeff = p.coefficient_of(sym)
            except ValueError:
                return None
            rng = self.const_ranges.get(sym)
            if coeff.is_nonnegative():
                if lower:
                    p = p.substitute(sym, Poly.const(0))
                elif rng is not None:
                    p = p.substitute(sym, Poly.const(rng[1]))
                else:
                    return None
            elif coeff.is_nonpositive():
                if lower:
                    if rng is None:
                        return None
                    p = p.substitute(sym, Poly.const(rng[1]))
                else:
                    p = p.substitute(sym, Poly.const(0))
            else:
                return None
        return p

    # -- chunk disjointness ---------------------------------------------------
    def _chunk_disjoint(self, var: str, fid: int, u: str) -> bool:
        fl = self.col.for_loops.get(var)
        facts = self.col.vars.get(var)
        if fl is None or facts is None or fl.init is None:
            return False
        if facts.n_defs > 2:       # init + step only; other writes break it
            return False
        if fl.step_value is None:
            return False
        if not self._poly(fl.step_value).is_nonnegative():
            return False
        e0 = self._poly(fl.init)
        try:
            mono = e0.coefficient_of(u)
        except ValueError:
            return False
        if not mono.is_nonnegative():
            return False           # start must be non-decreasing in u
        e0_lb = self._subst_bound(e0, fid, u, lower=True)
        if e0_lb is None:
            return False
        shifted = e0_lb.substitute(u, Poly.var(u) + Poly.const(1))
        for cond in fl.conds:
            bound = self._cond_bound(cond, var)
            if bound is None:
                continue
            limit, strict = bound
            e1 = self._poly(limit)
            if not strict:
                e1 = e1 + Poly.const(1)
            e1_ub = self._subst_bound(e1, fid, u, lower=False)
            if e1_ub is None:
                continue
            if (shifted - e1_ub).is_nonnegative():
                return True
        return False

    # -- strided-variable expansion ------------------------------------------
    def _expand_strides(self, p: Poly) -> Poly:
        for _ in range(3):
            changed = False
            for sym in list(set(p.symbols())):
                fl = self.col.for_loops.get(sym)
                if fl is None or sym in self.const_ranges \
                        or fl.init is None or fl.step_value is None:
                    continue
                step = self._poly(fl.step_value).constant_value()
                if step is None or step < 1 or step.denominator != 1:
                    continue
                init = self._poly(fl.init)
                if init.mentions(sym):
                    continue
                repl = init + Poly.var(sym + "#stride").scale(step)
                p = p.substitute(sym, repl)
                changed = True
            if not changed:
                break
        return p

    # -- per-dimension independence -------------------------------------------
    def _const_range(self, p: Poly) -> Optional[Tuple[Fraction, Fraction]]:
        """Interval of a poly over independent symbols with known ranges."""
        lo = hi = Fraction(0)
        for mono, coeff in p.terms.items():
            if mono == ():
                lo += coeff
                hi += coeff
                continue
            if len(mono) != 1:
                return None
            rng = self.const_ranges.get(mono[0])
            if rng is None:
                return None
            vals = (coeff * rng[0], coeff * rng[1])
            lo += min(vals)
            hi += max(vals)
        return lo, hi

    def _dim_independent(self, p: Poly, q: Poly, fid: int) -> bool:
        scope = self.col.foreachs[fid]
        u = scope.var
        n = scope.const_count

        # Test (iv): chunked for-variable subscripts.
        if p == q and p == Poly.var(next(iter(p.symbols()), "")) \
                and not p.is_constant:
            var = next(iter(p.symbols()))
            if var in self.col.for_loops and not self._is_uniform(var, fid):
                if self._chunk_disjoint(var, fid, u):
                    return True

        p = self._expand_strides(p)
        q = self._expand_strides(q)

        try:
            a_p = p.coefficient_of(u).constant_value()
            a_q = q.coefficient_of(u).constant_value()
        except ValueError:
            return False
        if a_p is None or a_q is None or a_p != a_q:
            return False
        a = a_p
        rest_p = p - Poly.var(u).scale(a)
        rest_q = q - Poly.var(u).scale(a)

        def split(r: Poly) -> Tuple[Poly, Poly]:
            shared: Dict[Tuple[str, ...], Fraction] = {}
            indep: Dict[Tuple[str, ...], Fraction] = {}
            for mono, coeff in r.terms.items():
                if all(self._is_uniform(s, fid) for s in mono):
                    shared[mono] = coeff
                else:
                    indep[mono] = coeff
            return Poly(shared), Poly(indep)

        shared_p, f_p = split(rest_p)
        shared_q, f_q = split(rest_q)
        delta = shared_p - shared_q

        if a == 0:
            diff = delta.constant_value()
            if f_p.is_zero() and f_q.is_zero() and diff is not None \
                    and diff != 0:
                return True    # distinct fixed offsets
            return False

        # Test (i): identical affine form over uniform data.
        if f_p.is_zero() and f_q.is_zero() and delta.is_zero():
            return True

        dc = delta.constant_value()
        if dc is None:
            return False

        # Test (ii): residual difference provably smaller than |a|.
        rng_p = self._const_range(f_p)
        rng_q = self._const_range(f_q)
        if rng_p is not None and rng_q is not None:
            lo = dc + rng_p[0] - rng_q[1]
            hi = dc + rng_p[1] - rng_q[0]
            if max(abs(lo), abs(hi)) < abs(a):
                return True

        # Test (iii): GCD / modular.
        if a.denominator != 1 or dc.denominator != 1:
            return False
        coeffs: List[int] = []
        for f in (f_p, f_q):
            for mono, coeff in f.terms.items():
                if len(mono) != 1 or coeff.denominator != 1:
                    return False
                coeffs.append(abs(int(coeff)))
        ai, di = int(a), int(dc)
        if not coeffs:
            if di % ai != 0:
                return True
            d0 = -di // ai
            return d0 == 0 or (n is not None and abs(d0) > n - 1)
        g = 0
        for c in coeffs:
            g = gcd(g, c)
        if g == 0:
            return False
        h = gcd(abs(ai), g)
        if di % h != 0:
            return True
        m = g // h
        if m <= 1 or n is None:
            return False
        inv = pow((ai // h) % m, -1, m)
        d0 = (-(di // h) * inv) % m
        min_nonzero = m if d0 == 0 else min(d0, m - d0)
        return min_nonzero > n - 1

    # -- linearization ---------------------------------------------------------
    def _dim_polys(self, acc: _Access) -> List[Poly]:
        node = acc.node
        facts = self.col.vars.get(acc.array)
        if facts is not None and len(node.indices) == 2 \
                and len(facts.dims) == 2 \
                and isinstance(facts.dims[1], ast.IntLit):
            inner = facts.dims[1].value
            d0, d1 = node.indices
            if isinstance(d0, ast.Binary) and d0.op == "/" \
                    and isinstance(d1, ast.Binary) and d1.op == "%" \
                    and isinstance(d0.right, ast.IntLit) \
                    and isinstance(d1.right, ast.IntLit) \
                    and d0.right.value == inner \
                    and d1.right.value == inner \
                    and str(d0.left) == str(d1.left) \
                    and d0.left is not None:
                # arr[e/c, e%c] with c == declared inner dim: the pair is
                # injective in e — compare the linear index instead.
                return [self._poly(d0.left)]
        return [self._poly(i) for i in node.indices]

    # -- findings --------------------------------------------------------------
    def array_races(self) -> List[Finding]:
        findings: List[Finding] = []
        seen: Set[Tuple[str, str, int, int]] = set()
        for fid in self.col.foreach_order:
            scope = self.col.foreachs[fid]
            inside = [a for a in self.col.accesses if fid in a.foreachs]
            by_array: Dict[str, List[_Access]] = {}
            for a in inside:
                facts = self.col.vars.get(a.array)
                if facts is not None and fid in facts.enclosing:
                    continue       # iteration-private array
                by_array.setdefault(a.array, []).append(a)
            for array, accs in by_array.items():
                for i, w in enumerate(accs):
                    if not w.write:
                        continue
                    for j, other in enumerate(accs):
                        # Each unordered write pair once, ordered by the
                        # accesses' (stable) collection order — not by
                        # id(), whose ordering varies across runs and
                        # would flip which write the message leads with.
                        if other.write and j < i:
                            continue
                        if self._pair_conflicts(w, other, fid):
                            lo, hi = sorted((w.line, other.line))
                            key = (array, scope.var, lo, hi)
                            if key in seen:
                                continue
                            seen.add(key)
                            what = "write" if other.write else "read"
                            where = f"write at line {w.line}" \
                                if w.line == other.line and other.write \
                                and w.node is other.node \
                                else (f"write at line {w.line} vs {what} "
                                      f"at line {other.line}")
                            findings.append(Finding(
                                code="MCL101", line=hi,
                                message=(
                                    f"iterations of foreach "
                                    f"({self._orig(scope.var)}) may touch "
                                    f"the same element of {array!r} "
                                    f"({where})"),
                                hint=("privatize the array, restructure the "
                                      "subscripts to partition the index "
                                      "range, or suppress with a "
                                      "justification if the overlap is "
                                      "intentional")))
        return findings

    def _pair_conflicts(self, a: _Access, b: _Access, fid: int) -> bool:
        pa = self._dim_polys(a)
        pb = self._dim_polys(b)
        if len(pa) != len(pb):
            pa = [self._poly(i) for i in a.node.indices]
            pb = [self._poly(i) for i in b.node.indices]
        return not any(self._dim_independent(p, q, fid)
                       for p, q in zip(pa, pb))

    @staticmethod
    def _orig(name: str) -> str:
        return name.split(".")[0]

    def scalar_races(self) -> List[Finding]:
        findings: List[Finding] = []
        seen: Set[Tuple[str, int]] = set()
        for sw in self.col.scalar_writes:
            facts = self.col.vars.get(sw.var)
            if facts is None or facts.is_array:
                continue
            key = (sw.var, sw.line)
            if key in seen:
                continue
            seen.add(key)
            inner = self.col.foreachs[sw.foreachs[-1]]
            findings.append(Finding(
                code="MCL102", line=sw.line,
                message=(f"scalar {self._orig(sw.var)!r} is declared outside "
                         f"foreach ({self._orig(inner.var)}) but written "
                         f"inside it: iterations race on the same location"),
                hint=("declare the variable inside the foreach body, or "
                      "suppress with a justification for intentional "
                      "reductions")))
        return findings

    # -- barrier divergence ----------------------------------------------------
    def barrier_divergence(self) -> List[Finding]:
        if not self.col.barriers:
            return []
        taint: Dict[str, Set[str]] = {}
        for fid in self.col.foreachs:
            var = self.col.foreachs[fid].var
            taint[var] = {var}
        changed = True
        while changed:
            changed = False
            for var, deps, has_load in self.col.taint_defs:
                new = set(taint.get(var, set()))
                if has_load:
                    new.add("#data")
                for d in deps:
                    new |= taint.get(d, set())
                if new != taint.get(var, set()):
                    taint[var] = new
                    changed = True

        findings: List[Finding] = []
        for site in self.col.barriers:
            if not site.foreachs:
                continue
            innermost = site.foreachs[-1]
            divergent_sources = {"#data"}
            for fid, scope in self.col.foreachs.items():
                if innermost in scope.outer or fid == innermost:
                    divergent_sources.add(scope.var)
            for cond, _ in site.conds:
                if _contains_load(cond):
                    self._report_divergence(findings, site, cond)
                    break
                tainted = set()
                for nm in ast.names(cond):
                    tainted |= taint.get(nm, set())
                if tainted & divergent_sources:
                    self._report_divergence(findings, site, cond)
                    break
        return findings

    def _report_divergence(self, findings: List[Finding],
                           site: _BarrierSite, cond: ast.Expr) -> None:
        findings.append(Finding(
            code="MCL401", line=site.line,
            message=(f"barrier() at line {site.line} is guarded by the "
                     f"data-dependent condition ({cond}): not every "
                     f"iteration is guaranteed to reach it"),
            hint="hoist the barrier out of the divergent branch"))


def check_races(info: KernelInfo) -> List[Finding]:
    """MCL101/MCL102/MCL401 findings for one checked kernel."""
    analysis = _RaceAnalysis(info)
    findings = analysis.array_races()
    findings.extend(analysis.scalar_races())
    findings.extend(analysis.barrier_divergence())
    return findings
