"""Symbolic interval analysis over ``foreach`` / ``for`` bounds.

This is the value-range half of the dataflow core: a structured abstract
interpretation of the kernel body in the domain of *symbolic intervals*.
Bounds are :class:`~.poly.Poly` values over scalar parameters (and opaque
atoms), so ``foreach (int i in n threads)`` gives ``i`` the interval
``[0, n - 1]`` — exactly what the out-of-bounds lint needs to compare
subscripts against declared array dimensions like ``float[n,m]``.

Because bounds are symbolic, an interval keeps a small *set* of candidate
bounds (each individually valid); comparisons use the polynomial
non-negativity test, and joins keep only candidates provably dominating the
other side.  A loop body is interpreted pass after pass until joining a
pass's exit state into its entry state changes no name bound at loop entry
(from the third pass on, a bound that still moves is dropped), and only the
accesses of that last pass are checked.  Dropping single bounds rather than
whole intervals (per-bound widening) lets monotone loop counters keep their
stable side.

Guard refinement understands ``<, <=, >, >=, ==`` comparisons, conjunctions
on the true branch and disjunctions on the false branch.  Guards whose
left-hand side is not a plain variable (``if (jj + x / 4 < n)``) are kept
as *facts* keyed by the expression's polynomial normal form and matched
against subscripts that differ from the guarded expression by a constant.

The analysis records every array access with the intervals of its
subscripts — the input of the bounds lint.  The race detector does not read
them: it derives its own constant loop ranges from the loop syntax.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ..mcpl import ast
from ..mcpl.semantics import KernelInfo
from .poly import Poly, expr_to_poly

__all__ = ["Interval", "AccessRecord", "IntervalAnalysis", "analyze_intervals"]

_MAX_CANDIDATES = 4


def _provable_le(a: Poly, b: Poly) -> bool:
    """True when ``a <= b`` for every non-negative symbol valuation."""
    return (b - a).is_nonnegative()


@dataclass(frozen=True)
class Interval:
    """A symbolic interval with candidate lower/upper bounds.

    Every element of ``los`` is a valid lower bound and every element of
    ``his`` a valid upper bound; empty tuples mean unbounded on that side.
    """

    los: Tuple[Poly, ...] = ()
    his: Tuple[Poly, ...] = ()

    @staticmethod
    def top() -> "Interval":
        return Interval((), ())

    @staticmethod
    def exact(p: Poly) -> "Interval":
        return Interval((p,), (p,))

    @staticmethod
    def const(value: object) -> "Interval":
        return Interval.exact(Poly.const(value))

    def with_hi(self, hi: Poly) -> "Interval":
        """Add an upper-bound candidate (newest first — it wins the cap)."""
        his = tuple(self.his)
        if hi not in his:
            his = ((hi,) + his)[:_MAX_CANDIDATES]
        return Interval(self.los, his)

    def with_lo(self, lo: Poly) -> "Interval":
        """Add a lower-bound candidate (newest first — it wins the cap)."""
        los = tuple(self.los)
        if lo not in los:
            los = ((lo,) + los)[:_MAX_CANDIDATES]
        return Interval(los, self.his)

    def nonneg(self) -> bool:
        """Provably >= 0?"""
        return any(lo.is_nonnegative() for lo in self.los)

    def bounded_above_by(self, limit: Poly) -> bool:
        """Provably <= limit?"""
        return any(_provable_le(hi, limit) for hi in self.his)


def join(a: Interval, b: Interval) -> Interval:
    """Least-ish upper bound: keep candidates that dominate the other side."""
    if a == b:
        return a
    los = []
    for lo in a.los:
        if any(_provable_le(lo, lo2) for lo2 in b.los):
            los.append(lo)
    for lo in b.los:
        if lo not in los and any(_provable_le(lo, lo2) for lo2 in a.los):
            los.append(lo)
    his = []
    for hi in a.his:
        if any(_provable_le(hi2, hi) for hi2 in b.his):
            his.append(hi)
    for hi in b.his:
        if hi not in his and any(_provable_le(hi2, hi) for hi2 in a.his):
            his.append(hi)
    return Interval(tuple(los[:_MAX_CANDIDATES]), tuple(his[:_MAX_CANDIDATES]))


def _add(a: Interval, b: Interval) -> Interval:
    los = tuple(x + y for x in a.los for y in b.los)[:_MAX_CANDIDATES]
    his = tuple(x + y for x in a.his for y in b.his)[:_MAX_CANDIDATES]
    return Interval(los, his)


def _neg(a: Interval) -> Interval:
    return Interval(tuple(-h for h in a.his), tuple(-lo for lo in a.los))


def _mul(a: Interval, b: Interval) -> Interval:
    # Constant factor: scale (swapping for negative constants).
    for x, y in ((a, b), (b, a)):
        cs = [lo.constant_value() for lo in x.los if lo.is_constant]
        cs2 = [hi.constant_value() for hi in x.his if hi.is_constant]
        consts = [c for c in cs if c is not None and c in
                  [d for d in cs2 if d is not None]]
        if consts:
            c = consts[0]
            if c >= 0:
                return Interval(tuple(lo.scale(c) for lo in y.los),
                                tuple(hi.scale(c) for hi in y.his))
            return Interval(tuple(hi.scale(c) for hi in y.his),
                            tuple(lo.scale(c) for lo in y.los))
    # Non-negative times non-negative.
    if a.nonneg() and b.nonneg():
        los = tuple(x * y for x in a.los[:1] for y in b.los[:1])
        his = tuple(x * y for x in a.his[:2] for y in b.his[:2])
        return Interval(los, his[:_MAX_CANDIDATES])
    return Interval.top()


def _floordiv_hi(hi: Poly, divisor: Poly) -> Optional[Poly]:
    """Upper bound of ``floor(x / d)`` given ``x <= hi``.

    * constant divisor c > 0: ``hi / c`` (rational, still an upper bound);
    * single-symbol divisor p with ``hi = a*p + r``, constant ``r <= -1``
      and constant ``a``: ``floor(x/p) <= a - 1`` (since ``x/p < a``).
    """
    c = divisor.constant_value()
    if c is not None and c > 0:
        hc = hi.constant_value()
        if hc is not None:
            q = hc / c
            return Poly.const(q.numerator // q.denominator)
        return hi.scale(Fraction(1, 1) / c)
    syms = list(divisor.terms.keys())
    if len(syms) == 1 and len(syms[0]) == 1 and divisor.terms[syms[0]] == 1:
        p = syms[0][0]
        try:
            a = hi.coefficient_of(p)
        except ValueError:
            return None
        rest = hi - a * Poly.var(p)
        a_c, rest_c = a.constant_value(), rest.constant_value()
        if a_c is not None and a_c == int(a_c) and rest_c is not None \
                and rest_c <= -1:
            return Poly.const(int(a_c) - 1)
    return None


def _apply(op: str, left: Interval, right: Interval,
           right_expr: ast.Expr) -> Interval:
    """``left op right``; ``/`` and ``%`` bound by the divisor's polynomial."""
    if op == "+":
        return _add(left, right)
    if op == "-":
        return _add(left, _neg(right))
    if op == "*":
        return _mul(left, right)
    if op in ("/", "%"):
        div = expr_to_poly(right_expr)
        positive = div.is_nonnegative() and not div.is_zero()
        if op == "/":
            his = [q for q in (_floordiv_hi(hi, div) for hi in left.his)
                   if q is not None]
            los: Tuple[Poly, ...] = \
                (Poly.const(0),) if positive and left.nonneg() else ()
            return Interval(los, tuple(his[:_MAX_CANDIDATES]))
        if not left.nonneg():
            return Interval.top()
        if not positive:
            return Interval((Poly.const(0),), ())
        # also |x % d| <= x for non-negative x
        return Interval((Poly.const(0),), (div - Poly.const(1),)
                        + left.his[:_MAX_CANDIDATES - 1])
    if op in ("==", "!=", "<", "<=", ">", ">=", "&&", "||"):
        return Interval((Poly.const(0),), (Poly.const(1),))
    # shifts / bit operations: conservative
    return Interval.top()


@dataclass
class AccessRecord:
    """One array access with the symbolic state at its program point."""

    array: str
    node: ast.Index
    line: int
    write: bool
    #: per-dimension: (index expression, interval, polynomial normal form)
    dims: List[Tuple[ast.Expr, Interval, Poly]] = field(default_factory=list)
    #: guard facts active at the access: (poly of guarded expr, strict upper
    #: bound poly) — ``poly < bound`` holds here
    facts: List[Tuple[Poly, Poly]] = field(default_factory=list)


Env = Dict[str, Interval]
Facts = List[Tuple[Poly, Poly]]


class IntervalAnalysis:
    """Structured abstract interpreter producing access records."""

    def __init__(self, info: KernelInfo):
        self.info = info
        self.accesses: List[AccessRecord] = []
        # int parameters never assigned in the body are runtime *constants*:
        # their own symbol is always an exact bound, whatever branch
        # refinements or widening did to their environment interval.
        assigned = {s.target.name for s in ast.walk(info.kernel.body)
                    if isinstance(s, ast.Assign) and isinstance(s.target, ast.Var)}
        self._const_params = {
            p.name for p in info.kernel.params
            if not p.type.is_array and p.type.base == "int"
            and p.name not in assigned}

    # -- entry --------------------------------------------------------------
    def run(self) -> None:
        env: Env = {}
        for p in self.info.kernel.params:
            if not p.type.is_array:
                if p.type.base == "int":
                    env[p.name] = Interval.exact(Poly.var(p.name))
                else:
                    env[p.name] = Interval.top()
        self._stmt(self.info.kernel.body, env, [])

    # -- expressions --------------------------------------------------------
    def eval(self, expr: Optional[ast.Expr], env: Env, facts: Facts
             ) -> Interval:
        if expr is None:
            return Interval.top()
        if isinstance(expr, ast.IntLit):
            return Interval.const(expr.value)
        if isinstance(expr, ast.FloatLit):
            return Interval.const(Fraction(expr.value).limit_denominator(10**9))
        if isinstance(expr, ast.Var):
            iv = env.get(expr.name, Interval.top())
            if expr.name in self._const_params:
                exact = Poly.var(expr.name)
                iv = iv.with_lo(exact).with_hi(exact)
            return iv
        if isinstance(expr, ast.Unary):
            if expr.op == "-":
                return _neg(self.eval(expr.operand, env, facts))
            return Interval.top()
        if isinstance(expr, ast.Index):
            self._record_access(expr, env, facts, write=False)
            return Interval.top()
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, env, facts)
        if isinstance(expr, ast.Binary):
            assert expr.left is not None and expr.right is not None
            # comparisons yield 0/1, but their operands still record accesses
            return _apply(expr.op, self.eval(expr.left, env, facts),
                          self.eval(expr.right, env, facts), expr.right)
        return Interval.top()

    def _eval_call(self, expr: ast.Call, env: Env, facts: Facts) -> Interval:
        args = [self.eval(a, env, facts) for a in expr.args]
        if expr.name in ("int_cast", "float_cast") and args:
            return args[0]
        if expr.name == "min" and len(args) == 2:
            a, b = args
            his = tuple(dict.fromkeys(a.his + b.his))[:_MAX_CANDIDATES]
            los = []
            for lo in a.los:
                if any(_provable_le(lo, lo2) for lo2 in b.los):
                    los.append(lo)
            for lo in b.los:
                if any(_provable_le(lo, lo2) for lo2 in a.los):
                    los.append(lo)
            return Interval(tuple(los[:_MAX_CANDIDATES]), his)
        if expr.name == "max" and len(args) == 2:
            a, b = args
            los = tuple(dict.fromkeys(a.los + b.los))[:_MAX_CANDIDATES]
            his = []
            for hi in a.his:
                if any(_provable_le(hi2, hi) for hi2 in b.his):
                    his.append(hi)
            for hi in b.his:
                if any(_provable_le(hi2, hi) for hi2 in a.his):
                    his.append(hi)
            return Interval(los, tuple(his[:_MAX_CANDIDATES]))
        if expr.name == "clamp" and len(args) == 3:
            return Interval(args[1].los, args[2].his)
        if expr.name == "fabs":
            return Interval((Poly.const(0),), args[0].his if args else ())
        return Interval.top()

    # -- guard refinement ---------------------------------------------------
    _NEGATE = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=",
               "!=": "=="}

    def refine(self, env: Env, facts: Facts, cond: Optional[ast.Expr],
               branch: bool) -> Tuple[Env, Facts]:
        if cond is None or not isinstance(cond, ast.Binary):
            return env, facts
        op = cond.op
        if op == "&&":
            if branch:
                env, facts = self.refine(env, facts, cond.left, True)
                return self.refine(env, facts, cond.right, True)
            return env, facts
        if op == "||":
            if not branch:
                env, facts = self.refine(env, facts, cond.left, False)
                return self.refine(env, facts, cond.right, False)
            return env, facts
        if op not in ("<", "<=", ">", ">=", "==", "!="):
            return env, facts
        if not branch:
            op = self._NEGATE[op]
        if op == "!=":
            return env, facts
        left, right = cond.left, cond.right
        assert left is not None and right is not None
        # Normalize to LHS (op) RHS with op in {<, <=, ==} by swapping.
        if op in (">", ">="):
            left, right = right, left
            op = "<" if op == ">" else "<="
        env = dict(env)
        facts = list(facts)
        self._apply_le(env, facts, left, right, strict=(op == "<"))
        if op == "==":
            self._apply_le(env, facts, right, left, strict=False)
        else:
            # also refine the RHS variable's lower bound: right > left
            self._apply_ge(env, right, left, strict=(op == "<"))
        return env, facts

    def _apply_le(self, env: Env, facts: Facts, lhs: ast.Expr,
                  rhs: ast.Expr, strict: bool) -> None:
        """Record ``lhs < rhs`` (or <=) in env/facts."""
        bound = self.eval(rhs, env, facts)
        delta = Poly.const(1 if strict else 0)
        if isinstance(lhs, ast.Var) and lhs.name in self.info.symbols \
                and not self.info.symbols[lhs.name].is_array:
            iv = env.get(lhs.name, Interval.top())
            for hi in bound.his:
                iv = iv.with_hi(hi - delta)
            env[lhs.name] = iv
        else:
            lhs_poly = expr_to_poly(lhs)
            for hi in bound.his:
                facts.append((lhs_poly, hi + Poly.const(1) - delta))

    def _apply_ge(self, env: Env, rhs: ast.Expr, lhs: ast.Expr,
                  strict: bool) -> None:
        """From ``lhs < rhs``: refine rhs's lower bound to lhs (+1)."""
        if not (isinstance(rhs, ast.Var) and rhs.name in self.info.symbols
                and not self.info.symbols[rhs.name].is_array):
            return
        lo_iv = self.eval(lhs, env, [])
        delta = Poly.const(1 if strict else 0)
        iv = env.get(rhs.name, Interval.top())
        for lo in lo_iv.los:
            iv = iv.with_lo(lo + delta)
        env[rhs.name] = iv

    # -- access recording ---------------------------------------------------
    def _record_access(self, node: ast.Index, env: Env, facts: Facts,
                       write: bool) -> None:
        rec = AccessRecord(array=node.array, node=node, line=node.line,
                           write=write, facts=list(facts))
        for idx in node.indices:    # records nested accesses first
            rec.dims.append((idx, self.eval(idx, env, facts),
                             expr_to_poly(idx)))
        self.accesses.append(rec)

    # -- statements ---------------------------------------------------------
    def _stmt(self, stmt: Optional[ast.Stmt], env: Env, facts: Facts) -> Env:
        if stmt is None:
            return env
        if isinstance(stmt, ast.Block):
            for s in stmt.stmts:
                env = self._stmt(s, env, facts)
            return env
        if isinstance(stmt, ast.VarDecl):
            assert stmt.type is not None
            env = dict(env)
            for dim in stmt.type.dims:
                self.eval(dim, env, facts)
            if stmt.type.is_array:
                return env
            if stmt.init is not None:
                env[stmt.name] = self.eval(stmt.init, env, facts)
            else:
                env[stmt.name] = Interval.top()
            return env
        if isinstance(stmt, ast.Assign):
            env = dict(env)
            value = self.eval(stmt.value, env, facts)
            target = stmt.target
            if isinstance(target, ast.Index):
                self._record_access(target, env, facts, write=True)
                return env
            assert isinstance(target, ast.Var)
            if stmt.op != "=":
                assert stmt.value is not None
                value = _apply(stmt.op[:-1], self.eval(target, env, facts),
                               value, stmt.value)
            if target.name in self.info.symbols \
                    and not self.info.symbols[target.name].is_array:
                env[target.name] = value
            return env
        if isinstance(stmt, ast.ExprStmt):
            self.eval(stmt.expr, env, facts)
            return env
        if isinstance(stmt, ast.Return):
            self.eval(stmt.value, env, facts)
            return env
        if isinstance(stmt, (ast.Break, ast.Continue)):
            return env
        if isinstance(stmt, ast.If):
            t_env, t_facts = self.refine(env, facts, stmt.cond, True)
            self.eval(stmt.cond, env, facts)
            out_t = self._stmt(stmt.then, t_env, t_facts)
            e_env, e_facts = self.refine(env, facts, stmt.cond, False)
            out_e = self._stmt(stmt.orelse, e_env, e_facts) \
                if stmt.orelse is not None else e_env
            return self._join_env(out_t, out_e)
        if isinstance(stmt, ast.While):
            return self._loop(stmt.cond, stmt.body, None, env, facts)
        if isinstance(stmt, ast.For):
            env = self._stmt(stmt.init, env, facts)
            return self._loop(stmt.cond, stmt.body, stmt.step, env, facts)
        if isinstance(stmt, ast.Foreach):
            assert stmt.body is not None
            count = self.eval(stmt.count, env, facts)
            iv = Interval((Poly.const(0),),
                          tuple(hi - Poly.const(1) for hi in count.his))
            env = {**env, stmt.var: iv}
            out = self._loop_body_fix(stmt.body, env, facts, None, None,
                                      pinned={stmt.var: iv})
            return self._join_env(env, out)
        raise TypeError(f"unknown statement {stmt!r}")  # pragma: no cover

    # -- loops --------------------------------------------------------------
    def _loop(self, cond: Optional[ast.Expr], body: Optional[ast.Stmt],
              step: Optional[ast.Stmt], env: Env, facts: Facts) -> Env:
        assert body is not None
        out = self._loop_body_fix(body, env, facts, cond, step, pinned={})
        # After the loop the negated condition holds (if it simply exited).
        post, _ = self.refine(self._join_env(env, out), facts, cond, False)
        return post

    def _loop_body_fix(self, body: ast.Stmt, env: Env, facts: Facts,
                       cond: Optional[ast.Expr], step: Optional[ast.Stmt],
                       pinned: Dict[str, Interval]) -> Env:
        """Interpret ``body`` pass after pass; keep the last pass's accesses.

        A pass stops the loop when joining its exit state into its entry
        state changes no name bound at loop entry (body-local names are out
        of scope after the loop).  From the third pass on, the bounds that
        still move are dropped, so each pass keeps a subset of its entry
        candidates and the passes terminate.
        """
        enclosing = self.accesses
        cur = {**env, **pinned}
        for passes in itertools.count(1):
            self.accesses = []
            body_env, body_facts = self.refine(cur, facts, cond, True)
            out = self._stmt(body, body_env, body_facts)
            if step is not None:
                out = self._stmt(step, out, body_facts)
            nxt = dict(pinned)
            for name in cur.keys() - pinned.keys():
                a = cur[name]
                j = join(a, out[name])
                if passes >= 3:
                    # Keep exactly the candidates of `a` that survived the
                    # join (they still bound the next iteration).
                    j = Interval(tuple(lo for lo in a.los if lo in j.los),
                                 tuple(hi for hi in a.his if hi in j.his))
                nxt[name] = j
            if nxt == cur:
                break
            cur = nxt
        enclosing.extend(self.accesses)
        self.accesses = enclosing
        return self._join_env(cur, out)

    # -- environment lattice -------------------------------------------------
    @staticmethod
    def _join_env(a: Env, b: Env) -> Env:
        out: Env = {}
        for name in set(a) | set(b):
            out[name] = join(a.get(name, Interval.top()),
                             b.get(name, Interval.top()))
        return out


def analyze_intervals(info: KernelInfo) -> IntervalAnalysis:
    """Run the interval analysis over a checked kernel."""
    analysis = IntervalAnalysis(info)
    analysis.run()
    return analysis
