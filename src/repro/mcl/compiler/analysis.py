"""Static kernel analysis: flops, memory traffic, divergence.

The MCL compiler understands how MCPL computation maps to the hardware
(Sec. II-B), which lets it predict kernel behaviour.  This module walks a
kernel's AST with the scalar parameters bound to concrete values and
computes:

* ``flops`` — floating-point operations executed by the whole kernel,
* ``global_bytes`` — traffic to the device's ``main`` memory.  Accesses to
  arrays staged in ``local`` memory are charged once for the staging loop
  and *not* per use — this is exactly why tiled (optimized) kernels win in
  Fig. 6,
* ``divergence`` — the fraction of work executed under data-dependent
  control flow, which on SIMD hardware serializes lanes (the raytracer's
  limiting factor).

Loop trip counts are evaluated from the bound parameters; expressions that
depend on a ``foreach`` index are evaluated at the index's midpoint, a
standard representative-iteration approximation.  Data-dependent ``while``
loops cannot be counted statically and fall back to
``DEFAULT_WHILE_TRIPS``, flagged as divergent.

:func:`cost_params` names the parameters whose values the walk can read,
so a caller can share one analysis among launches that differ only in the
others (a raytracer leaf's ``row0``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from ..mcpl import ast
from ..mcpl.semantics import KernelInfo, analyze

__all__ = ["KernelAnalysis", "analyze_cost", "cost_params", "DEFAULT_WHILE_TRIPS"]

DEFAULT_WHILE_TRIPS = 16

_FLOP_OPS = {"+", "-", "*", "/"}
#: flop cost of builtin calls (single-precision device estimates)
_BUILTIN_FLOPS = {
    "sqrt": 4, "rsqrt": 2, "fabs": 1, "floor": 1, "ceil": 1,
    "exp": 8, "log": 8, "sin": 8, "cos": 8, "tan": 12,
    "pow": 16, "min": 1, "max": 1, "clamp": 2, "int_cast": 0, "float_cast": 0,
    "barrier": 0,
}


@dataclass
class KernelAnalysis:
    """Result of statically analyzing one kernel with bound parameters."""

    flops: float
    global_bytes: float
    local_bytes: float
    divergence: float        #: 0 (straight-line) .. 1 (all work divergent)
    parallelism: float       #: total foreach iterations at the top level
    #: global traffic split per accessed array (cache modeling needs this)
    global_bytes_by_array: Dict[str, float] = field(default_factory=dict)
    #: in-memory size of each array parameter, from its tracked dims
    array_footprints: Dict[str, float] = field(default_factory=dict)

    @property
    def arithmetic_intensity(self) -> float:
        """flops per byte of global traffic (the roofline x-axis)."""
        return self.flops / self.global_bytes if self.global_bytes > 0 else float("inf")


class _Unknown(Exception):
    """An expression could not be evaluated statically."""


class _CostWalker:
    def __init__(self, info: KernelInfo, params: Dict[str, Any]):
        self.info = info
        self.params = dict(params)
        # Only the kernel's array *parameters* live in device (global)
        # memory; every declared array — `local` tiles, `private` registers,
        # plain C-style locals — is on-chip.
        param_arrays = {p.name for p in info.kernel.params if p.type.is_array}
        self.local_arrays = {name for name, typ in info.symbols.items()
                             if typ.is_array and name not in param_arrays}
        # Array element type sizes
        self.elem_bytes = {name: typ.element_bytes
                           for name, typ in info.symbols.items() if typ.is_array}
        self.flops = 0.0
        self.global_bytes = 0.0
        self.global_by_array: Dict[str, float] = {}
        self.local_bytes = 0.0
        self.divergent_flops = 0.0
        self.top_parallelism = 1.0
        self._nest_product = 1.0
        self._saw_top_foreach = False

    # -- static expression evaluation --------------------------------------
    def eval_expr(self, expr: ast.Expr, env: Dict[str, Any]):
        """Evaluate with MCPL numeric semantics: int / int truncates.

        Returns a Python int or float; raises :class:`_Unknown` for
        expressions depending on unbound variables.  Loop-variable midpoints
        stored as floats make affected divisions approximate, which is fine
        for cost estimation.
        """
        if isinstance(expr, ast.IntLit):
            return expr.value
        if isinstance(expr, ast.FloatLit):
            return expr.value
        if isinstance(expr, ast.Var):
            if expr.name in env:
                return env[expr.name]
            raise _Unknown(expr.name)
        if isinstance(expr, ast.Binary):
            left = self.eval_expr(expr.left, env)
            right = self.eval_expr(expr.right, env)
            both_int = isinstance(left, int) and isinstance(right, int)
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
            if expr.op == "/":
                if right == 0:
                    raise _Unknown("div0")
                if both_int:
                    q = abs(left) // abs(right)
                    return q if (left >= 0) == (right >= 0) else -q
                return left / right
            if expr.op == "%":
                if right == 0:
                    return 0
                if both_int:
                    return left - (abs(left) // abs(right)) * \
                        (right if (left >= 0) == (right >= 0) else -right)
                return left % right
            raise _Unknown(expr.op)
        if isinstance(expr, ast.Unary) and expr.op == "-":
            return -self.eval_expr(expr.operand, env)
        if isinstance(expr, ast.Call) and expr.name in ("min", "max"):
            values = [self.eval_expr(a, env) for a in expr.args]
            return min(values) if expr.name == "min" else max(values)
        raise _Unknown(type(expr).__name__)

    # -- expression costs ----------------------------------------------------
    def expr_cost(self, expr: ast.Expr, mult: float, divergent: bool) -> None:
        """Accumulate the cost of evaluating ``expr`` once, times ``mult``."""
        if expr is None:
            return
        if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.Var)):
            return
        if isinstance(expr, ast.Index):
            for idx in expr.indices:
                self.expr_cost(idx, mult, divergent)
            nbytes = self.elem_bytes.get(expr.array, 4)
            if expr.array in self.local_arrays:
                self.local_bytes += nbytes * mult
            else:
                self.global_bytes += nbytes * mult
                self.global_by_array[expr.array] = \
                    self.global_by_array.get(expr.array, 0.0) + nbytes * mult
            return
        if isinstance(expr, ast.Binary):
            self.expr_cost(expr.left, mult, divergent)
            self.expr_cost(expr.right, mult, divergent)
            if expr.op in _FLOP_OPS and self._is_float_op(expr):
                self.flops += mult
                if divergent:
                    self.divergent_flops += mult
            return
        if isinstance(expr, ast.Unary):
            self.expr_cost(expr.operand, mult, divergent)
            if expr.op == "-" and self._is_float_op(expr):
                self.flops += mult
            return
        if isinstance(expr, ast.Call):
            for arg in expr.args:
                self.expr_cost(arg, mult, divergent)
            cost = _BUILTIN_FLOPS.get(expr.name, 1)
            self.flops += cost * mult
            if divergent:
                self.divergent_flops += cost * mult
            return

    def _is_float_op(self, expr: ast.Expr) -> bool:
        """Heuristic type inference: does this operation produce a float?"""
        if isinstance(expr, ast.FloatLit):
            return True
        if isinstance(expr, ast.IntLit):
            return False
        if isinstance(expr, ast.Var):
            typ = self.info.symbols.get(expr.name)
            return typ is not None and typ.base == "float"
        if isinstance(expr, ast.Index):
            typ = self.info.symbols.get(expr.array)
            return typ is not None and typ.base == "float"
        if isinstance(expr, ast.Binary):
            return self._is_float_op(expr.left) or self._is_float_op(expr.right)
        if isinstance(expr, ast.Unary):
            return self._is_float_op(expr.operand)
        if isinstance(expr, ast.Call):
            return expr.name not in ("int_cast",)
        return False

    # -- statement costs --------------------------------------------------------
    def stmt_cost(self, stmt: ast.Stmt, env: Dict[str, float],
                  mult: float, divergent: bool, depth: int) -> None:
        if isinstance(stmt, ast.Block):
            for s in stmt.stmts:
                self.stmt_cost(s, env, mult, divergent, depth)
        elif isinstance(stmt, ast.VarDecl):
            if stmt.init is not None:
                self.expr_cost(stmt.init, mult, divergent)
                try:
                    # Track statically evaluable locals (e.g. recovered
                    # indices like `int w = ci * 4 + ti;`) so later loop
                    # bounds that mention them stay analyzable.
                    env[stmt.name] = self.eval_expr(stmt.init, env)
                except _Unknown:
                    pass
        elif isinstance(stmt, ast.Assign):
            self.expr_cost(stmt.value, mult, divergent)
            if isinstance(stmt.target, ast.Index):
                self.expr_cost(stmt.target, mult, divergent)
            if stmt.op != "=" and self._target_is_float(stmt.target):
                self.flops += mult
                if divergent:
                    self.divergent_flops += mult
        elif isinstance(stmt, ast.Foreach):
            count = self._trip_count(stmt.count, env)
            # Parallelism of the kernel is the deepest foreach-nest product.
            nest_product = self._nest_product * max(count, 1.0)
            self.top_parallelism = max(self.top_parallelism, nest_product)
            self._saw_top_foreach = True
            # Evaluate the body at the midpoints of equal index buckets and
            # average: a single midpoint thread misrepresents kernels whose
            # work distribution depends on the index (chunked loops on the
            # Xeon Phi where only the first threads have work, bounds guards
            # introduced by block decomposition).  Bucket midpoints estimate
            # coverage fractions without double-weighting the extremes.
            buckets = int(min(max(count, 1), 8))
            # Integer sample indices (foreach variables are ints) at bucket
            # midpoints, clamped to the valid range.
            samples = sorted({
                min(int(count * (2 * i + 1) / (2 * buckets)),
                    max(int(count) - 1, 0))
                for i in range(buckets)})
            weight = mult * count / len(samples)
            prev = self._nest_product
            self._nest_product = nest_product
            for value in samples:
                inner_env = dict(env)
                inner_env[stmt.var] = value
                self.stmt_cost(stmt.body, inner_env, weight, divergent, depth + 1)
            self._nest_product = prev
        elif isinstance(stmt, ast.For):
            trips, loop_env = self._for_trips(stmt, env)
            self.stmt_cost(stmt.body, loop_env, mult * trips, divergent, depth)
            self.stmt_cost(stmt.step, loop_env, mult * trips, divergent, depth)
        elif isinstance(stmt, ast.If):
            self.expr_cost(stmt.cond, mult, divergent)
            data_dep = self._is_data_dependent(stmt.cond, env)
            if not data_dep:
                # Statically decidable guards (bounds checks introduced by
                # block decomposition, chunk guards) cost only the branch
                # actually taken at this sample point.
                taken = self._eval_condition(stmt.cond, env)
                if taken is True:
                    self.stmt_cost(stmt.then, env, mult, divergent, depth)
                    return
                if taken is False:
                    if stmt.orelse is not None:
                        self.stmt_cost(stmt.orelse, env, mult, divergent, depth)
                    return
            # Each branch runs with probability 1/2 when data-dependent;
            # on SIMD hardware both sides cost time, which the divergence
            # score captures.
            branch_mult = mult * (0.5 if data_dep else 1.0)
            self.stmt_cost(stmt.then, env, branch_mult, divergent or data_dep, depth)
            if stmt.orelse is not None:
                self.stmt_cost(stmt.orelse, env, branch_mult,
                               divergent or data_dep, depth)
        elif isinstance(stmt, ast.While):
            self.expr_cost(stmt.cond, mult, True)
            self.stmt_cost(stmt.body, env, mult * DEFAULT_WHILE_TRIPS, True, depth)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.expr_cost(stmt.value, mult, divergent)
        elif isinstance(stmt, ast.ExprStmt):
            self.expr_cost(stmt.expr, mult, divergent)
        # Break/Continue cost nothing.

    def _target_is_float(self, target: ast.Expr) -> bool:
        name = target.name if isinstance(target, ast.Var) else target.array
        typ = self.info.symbols.get(name)
        return typ is not None and typ.base == "float"

    def _trip_count(self, expr: ast.Expr, env: Dict[str, float]) -> float:
        try:
            return max(self.eval_expr(expr, env), 0.0)
        except _Unknown:
            return float(DEFAULT_WHILE_TRIPS)

    def _for_trips(self, stmt: ast.For, env: Dict[str, float]):
        """Estimate a for loop's trip count from init/cond/step."""
        loop_env = dict(env)
        var: Optional[str] = None
        if isinstance(stmt.init, ast.VarDecl) and stmt.init.init is not None:
            var = stmt.init.name
            try:
                loop_env[var] = self.eval_expr(stmt.init.init, env)
            except _Unknown:
                loop_env[var] = 0.0
        elif isinstance(stmt.init, ast.Assign) and isinstance(stmt.init.target, ast.Var):
            var = stmt.init.target.name
            try:
                loop_env[var] = self.eval_expr(stmt.init.value, env)
            except _Unknown:
                loop_env[var] = 0.0
        # Pattern: (a conjunction of) i < bound, with a linear step.
        bounds = []
        if var is not None:
            for c in ast.conjuncts(stmt.cond):
                if (isinstance(c, ast.Binary) and c.op in ("<", "<=")
                        and isinstance(c.left, ast.Var) and c.left.name == var):
                    try:
                        bounds.append((self.eval_expr(c.right, loop_env), c.op))
                    except _Unknown:
                        pass
        if bounds:
            try:
                bound, op = min(bounds, key=lambda b: b[0])
                start = loop_env[var]
                step = 1.0
                if (isinstance(stmt.step, ast.Assign)
                        and stmt.step.op in ("+=",)):
                    try:
                        step = self.eval_expr(stmt.step.value, loop_env)
                    except _Unknown:
                        step = 1.0
                trips = max((bound - start) / max(step, 1.0), 0.0)
                if op == "<=":
                    trips += 1
                # Representative midpoint for the loop variable inside the body.
                loop_env[var] = start + max(trips - 1, 0.0) / 2.0 * step
                return trips, loop_env
            except _Unknown:
                pass
        return float(DEFAULT_WHILE_TRIPS), loop_env

    def _eval_condition(self, cond: ast.Expr, env: Dict[str, float]):
        """Statically evaluate a boolean condition, or None if unknown."""
        if isinstance(cond, ast.Binary):
            if cond.op == "&&":
                left = self._eval_condition(cond.left, env)
                right = self._eval_condition(cond.right, env)
                if left is False or right is False:
                    return False
                if left is True and right is True:
                    return True
                return None
            if cond.op == "||":
                left = self._eval_condition(cond.left, env)
                right = self._eval_condition(cond.right, env)
                if left is True or right is True:
                    return True
                if left is False and right is False:
                    return False
                return None
            if cond.op in ("<", "<=", ">", ">=", "==", "!="):
                try:
                    left = self.eval_expr(cond.left, env)
                    right = self.eval_expr(cond.right, env)
                except _Unknown:
                    return None
                return {
                    "<": left < right, "<=": left <= right,
                    ">": left > right, ">=": left >= right,
                    "==": left == right, "!=": left != right,
                }[cond.op]
        return None

    def _is_data_dependent(self, cond: ast.Expr, env: Dict[str, float]) -> bool:
        """A condition is data-dependent if it reads array contents or RNG state."""
        for node in ast.walk(cond):
            if isinstance(node, ast.Index):
                return True
            if isinstance(node, ast.Var) and node.name not in env \
                    and node.name not in self.params:
                # Reads a mutable local computed from data.
                typ = self.info.symbols.get(node.name)
                if typ is not None and typ.base == "float":
                    return True
        return False


#: binary operators :meth:`_CostWalker.eval_expr` folds
_EVAL_OPS = {"+", "-", "*", "/", "%"}


def _evaluable(expr: Optional[ast.Expr], bound: Set[str]) -> bool:
    """Can :meth:`_CostWalker.eval_expr` fold ``expr`` when ``bound`` is bound?

    Mirrors ``eval_expr`` case for case: any other node (an array read, a
    call such as ``float_cast``, a comparison) raises ``_Unknown`` there.
    """
    if isinstance(expr, (ast.IntLit, ast.FloatLit)):
        return True
    if isinstance(expr, ast.Var):
        return expr.name in bound
    if isinstance(expr, ast.Binary):
        return (expr.op in _EVAL_OPS and _evaluable(expr.left, bound)
                and _evaluable(expr.right, bound))
    if isinstance(expr, ast.Unary):
        return expr.op == "-" and _evaluable(expr.operand, bound)
    if isinstance(expr, ast.Call):
        return expr.name in ("min", "max") and all(
            _evaluable(a, bound) for a in expr.args)
    return False


def cost_params(info: KernelInfo, names: Iterable[str]) -> Tuple[str, ...]:
    """The passed parameter names whose values can change a cost estimate.

    ``analyze_cost`` binds every passed name and reads values only through
    ``eval_expr``, at these sinks: ``foreach`` counts; ``for`` init,
    condition and step; ``if`` conditions (evaluated, and checked for
    bound names); and the dims of every array type, which feed the
    footprints and ``get_feedback``'s working-set and small-array checks.
    A local enters the walker's environment only when its init folds:
    literals, bound names, ``+ - * / %``, unary ``-`` and ``min``/``max``.
    Those bindable locals are a fixpoint, and the sinks are closed through
    their inits; a local read from an array or through ``float_cast`` is
    never bound, so its inputs cannot reach a sink.  Two launches that
    agree on the returned names (and pass the same names) therefore get
    identical ``analyze_cost`` and ``estimate_efficiency`` results.
    """
    passed = set(names)
    sinks: List[Optional[ast.Expr]] = [dim for p in info.kernel.params
                                       for dim in p.type.dims]
    decls: List[Tuple[str, ast.Expr]] = []
    bound = set(passed)
    for s in ast.walk(info.kernel.body):
        if isinstance(s, ast.VarDecl):
            if s.type is not None:
                sinks.extend(s.type.dims)
            if s.init is not None:
                decls.append((s.name, s.init))
        elif isinstance(s, ast.Foreach):
            sinks.append(s.count)
            bound.add(s.var)
        elif isinstance(s, ast.If):
            sinks.append(s.cond)
        elif isinstance(s, ast.For):
            sinks.append(s.cond)
            if isinstance(s.init, ast.VarDecl):
                sinks.append(s.init.init)
                bound.add(s.init.name)
            elif isinstance(s.init, ast.Assign):
                sinks.append(s.init.value)
                if isinstance(s.init.target, ast.Var):
                    bound.add(s.init.target.name)
            if isinstance(s.step, ast.Assign):
                sinks.append(s.step.value)
    grown = True
    while grown:
        grown = False
        for name, init in decls:
            if name not in bound and _evaluable(init, bound):
                bound.add(name)
                grown = True
    inits: Dict[str, List[ast.Expr]] = {}
    for name, init in decls:
        if _evaluable(init, bound):
            inits.setdefault(name, []).append(init)
    relevant: Set[str] = set()
    todo = [name for expr in sinks for name in _vars_of(expr)]
    while todo:
        name = todo.pop()
        if name not in relevant:
            relevant.add(name)
            for init in inits.get(name, ()):
                todo.extend(_vars_of(init))
    return tuple(sorted(relevant & passed))


def _vars_of(expr: Optional[ast.Expr]) -> Set[str]:
    """The variables ``expr`` reads, without the arrays it indexes."""
    return {e.name for e in ast.walk(expr) if isinstance(e, ast.Var)}


def analyze_cost(info_or_kernel, params: Dict[str, Any]) -> KernelAnalysis:
    """Statically analyze a kernel with scalar parameters bound.

    ``params`` maps every scalar parameter name to its value for the launch
    being modeled (e.g. ``{"n": 32768, "m": 32768, "p": 32768}``).
    """
    info = info_or_kernel if isinstance(info_or_kernel, KernelInfo) \
        else analyze(info_or_kernel)
    missing = [p.name for p in info.kernel.scalar_params if p.name not in params]
    if missing:
        raise ValueError(f"analyze_cost: missing parameter values for {missing}")
    walker = _CostWalker(info, params)
    env = {name: float(value) for name, value in params.items()}
    walker.stmt_cost(info.kernel.body, env, 1.0, False, 0)
    divergence = (walker.divergent_flops / walker.flops) if walker.flops > 0 else 0.0
    footprints: Dict[str, float] = {}
    for p in info.kernel.array_params:
        size = float(p.type.element_bytes)
        try:
            for dim in p.type.dims:
                size *= walker.eval_expr(dim, env)
            footprints[p.name] = size
        except _Unknown:
            pass
    return KernelAnalysis(
        flops=walker.flops,
        global_bytes=walker.global_bytes,
        local_bytes=walker.local_bytes,
        divergence=min(divergence, 1.0),
        parallelism=walker.top_parallelism if walker._saw_top_foreach else 1.0,
        global_bytes_by_array=walker.global_by_array,
        array_footprints=footprints,
    )
