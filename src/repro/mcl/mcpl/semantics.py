"""Semantic analysis for MCPL kernels.

Checks, against the kernel's hardware description:

* the kernel's level exists in the hardware-description library,
* every ``foreach`` unit is a parallelism abstraction available at that level
  (inherited from ancestors, as HDL levels refine their parents),
* memory-space qualifiers (``local``) name memory spaces of the level,
* variables are declared before use and not redeclared in scope,
* array accesses have the right number of indices,
* arrays are not used as scalars and scalars are not indexed.

The result is a :class:`KernelInfo` carrying the symbol table and the
``foreach`` structure, which the analysis, codegen and interpreter reuse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..hdl.ast import HardwareDescription
from ..hdl.library import get_description
from . import ast

__all__ = ["analyze", "KernelInfo", "McplSemanticError", "BUILTIN_FUNCTIONS"]


class McplSemanticError(ValueError):
    """A kernel violates MCPL static semantics."""


#: builtin math functions available in kernels (single-precision semantics);
#: ``barrier()`` synchronizes the work-items of one group and is a no-op in
#: the sequential reference interpreter.
BUILTIN_FUNCTIONS: Dict[str, int] = {
    "sqrt": 1, "rsqrt": 1, "fabs": 1, "floor": 1, "ceil": 1,
    "exp": 1, "log": 1, "sin": 1, "cos": 1, "tan": 1,
    "pow": 2, "min": 2, "max": 2, "clamp": 3, "int_cast": 1, "float_cast": 1,
    "barrier": 0,
}


@dataclass
class ForeachInfo:
    """One foreach in source order, with nesting depth."""

    stmt: ast.Foreach
    depth: int          #: 0 = outermost parallel loop
    unit: str


@dataclass
class KernelInfo:
    """Resolved facts about a checked kernel."""

    kernel: ast.Kernel
    description: HardwareDescription
    #: name -> declared type for every parameter and local
    symbols: Dict[str, ast.Type] = field(default_factory=dict)
    #: all foreach statements in source order
    foreachs: List[ForeachInfo] = field(default_factory=list)
    #: names of arrays declared with the `local` qualifier
    local_arrays: Set[str] = field(default_factory=set)
    #: parallelism units used, in nesting order of first use
    units_used: List[str] = field(default_factory=list)


class _Scope:
    def __init__(self, parent: Optional["_Scope"] = None):
        self.parent = parent
        self.names: Dict[str, ast.Type] = {}

    def declare(self, name: str, typ: ast.Type, line: int) -> None:
        if name in self.names:
            raise McplSemanticError(f"redeclaration of {name!r} (line {line})")
        self.names[name] = typ

    def lookup(self, name: str) -> Optional[ast.Type]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.names:
                return scope.names[name]
            scope = scope.parent
        return None


class _Checker:
    def __init__(self, kernel: ast.Kernel, description: HardwareDescription):
        self.kernel = kernel
        self.hd = description
        self.info = KernelInfo(kernel=kernel, description=description)

    def run(self) -> KernelInfo:
        scope = _Scope()
        # Parameter dims may only reference earlier (scalar int) parameters.
        for p in self.kernel.params:
            for dim in p.type.dims:
                self._check_dim_expr(dim, scope)
            scope.declare(p.name, p.type, 0)
            self.info.symbols[p.name] = p.type
        self._check_stmt(self.kernel.body, scope, foreach_depth=0)
        return self.info

    def _check_dim_expr(self, expr: ast.Expr, scope: _Scope) -> None:
        for var in ast.walk(expr):
            if isinstance(var, ast.Var):
                typ = scope.lookup(var.name)
                if typ is None:
                    raise McplSemanticError(
                        f"array dimension references undeclared {var.name!r} "
                        f"(line {var.line})")
                if typ.is_array or typ.base != "int":
                    raise McplSemanticError(
                        f"array dimension {var.name!r} must be a scalar int")

    # -- statements ------------------------------------------------------------
    def _check_stmt(self, stmt: ast.Stmt, scope: _Scope, foreach_depth: int) -> None:
        if isinstance(stmt, ast.Block):
            inner = _Scope(scope)
            for s in stmt.stmts:
                self._check_stmt(s, inner, foreach_depth)
        elif isinstance(stmt, ast.VarDecl):
            self._check_decl(stmt, scope)
        elif isinstance(stmt, ast.Assign):
            self._check_lvalue(stmt.target, scope)
            self._check_expr(stmt.value, scope)
        elif isinstance(stmt, ast.Foreach):
            self._check_foreach(stmt, scope, foreach_depth)
        elif isinstance(stmt, ast.For):
            inner = _Scope(scope)
            self._check_stmt(stmt.init, inner, foreach_depth)
            self._check_expr(stmt.cond, inner)
            self._check_stmt(stmt.step, inner, foreach_depth)
            self._check_stmt(stmt.body, inner, foreach_depth)
        elif isinstance(stmt, ast.If):
            self._check_expr(stmt.cond, scope)
            self._check_stmt(stmt.then, scope, foreach_depth)
            if stmt.orelse is not None:
                self._check_stmt(stmt.orelse, scope, foreach_depth)
        elif isinstance(stmt, ast.While):
            self._check_expr(stmt.cond, scope)
            self._check_stmt(stmt.body, scope, foreach_depth)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._check_expr(stmt.value, scope)
                if self.kernel.return_type.base == "void":
                    raise McplSemanticError(
                        f"void kernel returns a value (line {stmt.line})")
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            pass
        elif isinstance(stmt, ast.ExprStmt):
            self._check_expr(stmt.expr, scope)
        else:  # pragma: no cover - parser produces no other nodes
            raise McplSemanticError(f"unknown statement {stmt!r}")

    def _check_decl(self, decl: ast.VarDecl, scope: _Scope) -> None:
        if decl.qualifier is not None and decl.qualifier != "const":
            space = self.hd.memory_space(decl.qualifier)
            if space is None:
                raise McplSemanticError(
                    f"memory space {decl.qualifier!r} not defined at level "
                    f"{self.hd.name!r} (line {decl.line}); available: "
                    f"{sorted(n for hd in self.hd.ancestry() for n in hd.memory_spaces)}")
            if decl.qualifier == "local":
                self.info.local_arrays.add(decl.name)
        for dim in decl.type.dims:
            self._check_expr(dim, scope)
        if decl.init is not None:
            if decl.type.is_array:
                raise McplSemanticError(
                    f"array {decl.name!r} cannot have an initializer (line {decl.line})")
            self._check_expr(decl.init, scope)
        scope.declare(decl.name, decl.type, decl.line)
        self.info.symbols.setdefault(decl.name, decl.type)

    def _check_foreach(self, stmt: ast.Foreach, scope: _Scope, depth: int) -> None:
        unit = self.hd.par_unit(stmt.unit)
        if unit is None:
            available = sorted(
                n for hd in self.hd.ancestry() for n in hd.par_units)
            raise McplSemanticError(
                f"parallelism unit {stmt.unit!r} not defined at level "
                f"{self.hd.name!r} (line {stmt.line}); available: {available}")
        self._check_expr(stmt.count, scope)
        inner = _Scope(scope)
        inner.declare(stmt.var, ast.Type("int"), stmt.line)
        self.info.symbols.setdefault(stmt.var, ast.Type("int"))
        self.info.foreachs.append(ForeachInfo(stmt=stmt, depth=depth, unit=stmt.unit))
        if stmt.unit not in self.info.units_used:
            self.info.units_used.append(stmt.unit)
        self._check_stmt(stmt.body, inner, depth + 1)

    # -- expressions -------------------------------------------------------------
    def _check_lvalue(self, target: ast.Expr, scope: _Scope) -> None:
        if isinstance(target, ast.Var):
            typ = scope.lookup(target.name)
            if typ is None:
                raise McplSemanticError(
                    f"assignment to undeclared {target.name!r} (line {target.line})")
            if typ.is_array:
                raise McplSemanticError(
                    f"cannot assign whole array {target.name!r} (line {target.line})")
        elif isinstance(target, ast.Index):
            self._check_index(target, scope)
        else:
            raise McplSemanticError(f"invalid assignment target (line {target.line})")

    def _check_index(self, node: ast.Index, scope: _Scope) -> None:
        typ = scope.lookup(node.array)
        if typ is None:
            raise McplSemanticError(
                f"index into undeclared {node.array!r} (line {node.line})")
        if not typ.is_array:
            raise McplSemanticError(
                f"{node.array!r} is not an array (line {node.line})")
        if len(node.indices) != len(typ.dims):
            raise McplSemanticError(
                f"{node.array!r} has {len(typ.dims)} dims, indexed with "
                f"{len(node.indices)} (line {node.line})")
        for idx in node.indices:
            self._check_expr(idx, scope)

    def _check_expr(self, expr: ast.Expr, scope: _Scope) -> None:
        if isinstance(expr, (ast.IntLit, ast.FloatLit)):
            return
        if isinstance(expr, ast.Var):
            typ = scope.lookup(expr.name)
            if typ is None:
                raise McplSemanticError(
                    f"use of undeclared {expr.name!r} (line {expr.line})")
            if typ.is_array:
                raise McplSemanticError(
                    f"array {expr.name!r} used as a scalar (line {expr.line})")
            return
        if isinstance(expr, ast.Index):
            self._check_index(expr, scope)
            return
        if isinstance(expr, ast.Binary):
            self._check_expr(expr.left, scope)
            self._check_expr(expr.right, scope)
            return
        if isinstance(expr, ast.Unary):
            self._check_expr(expr.operand, scope)
            return
        if isinstance(expr, ast.Call):
            arity = BUILTIN_FUNCTIONS.get(expr.name)
            if arity is None:
                raise McplSemanticError(
                    f"unknown function {expr.name!r} (line {expr.line}); "
                    f"builtins: {sorted(BUILTIN_FUNCTIONS)}")
            if len(expr.args) != arity:
                raise McplSemanticError(
                    f"{expr.name}() takes {arity} args, got {len(expr.args)} "
                    f"(line {expr.line})")
            for arg in expr.args:
                self._check_expr(arg, scope)
            return
        raise McplSemanticError(f"unknown expression {expr!r}")  # pragma: no cover


def analyze(kernel: ast.Kernel,
            description: Optional[HardwareDescription] = None) -> KernelInfo:
    """Check a kernel against its (or an explicit) hardware description."""
    hd = description if description is not None else get_description(kernel.level)
    if description is None and hd.name != kernel.level:  # pragma: no cover
        raise McplSemanticError(f"level mismatch for kernel {kernel.name}")
    return _Checker(kernel, hd).run()
