"""OpenCL-C code generation and launch-configuration derivation.

MCL generates OpenCL code for each leaf hardware description, plus glue code
that calls the kernels with the right work-group / work-item configuration
(Sec. III-A).  This module renders a (translated, leaf-level) kernel AST to
OpenCL C source text and derives the NDRange configuration from the kernel's
``foreach`` structure and its parameter values — different devices get
different granularities (the Xeon Phi's chunked loops produce far fewer,
coarser work-items than a GPU's).

The generated source is real OpenCL C and structurally checkable, but in
this reproduction it is never fed to an OpenCL driver; correctness of the
kernel semantics is validated via the MCPL interpreter instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from ..mcpl import ast
from ..mcpl.semantics import KernelInfo, analyze
from .analysis import _CostWalker, _Unknown  # reuse the static evaluator

__all__ = ["generate_opencl", "derive_launch_config", "LaunchConfig"]


@dataclass(frozen=True)
class LaunchConfig:
    """OpenCL NDRange configuration for one kernel launch."""

    global_size: Tuple[int, ...]
    local_size: Tuple[int, ...]

    @property
    def work_items(self) -> int:
        out = 1
        for g in self.global_size:
            out *= g
        return out

    @property
    def work_groups(self) -> int:
        out = 1
        for g, l in zip(self.global_size, self.local_size):
            out *= max(g // max(l, 1), 1)
        return out


# Units that map to OpenCL group/local dimensions.
_GROUP_UNITS = {"blocks", "cores"}
_LOCAL_UNITS = {"threads"}
_SIMD_UNITS = {"warps", "wavefronts", "vectors"}


class _OpenClWriter:
    def __init__(self, info: KernelInfo):
        self.info = info
        self.lines: List[str] = []
        self.indent = 0
        #: foreach nest -> OpenCL dimension bookkeeping
        self.dim_counter = {"group": 0, "local": 0, "global": 0}

    def emit(self, text: str = "") -> None:
        self.lines.append("    " * self.indent + text)

    # -- types / names -------------------------------------------------------
    def render_signature(self) -> str:
        kernel = self.info.kernel
        parts = []
        for p in kernel.params:
            if p.type.is_array:
                parts.append(f"__global {p.type.base}* {p.name}")
            else:
                parts.append(f"{p.type.base} {p.name}")
        return f"__kernel void {kernel.name}({', '.join(parts)})"

    def linearize(self, node: ast.Index) -> str:
        """Render a multi-dim access as linearized pointer arithmetic."""
        typ = self.info.symbols[node.array]
        dims = typ.dims
        expr = self.render_expr(node.indices[0])
        for axis in range(1, len(dims)):
            expr = f"({expr}) * ({self.render_expr(dims[axis])}) + " \
                   f"({self.render_expr(node.indices[axis])})"
        return f"{node.array}[{expr}]"

    # -- expressions -----------------------------------------------------------
    def render_expr(self, expr: ast.Expr) -> str:
        if isinstance(expr, ast.IntLit):
            return str(expr.value)
        if isinstance(expr, ast.FloatLit):
            return f"{expr.value!r}f"
        if isinstance(expr, ast.Var):
            return expr.name
        if isinstance(expr, ast.Index):
            return self.linearize(expr)
        if isinstance(expr, ast.Binary):
            return f"({self.render_expr(expr.left)} {expr.op} {self.render_expr(expr.right)})"
        if isinstance(expr, ast.Unary):
            return f"({expr.op}{self.render_expr(expr.operand)})"
        if isinstance(expr, ast.Call):
            if expr.name == "barrier":
                return "barrier(CLK_LOCAL_MEM_FENCE)"
            args = ", ".join(self.render_expr(a) for a in expr.args)
            name = {"int_cast": "(int)", "float_cast": "(float)",
                    "fabs": "fabs", "rsqrt": "rsqrt"}.get(expr.name, expr.name)
            if name.startswith("("):
                return f"{name}({args})"
            return f"{name}({args})"
        raise ValueError(f"cannot render {expr!r}")  # pragma: no cover

    # -- statements ---------------------------------------------------------------
    def render_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self.emit("{")
            self.indent += 1
            for s in stmt.stmts:
                self.render_stmt(s)
            self.indent -= 1
            self.emit("}")
        elif isinstance(stmt, ast.VarDecl):
            self.render_decl(stmt)
        elif isinstance(stmt, ast.Assign):
            target = (stmt.target.name if isinstance(stmt.target, ast.Var)
                      else self.linearize(stmt.target))
            self.emit(f"{target} {stmt.op} {self.render_expr(stmt.value)};")
        elif isinstance(stmt, ast.Foreach):
            self.render_foreach(stmt)
        elif isinstance(stmt, ast.For):
            init = self.render_inline(stmt.init)
            step = self.render_inline(stmt.step)
            self.emit(f"for ({init}; {self.render_expr(stmt.cond)}; {step})")
            self.render_stmt(_as_block(stmt.body))
        elif isinstance(stmt, ast.If):
            self.emit(f"if ({self.render_expr(stmt.cond)})")
            self.render_stmt(_as_block(stmt.then))
            if stmt.orelse is not None:
                self.emit("else")
                self.render_stmt(_as_block(stmt.orelse))
        elif isinstance(stmt, ast.While):
            self.emit(f"while ({self.render_expr(stmt.cond)})")
            self.render_stmt(_as_block(stmt.body))
        elif isinstance(stmt, ast.Return):
            if stmt.value is None:
                self.emit("return;")
            else:
                self.emit(f"return {self.render_expr(stmt.value)};")
        elif isinstance(stmt, ast.Break):
            self.emit("break;")
        elif isinstance(stmt, ast.Continue):
            self.emit("continue;")
        elif isinstance(stmt, ast.ExprStmt):
            self.emit(f"{self.render_expr(stmt.expr)};")
        else:  # pragma: no cover
            raise ValueError(f"cannot render {stmt!r}")

    def render_inline(self, stmt: ast.Stmt) -> str:
        if isinstance(stmt, ast.VarDecl):
            init = f" = {self.render_expr(stmt.init)}" if stmt.init is not None else ""
            return f"{stmt.type.base} {stmt.name}{init}"
        if isinstance(stmt, ast.Assign):
            target = (stmt.target.name if isinstance(stmt.target, ast.Var)
                      else self.linearize(stmt.target))
            return f"{target} {stmt.op} {self.render_expr(stmt.value)}"
        raise ValueError(f"cannot inline {stmt!r}")  # pragma: no cover

    def render_decl(self, decl: ast.VarDecl) -> None:
        if decl.type.is_array:
            size = " * ".join(f"({self.render_expr(d)})" for d in decl.type.dims)
            qual = "__local " if decl.qualifier == "local" else ""
            self.emit(f"{qual}{decl.type.base} {decl.name}[{size}];")
        else:
            init = f" = {self.render_expr(decl.init)}" if decl.init is not None else ""
            self.emit(f"{decl.type.base} {decl.name}{init};")

    def render_foreach(self, stmt: ast.Foreach) -> None:
        """Map a foreach onto OpenCL work-item builtins.

        ``blocks``/``cores`` become ``get_group_id``, ``threads`` become
        ``get_local_id``, SIMD units (``vectors``) stay as sequential loops
        the device compiler vectorizes.
        """
        unit = stmt.unit
        if unit in _GROUP_UNITS:
            dim = self.dim_counter["group"]
            self.dim_counter["group"] += 1
            self.emit(f"int {stmt.var} = get_group_id({dim});  "
                      f"/* foreach {stmt.var} in {unit} */")
        elif unit in _LOCAL_UNITS and self.dim_counter["group"] > 0:
            dim = self.dim_counter["local"]
            self.dim_counter["local"] += 1
            self.emit(f"int {stmt.var} = get_local_id({dim});  "
                      f"/* foreach {stmt.var} in {unit} */")
        elif unit in _SIMD_UNITS:
            self.emit(f"#pragma unroll  /* {unit}: SIMD */")
            self.emit(f"for (int {stmt.var} = 0; {stmt.var} < "
                      f"{self.render_expr(stmt.count)}; {stmt.var}++)")
            self.render_stmt(_as_block(stmt.body))
            return
        else:
            dim = self.dim_counter["global"]
            self.dim_counter["global"] += 1
            self.emit(f"int {stmt.var} = get_global_id({dim});  "
                      f"/* foreach {stmt.var} in {unit} */")
            guard = f"if ({stmt.var} < {self.render_expr(stmt.count)})"
            self.emit(guard)
            self.render_stmt(_as_block(stmt.body))
            return
        self.render_stmt(_as_block(stmt.body))


def _as_block(stmt: ast.Stmt) -> ast.Block:
    return stmt if isinstance(stmt, ast.Block) else ast.Block(stmts=[stmt])


def generate_opencl(info_or_kernel) -> str:
    """Render a kernel as OpenCL C source text."""
    info = info_or_kernel if isinstance(info_or_kernel, KernelInfo) \
        else analyze(info_or_kernel)
    writer = _OpenClWriter(info)
    writer.emit(f"// generated by MCL from level '{info.kernel.level}'")
    writer.emit(writer.render_signature())
    writer.render_stmt(info.kernel.body)
    return "\n".join(writer.lines) + "\n"


def derive_launch_config(info_or_kernel, params: Dict[str, Any],
                         max_local: int = 256) -> LaunchConfig:
    """Derive the NDRange from the foreach structure and parameter values.

    Group-unit foreachs define the number of work-groups per dimension,
    local-unit foreachs the work-group size; a bare global ``threads``
    foreach (untranslated kernels) becomes a dimension of its own with a
    default work-group size.  This is the glue MCL generates so "different
    devices get their different granularity needs" (Sec. III-A).
    """
    info = info_or_kernel if isinstance(info_or_kernel, KernelInfo) \
        else analyze(info_or_kernel)
    env = {name: float(v) for name, v in params.items()}
    walker = _CostWalker(info, params)

    groups: List[int] = []
    locals_: List[int] = []
    globals_: List[int] = []
    for fe in info.foreachs:
        try:
            count = int(walker.eval_expr(fe.stmt.count, env))
        except _Unknown:
            count = 1
        env[fe.stmt.var] = 0.0
        if fe.unit in _GROUP_UNITS:
            groups.append(max(count, 1))
        elif fe.unit in _LOCAL_UNITS and groups:
            locals_.append(max(count, 1))
        elif fe.unit in _SIMD_UNITS:
            continue
        else:
            globals_.append(max(count, 1))

    if groups:
        local = locals_ + [1] * (len(groups) - len(locals_))
        global_size = tuple(g * l for g, l in zip(groups, local[:len(groups)]))
        return LaunchConfig(global_size=global_size,
                            local_size=tuple(local[:len(groups)]))
    if globals_:
        dims = globals_[:3]
        local = []
        for i, g in enumerate(dims):
            local.append(min(max_local if i == len(dims) - 1 else 1, g))
        return LaunchConfig(global_size=tuple(dims), local_size=tuple(local))
    return LaunchConfig(global_size=(1,), local_size=(1,))
