"""Level-to-level kernel translation.

MCL can automatically translate a kernel written for the programming
abstractions of hardware description *x* to the abstractions of a child
level *y* (Sec. III-A).  The mapping becomes more precise as the hardware
description gains detail, and — per the paper — *the compiler does not apply
optimizations during translation*: the transformations below only
restructure parallelism, never change the computation.

Two structural translations exist in the built-in hierarchy:

* entering ``gpu``: the outermost ``threads`` foreach is decomposed into a
  ``blocks`` × ``threads`` nest with a bounds guard,
* entering ``mic``: the outermost ``threads`` foreach is decomposed into
  ``cores`` × ``threads`` with a sequential chunk loop per hardware thread —
  the Xeon Phi needs much more coarse-grained parallelism than a GPU
  (Sec. III-A).

All other edges (gpu→nvidia→fermi→gtx480, ...) relabel the kernel only; the
added value of those levels is sharper feedback and device parameters.
"""

from __future__ import annotations

import copy
from typing import List

from ..hdl.ast import HardwareDescription
from ..hdl.library import get_description
from ..mcpl import ast
from ..mcpl.semantics import analyze

__all__ = ["translate", "TranslationError", "DEFAULT_BLOCK_SIZE"]

DEFAULT_BLOCK_SIZE = 256


class TranslationError(ValueError):
    """Raised when a kernel cannot be translated to the requested level."""


def _path_between(src: HardwareDescription, dst: HardwareDescription
                  ) -> List[HardwareDescription]:
    """Descriptions from ``src`` (exclusive) down to ``dst`` (inclusive)."""
    chain = dst.ancestry()
    names = [hd.name for hd in chain]
    if src.name not in names:
        raise TranslationError(
            f"{dst.name!r} is not a descendant of {src.name!r}; "
            f"cannot translate downward")
    return chain[names.index(src.name) + 1:]


def _int_expr(value: int) -> ast.IntLit:
    return ast.IntLit(value=value)


def _ceil_div(count: ast.Expr, block: int) -> ast.Expr:
    """AST for ``(count + block - 1) / block``."""
    return ast.Binary(
        op="/",
        left=ast.Binary(op="+", left=copy.deepcopy(count),
                        right=_int_expr(block - 1)),
        right=_int_expr(block),
    )


def _fresh_name(base: str, taken: set) -> str:
    if base not in taken:
        taken.add(base)
        return base
    i = 2
    while f"{base}{i}" in taken:
        i += 1
    taken.add(f"{base}{i}")
    return f"{base}{i}"


def _names_in(kernel: ast.Kernel) -> set:
    """Every name the kernel declares: parameters, locals, loop variables."""
    return {p.name for p in kernel.params} | {
        s.name if isinstance(s, ast.VarDecl) else s.var
        for s in ast.walk(kernel.body) if isinstance(s, (ast.VarDecl, ast.Foreach))}


def _to_gpu(kernel: ast.Kernel, hd: HardwareDescription) -> ast.Kernel:
    """Decompose the outermost ``threads`` foreach into blocks × threads."""
    kernel = copy.deepcopy(kernel)
    block = int(hd.param("max_block_threads", DEFAULT_BLOCK_SIZE) or DEFAULT_BLOCK_SIZE)
    block = min(block, DEFAULT_BLOCK_SIZE)
    taken = _names_in(kernel)

    def transform(stmt: ast.Stmt) -> ast.Stmt:
        if isinstance(stmt, ast.Block):
            stmt.stmts = [transform(s) for s in stmt.stmts]
            return stmt
        if isinstance(stmt, ast.Foreach) and stmt.unit == "threads":
            bvar = _fresh_name("mcl_b", taken)
            tvar = _fresh_name("mcl_t", taken)
            recover = ast.VarDecl(
                type=ast.Type("int"), name=stmt.var,
                init=ast.Binary(
                    op="+",
                    left=ast.Binary(op="*", left=ast.Var(name=bvar),
                                    right=_int_expr(block)),
                    right=ast.Var(name=tvar)),
            )
            # The last block runs only the remaining threads:
            # min(count - b*block, block).  Emitting the exact count (rather
            # than a full block with a bounds guard) keeps the static cost
            # analysis exact for partially filled blocks.
            remaining = ast.Call(
                name="min",
                args=[ast.Binary(op="-", left=copy.deepcopy(stmt.count),
                                 right=ast.Binary(op="*",
                                                  left=ast.Var(name=bvar),
                                                  right=_int_expr(block))),
                      _int_expr(block)])
            inner = ast.Foreach(
                var=tvar, count=remaining, unit="threads",
                body=ast.Block(stmts=[recover, stmt.body]))
            return ast.Foreach(
                var=bvar, count=_ceil_div(stmt.count, block), unit="blocks",
                body=ast.Block(stmts=[inner]))
        return stmt

    # Only the outermost foreach is decomposed; inner `threads` foreachs keep
    # their unit (it exists on level gpu, nested inside blocks).
    new_stmts = []
    transformed = False
    for s in kernel.body.stmts:
        if not transformed and isinstance(s, ast.Foreach) and s.unit == "threads":
            new_stmts.append(transform(s))
            transformed = True
        else:
            new_stmts.append(s)
    kernel.body.stmts = new_stmts
    return kernel


def _to_mic(kernel: ast.Kernel, hd: HardwareDescription) -> ast.Kernel:
    """Decompose the outermost ``threads`` foreach into cores × threads chunks."""
    kernel = copy.deepcopy(kernel)
    cores = int(hd.par_unit("cores").max_count or 60)
    hw_threads = int(hd.par_unit("threads").max_count or 4)
    taken = _names_in(kernel)

    def transform(stmt: ast.Foreach) -> ast.Stmt:
        cvar = _fresh_name("mcl_c", taken)
        tvar = _fresh_name("mcl_t", taken)
        wvar = _fresh_name("mcl_w", taken)   # linear hardware-thread id
        chunkvar = _fresh_name("mcl_chunk", taken)
        total = cores * hw_threads
        # int mcl_w = c * hw_threads + t;
        wdecl = ast.VarDecl(
            type=ast.Type("int"), name=wvar,
            init=ast.Binary(
                op="+",
                left=ast.Binary(op="*", left=ast.Var(name=cvar),
                                right=_int_expr(hw_threads)),
                right=ast.Var(name=tvar)))
        # int chunk = (count + total - 1) / total;
        chunkdecl = ast.VarDecl(
            type=ast.Type("int"), name=chunkvar,
            init=_ceil_div(stmt.count, total))
        # for (i = w*chunk; i < min-like guard; i++)
        init = ast.VarDecl(
            type=ast.Type("int"), name=stmt.var,
            init=ast.Binary(op="*", left=ast.Var(name=wvar),
                            right=ast.Var(name=chunkvar)))
        cond = ast.Binary(
            op="&&",
            left=ast.Binary(op="<", left=ast.Var(name=stmt.var),
                            right=ast.Binary(
                                op="*",
                                left=ast.Binary(op="+", left=ast.Var(name=wvar),
                                                right=_int_expr(1)),
                                right=ast.Var(name=chunkvar))),
            right=ast.Binary(op="<", left=ast.Var(name=stmt.var),
                             right=copy.deepcopy(stmt.count)))
        step = ast.Assign(target=ast.Var(name=stmt.var), op="+=",
                          value=_int_expr(1))
        loop = ast.For(init=init, cond=cond, step=step, body=stmt.body)
        inner = ast.Foreach(
            var=tvar, count=_int_expr(hw_threads), unit="threads",
            body=ast.Block(stmts=[wdecl, chunkdecl, loop]))
        return ast.Foreach(var=cvar, count=_int_expr(cores), unit="cores",
                           body=ast.Block(stmts=[inner]))

    new_stmts = []
    transformed = False
    for s in kernel.body.stmts:
        if not transformed and isinstance(s, ast.Foreach) and s.unit == "threads":
            new_stmts.append(transform(s))
            transformed = True
        else:
            new_stmts.append(s)
    kernel.body.stmts = new_stmts
    return kernel


def translate(kernel: ast.Kernel, target_level: str) -> ast.Kernel:
    """Translate a kernel to a descendant hardware description.

    The result is semantically equivalent (validated by re-running semantic
    analysis at the target level) and carries ``target_level`` as its level.
    """
    src_hd = get_description(kernel.level)
    dst_hd = get_description(target_level)
    if src_hd.name == dst_hd.name:
        return copy.deepcopy(kernel)
    path = _path_between(src_hd, dst_hd)
    current = copy.deepcopy(kernel)
    for hd in path:
        if hd.name == "gpu":
            current = _to_gpu(current, hd)
        elif hd.name == "mic":
            current = _to_mic(current, hd)
        current.level = hd.name
    analyze(current, dst_hd)  # re-check at the target level
    return current
