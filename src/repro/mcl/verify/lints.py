"""Safety lints: bounds, initialization, dead code, and memory budgets.

These analyses consume the dataflow core — interval analysis for the
out-of-bounds check (MCL201), the CFG's reaching definitions and def-use
chains for uninitialized reads (MCL301) and dead stores (MCL302) — plus two
purely syntactic walks for unused parameters (MCL303) and the local/private
memory budget of the kernel's hardware level (MCL501).

MCL201 has *may* semantics: a subscript is reported when the analysis cannot
prove ``0 <= index <= dim - 1``.  Proofs use the interval bounds first and
fall back to matching guard *facts*: a condition like ``if (base + x / 4 <
nk)`` produces the fact ``poly(base + x/4) < nk``, which proves any
subscript differing from the guarded expression by a known constant.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from ..mcpl import ast
from ..mcpl.semantics import KernelInfo
from .cfg import build_cfg, def_use_chains, reaching_definitions
from ...analyze.findings import Finding
from .intervals import Interval, analyze_intervals
from .poly import Poly, expr_to_poly

__all__ = ["check_bounds", "check_dataflow", "check_params", "check_memory"]


# ---------------------------------------------------------------------------
# MCL201 — out-of-bounds subscripts
# ---------------------------------------------------------------------------

def _prove_upper(iv: Interval, poly: Poly, limit: Poly,
                 facts: Sequence[Tuple[Poly, Poly]]) -> bool:
    """Prove ``subscript <= limit`` from interval bounds or guard facts."""
    if iv.bounded_above_by(limit):
        return True
    for lhs, bound in facts:
        # fact: lhs < bound.  subscript = lhs + delta  =>  subscript <=
        # bound - 1 + delta, which suffices when bound + delta <= limit + 1.
        delta = (poly - lhs).constant_value()
        if delta is None:
            continue
        if (limit + Poly.const(1) - bound - Poly.const(delta)
                ).is_nonnegative():
            return True
    return False


def check_bounds(info: KernelInfo) -> List[Finding]:
    """MCL201: subscripts not provably within the declared dimensions."""
    findings: List[Finding] = []
    seen: Set[Tuple[str, int, int, str]] = set()
    for rec in analyze_intervals(info).accesses:
        typ = info.symbols.get(rec.array)
        if typ is None or not typ.is_array:
            continue
        for dim_no, ((idx, iv, poly), dim_expr) in enumerate(
                zip(rec.dims, typ.dims)):
            dim_poly = expr_to_poly(dim_expr)
            limit = dim_poly - Poly.const(1)
            low_ok = iv.nonneg()
            high_ok = _prove_upper(iv, poly, limit, rec.facts)
            if low_ok and high_ok:
                continue
            key = (rec.array, rec.line, dim_no, str(idx))
            if key in seen:
                continue
            seen.add(key)
            which = []
            if not low_ok:
                which.append(">= 0")
            if not high_ok:
                which.append(f"< {dim_expr}")
            findings.append(Finding(
                code="MCL201", line=rec.line,
                message=(f"subscript ({idx}) of {rec.array!r} "
                         f"(dimension {dim_no}) is not provably "
                         f"{' and '.join(which)}"),
                hint=("guard the access, tighten the loop bounds, or "
                      "suppress with a justification if the range is "
                      "guaranteed by the caller")))
    return findings


# ---------------------------------------------------------------------------
# MCL301 / MCL302 — uninitialized reads and dead stores
# ---------------------------------------------------------------------------

def check_dataflow(info: KernelInfo) -> List[Finding]:
    """MCL301 (read of maybe-uninitialized local) and MCL302 (dead store)."""
    cfg = build_cfg(info)
    in_sets = reaching_definitions(cfg)
    chains = def_use_chains(cfg, in_sets)
    by_id = {d.def_id: d for d in cfg.definitions}
    findings: List[Finding] = []

    # MCL301: an uninitialized declaration reaches a read of the variable.
    seen: Set[Tuple[str, int]] = set()
    for node in cfg.nodes:
        if not node.uses:
            continue
        for def_id in sorted(in_sets[node.index]):
            d = by_id[def_id]
            if d.initialized or d.var not in node.uses:
                continue
            key = (d.var, node.line)
            if key in seen:
                continue
            seen.add(key)
            findings.append(Finding(
                code="MCL301", line=node.line,
                message=(f"{d.var!r} may be read before it is assigned "
                         f"(declared without initializer at line {d.line})"),
                hint="initialize the variable at its declaration"))

    # MCL302: a stored value that no execution path ever reads.
    for d in cfg.definitions:
        if d.kind not in ("decl", "assign"):
            continue
        if d.kind == "decl":
            if not isinstance(d.stmt, ast.VarDecl):
                continue
            assert d.stmt.type is not None
            if d.stmt.type.is_array or d.stmt.init is None:
                continue          # nothing is stored
        if chains[d.def_id]:
            continue
        what = "initializer of" if d.kind == "decl" else "value assigned to"
        findings.append(Finding(
            code="MCL302", line=d.line,
            message=f"dead store: the {what} {d.var!r} is never read",
            hint="remove the assignment or use the value"))
    return findings


# ---------------------------------------------------------------------------
# MCL303 — unused parameters
# ---------------------------------------------------------------------------

def check_params(info: KernelInfo) -> List[Finding]:
    """MCL303: parameters mentioned neither in the body nor in any shape."""
    used = ast.names(info.kernel.body).union(
        *(ast.names(d) for p in info.kernel.params for d in p.type.dims))
    findings: List[Finding] = []
    for p in info.kernel.params:
        if p.name not in used:
            findings.append(Finding(
                code="MCL303", line=info.kernel.body.line,
                message=(f"parameter {p.name!r} of kernel "
                         f"{info.kernel.name!r} is never used"),
                hint="drop the parameter or use it"))
    return findings


# ---------------------------------------------------------------------------
# MCL501 — local/private memory budget of the hardware level
# ---------------------------------------------------------------------------

def check_memory(info: KernelInfo) -> List[Finding]:
    """MCL501: cumulative declared bytes per memory space vs its capacity."""
    decls = [s for s in ast.walk(info.kernel.body) if isinstance(s, ast.VarDecl)]
    totals: Dict[str, int] = {}
    findings: List[Finding] = []
    reported: Set[str] = set()
    for decl in decls:
        if decl.qualifier is None or decl.qualifier == "const":
            continue
        space = info.description.memory_space(decl.qualifier)
        if space is None or space.capacity_bytes is None:
            continue
        assert decl.type is not None
        size = decl.type.element_bytes
        for dim in decl.type.dims:
            if not isinstance(dim, ast.IntLit):
                size = 0          # symbolic shape: not countable
                break
            size *= dim.value
        if size == 0:
            continue
        total = totals.get(decl.qualifier, 0) + size
        totals[decl.qualifier] = total
        if total > space.capacity_bytes and decl.qualifier not in reported:
            reported.add(decl.qualifier)
            findings.append(Finding(
                code="MCL501", line=decl.line,
                message=(f"declaring {decl.name!r} brings {decl.qualifier} "
                         f"memory use to {total} bytes, exceeding the "
                         f"{int(space.capacity_bytes)}-byte capacity at "
                         f"level {info.description.name!r}"),
                hint=("shrink the tile, lower the unroll factor, or "
                      "suppress with a justification if the target "
                      "hardware is known to have more")))
    return findings
