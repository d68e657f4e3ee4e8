"""The stepwise-refinement feedback engine.

MCL's methodology (Sec. II-B): programmers pick a hardware description,
receive compiler feedback, and modify the kernel until no feedback remains;
then the compiler translates the kernel one level down, where it can say
more because it knows more about the hardware.  This module produces that
feedback by inspecting the kernel AST against the knowledge available at its
level:

* ``accelerator`` — working set must fit the finite device memory.
* ``gpu`` — arrays re-read inside sequential loops should be staged into
  ``local`` memory (tiling); the innermost-varying index should be the last
  array dimension (coalescing).
* ``nvidia`` / ``amd`` — data-dependent control flow diverges warps /
  wavefronts.
* ``mic`` — express the innermost parallelism with the ``vectors`` unit or
  the 512-bit VPU stays idle.

A kernel version is *optimized* for a level when it has no unresolved
feedback at that level; the efficiency model (:mod:`.efficiency`) turns the
remaining items into roofline efficiency factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set

from ..mcpl import ast
from ..mcpl.semantics import KernelInfo, analyze
from .analysis import _CostWalker, _Unknown, _vars_of

__all__ = ["FeedbackItem", "get_feedback", "is_optimized_for"]


@dataclass(frozen=True)
class FeedbackItem:
    """One piece of compiler feedback."""

    level: str    #: hardware-description level that produced the item
    code: str     #: stable identifier, e.g. "use-local-memory"
    message: str

    def __str__(self) -> str:
        return f"[{self.level}] {self.code}: {self.message}"


def _loop_vars(info: KernelInfo) -> Set[str]:
    """Variables of sequential for loops (candidates for data reuse)."""
    return {s.init.name for s in ast.walk(info.kernel.body)
            if isinstance(s, ast.For) and isinstance(s.init, ast.VarDecl)}


def _reused_global_arrays(info: KernelInfo) -> Set[str]:
    """Global arrays indexed by a sequential loop variable.

    Each foreach work-item re-reads them as the loop runs, so staging them
    into local memory (a tile) removes redundant global traffic.
    """
    loops = _loop_vars(info)
    if not loops:
        return set()
    reused: Set[str] = set()
    for expr in ast.walk(info.kernel.body):
        if isinstance(expr, ast.Index) and expr.array not in info.local_arrays:
            for idx in expr.indices:
                if _vars_of(idx) & loops:
                    reused.add(expr.array)
    return reused


def _uncoalesced_arrays(info: KernelInfo) -> Set[str]:
    """Multi-dim global arrays whose *last* index does not vary fastest.

    Heuristic: the innermost foreach variable should appear in the last
    index position; if it appears only in an earlier position, adjacent
    work-items touch strided addresses.
    """
    if not info.foreachs:
        return set()
    innermost = max(info.foreachs, key=lambda f: f.depth)
    tvar = innermost.stmt.var
    bad: Set[str] = set()
    for expr in ast.walk(info.kernel.body):
        if (isinstance(expr, ast.Index) and len(expr.indices) >= 2
                and expr.array not in info.local_arrays):
            positions = [i for i, idx in enumerate(expr.indices)
                         if tvar in _vars_of(idx)]
            if positions and max(positions) != len(expr.indices) - 1:
                bad.add(expr.array)
    return bad


#: reused arrays below this size fit comfortably in L1/registers
LOCAL_WORTHWHILE_BYTES = 16 * 1024


def _filter_small_arrays(info: KernelInfo, arrays: Set[str],
                         params: Dict[str, Any]) -> Set[str]:
    walker = _CostWalker(info, params)
    env = {k: float(v) for k, v in params.items()}
    out: Set[str] = set()
    for name in arrays:
        typ = info.symbols.get(name)
        if typ is None or not typ.is_array:
            continue
        size = float(typ.element_bytes)
        try:
            for dim in typ.dims:
                size *= walker.eval_expr(dim, env)
        except _Unknown:
            out.add(name)  # unknown size: keep the feedback
            continue
        if size > LOCAL_WORTHWHILE_BYTES:
            out.add(name)
    return out


def _has_data_dependent_flow(info: KernelInfo) -> bool:
    return any(isinstance(s, (ast.If, ast.While))
               and any(isinstance(e, ast.Index) for e in ast.walk(s.cond))
               for s in ast.walk(info.kernel.body))


def get_feedback(info_or_kernel, params: Optional[Dict[str, Any]] = None
                 ) -> List[FeedbackItem]:
    """Compute the compiler feedback for a kernel at its level.

    ``params`` (scalar parameter values) enables the memory-footprint check
    at level ``accelerator`` and below; without them that check is skipped.
    """
    info = info_or_kernel if isinstance(info_or_kernel, KernelInfo) \
        else analyze(info_or_kernel)
    hd = info.description
    levels = hd.level_names()
    items: List[FeedbackItem] = []

    # accelerator: finite device memory.
    if "accelerator" in levels and params is not None:
        main = hd.memory_space("main")
        if main is not None and main.capacity_bytes is not None:
            footprint = 0.0
            evaluatable = True
            for p in info.kernel.array_params:
                size = float(p.type.element_bytes)
                for dim in p.type.dims:
                    try:
                        size *= _CostWalker(info, params).eval_expr(
                            dim, {k: float(v) for k, v in params.items()})
                    except Exception:
                        evaluatable = False
                if evaluatable:
                    footprint += size
            if evaluatable and footprint > main.capacity_bytes:
                items.append(FeedbackItem(
                    "accelerator", "working-set-too-large",
                    f"parameters occupy {footprint / 2 ** 30:.2f} GiB but device "
                    f"memory is {main.capacity_bytes / 2 ** 30:.2f} GiB; "
                    "divide the problem further before the leaf"))

    # gpu: local-memory staging and coalescing.
    if "gpu" in levels:
        reused = _reused_global_arrays(info)
        if reused and params is not None:
            # Tiny reused arrays (a raytracer's scene) live in registers/L1
            # anyway; staging them buys nothing.  Filter by size when the
            # compiler knows the parameter values.
            reused = _filter_small_arrays(info, reused, params)
        if reused and not info.local_arrays:
            items.append(FeedbackItem(
                "gpu", "use-local-memory",
                f"arrays {sorted(reused)} are re-read inside sequential loops "
                "by every thread; stage tiles into `local` memory"))
        bad = _uncoalesced_arrays(info)
        if bad:
            items.append(FeedbackItem(
                "gpu", "uncoalesced-access",
                f"arrays {sorted(bad)}: innermost threads access strided "
                "addresses; make the last index the thread index"))

    # nvidia / amd: SIMD divergence.
    if ("nvidia" in levels or "amd" in levels) and _has_data_dependent_flow(info):
        unit = "warps (32 threads)" if "nvidia" in levels else "wavefronts (64 lanes)"
        items.append(FeedbackItem(
            "nvidia" if "nvidia" in levels else "amd", "divergent-control-flow",
            f"data-dependent branches serialize {unit}; restructure or accept "
            "the penalty (algorithmic property)"))

    # mic: vectorization.
    if "mic" in levels and "vectors" not in info.units_used:
        items.append(FeedbackItem(
            "mic", "vectorize-inner-loop",
            "no `vectors` parallelism expressed; the 512-bit VPU stays idle — "
            "map the innermost foreach onto `vectors`"))

    return items


def is_optimized_for(info_or_kernel, params: Optional[Dict[str, Any]] = None) -> bool:
    """True when the kernel has no unresolved feedback at its level."""
    return not get_feedback(info_or_kernel, params)
