"""MCPL static verifier: races, bounds, initialization, memory budgets.

The verifier runs a small family of analyses over a checked kernel
(:class:`~repro.mcl.mcpl.semantics.KernelInfo`) and reports *findings*
with stable rule codes:

========  ========  ==========================================================
code      severity  meaning
========  ========  ==========================================================
MCL101    error     cross-iteration array race inside a ``foreach``
MCL102    error     cross-iteration scalar race (write to an outer scalar)
MCL201    error     subscript not provably within the declared dimension
MCL301    error     read of a possibly-uninitialized local
MCL302    warning   dead store
MCL303    warning   unused kernel parameter
MCL401    error     ``barrier()`` under divergent control flow
MCL501    error     local/private memory exceeds the level's capacity
========  ========  ==========================================================

The diagnostic model — :class:`Finding`, the shared rule registry,
suppression scanning and the text/JSON renderers — lives in
:mod:`repro.analyze.findings`, shared with the determinism sanitizer
(``repro analyze``).  This package registers the ``MCL…`` catalogue there
and binds the verifier's defaults: intentional violations (SIMD
reductions, data-dependent scatter) are acknowledged with inline
``// lint: ignore[CODE] justification`` comments, scanned on the **raw**
kernel source because the lexer strips comments; the renderers name an
untagged source ``<kernel>``; and the JSON renderer keeps its
``"kernel"`` key for each finding's origin tag.  The rule catalogue and
the suppression grammar are documented in ``docs/lint.md``.

Entry points: :func:`verify_kernel` for one checked kernel,
:func:`verify_source` for a source string with any number of kernel
versions, and ``python -m repro lint`` on the command line.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence

from ...analyze.findings import (RULES, Finding, Rule, Severity, Suppressions,
                                 filter_suppressed, has_errors,
                                 register_rules)
from ...analyze.findings import render_json as _render_json
from ...analyze.findings import render_text as _render_text
from ...analyze.findings import scan_suppressions as _scan_suppressions
from ..mcpl.parser import parse_kernels
from ..mcpl.semantics import KernelInfo, analyze
from .lints import check_bounds, check_dataflow, check_memory, check_params
from .race import check_races

__all__ = [
    "Finding",
    "Rule",
    "RULES",
    "Severity",
    "Suppressions",
    "render_text",
    "render_json",
    "scan_suppressions",
    "verify_kernel",
    "verify_source",
    "has_errors",
]


#: the MCL rule catalogue — codes are stable and documented in docs/lint.md
register_rules([
    Rule("MCL101", Severity.ERROR,
         "cross-iteration array race: two foreach iterations may touch "
         "the same element and at least one access is a write"),
    Rule("MCL102", Severity.ERROR,
         "cross-iteration scalar race: a variable declared outside a "
         "foreach is written inside it"),
    Rule("MCL201", Severity.ERROR,
         "possible out-of-bounds subscript: index not provably within "
         "the declared dimension"),
    Rule("MCL301", Severity.ERROR,
         "read of a possibly-uninitialized local variable"),
    Rule("MCL302", Severity.WARNING,
         "dead store: assigned value is never read"),
    Rule("MCL303", Severity.WARNING,
         "unused kernel parameter"),
    Rule("MCL401", Severity.ERROR,
         "barrier under divergent control flow: not all threads are "
         "guaranteed to reach it"),
    Rule("MCL501", Severity.ERROR,
         "declared local/private memory exceeds the hardware level's "
         "capacity"),
])


def scan_suppressions(source: str) -> Suppressions:
    """Scan raw kernel source for ``// lint: ignore[...]`` comments."""
    return _scan_suppressions(source, marker="//", tag="lint")


def render_text(findings: Sequence[Finding], *,
                source_name: str = "<kernel>") -> str:
    """GCC-style one-line-per-finding text rendering."""
    return _render_text(findings, source_name=source_name)


def render_json(findings: Sequence[Finding], *,
                source_name: str = "<kernel>") -> str:
    """Stable machine-readable rendering (sorted, one object per finding)."""
    return _render_json(findings, source_name=source_name,
                        origin_key="kernel")


def verify_kernel(info: KernelInfo,
                  source: Optional[str] = None) -> List[Finding]:
    """All findings for one checked kernel, sorted and suppression-filtered.

    When ``source`` is given, inline ``// lint: ignore[...]`` comments in it
    are honoured; line numbers in the findings refer to this source string.
    """
    findings: List[Finding] = []
    findings.extend(check_races(info))
    findings.extend(check_bounds(info))
    findings.extend(check_dataflow(info))
    findings.extend(check_params(info))
    findings.extend(check_memory(info))
    tag = f"{info.kernel.name}@{info.kernel.level}"
    findings = [replace(f, origin=tag) if f.origin is None else f
                for f in findings]
    if source is not None:
        findings = filter_suppressed(findings, scan_suppressions(source))
    return sorted(findings, key=Finding.sort_key)


def verify_source(source: str) -> List[Finding]:
    """Verify every kernel version in an MCPL source string."""
    findings: List[Finding] = []
    for kernel in parse_kernels(source):
        findings.extend(verify_kernel(analyze(kernel), source))
    return sorted(findings, key=Finding.sort_key)
