"""Shared findings infrastructure: diagnostics, suppressions, renderers.

This module is the *common* diagnostic model of the repository's two
correctness-tooling subsystems:

* :mod:`repro.mcl.verify` — the MCPL kernel verifier (``repro lint``),
  whose rules carry ``MCL…`` codes and whose suppressions live in
  ``//``-style kernel comments, and
* :mod:`repro.analyze` — the whole-runtime determinism sanitizer
  (``repro analyze``), whose rules carry ``REP…`` codes and whose
  suppressions live in ``#``-style Python comments.

Both register their rule catalogues into the single shared :data:`RULES`
registry (codes are globally unique and stable), produce :class:`Finding`
records, and render them through the same text/JSON renderers.  The
suppression scanner is parameterized by comment marker and tag::

    ... code ...   // lint: ignore[MCL201]        (MCPL kernel source)
    ... code ...   # analyze: ignore[REP102] why  (runtime Python source)

A suppression comment on a line of its own applies to the next non-comment,
non-blank line; trailing text after the bracket is a free-form
justification and is encouraged.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Severity",
    "Rule",
    "RULES",
    "register_rules",
    "Finding",
    "Suppressions",
    "scan_suppressions",
    "filter_suppressed",
    "render_text",
    "render_json",
    "has_errors",
]


class Severity(str, Enum):
    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Rule:
    """A rule: stable code, severity, one-line summary."""

    code: str
    severity: Severity
    summary: str


#: the shared rule registry — MCL and REP catalogues both live here; codes
#: are stable and documented in docs/lint.md and docs/analyze.md
RULES: Dict[str, Rule] = {}


def register_rules(rules: Iterable[Rule]) -> None:
    """Add a rule catalogue to the shared registry (codes must be unique)."""
    for rule in rules:
        existing = RULES.get(rule.code)
        if existing is not None and existing != rule:
            raise ValueError(f"rule code {rule.code!r} already registered")
        RULES[rule.code] = rule


# ---------------------------------------------------------------------------
# the REP catalogue (the MCL catalogue registers from repro.mcl.verify)
# ---------------------------------------------------------------------------

register_rules([
    Rule("REP101", Severity.ERROR,
         "nondeterministic randomness: call into a process-global RNG "
         "(random module functions, unseeded Random()/default_rng(), "
         "legacy numpy.random.*)"),
    Rule("REP102", Severity.ERROR,
         "wall-clock read outside the whitelisted bench/CLI modules: "
         "simulated components must use virtual time or an injected clock"),
    Rule("REP103", Severity.ERROR,
         "iteration over an unordered set/dict reaches an ordering-"
         "sensitive sink (heap push, event scheduling, message dispatch)"),
    Rule("REP104", Severity.ERROR,
         "id()/object-identity hash used in a comparison or sort key: "
         "CPython addresses vary across runs"),
    Rule("REP105", Severity.ERROR,
         "mutable default argument: the shared default object leaks state "
         "across calls (and across simulations within one process)"),
    Rule("REP106", Severity.ERROR,
         "os.environ read in a hot runtime path: ambient process state "
         "makes runs irreproducible; thread configuration explicitly"),
    Rule("REP201", Severity.ERROR,
         "shared-object data race: two accesses (at least one write) from "
         "concurrent jobs unordered by happens-before"),
])


@dataclass(frozen=True)
class Finding:
    """One diagnostic: rule code, location, message, optional fix hint.

    ``origin`` labels where the finding comes from — a kernel tag such as
    ``matmul@perfect`` for the MCPL verifier, or a module path such as
    ``repro.sweep.engine`` for the determinism sanitizer.
    """

    code: str
    line: int
    message: str
    hint: Optional[str] = None
    origin: Optional[str] = None

    @property
    def severity(self) -> Severity:
        return RULES[self.code].severity

    def sort_key(self) -> tuple:
        return (self.origin or "", self.line, self.code, self.message)


# ---------------------------------------------------------------------------
# Inline suppression scanning
# ---------------------------------------------------------------------------

_PATTERN_CACHE: Dict[Tuple[str, str], Tuple[re.Pattern, re.Pattern]] = {}


def _patterns(marker: str, tag: str) -> Tuple[re.Pattern, re.Pattern]:
    key = (marker, tag)
    pats = _PATTERN_CACHE.get(key)
    if pats is None:
        ignore = re.compile(
            re.escape(marker) + r"\s*" + re.escape(tag)
            + r":\s*ignore(?:\[([A-Z0-9,\s]*)\])?")
        comment_only = re.compile(r"^\s*" + re.escape(marker))
        pats = _PATTERN_CACHE[key] = (ignore, comment_only)
    return pats


@dataclass
class Suppressions:
    """Suppressed rule codes per 1-based source line.

    ``by_line[n]`` is the set of codes suppressed on line ``n``; the empty
    string element means "all codes".
    """

    by_line: Dict[int, Set[str]] = field(default_factory=dict)

    def matches(self, line: int, code: str) -> bool:
        codes = self.by_line.get(line)
        if not codes:
            return False
        return "" in codes or code in codes


def scan_suppressions(source: str, *, marker: str = "#",
                      tag: str = "analyze") -> Suppressions:
    """Scan raw source for ``<marker> <tag>: ignore[...]`` comments.

    A suppression on a comment-only line applies to the next non-comment,
    non-blank line; otherwise it applies to its own line.  The defaults
    match the determinism sanitizer (``# analyze: ignore[REP102]``); the
    MCPL verifier passes ``marker="//", tag="lint"``.
    """
    ignore_re, comment_only_re = _patterns(marker, tag)
    sup = Suppressions()
    lines = source.splitlines()
    pending: Set[str] = set()
    for lineno, text in enumerate(lines, start=1):
        m = ignore_re.search(text)
        codes: Optional[Set[str]] = None
        if m:
            if m.group(1) is None:
                codes = {""}
            else:
                codes = {c.strip() for c in m.group(1).split(",") if c.strip()}
                if not codes:
                    codes = {""}
        if comment_only_re.match(text):
            if codes:
                pending |= codes
            continue
        if not text.strip():
            continue
        applied = set(codes or ())
        applied |= pending
        pending = set()
        if applied:
            sup.by_line.setdefault(lineno, set()).update(applied)
    return sup


def filter_suppressed(findings: Iterable[Finding],
                      suppressions: Suppressions) -> List[Finding]:
    return [f for f in findings
            if not suppressions.matches(f.line, f.code)]


# ---------------------------------------------------------------------------
# Renderers
# ---------------------------------------------------------------------------

def render_text(findings: Sequence[Finding], *,
                source_name: str = "<source>") -> str:
    """GCC-style one-line-per-finding text rendering."""
    if not findings:
        return f"{source_name}: clean (0 findings)"
    out = []
    for f in sorted(findings, key=Finding.sort_key):
        where = f.origin or source_name
        out.append(f"{where}:{f.line}: {f.severity} {f.code}: {f.message}")
        if f.hint:
            out.append(f"    hint: {f.hint}")
    errors = sum(1 for f in findings if f.severity is Severity.ERROR)
    warnings = len(findings) - errors
    out.append(f"{source_name}: {errors} error(s), {warnings} warning(s)")
    return "\n".join(out)


def render_json(findings: Sequence[Finding], *,
                source_name: str = "<source>",
                origin_key: str = "origin") -> str:
    """Stable machine-readable rendering (sorted, one object per finding).

    ``origin_key`` names the JSON key carrying :attr:`Finding.origin` —
    the MCPL verifier keeps its historical ``"kernel"`` key.
    """
    payload = {
        "source": source_name,
        "findings": [
            {
                "code": f.code,
                "severity": str(f.severity),
                origin_key: f.origin,
                "line": f.line,
                "message": f.message,
                "hint": f.hint,
                "summary": RULES[f.code].summary,
            }
            for f in sorted(findings, key=Finding.sort_key)
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def has_errors(findings: Iterable[Finding]) -> bool:
    """Does the collection contain at least one error-severity finding?"""
    return any(f.severity is Severity.ERROR for f in findings)
