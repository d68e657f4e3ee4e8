"""``repro.analyze`` — the determinism sanitizer.

Two-pronged correctness tooling for the runtime itself (the MCPL kernel
verifier's sibling; see :mod:`repro.mcl.verify`):

* **static pass** (:mod:`.static`) — AST-based determinism lints over the
  runtime source with stable ``REP1xx`` codes: process-global randomness,
  wall-clock reads, unordered set/dict iteration feeding ordering-sensitive
  sinks, ``id()``-based ordering, mutable default arguments and
  ``os.environ`` reads in hot paths.  Inline ``# analyze: ignore[CODE]
  why`` suppressions keep justified cases out of CI.
* **dynamic sanitizer** (:mod:`.races`) — a flag-gated
  (``CashmereConfig(detect_races=True)``) happens-before race detector:
  Satin jobs carry vector clocks merged along spawn/sync/steal/result
  edges; conflicting :mod:`repro.satin.shared_objects` accesses unordered
  by happens-before become structured :class:`~repro.analyze.races.RaceReport`
  findings (code ``REP201``).

Both prongs share the :mod:`.findings` infrastructure (rule registry,
suppressions, text/JSON renderers) with ``repro lint``.  Entry point:
``python -m repro analyze`` (see :mod:`.cli`).

This package imports only the standard library at module level, so the
MCPL verifier can depend on :mod:`.findings` without import cycles.
"""

from __future__ import annotations

from .findings import (
    RULES,
    Finding,
    Rule,
    Severity,
    Suppressions,
    filter_suppressed,
    has_errors,
    register_rules,
    render_json,
    render_text,
    scan_suppressions,
)
from .races import Access, RaceDetector, RaceReport, VectorClock
from .static import analyze_file, analyze_source, analyze_tree

__all__ = [
    "Access",
    "Finding",
    "RaceDetector",
    "RaceReport",
    "Rule",
    "RULES",
    "Severity",
    "Suppressions",
    "VectorClock",
    "analyze_file",
    "analyze_source",
    "analyze_tree",
    "filter_suppressed",
    "has_errors",
    "register_rules",
    "render_json",
    "render_text",
    "scan_suppressions",
]
