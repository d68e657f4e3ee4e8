"""``python -m repro analyze`` — run the determinism sanitizer.

Two prongs, selectable independently:

* ``--static`` — the REP1xx AST lints over the installed ``repro``
  package (or ``--root PATH``), filtered through inline
  ``# analyze: ignore[CODE] why`` suppressions.
* ``--races APP`` — run one application with the happens-before race
  sanitizer attached (``detect_races=True``) and report every ``REP201``
  race.  ``APP`` is a builtin (kmeans, matmul, nbody, raytracer — all
  expected silent), or the demonstration fixtures ``race-demo`` (two
  unsynchronized sibling writes; exits 1 by design) and
  ``race-demo-synced`` (the fixed variant; silent).
* ``--all`` — the static pass plus a race-sanitized run of every builtin
  application.

Exit status: 0 clean, 1 findings, 2 usage error — the same convention as
``python -m repro lint``.  This module is imported lazily by
:mod:`repro.__main__` (the race prong imports the runtime stack).

Usage::

    python -m repro analyze --static
    python -m repro analyze --static --json
    python -m repro analyze --races raytracer
    python -m repro analyze --races race-demo      # demonstrates a race
    python -m repro analyze --all
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

from .findings import Finding, has_errors, render_json, render_text
from .static import analyze_tree

__all__ = ["RACE_APPS", "analyze_main", "run_race_sanitizer"]


def _builtin_runner(app_name: str) -> Callable[[int], Any]:
    def run(seed: int) -> Any:
        from ..core.runtime import CashmereConfig
        from ..obs.cli import TRACE_APPS, demo_cluster
        from ..apps.base import run_cashmere
        app = TRACE_APPS[app_name]()
        _, runtime, _ = run_cashmere(
            app, demo_cluster(), app.root_task(), optimized=True,
            config=CashmereConfig(seed=seed, detect_races=True),
            return_runtime=True)
        return runtime
    return run


def _fixture_runner(synced: bool) -> Callable[[int], Any]:
    def run(seed: int) -> Any:
        from .fixture_app import run_fixture
        return run_fixture(synced=synced, seed=seed, detect_races=True)
    return run


#: app name -> runner(seed) returning the finished runtime (with detector)
RACE_APPS: Dict[str, Callable[[int], Any]] = {
    "kmeans": _builtin_runner("kmeans"),
    "matmul": _builtin_runner("matmul"),
    "raytracer": _builtin_runner("raytracer"),
    "nbody": _builtin_runner("nbody"),
    "race-demo": _fixture_runner(synced=False),
    "race-demo-synced": _fixture_runner(synced=True),
}


def run_race_sanitizer(app_name: str, seed: int = 42) -> List[Finding]:
    """Run ``app_name`` with the sanitizer attached; returns its findings."""
    try:
        runner = RACE_APPS[app_name]
    except KeyError:
        raise KeyError(f"unknown app {app_name!r}; known: "
                       f"{', '.join(sorted(RACE_APPS))}") from None
    runtime = runner(seed)
    return runtime.race_detector.findings()


def analyze_main(static: bool = False, races: Optional[str] = None,
                 all_checks: bool = False, as_json: bool = False,
                 root: Optional[pathlib.Path] = None,
                 seed: int = 42) -> int:
    """Entry point of the ``analyze`` subcommand.  Returns the exit status."""
    if not (static or races or all_checks):
        print("nothing to analyze: give --static, --races APP, or --all",
              file=sys.stderr)
        return 2
    sections: List[Tuple[str, List[Finding]]] = []

    if static or all_checks:
        sections.append(("static", analyze_tree(root)))

    race_targets: List[str] = []
    if races is not None:
        race_targets.append(races)
    if all_checks:
        race_targets.extend(n for n in ("kmeans", "matmul", "nbody",
                                        "raytracer")
                            if n not in race_targets)
    for app_name in race_targets:
        try:
            findings = run_race_sanitizer(app_name, seed=seed)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        sections.append((f"races:{app_name}", findings))

    all_findings = [f for _, findings in sections for f in findings]
    failed = has_errors(all_findings)
    if as_json:
        report = [{"section": name,
                   "findings": json.loads(render_json(findings))["findings"]}
                  for name, findings in sections]
        print(json.dumps({"ok": not failed, "sections": report}, indent=2))
    else:
        for name, findings in sections:
            if findings:
                print(f"== {name} ==")
                print(render_text(findings, source_name=name))
        n_err = sum(1 for f in all_findings if f.severity.value == "error")
        status = "FAILED" if failed else "OK"
        print(f"analyze {status}: {len(sections)} check(s), "
              f"{n_err} error(s), {len(all_findings) - n_err} warning(s)")
    return 1 if failed else 0
