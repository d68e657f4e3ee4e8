"""``python -m repro sweep`` — run experiments through the sweep engine.

For each requested experiment the CLI injects a shared
:class:`~repro.sweep.engine.SweepSession` as the runner's ``cell_runner``
(when its signature accepts one — the static paper tables just run
inline), so every config grid flows through one worker pool and one
result cache.  A finished invocation writes ``BENCH_sweep.json`` next to
the artifacts (or wherever ``--bench-out`` points).

Resume semantics: the cache *is* the resume log.  A sweep interrupted or
partially failed leaves every completed cell's record on disk; re-running
the same command executes only the missing cells.  ``--force`` re-executes everything and
refreshes the cache; ``--no-cache`` runs fully stateless.
"""

from __future__ import annotations

import pathlib
import sys
import time
from typing import Any, Dict, List, Optional

from .bench import sweep_entry, write_bench
from .cache import SweepCache, default_cache_dir
from .engine import CellOutcome, SweepError, SweepSession

__all__ = ["sweep_main"]


def _progress(outcome: CellOutcome, done: int, total: int) -> None:
    status = {"run": f"{outcome.wall_s:.1f}s",
              "cache": "cached",
              "failed": "FAILED"}[outcome.source]
    retry = f" (attempt {outcome.attempts})" if outcome.attempts > 1 else ""
    print(f"  [{done}/{total}] {outcome.spec.display()}: {status}{retry}",
          flush=True)


def sweep_main(experiments: List[str], *, jobs: int = 1,
               cache_dir: Optional[pathlib.Path] = None,
               no_cache: bool = False, force: bool = False,
               retries: int = 1,
               bench_out: Optional[pathlib.Path] = None,
               out: Optional[pathlib.Path] = None,
               runner_kwargs: Optional[Dict[str, Any]] = None) -> int:
    """Entry point behind the ``sweep`` subcommand; returns an exit code."""
    from ..experiments import experiment_runner, list_experiments
    from ..experiments.artifacts import accepted_kwargs, save_artifacts

    if force and no_cache:
        print("--force is meaningless with --no-cache", file=sys.stderr)
        return 2

    targets = list_experiments() if experiments == ["all"] else experiments
    runners = {}
    for experiment_id in targets:
        try:
            runners[experiment_id] = experiment_runner(experiment_id)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2

    cache = None
    if not no_cache:
        cache = SweepCache(cache_dir if cache_dir is not None
                           else default_cache_dir())
    session = SweepSession(jobs=jobs, cache=cache, force=force,
                           retries=retries, progress=_progress)

    entries = []
    exit_code = 0
    base_kwargs = dict(runner_kwargs or {})
    for experiment_id, runner in runners.items():
        print(f"== sweep {experiment_id} (jobs={jobs}, "
              f"cache={'off' if cache is None else cache.root}) ==",
              flush=True)
        kwargs = accepted_kwargs(runner, {**base_kwargs,
                                          "cell_runner": session.runner})
        reports_before = len(session.reports)
        start = time.perf_counter()
        try:
            result = runner(**kwargs)
        except SweepError as exc:
            print(f"sweep {experiment_id} failed: {exc}", file=sys.stderr)
            exit_code = 1
            for report in session.reports[reports_before:]:
                entries.append(sweep_entry(experiment_id, report))
            continue
        elapsed = time.perf_counter() - start
        print(result.render())
        print(f"({elapsed:.1f}s wall-clock)\n")
        new_reports = session.reports[reports_before:]
        if new_reports:
            merged = _merge_reports(new_reports)
            entries.append(sweep_entry(experiment_id, merged))
        if out is not None:
            for path in save_artifacts(result, out):
                print(f"wrote {path}")

    bench_path = bench_out if bench_out is not None else (
        (out or pathlib.Path(".")) / "BENCH_sweep.json")
    record = write_bench(bench_path, entries, jobs)
    totals = record["totals"]
    print(f"BENCH: {totals['cells']} cells "
          f"({totals['executed']} executed, {totals['cache_hits']} cached, "
          f"{totals['failed']} failed) in {totals['wall_s']}s "
          f"[{totals['speedup_vs_sequential']}x vs sequential-equivalent] "
          f"-> {bench_path}")
    return exit_code


def _merge_reports(reports):
    """Fold one experiment's reports (it may call the runner repeatedly)
    into a single report-shaped object for the bench entry."""
    from .engine import SweepReport

    merged = SweepReport(outcomes=[], cell_results=[])
    for report in reports:
        merged.outcomes.extend(report.outcomes)
        merged.cell_results.extend(report.cell_results)
        merged.wall_s += report.wall_s
        merged.jobs = report.jobs
    return merged
