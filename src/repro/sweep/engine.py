"""Parallel, cached, resumable execution of sweep cells.

:func:`run_cells` takes a grid of :class:`~repro.sweep.spec.RunSpec` cells
and returns a :class:`SweepReport`.  The pipeline per unique cell:

1. **dedupe** — identical cells (same cache key) run once, every requester
   gets the shared result (Table III's one-node reference runs overlap
   heavily between apps);
2. **cache probe** — with a :class:`~repro.sweep.cache.SweepCache`
   attached, previously computed cells are served from disk (this *is* the
   resume mechanism: re-running a partially failed sweep only executes the
   missing cells);
3. **execute** — misses run through a ``multiprocessing`` pool (``fork``
   start method where available) or inline for ``jobs <= 1``; a worker
   never lets an exception escape, it returns a structured failure so one
   poisoned cell fails one cell, not the sweep;
4. **retry** — failed cells are re-submitted up to ``retries`` extra
   times before being reported as failed.

Progress is observable through an optional per-cell callback (the CLI's
progress lines).
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .cache import SweepCache, cell_key, code_salt
from .spec import CellResult, RunSpec, run_cell

__all__ = ["CellOutcome", "SweepReport", "SweepError", "run_cells",
           "SweepSession"]


class SweepError(RuntimeError):
    """Raised when a sweep finished with failed cells and the caller needs
    every cell (e.g. an experiment table with no holes)."""

    def __init__(self, failed: List["CellOutcome"]):
        labels = ", ".join(o.spec.display() for o in failed)
        super().__init__(f"{len(failed)} cell(s) failed: {labels}")
        self.failed = failed


@dataclass
class CellOutcome:
    """What happened to one unique cell."""

    spec: RunSpec
    key: str
    result: Optional[CellResult] = None
    #: "cache" | "run" | "failed"
    source: str = "failed"
    #: host wall-clock of the successful attempt (for cache hits: the wall
    #: recorded when the cell was originally computed)
    wall_s: float = 0.0
    attempts: int = 0
    error: Optional[str] = None


@dataclass
class SweepReport:
    """Everything :func:`run_cells` learned, in input order."""

    outcomes: List[CellOutcome]
    #: one entry per *input* cell (duplicates share an outcome's result)
    cell_results: List[Optional[CellResult]]
    wall_s: float = 0.0
    jobs: int = 1

    @property
    def executed(self) -> int:
        return sum(1 for o in self.outcomes if o.source == "run")

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.source == "cache")

    @property
    def failed(self) -> List[CellOutcome]:
        return [o for o in self.outcomes if o.source == "failed"]

    @property
    def sim_events(self) -> int:
        return sum(o.result.sim_events for o in self.outcomes
                   if o.result is not None)

    @property
    def cell_wall_s_total(self) -> float:
        """Sum of per-cell wall times — the sequential-equivalent cost.

        Cache hits contribute the wall recorded at original computation,
        so the number answers "what would this sweep have cost cold and
        sequential".
        """
        return sum(o.wall_s for o in self.outcomes)

    def raise_on_failure(self) -> "SweepReport":
        if self.failed:
            raise SweepError(self.failed)
        return self

    def results(self) -> List[CellResult]:
        """All input cells' results; raises if any cell failed."""
        self.raise_on_failure()
        return [r for r in self.cell_results if r is not None]


def _worker(item: Tuple[int, RunSpec]) -> Tuple[int, str, Any, float]:
    """Pool entry point: never raises, returns a tagged tuple.

    ``("ok", result_dict, wall)`` or ``("err", "<cause + traceback>", 0)``
    — structured failure keeps one crashed cell from poisoning the pool
    or aborting sibling cells.
    """
    index, spec = item
    try:
        result, wall_s = run_cell(spec)
        return index, "ok", result.to_dict(), wall_s
    except BaseException as exc:  # noqa: BLE001 - isolation boundary
        cause = f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
        return index, "err", cause, 0.0


def _run_batch(batch: List[Tuple[int, RunSpec]], jobs: int
               ) -> List[Tuple[int, str, Any, float]]:
    """Run one batch of (index, spec) items, parallel or inline."""
    if jobs <= 1 or len(batch) <= 1:
        return [_worker(item) for item in batch]
    # fork shares the already-imported interpreter state (cheap start,
    # required for the module-level app registries); fall back to spawn
    # where fork is unavailable.
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(processes=min(jobs, len(batch))) as pool:
        return list(pool.imap_unordered(_worker, batch))


def run_cells(cells: Sequence[RunSpec], *, jobs: int = 1,
              cache: Optional[SweepCache] = None, force: bool = False,
              retries: int = 1,
              progress: Optional[Callable[[CellOutcome, int, int], None]] = None
              ) -> SweepReport:
    """Execute a cell grid; see the module docstring for the pipeline.

    ``force=True`` skips cache probes (but still writes fresh results).
    ``progress(outcome, done, total)`` fires once per unique cell as it
    resolves.
    """
    # analyze: ignore[REP102] measures the sweep's own host wall-clock
    # (reported as wall_s); the simulations inside use virtual time
    start = time.perf_counter()
    salt = code_salt()

    # -- dedupe, preserving first-seen order --------------------------------
    unique: Dict[str, int] = {}
    outcomes: List[CellOutcome] = []
    positions: List[int] = []          # input index -> outcome index
    for spec in cells:
        key = cell_key(spec, salt)
        if key not in unique:
            unique[key] = len(outcomes)
            outcomes.append(CellOutcome(spec=spec, key=key))
        positions.append(unique[key])
    total = len(outcomes)
    done = 0

    def _resolved(outcome: CellOutcome) -> None:
        nonlocal done
        done += 1
        if progress is not None:
            progress(outcome, done, total)

    # -- cache probe ---------------------------------------------------------
    pending: List[Tuple[int, RunSpec]] = []
    for idx, outcome in enumerate(outcomes):
        record = None if (cache is None or force) else cache.get(outcome.key)
        if record is not None:
            outcome.result = CellResult.from_dict(record["result"])
            outcome.source = "cache"
            outcome.wall_s = float(record.get("meta", {}).get("wall_s", 0.0))
            _resolved(outcome)
        else:
            pending.append((idx, outcome.spec))

    # -- execute + bounded retries -------------------------------------------
    attempt = 0
    while pending and attempt <= retries:
        returned = _run_batch(pending, jobs)
        next_pending: List[Tuple[int, RunSpec]] = []
        for idx, status, payload, wall_s in returned:
            outcome = outcomes[idx]
            outcome.attempts += 1
            if status == "ok":
                outcome.result = CellResult.from_dict(payload)
                outcome.source = "run"
                outcome.wall_s = wall_s
                outcome.error = None
                if cache is not None:
                    cache.put(outcome.key, outcome.spec, outcome.result,
                              wall_s)
                _resolved(outcome)
            else:
                outcome.error = payload
                if attempt < retries:
                    next_pending.append((idx, outcome.spec))
                else:
                    outcome.source = "failed"
                    _resolved(outcome)
        # keep a deterministic submission order across retry rounds
        next_pending.sort(key=lambda item: item[0])
        pending = next_pending
        attempt += 1

    return SweepReport(
        outcomes=outcomes,
        cell_results=[outcomes[pos].result for pos in positions],
        # analyze: ignore[REP102] host wall-clock of the sweep itself
        wall_s=time.perf_counter() - start,
        jobs=jobs,
    )


@dataclass
class SweepSession:
    """Shared sweep context across several experiment runs.

    The CLI creates one session per invocation; its :meth:`runner` is the
    ``cell_runner`` injected into experiment runners, so every grid an
    experiment enumerates flows through one pool + one cache, and the
    session accumulates the per-experiment reports the benchmark writer
    turns into ``BENCH_sweep.json``.
    """

    jobs: int = 1
    cache: Optional[SweepCache] = None
    force: bool = False
    retries: int = 1
    progress: Optional[Callable[[CellOutcome, int, int], None]] = None
    reports: List[SweepReport] = field(default_factory=list)

    def run(self, cells: Sequence[RunSpec]) -> SweepReport:
        report = run_cells(
            cells, jobs=self.jobs, cache=self.cache, force=self.force,
            retries=self.retries, progress=self.progress)
        self.reports.append(report)
        return report

    def runner(self, cells: Sequence[RunSpec]) -> List[CellResult]:
        """``cell_runner`` interface: all results or :class:`SweepError`."""
        return self.run(cells).results()
