"""Run statistics: the counters and derived figures of one Satin run.

Since the unified observability layer (:mod:`repro.obs`) these are *views*
over a :class:`~repro.obs.metrics.MetricsRegistry`; this module only holds
the projection code, extracted from the runtime monolith so the
orchestration layer and the bookkeeping layer can evolve independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..obs.metrics import MetricsRegistry

__all__ = ["RunStats", "RunResult"]


class RunStats:
    """Counters collected during one run.

    Since the unified observability layer (:mod:`repro.obs`) this is a
    *view* over a :class:`~repro.obs.metrics.MetricsRegistry` — the
    registry is the only bookkeeping path, and the historical field names
    (``steal_attempts``, ``jobs_executed``, ...) are read-only projections
    of its counters.  Access the registry directly for per-node/per-device
    breakdowns, histograms and derived gauges.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.makespan_s: float = 0.0
        r = self.registry
        self._jobs = r.counter(
            "satin_jobs_executed_total", "jobs executed, by node")
        self._leaves = r.counter(
            "satin_leaves_executed_total", "leaf tasks executed, by node")
        self._leaf_flops = r.counter(
            "satin_leaf_flops_total", "application flops performed by leaves")
        self._steal_attempts = r.counter(
            "satin_steal_attempts_total", "steal requests sent, by thief node")
        self._steal_successes = r.counter(
            "satin_steal_successes_total", "successful steals, by thief node")
        self._results = r.counter(
            "satin_results_returned_total", "stolen-job results returned")
        self._orphans = r.counter(
            "satin_orphans_requeued_total", "orphan jobs re-queued, by origin")
        self._fallbacks = r.counter(
            "cashmere_cpu_fallbacks_total", "leaves that fell back to the CPU")
        self._ooc = r.counter(
            "cashmere_out_of_core_launches_total", "out-of-core leaf launches")
        self._spawns = r.counter(
            "satin_jobs_spawned_total", "jobs spawned into work deques, by node")
        self._queue_depth = r.histogram(
            "satin_queue_depth", "work-deque depth observed at each push")
        # hot-path bound children: label keys resolved once per (metric,
        # rank), per-call cost is one dict get + one dict-slot update
        # (keeps the disabled-observability overhead within the <5%
        # budget of docs/observability.md)
        self._jobs_c: Dict[int, Any] = {}
        self._leaves_c: Dict[int, Any] = {}
        self._spawns_c: Dict[int, Any] = {}
        self._attempts_c: Dict[int, Any] = {}
        self._successes_c: Dict[int, Any] = {}
        self._orphans_c: Dict[int, Any] = {}
        self._leaf_flops_inc = self._leaf_flops.child()
        self._results_inc = self._results.child()
        self._fallbacks_inc = self._fallbacks.child()
        self._ooc_inc = self._ooc.child()

    # -- mutation (used by the runtimes; one bookkeeping path) -------------
    def count_job(self, rank: int) -> None:
        fn = self._jobs_c.get(rank)
        if fn is None:
            fn = self._jobs_c[rank] = self._jobs.child(node=rank)
        fn()

    def count_leaf(self, rank: int, flops: float) -> None:
        fn = self._leaves_c.get(rank)
        if fn is None:
            fn = self._leaves_c[rank] = self._leaves.child(node=rank)
        fn()
        self._leaf_flops_inc(flops)

    def count_spawn(self, rank: int) -> None:
        fn = self._spawns_c.get(rank)
        if fn is None:
            fn = self._spawns_c[rank] = self._spawns.child(node=rank)
        fn()

    def count_steal_attempt(self, rank: int) -> None:
        fn = self._attempts_c.get(rank)
        if fn is None:
            fn = self._attempts_c[rank] = self._steal_attempts.child(node=rank)
        fn()

    def count_steal_success(self, rank: int) -> None:
        fn = self._successes_c.get(rank)
        if fn is None:
            fn = self._successes_c[rank] = self._steal_successes.child(node=rank)
        fn()

    def count_result_returned(self) -> None:
        self._results_inc()

    def count_orphan_requeued(self, origin_rank: int) -> None:
        fn = self._orphans_c.get(origin_rank)
        if fn is None:
            fn = self._orphans_c[origin_rank] = self._orphans.child(
                node=origin_rank)
        fn()

    def count_cpu_fallback(self) -> None:
        self._fallbacks_inc()

    def count_out_of_core(self) -> None:
        self._ooc_inc()

    # -- legacy field views -------------------------------------------------
    @staticmethod
    def _by_node(counter) -> Dict[int, int]:
        return {rank: int(v) for rank, v in sorted(counter.by_label("node").items())}

    @property
    def jobs_executed(self) -> Dict[int, int]:
        return self._by_node(self._jobs)

    @property
    def leaves_executed(self) -> Dict[int, int]:
        return self._by_node(self._leaves)

    @property
    def steal_attempts(self) -> int:
        return int(self._steal_attempts.total)

    @property
    def steal_successes(self) -> int:
        return int(self._steal_successes.total)

    @property
    def results_returned(self) -> int:
        return int(self._results.total)

    @property
    def orphans_requeued(self) -> int:
        return int(self._orphans.total)

    @property
    def cpu_fallbacks(self) -> int:
        return int(self._fallbacks.total)

    @property
    def out_of_core_launches(self) -> int:
        return int(self._ooc.total)

    @property
    def total_leaf_flops(self) -> float:
        return self._leaf_flops.total

    @property
    def total_jobs(self) -> int:
        return int(self._jobs.total)

    @property
    def total_leaves(self) -> int:
        return int(self._leaves.total)

    def gflops(self) -> float:
        """Application-level achieved GFLOPS (the figures' y-axis)."""
        if self.makespan_s <= 0:
            return 0.0
        return self.total_leaf_flops / self.makespan_s / 1e9


@dataclass
class RunResult:
    result: Any
    stats: RunStats
