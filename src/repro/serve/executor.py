"""Sliced execution of one job's simulation.

Every admitted job runs in its own fresh deterministic simulation over the
pool slice it leased (see :mod:`repro.serve.jobs` for why: the per-job
event stream must depend only on the job's seed, never on what other
tenants are doing).  :class:`JobExecution` drives that simulation in
**cooperative slices** — step a bounded number of engine events, yield,
repeat — so a single asyncio event loop interleaves hundreds of running
jobs with socket I/O without threads.

Between slices the execution applies control actions that arrived from the
outside world:

* **churn** — pool nodes that died while the job was running
  (``job.pending_crashes``) are injected via
  :meth:`~repro.satin.runtime.SatinRuntime.crash_node`, where Satin's
  orphan re-execution recovers the lost work in-simulation,
* **cancellation** — ``job.cancel_requested`` abandons the simulation at
  the next slice boundary.

The same slicing logic runs without asyncio (:func:`run_admitted_sync`)
so the scenario, property and determinism suites can drive it
deterministically.
"""

from __future__ import annotations

import asyncio
from typing import List, Optional, Tuple

from ..obs.export import chrome_trace
from .jobs import JobRecord, build_execution_runtime
from .protocol import JobState
from .service import JobService

__all__ = ["JobExecution", "run_admitted_sync"]

#: engine events per cooperative simulation slice
SLICE_EVENTS = 200


class JobExecution:
    """One admitted job's simulation, advanced slice by slice."""

    def __init__(self, service: JobService, job: JobRecord):
        assert job.state is JobState.ADMITTED, job.state
        self.service = service
        self.job = job
        devices = [service.pool.nodes[r].devices for r in job.lease_ranks]
        self.cluster, self.runtime, self.root_task = \
            build_execution_runtime(job, devices)
        self._root_proc = None
        self._error: Optional[str] = None
        self._cancelled = False
        self._done = False

    # -- the slicing core --------------------------------------------------
    def start(self) -> None:
        """Transition to RUNNING and launch the simulation (the Cashmere
        runtime's init phase — runtime-info broadcast + kernel compile —
        completes inside ``begin()``)."""
        self.service.mark_running(self.job)
        try:
            self._root_proc = self.runtime.begin(self.root_task)
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            self._error = f"{type(exc).__name__}: {exc}"
            self._done = True

    def step_slice(self) -> bool:
        """Advance one slice.  Returns True while more slices are needed."""
        if self._done:
            return False
        job = self.job
        self._apply_pending_crashes()
        if job.cancel_requested:
            self._cancelled = True
            self._done = True
            return False
        env = self.cluster.env
        root = self._root_proc
        budget = SLICE_EVENTS
        try:
            while budget > 0 and not root.triggered:
                if env.peek() == float("inf"):
                    self._error = ("deadlock: event queue drained before "
                                   "the root task finished")
                    self._done = True
                    return False
                env.step()
                budget -= 1
        except Exception as exc:  # noqa: BLE001
            self._error = f"{type(exc).__name__}: {exc}"
            self._done = True
            return False
        if root.triggered:
            self._done = True
            return False
        return True

    def finalize(self) -> JobRecord:
        """Harvest the simulation and move the job to its terminal state."""
        job = self.job
        result = None
        makespan = None
        orphans = 0
        if (self._error is None and not self._cancelled
                and self._root_proc is not None):
            try:
                run_result = self.runtime.complete(self._root_proc)
                result = run_result.result
                makespan = self.runtime.stats.makespan_s
            except Exception as exc:  # noqa: BLE001
                self._error = f"{type(exc).__name__}: {exc}"
        orphans = self.runtime.stats.orphans_requeued
        # per-job observability artifacts travel on the record either way
        bus = self.cluster.obs
        job.events = bus.serialize()
        job.event_kinds = bus.kinds()
        if job.spec.trace:
            job.trace = chrome_trace(bus)
        self.service.finish(
            job, result=result, error=self._error,
            cancelled=self._cancelled, makespan_s=makespan,
            orphans_requeued=orphans)
        return job

    def _apply_pending_crashes(self) -> None:
        """Inject pool-node deaths into the running simulation."""
        job = self.job
        while job.pending_crashes:
            local_rank = job.pending_crashes.pop(0)
            if local_rank == 0:
                # the service never kills a leased master; belt and braces
                continue
            try:
                self.runtime.crash_node(local_rank)
            except Exception as exc:  # noqa: BLE001
                self._error = f"{type(exc).__name__}: {exc}"
                self._done = True
                return

    # -- drivers -----------------------------------------------------------
    async def run_async(self) -> JobRecord:
        """Run to a terminal state, yielding to the loop between slices."""
        self.start()
        while self.step_slice():
            await asyncio.sleep(0)
        return self.finalize()


def run_admitted_sync(service: JobService,
                      churn: Optional[List[Tuple[int, int]]] = None
                      ) -> List[JobRecord]:
    """Synchronous drain helper: dispatch + run until the service is quiet.

    Jobs admitted in one dispatch round run round-robin, one slice each, so
    concurrency effects (shared-pool contention, churn hitting a running
    job) are exercised even without asyncio.  ``churn`` optionally lists
    ``(after_completed_jobs, rank)`` pairs: when the number of finished jobs
    reaches the threshold, that pool node is killed via
    :meth:`JobService.inject_crash`.

    Used by the scenario/property/determinism suites; the asyncio server
    has its own pump.
    """
    churn = sorted(churn or [], key=lambda c: c[0])
    finished: List[JobRecord] = []
    running: List[JobExecution] = []
    while True:
        for job in service.dispatch():
            ex = JobExecution(service, job)
            ex.start()
            running.append(ex)
        while churn and len(finished) >= churn[0][0]:
            service.inject_crash(churn.pop(0)[1])
        if not running:
            break
        still: List[JobExecution] = []
        for ex in running:
            if ex.step_slice():
                still.append(ex)
            else:
                finished.append(ex.finalize())
                while churn and len(finished) >= churn[0][0]:
                    service.inject_crash(churn.pop(0)[1])
        running = still
    return finished
