"""Fault tolerance of the Satin runtime (Sec. II-A: orphan re-execution).

Satin recovers from node crashes with *orphan re-execution*: when the Ibis
membership service reports that a node died, every job that node had stolen
(an *orphan* — its result will never come back) is re-queued at its origin
node and simply executed again.  This module owns that mechanism end to
end, extracted from the runtime monolith:

* the **orphan table** — jobs currently stolen out of their origin node,
  recorded when a steal is served and dropped when the result returns,
* **crash injection + detection** — :meth:`FaultTolerance.crash_node`
  marks the node dead, interrupts its simulation processes, and (modelling
  the membership service broadcast) fails every in-flight request aimed at
  it through :meth:`repro.satin.comm.CommLayer.fail_pending_to`,
* **orphan re-queueing** — after the membership-notification latency,
  orphans of the dead node are pushed back into their origins' deques.

The ``notify_comm=False`` escape hatch models a *silent* failure the
membership service never reports (a network partition): in-flight requests
to the dead node are then only recovered by the comm layer's reply-timeout
+ bounded-retry path, which is exactly the scenario that feature exists
for.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, Optional, Set

from .job import Job

if TYPE_CHECKING:  # pragma: no cover - typing only (cycle with runtime)
    from .runtime import SatinRuntime

__all__ = ["FaultTolerance"]

#: crash-detection latency of the membership service
MEMBERSHIP_NOTIFY_S = 1e-3


class FaultTolerance:
    """Crash detection and orphan re-execution for one runtime."""

    def __init__(self, runtime: "SatinRuntime"):
        self.runtime = runtime
        self.env = runtime.env
        #: jobs stolen *from* each origin, by job id (the orphan table)
        self.stolen_out: Dict[int, Job] = {}
        #: ranks whose crash this layer already handled (interrupt + orphan
        #: re-queue scheduled exactly once per rank)
        self._crashed: Set[int] = set()
        #: ranks whose crash was reported to the comm layer.  Tracked
        #: separately from ``_crashed``: a *silent* failure
        #: (``notify_comm=False``) may be followed by a later membership
        #: notification for the same rank, which must still fail the
        #: pending requests even though the crash itself was handled.
        self._notified: Set[int] = set()

    # -- orphan table --------------------------------------------------------
    def record_stolen(self, job: Job) -> None:
        """A steal was served: remember the job until its result returns."""
        self.stolen_out[job.id] = job

    def take_stolen(self, job_id: int) -> Optional[Job]:
        """A result arrived: claim the orphan-table entry (or ``None`` when
        the job was already re-queued as an orphan)."""
        return self.stolen_out.pop(job_id, None)

    # -- crash injection -----------------------------------------------------
    def crash_node(self, rank: int, notify_comm: bool = True) -> None:
        """Crash a node (fault injection).  The master cannot crash.

        ``notify_comm=False`` models a silent failure: the membership
        service never reports the crash, so in-flight requests to the dead
        node are left to the comm layer's reply-timeout path.

        Idempotent per *effect*, not merely per call: repeated crashes of
        the same rank neither re-interrupt, double-requeue orphans nor
        double-increment the orphan counter — but a membership notification
        (``notify_comm=True``) arriving *after* an earlier silent crash of
        the same rank still fails the pending requests, because the two
        effects are tracked independently.  The serve layer relies on this:
        cluster-level churn and in-job fault injection may both report the
        same dead node.
        """
        if rank == 0:
            raise ValueError("crashing the master is not supported")
        rt = self.runtime
        node = rt.cluster.node(rank)
        first = rank not in self._crashed and not node.crashed
        if first:
            self._crashed.add(rank)
            node.crashed = True
            rt.cluster.membership_changed()
            if rt.obs.enabled:
                rt.obs.emit("crash", node=rank)
            for proc in rt._processes.get(rank, []):
                proc.interrupt("node crashed")
            # The receive loop is a callback pump, not a process.
            channel = rt.comm.channels.get(rank)
            if channel is not None:
                channel.stop_pump()
        if notify_comm and rank not in self._notified:
            # The membership service reports the crash: steal requests in
            # flight to the dead node fail immediately (and the comm layer
            # remembers the rank, so later requests fail fast too).
            self._notified.add(rank)
            rt.comm.fail_pending_to(rank)
        if first:
            # Orphans: jobs the dead node had stolen get re-queued at their
            # origins after the membership service notices the crash.
            self.env.process(self.requeue_orphans(rank))

    def crash_after(self, rank: int, delay: float) -> None:
        """Schedule a crash at ``delay`` seconds of virtual time from now."""

        def crasher() -> Generator:
            yield self.env.timeout(delay)
            self.crash_node(rank)

        self.env.process(crasher())

    # -- recovery ------------------------------------------------------------
    def requeue_orphans(self, dead_rank: int) -> Generator:
        """Process: re-queue the dead node's orphans at their origins."""
        rt = self.runtime
        yield self.env.timeout(MEMBERSHIP_NOTIFY_S)
        for job_id, job in list(self.stolen_out.items()):
            if job.thief_rank == dead_rank and not job.done.triggered:
                del self.stolen_out[job_id]
                job.thief_rank = None
                origin = rt.cluster.node(job.origin_rank)
                if origin.crashed:
                    continue
                rt.stats.count_orphan_requeued(job.origin_rank)
                if rt.obs.enabled:
                    rt.obs.emit("orphan_requeue", node=job.origin_rank,
                                job_id=job_id, dead_node=dead_rank)
                rt.deques[job.origin_rank].push(job)
