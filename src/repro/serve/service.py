"""The job service core: admission, lifecycle, accounting, metrics.

:class:`JobService` is deliberately **synchronous and deterministic** — it
owns every state transition of the job lifecycle

    queued -> admitted -> running -> done | failed | cancelled

but performs no I/O and never sleeps.  The asyncio front-end
(:mod:`repro.serve.server`) and the sliced simulation executor
(:mod:`repro.serve.executor`) drive it from the event loop; the hypothesis
property suite drives it directly with a fake clock.  One core, two
harnesses.

Backpressure is typed, never exceptional: :meth:`submit` returns
:class:`~repro.serve.protocol.RetryLater` when a bounded queue or quota
would be exceeded, and the caller (or remote client) retries.  Admission is
delegated to a pluggable :class:`~repro.serve.admission.AdmissionPolicy`
from the unified scheduling-policy registry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..obs.metrics import MetricsRegistry
from .admission import AdmissionPolicy, create_admission_policy
from .cluster import ClusterPool
from .jobs import JobRecord, JobSpec, derive_seed, expected_result
from .protocol import JobReport, JobState, RetryLater, ServeError, Submitted
from .tenants import TenantConfig, TenantState

__all__ = ["ServeConfig", "JobService"]

SubmitResponse = Union[Submitted, RetryLater, ServeError]


@dataclass
class ServeConfig:
    """Configuration surface of the job service."""

    #: size of the shared simulated cluster pool
    nodes: int = 8
    #: device tuple every pool node carries (() = CPU-only Satin pool)
    devices: Tuple[str, ...] = ()
    #: admission policy name (registry kind ``"admission"``)
    admission_policy: str = "fair-share"
    #: global in-system ceiling (queued + in-flight across all tenants);
    #: beyond it submissions bounce with ``RetryLater("server-busy")``
    max_queue_depth: int = 4096
    #: session seed; per-job seeds derive from it deterministically
    seed: int = 42
    #: tenants to create at startup
    tenants: List[TenantConfig] = field(default_factory=list)


class JobService:
    """Multi-tenant admission control and job lifecycle over one pool."""

    def __init__(self, config: Optional[ServeConfig] = None, *,
                 clock: Optional[Callable[[], float]] = None,
                 registry: Optional[MetricsRegistry] = None):
        self.config = config or ServeConfig()
        self.clock = clock if clock is not None else time.monotonic
        self.pool = ClusterPool(self.config.nodes,
                                devices=self.config.devices)
        self.policy: AdmissionPolicy = create_admission_policy(
            self.config.admission_policy)
        self.tenants: Dict[str, TenantState] = {}
        for tc in self.config.tenants:
            self.add_tenant(config=tc)
        self.jobs: Dict[int, JobRecord] = {}
        self._next_job_id = 0
        self.draining = False
        #: one entry per admission decision: the fairness audit trail.
        #: ``eligible`` snapshots which tenants were admissible at decision
        #: time, so fair-share entitlement can be measured over exactly the
        #: window where tenants actually competed.
        self.admission_log: List[Dict[str, Any]] = []
        # -- metrics -------------------------------------------------------
        self.registry = registry if registry is not None else MetricsRegistry()
        r = self.registry
        self._jobs_total = r.counter(
            "serve_jobs_total",
            "job lifecycle transitions, by tenant and state")
        self._retry_total = r.counter(
            "serve_retry_later_total",
            "backpressured submissions, by tenant and reason")
        self._queue_wait = r.histogram(
            "serve_queue_wait_seconds",
            "submit -> admitted wait, by tenant")
        self._run_wall = r.histogram(
            "serve_run_wall_seconds",
            "running -> terminal wall time, by tenant")
        self._queue_depth = r.gauge(
            "serve_queue_depth", "queued jobs right now, by tenant")
        self._pool_gauge = r.gauge(
            "serve_pool_nodes", "pool capacity, by liveness/lease state")
        self._crash_total = r.counter(
            "serve_node_crashes_total", "pool nodes crashed by churn")
        self._update_pool_gauges()

    # -- tenants -----------------------------------------------------------
    def add_tenant(self, name: Optional[str] = None, *,
                   weight: float = 1.0, priority: int = 0,
                   max_queued: int = 64, max_in_flight: int = 8,
                   config: Optional[TenantConfig] = None) -> TenantState:
        tc = config or TenantConfig(
            name=name or "", weight=weight, priority=priority,
            max_queued=max_queued, max_in_flight=max_in_flight)
        if not tc.name:
            raise ValueError("a tenant needs a name")
        if tc.name in self.tenants:
            raise ValueError(f"tenant {tc.name!r} already exists")
        tenant = TenantState(tc)
        self.tenants[tc.name] = tenant
        return tenant

    # -- submission (backpressure lives here) ------------------------------
    def submit(self, tenant_name: str, spec: JobSpec,
               tag: Optional[str] = None) -> SubmitResponse:
        """Accept a job into the tenant's queue, or bounce it — typed,
        never by exception."""
        tenant = self.tenants.get(tenant_name)
        if tenant is None:
            return ServeError("unknown-tenant",
                              f"no such tenant: {tenant_name!r}", tag=tag)
        if spec.nodes > len(self.pool.nodes):
            return ServeError(
                "job-too-large",
                f"job wants {spec.nodes} nodes; the pool has "
                f"{len(self.pool.nodes)}", tag=tag)
        reason = self._bounce_reason(tenant)
        if reason is not None:
            tenant.submitted += 1
            tenant.rejected += 1
            self._count_state(tenant_name, JobState.REJECTED)
            self._retry_total.inc(tenant=tenant_name, reason=reason)
            return RetryLater(reason, tenant=tenant_name, tag=tag)
        # accepted
        tenant.submitted += 1
        seq = tenant.accepted_seq
        tenant.accepted_seq += 1
        job = JobRecord(
            id=self._next_job_id, tenant=tenant_name, spec=spec,
            seed=derive_seed(self.config.seed, tenant_name, seq),
            tenant_seq=seq, tag=tag, submitted_at=self.clock())
        self._next_job_id += 1
        self.jobs[job.id] = job
        was_idle = not tenant.backlogged
        tenant.queue.append(job)
        if was_idle:
            self.policy.on_backlogged(tenant, self.tenants.values())
        self._count_state(tenant_name, JobState.QUEUED)
        self._queue_depth.set(len(tenant.queue), tenant=tenant_name)
        return Submitted(job.id, tenant_name, tag=tag)

    def _bounce_reason(self, tenant: TenantState) -> Optional[str]:
        """Why a submission must bounce right now (None = accept)."""
        if self.draining:
            return "draining"
        total_in_system = sum(
            len(t.queue) + t.in_flight for t in self.tenants.values())
        if total_in_system >= self.config.max_queue_depth:
            return "server-busy"
        cfg = tenant.config
        if len(tenant.queue) >= cfg.max_queued:
            if tenant.in_flight >= cfg.max_in_flight:
                return "tenant-quota"
            return "tenant-queue-full"
        return None

    # -- admission ---------------------------------------------------------
    def dispatch(self) -> List[JobRecord]:
        """Admit as many jobs as policy + capacity allow; return them.

        Each admitted job holds a node lease on return; the caller is
        responsible for running it (executor) and eventually calling
        :meth:`finish`.
        """
        admitted: List[JobRecord] = []
        while True:
            eligible = [t for t in self.tenants.values() if t.eligible]
            # capacity filter: a tenant only competes if its head job fits
            # in the currently free pool slice
            fitting = [t for t in eligible
                       if t.queue[0].spec.nodes <= self.pool.free_count]
            if not fitting:
                break
            chosen = self.policy.select(sorted(fitting,
                                               key=lambda t: t.name))
            if chosen is None:
                break
            job = chosen.queue.popleft()
            lease = self.pool.allocate(job.id, job.spec.nodes)
            assert lease is not None  # guaranteed by the capacity filter
            job.lease_ranks = [n.rank for n in lease]
            job.state = JobState.ADMITTED
            job.admitted_at = self.clock()
            chosen.in_flight += 1
            self.policy.on_admitted(chosen, cost=float(job.spec.nodes))
            self.admission_log.append({
                "job_id": job.id,
                "tenant": chosen.name,
                "nodes": job.spec.nodes,
                "eligible": sorted(t.name for t in eligible),
            })
            self._count_state(chosen.name, JobState.ADMITTED)
            self._queue_wait.observe(job.queue_wait_s or 0.0,
                                     tenant=chosen.name)
            self._queue_depth.set(len(chosen.queue), tenant=chosen.name)
            self._update_pool_gauges()
            admitted.append(job)
        return admitted

    # -- lifecycle ---------------------------------------------------------
    def mark_running(self, job: JobRecord) -> None:
        assert job.state is JobState.ADMITTED, job.state
        job.state = JobState.RUNNING
        job.started_at = self.clock()
        self._count_state(job.tenant, JobState.RUNNING)

    def finish(self, job: JobRecord, *, result: Any = None,
               error: Optional[str] = None, cancelled: bool = False,
               makespan_s: Optional[float] = None,
               orphans_requeued: int = 0) -> None:
        """Move an admitted/running job to its terminal state and release
        its lease.  Idempotent-hostile by design: finishing twice is a bug,
        so it asserts."""
        assert not job.terminal, f"finish() on terminal job {job.id}"
        tenant = self.tenants[job.tenant]
        job.finished_at = self.clock()
        job.makespan_s = makespan_s
        job.orphans_requeued = orphans_requeued
        if cancelled:
            job.state = JobState.CANCELLED
            tenant.cancelled += 1
        elif error is not None:
            job.state = JobState.FAILED
            job.error = error
            tenant.failed += 1
        else:
            if ((expect := expected_result(job.spec)) is not None
                    and result != expect):
                job.state = JobState.FAILED
                job.error = (f"result-mismatch: got {result!r}, "
                             f"expected {expect!r}")
                tenant.failed += 1
            else:
                job.state = JobState.DONE
                job.result = result
                tenant.done += 1
        tenant.in_flight -= 1
        self.pool.release(job.id)
        self._count_state(job.tenant, job.state)
        if job.run_wall_s is not None:
            self._run_wall.observe(job.run_wall_s, tenant=job.tenant)
        self._update_pool_gauges()

    def cancel(self, job_id: int) -> Union[JobReport, ServeError]:
        """Cancel a job.  Queued jobs cancel immediately; admitted/running
        jobs are flagged and the executor cancels them at the next slice
        boundary; terminal jobs are left as they ended."""
        job = self.jobs.get(job_id)
        if job is None:
            return ServeError("unknown-job", f"no such job: {job_id}")
        if job.state is JobState.QUEUED:
            tenant = self.tenants[job.tenant]
            tenant.queue.remove(job)
            job.state = JobState.CANCELLED
            job.finished_at = self.clock()
            tenant.cancelled += 1
            self._count_state(job.tenant, JobState.CANCELLED)
            self._queue_depth.set(len(tenant.queue), tenant=job.tenant)
        elif not job.terminal:
            job.cancel_requested = True
        return self.report(job)

    # -- drain & churn -----------------------------------------------------
    def start_drain(self) -> None:
        """Stop admitting *new submissions*; everything already accepted
        still runs to a terminal state (graceful drain)."""
        self.draining = True

    @property
    def quiescent(self) -> bool:
        """No queued or in-flight work anywhere."""
        return all(not t.backlogged and t.in_flight == 0
                   for t in self.tenants.values())

    def inject_crash(self, rank: Optional[int] = None
                     ) -> Optional[Tuple[int, Optional[int]]]:
        """Kill one pool node (churn).  Returns ``(rank, job_id)`` where
        ``job_id`` is the running job whose lease the node belonged to
        (None for a free node), or ``None`` if nothing was eligible.

        The affected job is *not* failed: the node's local rank is queued
        on ``job.pending_crashes`` and the executor injects the crash into
        the job's simulation, where Satin's orphan re-queue fault tolerance
        recovers the lost work.
        """
        if rank is None:
            rank = self.pool.pick_churn_victim()
            if rank is None:
                return None
        node = self.pool.nodes[rank]
        if not node.alive:
            return (rank, None)  # idempotent: already dead
        if node.is_master:
            raise ValueError(
                f"pool node {rank} is a job master; the master cannot crash")
        self.pool.fail(rank)
        self._crash_total.inc()
        victim_job: Optional[int] = None
        if node.job_id is not None:
            job = self.jobs[node.job_id]
            local_rank = job.lease_ranks.index(rank)
            job.pending_crashes.append(local_rank)
            victim_job = job.id
        self._update_pool_gauges()
        return (rank, victim_job)

    # -- reporting ---------------------------------------------------------
    def report(self, job: JobRecord) -> JobReport:
        return JobReport(
            job_id=job.id, tenant=job.tenant, state=job.state.value,
            result=job.result, error=job.error,
            queue_wait_s=job.queue_wait_s, run_wall_s=job.run_wall_s,
            makespan_s=job.makespan_s,
            orphans_requeued=job.orphans_requeued, tag=job.tag,
            event_kinds=dict(job.event_kinds))

    def report_by_id(self, job_id: int) -> Union[JobReport, ServeError]:
        job = self.jobs.get(job_id)
        if job is None:
            return ServeError("unknown-job", f"no such job: {job_id}")
        return self.report(job)

    def accounting(self) -> Dict[str, Dict[str, int]]:
        return {name: t.accounting()
                for name, t in sorted(self.tenants.items())}

    def accounting_closed(self) -> bool:
        """Global closure: every tenant's books balance."""
        return all(t.accounting_closed() for t in self.tenants.values())

    def admitted_shares(self, window: Optional[List[Dict[str, Any]]] = None
                        ) -> Dict[str, float]:
        """Observed admission share per tenant over the *contested* window.

        Only admission decisions where **all** tenants were eligible count:
        that is the window where entitlement (weight / total weight) is the
        right yardstick.  Shares are node-weighted, matching the policy's
        cost accounting.
        """
        log = self.admission_log if window is None else window
        names = set(self.tenants)
        contested = [e for e in log if set(e["eligible"]) == names]
        total = sum(e["nodes"] for e in contested)
        if total == 0:
            return {name: 0.0 for name in names}
        out = {name: 0.0 for name in names}
        for e in contested:
            out[e["tenant"]] += e["nodes"]
        return {name: count / total for name, count in out.items()}

    def entitlements(self) -> Dict[str, float]:
        total = sum(t.config.weight for t in self.tenants.values())
        return {name: t.config.weight / total
                for name, t in self.tenants.items()}

    def lost_jobs(self) -> List[int]:
        """Accepted jobs that are neither queued, in flight, nor terminal —
        must always be empty; anything here leaked from the books."""
        queued = {j.id for t in self.tenants.values() for j in t.queue}
        return [job.id for job in self.jobs.values()
                if not job.terminal and job.id not in queued
                and job.state not in (JobState.ADMITTED, JobState.RUNNING)]

    # -- internals ---------------------------------------------------------
    def _count_state(self, tenant: str, state: JobState) -> None:
        self._jobs_total.inc(tenant=tenant, state=state.value)

    def _update_pool_gauges(self) -> None:
        self._pool_gauge.set(self.pool.alive_count, state="alive")
        self._pool_gauge.set(self.pool.free_count, state="free")
        self._pool_gauge.set(len(self.pool.nodes) - self.pool.alive_count,
                             state="dead")
