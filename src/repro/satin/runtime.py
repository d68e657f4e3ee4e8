"""The Satin runtime: spawn/sync divide-and-conquer with random work stealing.

This is the cluster-level engine of the reproduction (Sec. II-A):

* **spawn** — dividing a task creates child jobs in the node's work deque;
  other nodes can steal them,
* **sync** — the spawning computation blocks until its children are done,
  executing local work (and absorbing stolen children's results) meanwhile,
* **random work-stealing** — idle workers send steal requests to victims
  chosen by the configured :mod:`~repro.satin.steal` policy (uniformly
  random by default); a stolen job's input crosses the network, it executes
  on the thief (possibly spawning further work there), and the result
  crosses back,
* **latency hiding** — result transfers are fire-and-forget processes that
  overlap with computation,
* **fault tolerance** — when a node crashes, jobs it had stolen are
  re-queued at their origin nodes (orphan re-execution), mimicking Satin's
  recovery via the Ibis membership service.

The runtime is the *orchestration* layer of a stack of subsystems, each
its own module:

* :mod:`repro.satin.comm` — the typed message protocol (steal
  request/reply pairing, reply timeouts, dispatch),
* :mod:`repro.satin.steal` — pluggable victim-selection policies,
* :mod:`repro.satin.ft` — crash detection and the orphan table,
* :mod:`repro.satin.stats` — counters, projected over the metrics registry.

Protocol handling consumes CPU cores.  Under plain Satin all 8 cores run
leaf computations, so steal/result handling queues behind them — exactly the
second cause of Satin's reduced scalability discussed in Sec. V-B.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional

from ..analyze.races import RaceDetector
from ..cluster.das4 import SimCluster
from ..cluster.node import ComputeNode
from ..obs.export import record_run_gauges
from ..sim.engine import Environment, Interrupt, Process, Timeout, first_of
from .comm import (
    CommLayer,
    ResultReturn,
    SharedObjectUpdate,
    StealReply,
    StealRequest,
)
from .ft import FaultTolerance
from .job import DependencyTracker, DivideConquerApp, Job, LeafContext
from .queues import WorkDeque
from .stats import RunResult, RunStats
from .steal import StealPolicy, create_steal_policy

__all__ = ["RuntimeConfig", "RunStats", "RunResult", "SatinRuntime"]

# Protocol costs of the Java/Ibis stack.
SPAWN_OVERHEAD_S = 20e-6          #: CPU cost of creating one job
STEAL_HANDLE_OVERHEAD_S = 15e-6   #: CPU cost of serving a steal request
RESULT_HANDLE_OVERHEAD_S = 10e-6  #: CPU cost of absorbing a result
#: header bytes of every steal request, steal reply and result return
CONTROL_MESSAGE_BYTES = 64.0
#: first idle wait after a fully failed steal round; each further failed
#: wait doubles it, up to ``RuntimeConfig.steal_backoff_max_s``
STEAL_BACKOFF_S = 100e-6


@dataclass
class RuntimeConfig:
    """Settings of one runtime (defaults model the Java/Ibis stack).

    ``CashmereConfig`` overrides ``workers_per_node`` and
    ``steal_backoff_max_s``: the two values Satin and Cashmere need to
    differ.
    """

    #: Satin needs 8 jobs to fill a node (Sec. V-B)
    workers_per_node: int = 8
    #: cap of the exponential idle backoff after failed steal rounds
    steal_backoff_max_s: float = 0.1
    seed: int = 42
    #: victim-selection policy (registry kind ``"steal"``): ``random`` is
    #: the paper's uniform sweep; ``cluster-aware`` and ``adaptive`` are
    #: the benchmarkable alternatives of :mod:`repro.satin.steal`
    steal_policy: str = "random"
    #: reply timeout for steal requests; ``None`` (default) relies purely
    #: on the membership service to fail requests to dead nodes.  Set a
    #: timeout to survive *silent* failures the membership service misses.
    steal_reply_timeout_s: Optional[float] = None
    #: extra attempts after the first reply timeout (bounded retry)
    steal_reply_retries: int = 1
    #: a steal round polls every victim in random order (Satin's behavior);
    #: False limits each round to a single random victim (ablation)
    steal_sweep: bool = True
    #: run the MCPL static verifier (:mod:`repro.mcl.verify`) over every
    #: registered kernel version before the run starts and refuse to run
    #: when an unsuppressed error-severity finding remains.  Ignored by the
    #: plain Satin runtime (no kernels); enforced by CashmereRuntime.
    verify_kernels: bool = False
    #: attach the happens-before race sanitizer
    #: (:class:`repro.analyze.races.RaceDetector`): spawn/sync/guard edges
    #: merge per-job vector clocks and conflicting shared-object accesses
    #: are reported as ``REP201`` findings.  Off by default — with the flag
    #: off no detector exists and seeded obs event streams are
    #: byte-identical to an uninstrumented runtime.
    detect_races: bool = False


class _PendingLeaf:
    """Deferred leaf value: what the default ``leaf`` hook and a Cashmere
    kernel leaf return.

    The token travels wherever the value would have (through ``job.done``,
    across the simulated network in a ``ResultReturn``) and is resolved —
    flushing the whole pending batch through ``app.leaf_batch`` — at the
    combine (or subtask return) that consumes it.  Safe because all leaves
    of one subtask round read the same committed app state; deferral only
    moves *when* the host computes the value, never what it is.
    """

    __slots__ = ("task", "value", "resolved")

    def __init__(self, task: Any):
        self.task = task
        self.value = None
        self.resolved = False


class SatinRuntime:
    """One Satin execution on a simulated cluster.

    A runtime instance drives exactly one :meth:`run`; build a fresh cluster
    and runtime per experiment (cheap — everything is plain Python).
    """

    def __init__(self, cluster: SimCluster, app: DivideConquerApp,
                 config: Optional[RuntimeConfig] = None):
        self.cluster = cluster
        self.env: Environment = cluster.env
        self.app = app
        self.config = config or RuntimeConfig()
        self.rng = random.Random(self.config.seed)
        self.stats = RunStats()
        #: observability event bus (alias of ``env.obs``)
        self.obs = self.env.obs
        # Each deque samples its depth into the queue-depth histogram on
        # every push; the bound child makes that a plain list append.
        self.deques: Dict[int, WorkDeque] = {
            node.rank: WorkDeque(
                self.env,
                observer=self.stats._queue_depth.child(node=node.rank))
            for node in cluster.nodes}
        #: typed message-protocol layer (one channel per node)
        self.comm = CommLayer(
            self.env,
            reply_timeout_s=self.config.steal_reply_timeout_s,
            reply_retries=self.config.steal_reply_retries)
        #: victim-selection policy (registry kind ``"steal"``)
        self.steal_policy: StealPolicy = create_steal_policy(
            self.config.steal_policy)
        self.steal_policy.bind(self.obs)
        #: fault tolerance: crash injection, orphan table, re-queueing
        self.ft = FaultTolerance(self)
        #: happens-before race sanitizer, or ``None`` (the default) — every
        #: instrumentation site guards on this, so the disabled path adds
        #: no work and no obs events
        self.race_detector: Optional[RaceDetector] = (
            RaceDetector(self) if self.config.detect_races else None)
        #: deferred leaf values awaiting one ``app.leaf_batch`` call
        #: (flushed at the consuming combine or subtask return)
        self._pending_leaves: List[_PendingLeaf] = []
        #: per-rank steal-round caches: candidate victim ranks (rebuilt when
        #: cluster membership changes) and the request hooks (message
        #: builder + obs-off attempt counter), so a steal round stops
        #: allocating closures and candidate lists
        self._victim_cache: Dict[int, List[int]] = {}
        self._victim_cache_version: int = -1
        self._steal_hooks: Dict[int, Any] = {}
        #: per-runtime job ids keep the observability event stream
        #: deterministic across runs within one process
        self._job_ids = itertools.count()
        self._processes: Dict[int, List[Process]] = {}
        self._shared_objects: Dict[str, Any] = {}
        #: nodes with a sync-steal helper in flight (at most one per node)
        self._sync_stealing: Dict[int, bool] = {}
        self._shutdown = False
        self._started = False
        self._run_start = 0.0
        for node in cluster.nodes:
            self._attach_channel(node)

    def _attach_channel(self, node: ComputeNode) -> None:
        """Wire one node's typed protocol handlers."""
        ch = self.comm.attach(node.endpoint)
        # Serving and absorbing run on their own callback chains, off the
        # pump, so a busy CPU delays the reply without blocking later
        # messages' bookkeeping order.
        ch.on(StealRequest, lambda msg, node=node:
              self._serve_steal(node, msg))
        ch.on(StealReply, lambda msg, node=node:
              self._on_steal_reply(node, msg))
        ch.on(ResultReturn, lambda msg, node=node:
              self._absorb_result(node, msg))
        ch.on(SharedObjectUpdate, lambda msg, node=node:
              self._on_shared_update(node, msg))

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self, root_task: Any, until: Optional[float] = None) -> RunResult:
        """Execute the divide-and-conquer computation to completion."""
        root_proc = self.begin(root_task)
        self.env.run(until=root_proc)
        return self.complete(root_proc)

    def begin(self, root_task: Any) -> Process:
        """Start the run without driving the event loop.

        Starts the node processes, runs the init phase (:meth:`_init_phase`)
        to completion, starts the makespan clock and the root computation,
        then returns the root :class:`~repro.sim.engine.Process` *without*
        running the simulation.  External drivers (the ``repro.serve`` job
        executor) advance the environment themselves — e.g. in bounded
        :meth:`~repro.sim.engine.Environment.step` slices interleaved with
        other work — and call :meth:`complete` once the root process is
        processed.  ``run()`` is exactly ``begin`` + ``env.run`` +
        ``complete``.
        """
        if self._started:
            raise RuntimeError(
                f"a {type(self).__name__} instance runs exactly once")
        self._started = True
        self._start_nodes()
        self._init_phase()
        master = self.cluster.node(0)
        self._run_start = self.env.now
        return self.env.process(self._root(master, root_task))

    def _init_phase(self) -> None:
        """Run the set-up phase to completion before the makespan clock
        starts.  Plain Satin has none and schedules no event here; Cashmere
        broadcasts run-time information and compiles kernels."""

    def complete(self, root_proc: Process) -> RunResult:
        """Finish a run started with :meth:`begin`.

        Must be called after the root process has been processed; performs
        the end-of-run bookkeeping (makespan, derived gauges) and returns
        the :class:`RunResult`.  A failed root propagates its exception.
        """
        if not root_proc.triggered:
            raise RuntimeError("complete() before the root process finished")
        if not root_proc.ok:
            raise root_proc.value
        self._finish_run(self._run_start)
        return RunResult(result=root_proc.value, stats=self.stats)

    def _finish_run(self, start: float) -> None:
        """Shared end-of-run bookkeeping: makespan + derived gauges."""
        self._shutdown = True
        self.stats.makespan_s = self.env.now - start
        self._finalize_metrics()

    def _finalize_metrics(self) -> None:
        """Set Satin's steal ratio, then the cluster gauges that DAG runs
        share (:func:`~repro.obs.export.record_run_gauges`)."""
        r = self.stats.registry
        steal_ratio = r.gauge(
            "satin_steal_success_ratio", "steal successes / attempts, by node")
        attempts = self.stats._steal_attempts.by_label("node")
        successes = self.stats._steal_successes.by_label("node")
        for rank, att in sorted(attempts.items()):
            steal_ratio.set(successes.get(rank, 0.0) / att if att else 0.0,
                            node=rank)
        record_run_gauges(r, self.cluster, self.stats.makespan_s)

    def register_shared_object(self, obj: Any) -> None:
        """Attach a :class:`repro.satin.shared_objects.SharedObject`."""
        if obj.name in self._shared_objects:
            raise ValueError(f"shared object {obj.name!r} already registered")
        self._shared_objects[obj.name] = obj

    def shared_object(self, name: str) -> Any:
        return self._shared_objects[name]

    def crash_node(self, rank: int, notify_comm: bool = True) -> None:
        """Crash a node (fault injection; delegates to the FT layer).

        ``notify_comm=False`` models a silent failure the membership
        service never reports — recovery then relies on the comm layer's
        reply-timeout path (``steal_reply_timeout_s``)."""
        self.ft.crash_node(rank, notify_comm=notify_comm)

    def crash_after(self, rank: int, delay: float) -> None:
        """Schedule a crash at ``delay`` seconds of virtual time from now."""
        self.ft.crash_after(rank, delay)

    # ------------------------------------------------------------------
    # node processes
    # ------------------------------------------------------------------
    def _start_nodes(self) -> None:
        for node in self.cluster.nodes:
            # The pump is stopped by FaultTolerance.crash_node.
            self.comm.channel(node.rank).start_pump()
            self._processes[node.rank] = [
                self.env.process(self._worker(node, w))
                for w in range(self.config.workers_per_node)]

    def _root(self, master: ComputeNode, root_task: Any) -> Generator:
        result = yield from self.app.program(self, master, root_task)
        return result

    def run_subtask(self, node: ComputeNode, task: Any) -> Generator:
        """Process: execute one task tree to completion (for iterative
        programs: one spawn+sync round of the master's main loop)."""
        result = yield from self._run_task(node, task, depth=0, manycore=False,
                                           task_id=RaceDetector.ROOT)
        return self._leaf_value(result)  # a root-is-leaf task

    def broadcast_from(self, node: ComputeNode, nbytes: float,
                       tag: str = "app-bcast", payload: Any = None) -> Generator:
        """Process: broadcast application data (e.g. updated centroids) from
        one node to all others, charging the network."""
        yield from self.cluster.network.broadcast(
            node.endpoint, tag, payload=payload, nbytes=nbytes,
            ranks=[n.rank for n in self.cluster.alive_nodes()])

    def allgather(self, total_bytes: float, tag: str = "app-allgather"
                  ) -> Generator:
        """Process: all-to-all exchange of ``total_bytes`` of shared state.

        Every alive node owns an equal share and sends it to every other
        node; all NICs inject concurrently, so the exchange takes roughly
        ``(P-1)/P * total_bytes / bandwidth`` — the n-body position update
        pattern ("all-to-all for each compute node", Sec. IV).
        """
        nodes = self.cluster.alive_nodes()
        if len(nodes) <= 1:
            return
        share = total_bytes / len(nodes)

        def node_sends(src: ComputeNode) -> Generator:
            for dst in nodes:
                if dst.rank != src.rank:
                    yield from src.endpoint.send(dst.rank, tag, nbytes=share)

        procs = [self.env.process(node_sends(n)) for n in nodes]
        for proc in procs:
            yield proc

    def _worker(self, node: ComputeNode, index: int) -> Generator:
        """One worker: pop local work, else steal from a policy-chosen victim.

        Failed steals back off (capped exponential: ``STEAL_BACKOFF_S``,
        doubling up to ``config.steal_backoff_max_s``) and the idle wait is
        interrupted as soon as local work appears, so idle workers stay
        cheap in simulation events even across hours of virtual time.
        """
        backoff = STEAL_BACKOFF_S
        deque = self.deques[node.rank]
        try:
            while not self._shutdown:
                job = deque.pop()
                if job is None and len(self.cluster.alive_nodes()) > 1:
                    job = yield from self._try_steal(node)
                if job is not None:
                    backoff = STEAL_BACKOFF_S
                    yield from self._execute_job(node, job)
                    continue
                # Sleep until the backoff expires or local work arrives.
                wait_ev = deque.wait()
                if wait_ev.triggered:
                    yield from self._execute_job(node, wait_ev.value)
                    continue
                timer = Timeout(self.env, backoff)
                yield first_of(self.env, wait_ev, timer)
                if wait_ev.triggered:
                    backoff = STEAL_BACKOFF_S
                    yield from self._execute_job(node, wait_ev.value)
                else:
                    deque.cancel_wait(wait_ev)
                    backoff = min(backoff * 2.0,
                                  self.config.steal_backoff_max_s)
        except Interrupt:
            return  # node crashed

    # ------------------------------------------------------------------
    # protocol handlers (registered on the node's CommChannel)
    # ------------------------------------------------------------------
    def _serve_steal(self, node: ComputeNode, msg: StealRequest) -> None:
        """Charge the steal-handling overhead on a core, then reply."""
        node.cpu_delay_async(
            STEAL_HANDLE_OVERHEAD_S, "steal-serve",
            lambda: self._finish_serve_steal(node, msg))

    def _finish_serve_steal(self, node: ComputeNode,
                            msg: StealRequest) -> None:
        # The reply claims the NIC inline, at the moment the overhead ends.
        job = self.deques[node.rank].steal()
        nbytes = CONTROL_MESSAGE_BYTES
        if job is not None:
            job.thief_rank = msg.thief
            self.ft.record_stolen(job)
            nbytes += self.app.task_bytes(job.task)
        if self.obs.enabled:
            self.obs.emit("steal", node=node.rank,
                          lane=f"node{node.rank}/steal",
                          start=self.env.now, end=self.env.now,
                          label="serve", thief=msg.thief,
                          hit=job is not None)
        self.comm.channel(node.rank).send_nowait(
            msg.thief, StealReply(req_id=msg.req_id, job=job), nbytes=nbytes)

    def _on_steal_reply(self, node: ComputeNode, msg: StealReply) -> None:
        if self.comm.resolve(msg.req_id, msg.job):
            return
        if msg.job is None:
            return
        # Late reply carrying a job: the request timed out (or was failed
        # by the membership service) but the victim *did* hand the job
        # over.  Salvage it into the thief's deque so it is not lost.
        if self.obs.enabled:
            self.obs.emit("steal_salvage", node=node.rank,
                          req_id=msg.req_id, job_id=msg.job.id)
        self.deques[node.rank].push(msg.job)

    def _absorb_result(self, node: ComputeNode, msg: ResultReturn) -> None:
        """Charge the result-handling overhead on a core, then absorb."""
        node.cpu_delay_async(
            RESULT_HANDLE_OVERHEAD_S, "result-recv",
            lambda: self._finish_absorb(node, msg))

    def _finish_absorb(self, node: ComputeNode, msg: ResultReturn) -> None:
        job = self.ft.take_stolen(msg.job_id)
        if job is not None and not job.done.triggered:
            self.stats.count_result_returned()
            if self.obs.enabled:
                self.obs.emit("result_recv", node=node.rank,
                              job_id=msg.job_id)
            job.done.succeed(msg.result)

    def _on_shared_update(self, node: ComputeNode,
                          msg: SharedObjectUpdate) -> None:
        obj = self._shared_objects.get(msg.name)
        if obj is not None:
            obj.apply_update(node.rank, msg)

    # ------------------------------------------------------------------
    # stealing
    # ------------------------------------------------------------------
    def _make_steal_hooks(self, rank: int) -> Any:
        """Per-rank request hooks reused across steal rounds: the
        StealRequest builder and the obs-off attempt counter."""
        count_stat = self.stats.count_steal_attempt

        def build(req_id: int) -> StealRequest:
            return StealRequest(req_id=req_id, thief=rank)

        def count_attempt(req_id: int, attempt: int) -> None:
            count_stat(rank)

        return build, count_attempt

    def _try_steal(self, node: ComputeNode) -> Generator:
        """One steal *round*: poll victims in policy order until a job is
        found or every victim declined (Satin's random work-stealing retries
        immediately on failure — only a fully failed round backs off).

        The candidate list and the request hooks are cached per rank (the
        candidates keyed on the cluster's membership version): an idle
        worker runs tens of thousands of rounds per simulated second, so
        per-round list/closure allocations cost real wall-clock.  The
        victim *order* is still drawn from the policy every round — it
        consumes the seeded rng, so caching it would change the schedule.
        """
        rank = node.rank
        cluster = self.cluster
        if cluster.alive_version != self._victim_cache_version:
            self._victim_cache.clear()
            self._victim_cache_version = cluster.alive_version
        candidates = self._victim_cache.get(rank)
        if candidates is None:
            candidates = self._victim_cache[rank] = [
                n.rank for n in cluster.alive_nodes() if n.rank != rank]
        if not candidates:
            return None
        order = self.steal_policy.victim_order(rank, candidates, self.rng)
        if not self.config.steal_sweep:
            order = order[:1]
        channel = self.comm.channel(rank)
        hooks = self._steal_hooks.get(rank)
        if hooks is None:
            hooks = self._steal_hooks[rank] = self._make_steal_hooks(rank)
        build, count_attempt = hooks
        obs_enabled = self.obs.enabled
        for victim in order:
            if self._shutdown:
                return None
            on_attempt: Callable[[int, int], None] = count_attempt
            if obs_enabled:
                attempt_ids: List[int] = []

                def _obs_attempt(req_id: int, attempt: int,
                                 victim: int = victim,
                                 attempt_ids: List[int] = attempt_ids) -> None:
                    attempt_ids.append(req_id)
                    self.stats.count_steal_attempt(rank)
                    self.obs.emit("steal_attempt", node=rank,
                                  victim=victim, req_id=req_id)

                on_attempt = _obs_attempt

            job = yield from channel.request(
                victim, build,
                nbytes=CONTROL_MESSAGE_BYTES,
                on_attempt=on_attempt)
            hit = job is not None
            self.steal_policy.observe(rank, victim, hit)
            if hit:
                self.stats.count_steal_success(rank)
                if self.obs.enabled:
                    self.obs.emit("steal_success", node=rank,
                                  victim=victim, req_id=attempt_ids[-1],
                                  job_id=job.id)
                return job
            # Check for local work that arrived while the request was out.
            local = self.deques[rank].pop()
            if local is not None:
                return local
        return None

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _execute_job(self, node: ComputeNode, job: Job) -> Generator:
        self.stats.count_job(node.rank)
        result = yield from self._run_task(node, job.task, job.depth,
                                           job.manycore, task_id=job.id)
        if job.origin_rank == node.rank:
            if not job.done.triggered:
                job.done.succeed(result)
        else:
            # Fire-and-forget transfer back: overlaps with the next job
            # (Satin's latency hiding).
            self.comm.channel(node.rank).post(
                job.origin_rank,
                ResultReturn(job_id=job.id, result=result),
                nbytes=CONTROL_MESSAGE_BYTES
                + self.app.result_bytes(job.task))

    def _run_task(self, node: ComputeNode, task: Any, depth: int,
                  manycore: bool,
                  task_id: int = RaceDetector.ROOT) -> Generator:
        """``task_id`` identifies the executing task for the happens-before
        sanitizer: the id of the job being executed, or ``ROOT`` for the
        master program.  It is bookkeeping only — with ``detect_races`` off
        it is threaded through untouched."""
        app = self.app
        if app.is_leaf(task):
            result = yield from self._execute_leaf(node, task, task_id)
            self.stats.count_leaf(node.rank, app.leaf_flops(task))
            return result
        if not manycore and self._manycore_enabled(node) and app.is_manycore(task):
            manycore = True  # Cashmere.enableManyCore()
        children = list(app.divide(task))
        if not children:
            raise ValueError(f"{app.name}: divide() returned no children")
        if manycore:
            results = yield from self._run_manycore_children(
                node, children, depth, task_id)
        else:
            jobs: List[Job] = []
            rank = node.rank
            obs = self.obs
            deque = self.deques[rank]
            count_spawn = self.stats.count_spawn
            detector = self.race_detector
            for child in children:
                yield from node.cpu_delay(SPAWN_OVERHEAD_S,
                                          label="spawn")
                job = Job(task=child, origin_rank=rank, depth=depth + 1,
                          manycore=False, done=self.env.event(),
                          id=next(self._job_ids))
                jobs.append(job)
                count_spawn(rank)
                if detector is not None:
                    detector.on_spawn(task_id, job.id)
                if obs.enabled:
                    obs.emit("spawn", node=rank, job_id=job.id,
                             depth=job.depth)
                deque.push(job)
            results = yield from self._sync(node, jobs, task_id)
        # Child results may be deferred-leaf tokens (locally produced or
        # returned over the network); the combine consumes values.
        return app.combine(task, [self._leaf_value(r) for r in results])

    def _manycore_enabled(self, node: ComputeNode) -> bool:
        """Whether this runtime honors enableManyCore (Cashmere overrides)."""
        return False

    def _run_manycore_children(self, node: ComputeNode, children: List[Any],
                               depth: int,
                               task_id: int = RaceDetector.ROOT) -> Generator:
        """Thread-per-spawn execution under enableManyCore (Sec. III-B).

        Spawns no longer produce stealable jobs; each spawnable call gets a
        node-local thread, and sync joins them.  The threads inherit the
        parent's ``task_id``: they are node-local and joined immediately
        below, so the sanitizer treats them as the parent task (a known
        granularity limit, documented in docs/analyze.md).
        """
        procs = [self.env.process(
            self._run_task(node, child, depth + 1, True, task_id=task_id))
            for child in children]
        results = []
        for proc in procs:
            results.append((yield proc))
        return results

    def _sync(self, node: ComputeNode, jobs: List[Job],
              task_id: int = RaceDetector.ROOT) -> Generator:
        """Block until all child jobs are done, working meanwhile.

        A waiting computation first drains its local deque; when that is
        empty it keeps a steal helper running (Satin steals *during* sync —
        a node whose children were all stolen must not sit idle while other
        nodes hold queued work) and sleeps until a child completes or new
        local work appears.

        The sync point is one waiter on a :class:`DependencyTracker` whose
        dependencies are the child job ids — the same ready-set machinery
        that drives the static-DAG executor (``repro.graph``); here the
        DAG unfolds dynamically and completion is observed by polling the
        children's ``done`` events.
        """
        by_id: Dict[int, Job] = {j.id: j for j in jobs}
        tracker = DependencyTracker()
        tracker.add("sync", by_id)
        deque = self.deques[node.rank]
        while True:
            for jid in [d for d in tracker.remaining("sync")
                        if by_id[d].done.triggered]:
                tracker.complete(jid)
            if tracker.is_ready("sync"):
                break
            local = deque.pop()
            if local is not None:
                # Run the job as its own simulation process: inline
                # delegation would nest Python generator frames linearly in
                # the number of chained jobs and overflow the stack on
                # fine-grained runs.
                yield self.env.process(self._execute_job(node, local))
                continue
            # Nothing local: wait for a stolen child's result or new work,
            # keeping one background steal round in flight for this node.
            self._spawn_sync_steal_helper(node)
            wait_ev = deque.wait()
            if wait_ev.triggered:
                yield self.env.process(self._execute_job(node, wait_ev.value))
                continue
            child_events = [by_id[d].done for d in tracker.remaining("sync")]
            yield first_of(self.env, *child_events, wait_ev)
            if wait_ev.triggered:
                yield self.env.process(self._execute_job(node, wait_ev.value))
            else:
                deque.cancel_wait(wait_ev)
        if self.race_detector is not None:
            # The result-return edge: the parent's continuation
            # happens-after every child, wherever it was stolen to.
            self.race_detector.on_sync(task_id, [j.id for j in jobs])
        return [j.done.value for j in jobs]

    def _spawn_sync_steal_helper(self, node: ComputeNode) -> None:
        """Ensure one background steal helper runs for this node."""
        if self._sync_stealing.get(node.rank) or self._shutdown:
            return
        if len(self.cluster.alive_nodes()) <= 1:
            return
        self._sync_stealing[node.rank] = True
        self.env.process(self._sync_steal_helper(node))

    def _sync_steal_helper(self, node: ComputeNode) -> Generator:
        """Steal rounds on behalf of sync-blocked computations.

        A stolen job is pushed into the node's deque, where the waiting
        sync (or an idle worker) picks it up.  Failed rounds back off so
        idle periods stay cheap in simulation events.
        """
        backoff = STEAL_BACKOFF_S
        try:
            while not self._shutdown and not node.crashed:
                job = yield from self._try_steal(node)
                if job is not None:
                    self.deques[node.rank].push(job)
                    return
                if len(self.deques[node.rank]) > 0:
                    return  # local work appeared; no need to keep stealing
                yield self.env.timeout(backoff)
                backoff = min(backoff * 2.0, self.config.steal_backoff_max_s)
        except Interrupt:
            return
        finally:
            self._sync_stealing[node.rank] = False

    def _execute_leaf(self, node: ComputeNode, task: Any,
                      task_id: int = RaceDetector.ROOT) -> Generator:
        """Leaf execution; plain Satin runs it on one CPU core."""
        result = yield from self.app.leaf(task, LeafContext(self, node, task_id))
        return result

    def _leaf_token(self, task: Any) -> _PendingLeaf:
        """The leaf's value, deferred into the next ``app.leaf_batch``."""
        token = _PendingLeaf(task)
        self._pending_leaves.append(token)
        return token

    def _leaf_value(self, value: Any) -> Any:
        """Resolve a value that may be a :class:`_PendingLeaf` token."""
        if type(value) is _PendingLeaf:
            if not value.resolved:
                self._flush_leaf_batch()
            return value.value
        return value

    def _flush_leaf_batch(self) -> None:
        """Run one vectorized ``app.leaf_batch`` over every pending leaf."""
        pending = self._pending_leaves
        if not pending:
            return
        self._pending_leaves = []
        values = self.app.leaf_batch([p.task for p in pending])
        if len(values) != len(pending):
            raise RuntimeError(
                f"{self.app.name}.leaf_batch returned {len(values)} values "
                f"for {len(pending)} tasks")
        for p, v in zip(pending, values):
            p.value = v
            p.resolved = True
