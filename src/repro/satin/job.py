"""Jobs and the application interface of the Satin runtime.

Satin programs are divide-and-conquer computations (Fig. 1 of the paper):
``spawnable`` functions divide a task into children, ``sync`` awaits their
results, and small-enough tasks run a leaf computation.  In this
reproduction an application implements :class:`DivideConquerApp`; the
runtime provides spawn/sync/stealing around it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, Hashable, Iterable, List, Optional, \
    Sequence

from ..sim.engine import Environment, Event

__all__ = ["Job", "DivideConquerApp", "LeafContext", "DependencyTracker"]

_job_ids = itertools.count()


@dataclass(slots=True)
class Job:
    """One spawned invocation of the application's spawnable function."""

    task: Any
    origin_rank: int               #: node whose queue the job was spawned into
    depth: int = 0
    manycore: bool = False         #: True once Cashmere.enableManyCore() ran
    id: int = field(default_factory=lambda: next(_job_ids))
    done: Optional[Event] = None   #: triggered with the result
    #: rank of the thief currently executing the job, or None (fault tolerance)
    thief_rank: Optional[int] = None

    def __repr__(self) -> str:
        return f"<Job {self.id} depth={self.depth} origin={self.origin_rank}>"


class DependencyTracker:
    """Ready-set / dependency-counting core shared by the runtimes.

    Both execution models in this reproduction reduce to the same
    bookkeeping: a *waiter* blocks on an ordered set of *dependencies* and
    becomes ready exactly when that set drains.  For a static
    :class:`~repro.graph.model.TaskGraph` the waiters are kernel nodes and
    the dependencies their in-edges; for the Satin spawn/sync tree each
    ``sync`` is a waiter whose dependencies are the child job ids — D&C is
    a dynamically unfolding DAG, and :meth:`SatinRuntime._sync
    <repro.satin.runtime.SatinRuntime._sync>` is lowered onto this class.

    Determinism contract: all iteration orders are insertion orders
    (ordered dicts throughout, no sets), so a seeded simulation driving
    its dispatch from this tracker replays byte-identically.
    """

    __slots__ = ("_remaining", "_waiters", "_ready", "_readied")

    def __init__(self) -> None:
        #: waiter -> ordered {dep: None} still outstanding
        self._remaining: Dict[Hashable, Dict[Hashable, None]] = {}
        #: dep -> waiters blocked on it (in add order)
        self._waiters: Dict[Hashable, List[Hashable]] = {}
        #: readied waiters not yet handed out by :meth:`take_ready` (FIFO)
        self._ready: List[Hashable] = []
        #: permanent record of every waiter that became ready
        self._readied: Dict[Hashable, None] = {}

    def add(self, waiter: Hashable, deps: Iterable[Hashable] = ()) -> bool:
        """Register ``waiter`` blocked on ``deps`` (duplicates collapse).

        Returns True when the waiter is immediately ready (no deps).
        """
        if waiter in self._remaining or waiter in self._readied:
            raise ValueError(f"waiter {waiter!r} already tracked")
        remaining = dict.fromkeys(deps)
        if not remaining:
            self._ready.append(waiter)
            self._readied[waiter] = None
            return True
        self._remaining[waiter] = remaining
        for dep in remaining:
            self._waiters.setdefault(dep, []).append(waiter)
        return False

    def complete(self, dep: Hashable) -> List[Hashable]:
        """Resolve ``dep``; return waiters that became ready, in add order."""
        newly: List[Hashable] = []
        for waiter in self._waiters.pop(dep, ()):
            remaining = self._remaining[waiter]
            remaining.pop(dep, None)
            if not remaining:
                del self._remaining[waiter]
                self._ready.append(waiter)
                self._readied[waiter] = None
                newly.append(waiter)
        return newly

    def remaining(self, waiter: Hashable) -> List[Hashable]:
        """Outstanding dependencies of ``waiter``, in insertion order."""
        return list(self._remaining.get(waiter, ()))

    def is_ready(self, waiter: Hashable) -> bool:
        return waiter in self._readied

    def take_ready(self) -> List[Hashable]:
        """Drain and return the FIFO of newly-readied waiters."""
        ready, self._ready = self._ready, []
        return ready


class LeafContext:
    """What a leaf computation may use: the node it runs on, and — under
    Cashmere — the node's devices and kernel registry.

    ``runtime`` is the owning runtime; Cashmere leaves call
    :meth:`repro.core.runtime.CashmereRuntime.get_kernel` through it
    (the ``Cashmere.getKernel()`` of Fig. 4).

    ``task_id`` identifies the executing job for the happens-before race
    sanitizer (``-1`` is the master program); leaves touching shared
    objects pass it as the ``task=`` argument of
    :meth:`~repro.satin.shared_objects.SharedObject.value` / ``invoke`` /
    ``guard`` so accesses are attributed to the right vector clock.
    """

    def __init__(self, runtime: Any, node: Any, task_id: int = -1):
        self.runtime = runtime
        self.node = node
        self.task_id = task_id

    @property
    def env(self) -> Environment:
        return self.node.env

    @property
    def rank(self) -> int:
        return self.node.rank


class DivideConquerApp:
    """Base class for Satin/Cashmere applications.

    Subclasses define the task shape and implement the hooks.  Tasks must be
    cheap to copy conceptually — what crosses the simulated network is
    charged via :meth:`task_bytes` / :meth:`result_bytes`, not Python object
    size.
    """

    #: application name (used in traces and result tables)
    name: str = "app"

    #: factor by which a single CPU core runs *slower* than its sustained
    #: vectorized rate on this application's leaves (>= 1).  Irregular,
    #: branchy code (the raytracer) defeats SSE and branch prediction on
    #: the host CPU just as it defeats SIMD lanes on the device.
    cpu_irregularity_penalty: float = 1.0

    # -- program --------------------------------------------------------------
    def program(self, runtime: Any, master: Any, root_task: Any) -> Generator:
        """Process: the master's main program.

        The default is a single spawn+sync of the root task.  Iterative
        applications (k-means, n-body) override this with a loop that runs
        one task tree per iteration and broadcasts updated state between
        iterations (the paper's "iterative" application class, Table II).
        """
        result = yield from runtime.run_subtask(master, root_task)
        return result

    # -- structure ----------------------------------------------------------
    def is_leaf(self, task: Any) -> bool:
        """Stop condition: run the leaf computation (Fig. 1, line 2)."""
        raise NotImplementedError

    def is_manycore(self, task: Any) -> bool:
        """Cashmere stop condition for cluster-level spawning (Fig. 5 line 5).

        When this returns True the runtime calls the equivalent of
        ``Cashmere.enableManyCore()``: further spawns become node-local
        threads feeding the many-core devices.  The Satin baseline runtime
        ignores this hook.
        """
        return False

    def divide(self, task: Any) -> Sequence[Any]:
        """Split a non-leaf task into child tasks (Fig. 1 lines 6-7)."""
        raise NotImplementedError

    def combine(self, task: Any, results: List[Any]) -> Any:
        """Combine child results after sync (Fig. 1 line 10)."""
        raise NotImplementedError

    # -- costs (what the simulator charges) ------------------------------------
    def task_bytes(self, task: Any) -> float:
        """Input bytes transferred when this task is stolen."""
        raise NotImplementedError

    def result_bytes(self, task: Any) -> float:
        """Output bytes transferred back to the origin node."""
        raise NotImplementedError

    def leaf_flops(self, task: Any) -> float:
        """Useful floating-point work of a leaf task."""
        raise NotImplementedError

    # -- leaf execution ---------------------------------------------------------
    def leaf(self, task: Any, ctx: LeafContext) -> Generator:
        """Process: execute a leaf.

        The default runs the computation single-threaded on one CPU core of
        the node; Cashmere applications usually leave this as-is (it is the
        CPU fallback of Fig. 4) and implement :meth:`leaf_kernel_name` &
        friends instead.  It charges the leaf's time and returns a deferred
        token: the value is computed by :meth:`leaf_batch` when the combine
        (or subtask return) consuming it runs, the same as for a leaf that
        ran on a device.  An override returns its own value, which is not
        deferred.
        """
        yield from ctx.node.cpu_compute(
            self.leaf_flops(task) * self.cpu_irregularity_penalty,
            label=f"{self.name}-leaf")
        return ctx.runtime._leaf_token(task)

    def leaf_result(self, task: Any) -> Any:
        """Value of one leaf, for apps that compute a leaf at a time.

        The default :meth:`leaf_batch` loops over it; an app implements
        either this or :meth:`leaf_batch`.  ``None`` is the modeled
        (no-data) value.
        """
        return None

    def leaf_batch(self, tasks: Sequence[Any]) -> List[Any]:
        """Values of many deferred leaves: one per task, in order.

        The runtime calls it once per flush, with every pending leaf, at the
        first combine or subtask return that consumes one of them.  The
        schedule decides which leaves share a call, so the values and side
        effects (output-array writes) must be the same however a round's
        leaves are split into calls.  Side effects happen at the flush,
        before the combine that consumes the values, and run again for a
        leaf computed twice (a stolen job re-executed after its thief
        crashed), so a write should assign rather than accumulate.  The
        default loops over :meth:`leaf_result`; vectorizing apps (matmul,
        n-body) override it.
        """
        return [self.leaf_result(t) for t in tasks]

    # -- Cashmere kernel hooks (ignored by plain Satin) -------------------------
    def leaf_kernel_name(self, task: Any) -> str:
        """Name of the MCL kernel the leaf launches."""
        raise NotImplementedError

    def leaf_kernel_params(self, task: Any) -> dict:
        """Scalar kernel parameters for this leaf launch."""
        raise NotImplementedError

    def leaf_h2d_bytes(self, task: Any) -> float:
        """Host-to-device transfer for a leaf launch."""
        return self.task_bytes(task)

    def leaf_d2h_bytes(self, task: Any) -> float:
        """Device-to-host transfer after a leaf launch."""
        return self.result_bytes(task)
