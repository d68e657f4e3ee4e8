"""Satin shared objects (Sec. II-A).

Shared objects relax the pure divide-and-conquer model: a replicated object
lives on every node, write methods are broadcast asynchronously (no global
ordering — the user chooses the consistency they need), and *guards* let a
job wait until its local replica satisfies a predicate before executing.

The iterative applications do not use shared objects: k-means
distributes its updated centroids with
:meth:`~repro.satin.runtime.SatinRuntime.broadcast_from` and n-body
exchanges body positions with
:meth:`~repro.satin.runtime.SatinRuntime.allgather`.  The only code in
the package that creates a shared object is the race sanitizer's
demonstration fixture (:mod:`repro.analyze.fixture_app`).

Because writes are unordered by design, concurrent jobs touching one
shared object can race.  When the runtime carries a
:class:`~repro.analyze.races.RaceDetector`
(``CashmereConfig(detect_races=True)``), every read (:meth:`value`),
write (:meth:`invoke`) and guard wait is recorded against the accessing
task's vector clock; conflicting accesses unordered by happens-before are
reported as ``REP201`` findings.  All instrumentation sites guard on the
detector being attached, so the default configuration pays nothing.

The ``task`` parameter of the access methods identifies the accessing
task for the sanitizer — pass ``ctx.task_id`` from a leaf, or leave it
``None`` for the master program.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from .comm import SharedObjectUpdate

__all__ = ["SharedObject"]


class SharedObject:
    """A replicated object with broadcast writes and guard waits."""

    def __init__(self, runtime: Any, name: str, initial: Any):
        self.runtime = runtime
        self.name = name
        self.env = runtime.env
        #: per-rank replica state (initial value is shared intentionally:
        #: models every node starting from the same broadcast input)
        self.replicas: Dict[int, Any] = {
            node.rank: initial for node in runtime.cluster.nodes}
        #: per-rank version counter (how many writes were applied)
        self.versions: Dict[int, int] = {
            node.rank: 0 for node in runtime.cluster.nodes}
        #: waiting guards per rank: (predicate, event, waiting task)
        self._guards: Dict[int, List[Tuple]] = {
            node.rank: [] for node in runtime.cluster.nodes}
        runtime.register_shared_object(self)

    @property
    def _detector(self) -> Any:
        return getattr(self.runtime, "race_detector", None)

    # -- reads ----------------------------------------------------------
    def value(self, rank: int, task: Optional[int] = None) -> Any:
        """Read the local replica (no communication, like Satin)."""
        detector = self._detector
        if detector is not None:
            detector.on_access(task, self.name, "read", rank=rank,
                               site="value")
        return self.replicas[rank]

    def version(self, rank: int) -> int:
        return self.versions[rank]

    # -- writes -----------------------------------------------------------
    def invoke(self, src_rank: int, method: Callable[[Any, Any], Any],
               payload: Any, nbytes: float,
               task: Optional[int] = None) -> Generator:
        """Process: apply a write method locally and broadcast it.

        ``method(replica, payload) -> new_replica`` must be deterministic;
        it runs once per node.  ``nbytes`` is the broadcast payload size
        charged per destination.  Consistency is whatever the application
        tolerates — replicas apply this write when their copy arrives.

        The sanitizer records one *global* write (it reaches every
        replica), attributed to ``task``.
        """
        detector = self._detector
        if detector is not None:
            detector.on_access(task, self.name, "write", rank=None,
                               site="invoke")
        self._apply(src_rank, method, payload, task=task)
        channel = self.runtime.comm.channel(src_rank)
        for dst in self.runtime.cluster.alive_nodes():
            if dst.rank == src_rank:
                continue
            yield from channel.send(
                dst.rank,
                SharedObjectUpdate(name=self.name, method=method,
                                   payload=payload, task=task),
                nbytes=nbytes)

    def _apply(self, rank: int, method: Callable[[Any, Any], Any],
               payload: Any, task: Optional[int] = None) -> None:
        self.replicas[rank] = method(self.replicas[rank], payload)
        self.versions[rank] += 1
        waiting, self._guards[rank] = self._guards[rank], []
        detector = self._detector
        for predicate, event, waiter in waiting:
            if predicate(self.replicas[rank]):
                if detector is not None:
                    # The guard ordered the waiter after this write: join
                    # clocks, then record the guarded read as ordered.
                    detector.on_guard(
                        waiter if waiter is not None else detector.ROOT,
                        task if task is not None else detector.ROOT)
                    detector.on_access(waiter, self.name, "read",
                                       rank=rank, site="guard")
                event.succeed(self.replicas[rank])
            else:
                self._guards[rank].append((predicate, event, waiter))

    def apply_update(self, rank: int, update: SharedObjectUpdate) -> None:
        """Called by the runtime's protocol dispatch on update arrival."""
        self._apply(rank, update.method, update.payload, task=update.task)

    # -- guards -------------------------------------------------------------
    def guard(self, rank: int, predicate: Callable[[Any], bool],
              task: Optional[int] = None):
        """Event: fires when the local replica satisfies ``predicate``.

        This is Satin's guard mechanism: a job whose inputs depend on shared
        state waits until its node's replica is consistent enough.
        """
        event = self.env.event()
        if predicate(self.replicas[rank]):
            detector = self._detector
            if detector is not None:
                # Already satisfied: a plain (unordered) read of the
                # current replica state.
                detector.on_access(task, self.name, "read", rank=rank,
                                   site="guard")
            event.succeed(self.replicas[rank])
        else:
            self._guards[rank].append((predicate, event, task))
        return event
