"""Per-node double-ended work queue.

Satin's work queues are double-ended: the owning node pushes and pops at the
*new* end (LIFO — depth-first execution keeps the working set small), while
thieves take from the *old* end (FIFO — the oldest job is the biggest piece
of work, worth the steal latency).
"""

from __future__ import annotations

from typing import List, Optional

from ..sim.engine import Environment, Event
from .job import Job

__all__ = ["WorkDeque"]


class WorkDeque:
    """Double-ended job queue with blocking waits."""

    def __init__(self, env: Environment, observer=None):
        self.env = env
        self.items: List[Job] = []
        self._waiters: List[Event] = []
        #: optional callable(depth) invoked after every push — the metrics
        #: registry uses it to sample the queue-depth histogram
        self.observer = observer

    def __len__(self) -> int:
        return len(self.items)

    def push(self, job: Job) -> None:
        """Add a freshly spawned job (new end).

        When a worker is blocked in :meth:`wait`, the job is handed to the
        earliest waiter directly and never touches the queue.  The depth
        observer fires on *both* paths (its contract is "after every
        push"): a handoff samples the queue as it stands — the job
        bypassed it — so idle-node pushes still appear in the depth
        histogram instead of silently vanishing from the metrics.
        """
        if self._waiters:
            self._waiters.pop(0).succeed(job)  # direct handoff fast path
        else:
            self.items.append(job)
        if self.observer is not None:
            self.observer(len(self.items))

    def pop(self) -> Optional[Job]:
        """Non-blocking pop from the new end (owner's depth-first order)."""
        return self.items.pop() if self.items else None

    def steal(self) -> Optional[Job]:
        """Non-blocking take from the old end (thief's order)."""
        if self.items:
            return self.items.pop(0)
        return None

    def wait(self) -> Event:
        """Event that fires with a job: immediately if available, else on
        the next push.  Cancel with :meth:`cancel_wait` if no longer needed."""
        ev = Event(self.env)
        if self.items:
            ev.succeed(self.items.pop())
        else:
            self._waiters.append(ev)
        return ev

    def cancel_wait(self, ev: Event) -> None:
        """Withdraw a pending wait; if it already got a job, push it back."""
        if ev in self._waiters:
            self._waiters.remove(ev)
        elif ev.triggered and ev.value is not None:
            # The event won a job after the caller stopped caring.
            self.push(ev.value)
