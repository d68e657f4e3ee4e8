"""The shared cluster pool behind the job service.

The service multiplexes many concurrent jobs over one pool of simulated
DAS-4-style nodes.  Each admitted job leases ``spec.nodes`` nodes for its
lifetime; its simulation runs on exactly that slice (the leased pool
nodes' device tuples become the job's
:class:`~repro.cluster.das4.ClusterConfig`).  The pool also owns
*liveness*: cluster-level churn marks a pool node dead, which (a) removes
it from the allocatable set and (b) is translated by the service into
crash injections for every running job that leased it.

Allocation is deterministic (first-fit by rank) so a fixed-seed serve
session is replayable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["PoolNode", "ClusterPool"]


@dataclass
class PoolNode:
    """One node of the shared pool."""

    rank: int
    devices: Tuple[str, ...] = ()
    alive: bool = True
    #: id of the job currently leasing the node (None = free)
    job_id: Optional[int] = None
    #: whether the leasing job uses this node as its master (local rank 0)
    is_master: bool = field(default=False)

    @property
    def free(self) -> bool:
        return self.alive and self.job_id is None


class ClusterPool:
    """Node leases and liveness for the shared serve cluster."""

    def __init__(self, num_nodes: int,
                 devices: Tuple[str, ...] = ()):
        if num_nodes < 1:
            raise ValueError("the pool needs at least one node")
        #: every node carries the same device tuple (homogeneous pool keeps
        #: per-job event streams independent of which nodes were leased —
        #: the serve determinism contract)
        self.nodes: List[PoolNode] = [
            PoolNode(rank=r, devices=tuple(devices))
            for r in range(num_nodes)]
        #: job id -> leased nodes, in local-rank order (index 0 = master)
        self.leases: Dict[int, List[PoolNode]] = {}

    # -- capacity ----------------------------------------------------------
    @property
    def alive_count(self) -> int:
        return sum(1 for n in self.nodes if n.alive)

    @property
    def free_count(self) -> int:
        return sum(1 for n in self.nodes if n.free)

    # -- leasing -----------------------------------------------------------
    def allocate(self, job_id: int, count: int) -> Optional[List[PoolNode]]:
        """Lease ``count`` free nodes (first-fit by rank), or ``None``.

        The returned list is in local-rank order: index 0 is the job's
        master node.
        """
        if count < 1:
            raise ValueError("a job needs at least one node")
        free = [n for n in self.nodes if n.free]
        if len(free) < count:
            return None
        leased = free[:count]
        for i, node in enumerate(leased):
            node.job_id = job_id
            node.is_master = (i == 0)
        self.leases[job_id] = leased
        return leased

    def release(self, job_id: int) -> None:
        """Return a job's lease to the pool (dead nodes stay dead)."""
        for node in self.leases.pop(job_id, []):
            node.job_id = None
            node.is_master = False

    # -- liveness (churn) --------------------------------------------------
    def fail(self, rank: int) -> PoolNode:
        """Mark one pool node dead; it stops being allocatable."""
        node = self.nodes[rank]
        node.alive = False
        return node

    def pick_churn_victim(self) -> Optional[int]:
        """Deterministically choose a node to crash.

        Preference order: (1) an alive node leased at a *non-master*
        position — crashing it exercises orphan re-queue inside a running
        job; (2) an alive free node.  Master nodes are never chosen: Satin's
        master cannot crash (the runtime refuses), mirroring the membership
        service's master lease.  Returns ``None`` when nothing is eligible.
        """
        leased_non_master = [n for n in self.nodes
                             if n.alive and n.job_id is not None
                             and not n.is_master]
        if leased_non_master:
            return leased_non_master[-1].rank
        free = [n for n in self.nodes if n.free]
        if free:
            return free[-1].rank
        return None
