"""Satin: divide-and-conquer runtime with random work stealing.

The cluster-level half of Cashmere (van Nieuwpoort et al., TOPLAS 2010):
spawn/sync semantics, double-ended work queues, random work stealing,
latency hiding, fault tolerance and shared objects.

The runtime is layered (see ``docs/architecture.md``):

* :mod:`repro.satin.comm` — typed message protocol over the simulated
  network (request/reply pairing, timeouts, dispatch),
* :mod:`repro.satin.steal` — pluggable victim-selection policies,
* :mod:`repro.satin.ft` — crash detection and orphan re-execution,
* :mod:`repro.satin.runtime` — the orchestration layer tying them together.
"""

from .comm import (
    CommChannel,
    CommLayer,
    ResultReturn,
    RuntimeInfo,
    SatinMessage,
    SharedObjectUpdate,
    StealReply,
    StealRequest,
)
from .ft import FaultTolerance
from .job import DivideConquerApp, Job, LeafContext
from .queues import WorkDeque
from .runtime import RunResult, RunStats, RuntimeConfig, SatinRuntime
from .shared_objects import SharedObject
from .steal import (
    AdaptiveStealPolicy,
    ClusterAwareStealPolicy,
    RandomStealPolicy,
    StealPolicy,
    create_steal_policy,
    steal_policy_names,
)

__all__ = [
    "DivideConquerApp",
    "Job",
    "LeafContext",
    "WorkDeque",
    "SatinRuntime",
    "RuntimeConfig",
    "RunStats",
    "RunResult",
    "SharedObject",
    # comm layer
    "SatinMessage",
    "StealRequest",
    "StealReply",
    "ResultReturn",
    "SharedObjectUpdate",
    "RuntimeInfo",
    "CommLayer",
    "CommChannel",
    # steal policies
    "StealPolicy",
    "RandomStealPolicy",
    "ClusterAwareStealPolicy",
    "AdaptiveStealPolicy",
    "create_steal_policy",
    "steal_policy_names",
    # fault tolerance
    "FaultTolerance",
]
