"""Intra-node load balancing across heterogeneous many-core devices.

Implements the algorithm of Sec. III-B: initially jobs are placed with a
*static table of relative device speeds* (e.g. K20 = 40, GTX480 = 20); once
a kernel has run on a device, its *measured* execution time is used.  A new
job is submitted to the device queue that minimizes the node's overall
makespan:

    choose  argmin_d  max_e ( pending_e + [e == d] * t_d )

which reproduces the paper's example — with the K20 queue at 3×100 ms and
the GTX480 queue at 1×125 ms, a new job goes to the GTX480 because
max(300, 250) < max(400, 125).

Placement rules are pluggable :class:`DevicePlacementPolicy` objects
registered in the unified policy registry (:mod:`repro.core.policy`) under
kind ``"device"``, sharing one ``sched_decision`` event shape and one
config/CLI surface with the cluster-level steal policies of
:mod:`repro.satin.steal`.  :class:`DeviceScheduler` keeps the prediction
model and the queue-reservation bookkeeping; the policy only selects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..devices.device import SimDevice
from ..obs.bus import EventBus
from .policy import SchedulingPolicy, create_policy, policy_names, register_policy

__all__ = ["DeviceScheduler", "DevicePlacementPolicy", "SchedulingDecision",
           "MakespanPolicy", "LookaheadMakespanPolicy", "POLICIES"]

#: placement reference time used before any measurement exists; only the
#: *relative* speeds matter for the decision, but a plausible absolute value
#: keeps the pending-work bookkeeping meaningful.
_BOOTSTRAP_REFERENCE_S = 50e-3
_BOOTSTRAP_REFERENCE_SPEED = 40.0  # the K20's table entry


@dataclass
class SchedulingDecision:
    device: SimDevice
    predicted_s: float
    makespan_s: float
    used_measurement: bool


class DevicePlacementPolicy(SchedulingPolicy):
    """Pure device-selection rule; state beyond selection lives elsewhere.

    ``select`` receives the node's devices and the per-lane ``(seconds,
    used_measurement)`` predictions and returns a decision *without*
    reserving queue time — the :class:`DeviceScheduler` owns the
    ``pending_work_s`` reservation and the statistics.
    """

    kind = "device"

    def select(self, devices: List[SimDevice],
               predictions: Dict[str, Tuple[float, bool]]
               ) -> SchedulingDecision:
        raise NotImplementedError

    # -- DAG lookahead hooks (driven by repro.graph) ------------------------
    # The graph executor calls these around a whole-graph run.  The
    # defaults make every leaf-at-a-time policy a valid (graph-oblivious)
    # DAG policy: no preparation, FIFO dependency-resolution order, and
    # per-node selection that ignores where the inputs live.  Only
    # :class:`LookaheadMakespanPolicy` overrides them.

    def graph_prepare(self, graph: Any,
                      exec_estimate: Callable[[str], float],
                      comm_estimate: Callable[[Any], float]) -> None:
        """Called once before a DAG run starts dispatching.

        ``exec_estimate(node_name)`` is the mean roofline execution time
        across the device pool; ``comm_estimate(edge)`` the mean
        PCIe(+network) cost of moving that edge between two distinct
        devices.  Stateless policies ignore both.
        """

    def graph_order(self, ready: Sequence[str], graph: Any) -> List[str]:
        """Dispatch order for a batch of ready nodes (default: FIFO)."""
        return list(ready)

    def graph_select(self, name: str, devices: List[SimDevice],
                     predictions: Dict[str, Tuple[float, bool]],
                     ctx: Any) -> SchedulingDecision:
        """Place one ready DAG node.

        ``ctx`` is the executor's schedule context: ``ctx.now``,
        ``ctx.in_edges(name)``, ``ctx.placement(src) -> lane | None`` and
        ``ctx.edge_costs(nbytes, src_lane)``, the run's price row for an
        edge of ``nbytes`` leaving ``src_lane``: every other device lane
        -> its estimated d2h + (network) + h2d cost, the same prices
        ``comm_estimate`` averages.  The row is the run's own: read it,
        do not change it.  The default ignores ``ctx`` and falls back to
        the policy's leaf-at-a-time :meth:`select`.
        """
        return self.select(devices, predictions)


@register_policy
class MakespanPolicy(DevicePlacementPolicy):
    """The paper's algorithm: measured times, min-makespan placement."""

    name = "makespan"

    def select(self, devices: List[SimDevice],
               predictions: Dict[str, Tuple[float, bool]]
               ) -> SchedulingDecision:
        best: Optional[SchedulingDecision] = None
        for dev in devices:
            t_d, used_measurement = predictions[dev.lane]
            makespan = max(
                (other.pending_work_s + (t_d if other is dev else 0.0))
                for other in devices)
            if (best is None or makespan < best.makespan_s
                    or (makespan == best.makespan_s
                        and dev.spec.static_speed
                        > best.device.spec.static_speed)):
                best = SchedulingDecision(device=dev, predicted_s=t_d,
                                          makespan_s=makespan,
                                          used_measurement=used_measurement)
        assert best is not None
        return best


@register_policy
class LookaheadMakespanPolicy(MakespanPolicy):
    """Dependency-aware lookahead placement for DAG runs (HEFT-style).

    Where greedy ``makespan`` sees one job at a time, this policy sees the
    whole :class:`~repro.graph.model.TaskGraph`:

    * :meth:`graph_prepare` computes each node's *upward rank* — its mean
      roofline execution time plus the most expensive downstream chain of
      (mean transfer + rank) over its out-edges — i.e. the remaining
      critical path through that node,
    * :meth:`graph_order` dispatches ready nodes by descending rank, so
      critical-path work claims fast devices first,
    * :meth:`graph_select` places each node on the device minimising its
      *earliest finish time*: queue availability and the arrival of every
      input — an input produced on the **same** device is free, a
      cross-device input pays d2h + (network) + h2d.  That data-locality
      term is what the greedy policy cannot see.

    Outside a DAG run (plain Cashmere leaf placement) it inherits the
    greedy measured-time min-makespan behaviour unchanged.
    """

    name = "makespan-lookahead"

    def __init__(self) -> None:
        super().__init__()
        #: node name -> upward rank (seconds of remaining critical path)
        self._rank: Dict[str, float] = {}
        #: node name -> estimated finish time of the placed node
        self._finish: Dict[str, float] = {}

    def graph_prepare(self, graph: Any,
                      exec_estimate: Callable[[str], float],
                      comm_estimate: Callable[[Any], float]) -> None:
        ranks: Dict[str, float] = {}
        for name in reversed(graph.topo_order()):
            critical = 0.0
            for edge in graph.out_edges(name):
                cand = comm_estimate(edge) + ranks[edge.dst]
                if cand > critical:
                    critical = cand
            ranks[name] = exec_estimate(name) + critical
        self._rank = ranks
        self._finish = {}

    def graph_order(self, ready: Sequence[str], graph: Any) -> List[str]:
        # descending rank; insertion index breaks ties deterministically
        return sorted(ready,
                      key=lambda n: (-self._rank.get(n, 0.0),
                                     graph.node_index(n)))

    def graph_select(self, name: str, devices: List[SimDevice],
                     predictions: Dict[str, Tuple[float, bool]],
                     ctx: Any) -> SchedulingDecision:
        now = ctx.now
        # Every candidate is ready no earlier than ``base``: now, and the
        # finish of any producer not yet placed.  A placed producer's
        # input arrives at its finish (clamped to now), plus its price
        # row's transfer cost on every other lane.
        base = now
        inputs: List[Tuple[str, Dict[str, float], float]] = []
        for edge in ctx.in_edges(name):
            finish = self._finish.get(edge.src, now)
            if finish < now:
                finish = now
            src_lane = ctx.placement(edge.src)
            if src_lane is None:
                if finish > base:
                    base = finish
            else:
                inputs.append((src_lane, ctx.edge_costs(edge.nbytes, src_lane),
                               finish))
        best: Optional[SimDevice] = None
        best_eft = best_t = best_speed = 0.0
        best_used = False
        for dev in devices:
            lane = dev.lane
            ready_t = base
            for src_lane, costs, arrival in inputs:
                if src_lane != lane:
                    arrival += costs[lane]
                if arrival > ready_t:
                    ready_t = arrival
            start = now + dev.pending_work_s
            if ready_t > start:
                start = ready_t
            t_d, used = predictions[lane]
            eft = start + t_d
            speed = dev.spec.static_speed
            if (best is None or eft < best_eft
                    or (eft == best_eft and speed > best_speed)):
                best, best_eft, best_t, best_speed, best_used = (
                    dev, eft, t_d, speed, used)
        assert best is not None
        self._finish[name] = best_eft
        return SchedulingDecision(device=best, predicted_s=best_t,
                                  makespan_s=best_eft,
                                  used_measurement=best_used)


@register_policy
class StaticFastestPolicy(DevicePlacementPolicy):
    """Always the highest static-speed device (Cashmere without measuring)."""

    name = "static"

    def select(self, devices: List[SimDevice],
               predictions: Dict[str, Tuple[float, bool]]
               ) -> SchedulingDecision:
        dev = max(devices, key=lambda d: d.spec.static_speed)
        t_d, used = predictions[dev.lane]
        return SchedulingDecision(device=dev, predicted_s=t_d,
                                  makespan_s=dev.pending_work_s + t_d,
                                  used_measurement=used)


@register_policy
class RoundRobinPolicy(DevicePlacementPolicy):
    """Speed-oblivious rotation (a naive baseline)."""

    name = "round-robin"

    def __init__(self) -> None:
        super().__init__()
        self._counter = 0

    def select(self, devices: List[SimDevice],
               predictions: Dict[str, Tuple[float, bool]]
               ) -> SchedulingDecision:
        dev = devices[self._counter % len(devices)]
        self._counter += 1
        t_d, used = predictions[dev.lane]
        return SchedulingDecision(device=dev, predicted_s=t_d,
                                  makespan_s=dev.pending_work_s + t_d,
                                  used_measurement=used)


#: available placement policies (ablation bench compares them)
POLICIES = tuple(policy_names("device"))


class DeviceScheduler:
    """Per-node scheduler state lives on the devices themselves
    (``pending_work_s``, ``measured_times``); this class is the one place
    that reserves and releases it, and can be shared by all nodes of a
    runtime.  Leaves place with :meth:`choose`, DAG nodes with :meth:`place`.

    ``policy`` selects the placement rule by registry name:

    * ``makespan`` — the paper's algorithm (measured times, min-makespan),
    * ``makespan-lookahead`` — ``makespan``, with lookahead for DAG nodes,
    * ``static`` — always the device with the highest static-speed rating
      (what Cashmere would do if it never measured anything),
    * ``round-robin`` — speed-oblivious rotation (a naive baseline).
    """

    def __init__(self, policy: str = "makespan",
                 obs: Optional[EventBus] = None) -> None:
        p = create_policy("device", policy)
        assert isinstance(p, DevicePlacementPolicy)
        p.bind(obs)
        self.policy: DevicePlacementPolicy = p
        self.decisions = 0
        #: optional event bus; every :meth:`choose` emits a
        #: ``sched_decision`` event carrying the pre-decision completion
        #: snapshot so the invariant can be replay-checked from the log alone.
        self.obs = obs

    def _emit_decision(self, kernel_name: str,
                       decision: SchedulingDecision,
                       completions: Dict[str, float],
                       pending: Dict[str, float]) -> None:
        self.policy.emit_decision(
            node=decision.device.node_rank,
            chosen=decision.device.lane,
            kernel=kernel_name,
            predicted_s=decision.predicted_s,
            makespan_s=decision.makespan_s,
            used_measurement=decision.used_measurement,
            completions=completions,
            pending=pending,
        )

    # -- prediction -----------------------------------------------------------
    def predict(self, devices: List[SimDevice], kernel_name: str
                ) -> Dict[str, Tuple[float, bool]]:
        """Predicted per-device execution time for one job of a kernel.

        Returns ``device.lane -> (seconds, used_measurement)``.  If *any*
        device of the node has measured the kernel, others are scaled from
        that measurement via the static speed table; with no measurement at
        all, the bootstrap reference is scaled by the table alone.
        """
        reference: Optional[Tuple[float, float]] = None  # (time, speed)
        for dev in devices:
            t = dev.measured_times.get(kernel_name)
            if t is not None and (reference is None
                                  or dev.spec.static_speed > reference[1]):
                reference = (t, dev.spec.static_speed)
        out: Dict[str, Tuple[float, bool]] = {}
        for dev in devices:
            measured = dev.measured_times.get(kernel_name)
            if measured is not None:
                out[dev.lane] = (measured, True)
            elif reference is not None:
                ref_t, ref_speed = reference
                out[dev.lane] = (ref_t * ref_speed / dev.spec.static_speed, False)
            else:
                out[dev.lane] = (
                    _BOOTSTRAP_REFERENCE_S * _BOOTSTRAP_REFERENCE_SPEED
                    / dev.spec.static_speed, False)
        return out

    # -- placement -----------------------------------------------------------
    def choose(self, devices: List[SimDevice], kernel_name: str
               ) -> SchedulingDecision:
        """Pick a device according to the configured policy."""
        if not devices:
            raise ValueError("node has no many-core devices")
        predictions = self.predict(devices, kernel_name)
        # pre-decision snapshots, captured before ``pending_work_s`` mutates
        # (only when someone will see them — this is a per-leaf hot path)
        if self.obs is not None and self.obs.enabled:
            pending = {d.lane: d.pending_work_s for d in devices}
            completions = {d.lane: d.pending_work_s + predictions[d.lane][0]
                           for d in devices}
        else:
            pending = completions = {}
        decision = self.policy.select(devices, predictions)
        self._reserve(decision)
        self._emit_decision(kernel_name, decision, completions, pending)
        return decision

    def place(self, name: str, devices: List[SimDevice],
              predictions: Dict[str, Tuple[float, bool]],
              ctx: Any) -> SchedulingDecision:
        """Place one ready DAG node with the policy's ``graph_select``; its
        record is the executor's ``graph_node_dispatch`` event."""
        decision = self.policy.graph_select(name, devices, predictions, ctx)
        self._reserve(decision)
        return decision

    def _reserve(self, decision: SchedulingDecision) -> None:
        decision.device.pending_work_s += decision.predicted_s
        self.decisions += 1

    def job_finished(self, decision: SchedulingDecision) -> None:
        """Release the queue reservation (the device recorded the measured
        time itself when the kernel ran)."""
        decision.device.pending_work_s = max(
            0.0, decision.device.pending_work_s - decision.predicted_s)
