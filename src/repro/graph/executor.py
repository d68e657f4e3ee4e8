"""DAG executor: runs a :class:`TaskGraph` on a simulated cluster.

The executor is the static-graph twin of the Satin runtime: the same
:class:`~repro.satin.job.DependencyTracker` ready-set machinery drives
dispatch, but the DAG is known up front, so the device scheduler can look
ahead.  Every node runs as one :meth:`~repro.devices.device.SimDevice.launch`
on one device of the flattened cluster-wide pool:

* the launch first waits until the node's footprint — ``in_bytes`` +
  every in-edge buffer + ``out_bytes`` — fits in device memory,
* inputs produced on a **different** device are materialised via
  d2h → (network, when the producer lives on another node) → h2d,
  inputs produced on the **same** device are free (device-resident),
* source nodes stage their ``in_bytes`` from the host over PCIe,
* sink outputs are copied back to the host.

Placement goes through :meth:`~repro.core.scheduler.DeviceScheduler.place`
and a policy of the unified device-policy registry
(:mod:`repro.core.policy`, kind ``"device"``): the greedy policies see one
ready node at a time, :class:`~repro.core.scheduler.LookaheadMakespanPolicy`
additionally receives the whole graph via the ``graph_*`` hooks.  Policies
are offered only the devices whose memory can hold the node's footprint; a
node that fits no device raises :class:`~repro.graph.model.GraphError`.

Observability: ``graph_node_ready`` / ``graph_node_dispatch`` /
``graph_node_complete`` point events, plus the usual ``h2d``/``d2h``/
``kernel``/``send`` intervals; ``graph_node_dispatch`` (``chosen``,
``predicted_s``, ``policy``) is a node's placement record.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Dict, Generator, List, Optional, Tuple

from ..cluster.das4 import SimCluster
from ..cluster.node import ComputeNode
from ..core.scheduler import DeviceScheduler, SchedulingDecision
from ..devices.device import SimDevice
from ..devices.perfmodel import KernelProfile, kernel_time, transfer_time
from ..obs.export import record_run_gauges
from ..obs.metrics import MetricsRegistry
from ..satin.job import DependencyTracker
from ..sim.engine import Event
from .model import DataEdge, GraphError, TaskGraph

__all__ = ["GraphConfig", "GraphRunResult", "GraphRuntime"]


@dataclass
class GraphConfig:
    """Execution parameters of one DAG run."""

    DEFAULT_SEED = 42
    DEFAULT_SCHEDULER_POLICY = "makespan"

    seed: int = DEFAULT_SEED
    #: device-placement policy name (registry kind ``"device"``)
    scheduler_policy: str = DEFAULT_SCHEDULER_POLICY


@dataclass
class GraphRunResult:
    """Outcome of one DAG run."""

    graph: str
    policy: str
    makespan_s: float
    total_flops: float
    nodes_run: int
    #: node name -> device lane it ran on
    placements: Dict[str, str] = field(default_factory=dict)
    #: bytes moved across devices to satisfy edges (0 = perfect locality)
    cross_device_bytes: float = 0.0
    #: the run-end cluster gauges (:func:`repro.obs.export.record_run_gauges`)
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)

    @property
    def gflops(self) -> float:
        if self.makespan_s <= 0:
            return 0.0
        return self.total_flops / self.makespan_s / 1e9


class _ScheduleContext:
    """What a lookahead policy may ask about the in-flight schedule."""

    def __init__(self, runtime: "GraphRuntime"):
        self._rt = runtime

    @property
    def now(self) -> float:
        return self._rt.env.now

    def in_edges(self, name: str) -> List[DataEdge]:
        return self._rt.graph.in_edges(name)

    def placement(self, name: str) -> Optional[str]:
        decision = self._rt._decisions.get(name)
        return decision.device.lane if decision is not None else None

    def edge_costs(self, nbytes: float, src_lane: str) -> Dict[str, float]:
        """Device lane -> estimated cost of moving ``nbytes`` from the device
        on ``src_lane`` to it, for every other device of the pool.

        The dict is the run's own price row: callers only read it.
        """
        return self._rt._edge_row(nbytes, src_lane)


class GraphRuntime:
    """Execute one task graph over the flattened device pool of a cluster."""

    def __init__(self, cluster: SimCluster, graph: TaskGraph,
                 config: Optional[GraphConfig] = None):
        self.cluster = cluster
        self.env = cluster.env
        self.graph = graph
        self.config = config or GraphConfig()
        self.devices: List[SimDevice] = [
            dev for node in cluster.nodes for dev in node.devices]
        if not self.devices:
            raise ValueError(
                f"cluster {cluster.config.name!r} has no many-core devices")
        self._owner: Dict[str, ComputeNode] = {}
        for node in cluster.nodes:
            for dev in node.devices:
                self._owner[dev.lane] = node
        self._device_by_lane: Dict[str, SimDevice] = {
            dev.lane: dev for dev in self.devices}
        self.scheduler = DeviceScheduler(self.config.scheduler_policy,
                                         cluster.obs)
        self._decisions: Dict[str, SchedulingDecision] = {}
        self._ctx = _ScheduleContext(self)
        self._completed = 0
        self._cross_device_bytes = 0.0
        self._wake: Optional[Event] = None
        #: per-run price tables, filled on first use
        self._lane_times: Dict[KernelProfile, Dict[str, float]] = {}
        self._node_costs: Dict[str, Tuple[KernelProfile,
                                          Dict[str, float]]] = {}
        self._edge_rows: Dict[Tuple[float, str], Dict[str, float]] = {}
        self._comm_means: Dict[float, float] = {}

    # -- cost estimates (policy-facing) -------------------------------------
    # A kernel's per-lane times and an edge's transfer costs are pure
    # functions of the profile / byte count and the device pool, which is
    # fixed for a run, so each distinct key is priced once, lazily during
    # run(), with the same expressions and summation order as a fresh
    # computation: the estimates stay bit-identical.  The ranking's mean
    # edge costs and the placement's per-candidate costs read the same
    # price rows.
    def _edge_cost(self, nbytes: float, src: SimDevice,
                   dst: SimDevice) -> float:
        """d2h + (network) + h2d for one edge between two distinct devices.

        An empty edge is free: :meth:`_stage_inputs` never sends it.
        """
        if nbytes <= 0:
            return 0.0
        cost = (transfer_time(nbytes, src.spec)
                + transfer_time(nbytes, dst.spec))
        src_node = self._owner[src.lane]
        dst_node = self._owner[dst.lane]
        if src_node.rank != dst_node.rank:
            cost += self.cluster.network.spec.transfer_time(nbytes)
        return cost

    def _kernel_times(self, profile: KernelProfile) -> Dict[str, float]:
        """Device lane -> predicted execution time of ``profile``.

        The returned dict is the table's own entry: callers only read it.
        """
        times = self._lane_times.get(profile)
        if times is None:
            times = {dev.lane: kernel_time(profile, dev.spec)
                     for dev in self.devices}
            self._lane_times[profile] = times
        return times

    def _node_cost(self, name: str) -> Tuple[KernelProfile, Dict[str, float]]:
        """Node ``name``'s launch profile and its device lane -> predicted
        execution time row, built once per run."""
        cost = self._node_costs.get(name)
        if cost is None:
            spec = self.graph.nodes[name]
            profile = spec.profile()
            times = self._kernel_times(profile)
            if not self.graph.out_edges(name):
                # sink outputs are copied back to the host
                profile = replace(profile, d2h_bytes=spec.out_bytes)
            cost = self._node_costs[name] = (profile, times)
        return cost

    def _mean_exec_estimate(self, name: str) -> float:
        times = self._node_cost(name)[1]
        return sum(times.values()) / len(times)

    def _edge_row(self, nbytes: float, src_lane: str) -> Dict[str, float]:
        """Device lane -> :meth:`_edge_cost` of ``nbytes`` from ``src_lane``
        to it, for every other device, in pool order."""
        key = (nbytes, src_lane)
        row = self._edge_rows.get(key)
        if row is None:
            src = self._device_by_lane[src_lane]
            row = {dst.lane: self._edge_cost(nbytes, src, dst)
                   for dst in self.devices if dst is not src}
            self._edge_rows[key] = row
        return row

    def _mean_comm_estimate(self, edge: DataEdge) -> float:
        """Mean cross-device cost of an edge over distinct device pairs."""
        nbytes = edge.nbytes
        mean = self._comm_means.get(nbytes)
        if mean is None:
            total = 0.0
            pairs = 0
            for src in self.devices:
                for cost in self._edge_row(nbytes, src.lane).values():
                    total += cost
                    pairs += 1
            mean = total / pairs if pairs else 0.0
            self._comm_means[nbytes] = mean
        return mean

    # -- execution ----------------------------------------------------------
    def run(self) -> GraphRunResult:
        driver = self.env.process(self._drive())
        self.env.run(until=driver)
        registry = MetricsRegistry()
        record_run_gauges(registry, self.cluster, self.env.now)
        return GraphRunResult(
            graph=self.graph.name,
            policy=self.config.scheduler_policy,
            makespan_s=self.env.now,
            total_flops=self.graph.total_flops,
            nodes_run=self._completed,
            placements={name: d.device.lane
                        for name, d in self._decisions.items()},
            cross_device_bytes=self._cross_device_bytes,
            registry=registry,
        )

    def _drive(self) -> Generator:
        graph = self.graph
        tracker = self._tracker = DependencyTracker()
        for name in graph.nodes:
            tracker.add(name, graph.predecessors(name))
        self.scheduler.policy.graph_prepare(graph, self._mean_exec_estimate,
                                            self._mean_comm_estimate)
        obs = self.cluster.obs
        total = len(graph)
        while self._completed < total:
            ready = tracker.take_ready()
            if ready:
                for name in self.scheduler.policy.graph_order(ready, graph):
                    if obs.enabled:
                        obs.emit("graph_node_ready", node=None, graph=graph.name,
                                 graph_node=name,
                                 kernel=graph.nodes[name].kernel)
                    self._dispatch(name)
                continue
            self._wake = self.env.event()
            yield self._wake
        self._wake = None

    def _dispatch(self, name: str) -> None:
        spec = self.graph.nodes[name]
        # device memory the node holds while it runs: host input, every
        # input buffer (resident or staged) and its output buffer
        footprint = (spec.in_bytes + spec.out_bytes
                     + sum(edge.nbytes for edge in self.graph.in_edges(name)))
        fits = [dev for dev in self.devices
                if dev.spec.mem_bytes >= footprint]
        if not fits:
            raise GraphError(
                f"node {name!r} needs {footprint:.0f} B of device memory, "
                f"more than any device of cluster "
                f"{self.cluster.config.name!r} has")
        times = self._node_cost(name)[1]
        predictions: Dict[str, Tuple[float, bool]] = {
            dev.lane: (times[dev.lane], False) for dev in fits}
        decision = self.scheduler.place(name, fits, predictions, self._ctx)
        self._decisions[name] = decision
        obs = self.cluster.obs
        if obs.enabled:
            obs.emit("graph_node_dispatch", node=decision.device.node_rank,
                     graph=self.graph.name, graph_node=name,
                     kernel=spec.kernel, chosen=decision.device.lane,
                     predicted_s=decision.predicted_s,
                     policy=self.config.scheduler_policy)
        self.env.process(self._run_node(name, decision, footprint))

    def _run_node(self, name: str, decision: SchedulingDecision,
                  footprint: float) -> Generator:
        graph = self.graph
        spec = graph.nodes[name]
        dev = decision.device
        yield from dev.launch(
            self._node_cost(name)[0], name, footprint=footprint,
            stage=self._stage_inputs(name, dev),
            release=partial(self.scheduler.job_finished, decision))
        obs = self.cluster.obs
        if obs.enabled:
            obs.emit("graph_node_complete", node=dev.node_rank,
                     graph=graph.name, graph_node=name, kernel=spec.kernel,
                     chosen=dev.lane)
        self._completed += 1
        self._tracker.complete(name)
        wake = self._wake
        if wake is not None and not wake.triggered:
            self._wake = None
            wake.succeed()

    def _stage_inputs(self, name: str, dev: SimDevice) -> Generator:
        """Process: a node's staging — host input, then every cross-device
        input buffer via d2h → (network) → h2d."""
        graph = self.graph
        node = self._owner[dev.lane]
        yield from dev.copy_to_device(graph.nodes[name].in_bytes,
                                      label=f"{name}-in")
        for edge in graph.in_edges(name):
            src_dev = self._decisions[edge.src].device
            if src_dev is dev:
                continue  # device-resident input: no transfer
            if edge.nbytes <= 0:
                continue
            self._cross_device_bytes += edge.nbytes
            src_node = self._owner[src_dev.lane]
            yield from src_dev.copy_from_device(
                edge.nbytes, label=f"{edge.data}-d2h")
            if src_node.rank != node.rank:
                yield from src_node.endpoint.send(
                    node.rank, f"graph:{edge.data}", nbytes=edge.nbytes)
            yield from dev.copy_to_device(
                edge.nbytes, label=f"{edge.data}-h2d")
