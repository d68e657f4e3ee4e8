"""Simulated compute node.

A DAS-4 node is a dual quad-core Xeon E5620 host with zero or more many-core
devices on its PCIe bus, attached to the cluster interconnect.  The host CPU
cores are a shared resource: Satin leaf computations, communication handling
and load-balancing all compete for them — the effect the paper identifies as
the second cause of Satin's reduced scalability (Sec. V-B).
"""

from __future__ import annotations

from typing import Callable, Generator, List, Sequence

from ..devices.device import SimDevice
from ..devices.specs import HOST_CPU, CpuSpec, device_spec
from ..sim.engine import Environment
from ..sim.network import Endpoint, Network
from ..sim.resources import Resource

__all__ = ["ComputeNode"]


class _DelayOp:
    """Occupy one core for ``seconds``, then call ``finish()`` — no Process.

    Three hops (see :meth:`Environment._schedule`), each one queue pop: a
    front-lane starter claims the core (so it is claimed in the step the
    caller asked, ahead of later work queued at this instant); the grant
    stamps the start; ``seconds`` later the last hop charges the core's
    busy span (:meth:`ComputeNode._charge_cpu`), releases the core and
    calls ``finish()``.
    """

    __slots__ = ("node", "seconds", "label", "finish", "req", "start")

    def __init__(self, node: "ComputeNode", seconds: float, label: str,
                 finish: Callable[[], None]):
        self.node = node
        self.seconds = seconds
        self.label = label
        self.finish = finish
        self.start = 0.0
        node.env._schedule_front(self._begin)

    def _begin(self) -> None:
        if self.seconds <= 0:
            self.finish()
            return
        self.req = self.node.cores.request(self._granted)

    def _granted(self) -> None:
        env = self.node.env
        self.start = env._now
        env._schedule(self._done, self.seconds)

    def _done(self) -> None:
        node = self.node
        node._charge_cpu(self.start, self.label)
        node.cores.release(self.req)
        self.finish()


class ComputeNode:
    """One cluster node: host CPU, devices, network endpoint."""

    def __init__(self, env: Environment, network: Network, rank: int,
                 device_names: Sequence[str] = (),
                 cpu: CpuSpec = HOST_CPU,
                 device_overlap: bool = True):
        self.env = env
        self.rank = rank
        self.name = f"node{rank}"
        self.cpu = cpu
        self.endpoint: Endpoint = network.attach(rank)
        self.cores = Resource(env, capacity=cpu.cores)
        self.devices: List[SimDevice] = []
        for i, dev_name in enumerate(device_names):
            self.devices.append(
                SimDevice(env, device_spec(dev_name), self.name, index=i,
                          overlap=device_overlap)
            )
        #: set by fault injection; a crashed node stops participating
        self.crashed = False
        #: cumulative host-CPU busy time (core-seconds), for utilization
        self.busy_cpu_s = 0.0

    @property
    def device_names(self) -> List[str]:
        return [d.spec.name for d in self.devices]

    def cpu_compute(self, flops: float, label: str = "cpu") -> Generator:
        """Process: run a single-threaded CPU computation on one core.

        This is how original-Satin leaves execute; it occupies one of the
        node's 8 cores for flops / sustained-single-core-rate seconds.
        """
        start = yield from self.cores.hold(flops / self.cpu.core_flops)
        self._charge_cpu(start, label)

    def cpu_delay_async(self, seconds: float, label: str,
                        finish: Callable[[], None]) -> None:
        """Occupy a core for ``seconds``, then call ``finish()`` — without
        spawning a Process; see :class:`_DelayOp`."""
        _DelayOp(self, seconds, label, finish)

    def cpu_delay(self, seconds: float, label: str = "cpu") -> Generator:
        """Process: occupy one core for a fixed time (protocol overheads)."""
        if seconds <= 0:
            return
        start = yield from self.cores.hold(seconds)
        self._charge_cpu(start, label)

    def _charge_cpu(self, start: float, label: str) -> None:
        """Charge one core busy from ``start`` to now, and emit the span as
        a ``cpu`` interval."""
        env = self.env
        self.busy_cpu_s += env._now - start
        obs = env.obs
        if obs.enabled:
            obs.emit("cpu", node=self.rank, lane=f"{self.name}/cpu",
                     start=start, end=env._now, label=label)

    def __repr__(self) -> str:
        devs = ",".join(self.device_names) or "cpu-only"
        return f"<ComputeNode {self.name} [{devs}]>"
