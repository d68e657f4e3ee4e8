"""Simulated many-core device.

Each device exposes three independent engines — one host-to-device DMA
engine, one device-to-host DMA engine, and one compute engine — so data
transfers can overlap kernel executions exactly as the paper exploits
(Sec. II-C3, III-B).  Device memory is a finite resource; Cashmere
"automatically manages the available memory on a device", which we model as
blocking allocation: a launch waits until its working set fits.

:meth:`SimDevice.launch` is the one launch sequence of the repository —
admit, stage, kernel, copy out, free — shared by Cashmere leaves, the
explicit ``MCL.launch`` API and task-graph nodes.

The device also keeps *measured* kernel times per kernel name.  These feed
the intra-node load balancer (Sec. III-B): the first jobs are placed with the
static relative-speed table, afterwards placement uses measured times.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Generator, Optional

from ..sim.engine import Environment
from ..sim.resources import Container, Resource
from .perfmodel import KernelProfile, kernel_time, transfer_time
from .specs import DeviceSpec

__all__ = ["SimDevice"]


class SimDevice:
    """One accelerator in a simulated compute node."""

    def __init__(self, env: Environment, spec: DeviceSpec, node_name: str,
                 index: int = 0, overlap: bool = True,
                 node_rank: Optional[int] = None):
        self.env = env
        self.spec = spec
        self.node_name = node_name
        self.index = index
        #: rank of the owning node (for observability events); parsed from
        #: the conventional "node<rank>" name when not given explicitly
        if node_rank is None and node_name.startswith("node"):
            suffix = node_name[4:]
            node_rank = int(suffix) if suffix.isdigit() else None
        self.node_rank = node_rank
        #: lane prefix in Gantt traces, e.g. "node3/gtx480[0]"
        self.lane = f"{node_name}/{spec.name}[{index}]"
        # the lanes of the three engines' obs intervals
        self._h2d_lane = f"{self.lane}/h2d"
        self._d2h_lane = f"{self.lane}/d2h"
        self._kernel_lane = f"{self.lane}/kernel"

        #: with overlap disabled (ablation), copies and kernels serialize on
        #: one engine — no PCIe/compute overlap (Sec. II-C3 turned off)
        self.overlap = overlap
        self.compute_engine = Resource(env, capacity=1)
        if overlap:
            self.h2d_engine = Resource(env, capacity=1)
            self.d2h_engine = Resource(env, capacity=1)
        else:
            self.h2d_engine = self.compute_engine
            self.d2h_engine = self.compute_engine
        self.memory = Container(env, capacity=spec.mem_bytes, init=spec.mem_bytes)

        #: measured execution time of the most recent launch, per kernel name
        self.measured_times: Dict[str, float] = {}
        #: number of completed launches per kernel name
        self.launch_counts: Dict[str, int] = {}
        #: queued-but-unfinished predicted work, seconds (scheduler state)
        self.pending_work_s: float = 0.0
        #: lifetime kernel-engine busy time (the ``device_utilization`` gauge)
        self.busy_kernel_s: float = 0.0

    # -- memory ------------------------------------------------------------
    def alloc(self, nbytes: float):
        """Event: blocks until ``nbytes`` of device memory are available."""
        if nbytes > self.spec.mem_bytes:
            raise MemoryError(
                f"allocation of {nbytes:.0f} B exceeds {self.spec.name} memory "
                f"({self.spec.mem_bytes:.0f} B); split the leaf job"
            )
        return self.memory.get(nbytes)

    def free(self, nbytes: float):
        """Event: return ``nbytes`` to the device memory pool."""
        return self.memory.put(nbytes)

    @property
    def free_memory(self) -> float:
        return self.memory.level

    # -- engines -----------------------------------------------------------
    def copy_to_device(self, nbytes: float, label: str = "h2d") -> Generator:
        """Process: host-to-device transfer over PCIe."""
        if nbytes <= 0:
            return
        start = yield from self.h2d_engine.hold(transfer_time(nbytes, self.spec))
        obs = self.env.obs
        if obs.enabled:
            obs.emit("h2d", node=self.node_rank, lane=self._h2d_lane,
                     start=start, end=self.env.now, label=label,
                     nbytes=nbytes)

    def copy_from_device(self, nbytes: float, label: str = "d2h") -> Generator:
        """Process: device-to-host transfer over PCIe."""
        if nbytes <= 0:
            return
        start = yield from self.d2h_engine.hold(transfer_time(nbytes, self.spec))
        obs = self.env.obs
        if obs.enabled:
            obs.emit("d2h", node=self.node_rank, lane=self._d2h_lane,
                     start=start, end=self.env.now, label=label,
                     nbytes=nbytes)

    def run_kernel(self, profile: KernelProfile, label: Optional[str] = None) -> Generator:
        """Process: execute one kernel launch; returns the measured time."""
        duration = kernel_time(profile, self.spec)
        start = yield from self.compute_engine.hold(duration)
        self.busy_kernel_s += duration
        self.measured_times[profile.name] = duration
        self.launch_counts[profile.name] = self.launch_counts.get(profile.name, 0) + 1
        obs = self.env.obs
        if obs.enabled:
            obs.emit("kernel", node=self.node_rank, lane=self._kernel_lane,
                     start=start, end=self.env.now,
                     label=label or profile.name, kernel=profile.name,
                     device=self.spec.name, flops=profile.flops)
        return duration

    # -- the launch sequence -----------------------------------------------
    def launch(self, profile: KernelProfile, label: str, *,
               footprint: Optional[float] = None,
               stage: Optional[Generator] = None,
               stream: bool = False,
               release: Optional[Callable[[], None]] = None) -> Generator:
        """Process: one kernel launch, the sequence of Sec. II-C / Fig. 4.

        1. wait until ``footprint`` bytes of device memory are free
           (default: the profile's ``h2d_bytes + d2h_bytes``),
        2. stage the inputs — ``stage`` when given (a caller-built
           process, e.g. a graph node's per-edge transfers), otherwise an
           h2d copy of ``profile.h2d_bytes``,
        3. run the kernel,
        4. copy ``profile.d2h_bytes`` back,
        5. free the memory, also when a step fails.

        ``release`` (the caller's scheduler bookkeeping) runs exactly once
        when the launch ends, however it ends, just before the memory is
        returned.  A footprint larger than the whole device raises
        :class:`MemoryError` before anything is allocated, unless
        ``stream`` is set: then the profile is streamed through the device
        in pipelined chunks (out of core; a custom ``stage`` is not
        streamed).  Returns the number of kernel launches it took: 1 in
        core, at least 2 streamed.
        """
        if footprint is None:
            footprint = profile.h2d_bytes + profile.d2h_bytes
        if footprint > self.spec.mem_bytes:
            try:
                if not stream:
                    raise MemoryError(
                        f"launch {label!r} needs {footprint:.0f} B, more than "
                        f"{self.spec.name} memory ({self.spec.mem_bytes:.0f} B)")
                # Equal fractions small enough that two chunks are resident
                # at once (with headroom), so chunk k+1's input transfer
                # overlaps chunk k's kernel; memory admission keeps at most
                # two resident while the device's engines pipeline them.
                chunks = max(math.ceil(footprint / (self.spec.mem_bytes * 0.45)), 2)
                part = profile.scaled(1.0 / chunks)
                procs = [self.env.process(self.launch(part, f"{label}-ooc{i}"))
                         for i in range(chunks)]
                for proc in procs:
                    yield proc
                return chunks
            finally:
                if release is not None:
                    release()
        if footprint > 0:
            yield self.alloc(footprint)
        try:
            if stage is None:
                stage = self.copy_to_device(profile.h2d_bytes, label=f"{label}-in")
            yield from stage
            yield from self.run_kernel(profile, label=label)
            yield from self.copy_from_device(profile.d2h_bytes, label=f"{label}-out")
        finally:
            if release is not None:
                release()
            if footprint > 0:
                yield self.free(footprint)
        return 1

    def __repr__(self) -> str:
        return f"<SimDevice {self.lane}>"
