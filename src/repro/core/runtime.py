"""The Cashmere runtime: Satin + MCL on heterogeneous many-core clusters.

Cashmere extends the Satin runtime with (Sec. II-C, III-B):

* **initialization** — rank 0 becomes the master and broadcasts run-time
  information; every node then compiles the most specific kernel version for
  each of its devices,
* **enableManyCore()** — once a task is "small enough for many-core", spawns
  stop producing stealable jobs and become node-local threads feeding the
  devices (handled by the base class via :meth:`_manycore_enabled`),
* **leaf execution on devices** — a leaf picks a device with the intra-node
  min-makespan scheduler and runs
  :meth:`~repro.devices.device.SimDevice.launch`: stage input over
  PCIe, run the MCL kernel, copy results back; the three device engines let
  transfers overlap kernel executions (Fig. 16),
* **automatic device memory management** — a launch blocks until its working
  set fits in device memory,
* **CPU fallback** — if the kernel launch fails, the leaf runs on the CPU
  (Fig. 4's catch block).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, Generator, Optional

from ..cluster.das4 import SimCluster
from ..cluster.node import ComputeNode
from ..mcl.kernels import KernelLibrary
from ..satin.comm import RuntimeInfo
from ..satin.job import DivideConquerApp
from ..satin.runtime import RuntimeConfig, SatinRuntime
from .scheduler import DeviceScheduler, SchedulingDecision

__all__ = ["CashmereConfig", "CashmereRuntime", "KernelLaunchError",
           "KernelVerificationError"]

#: size of the master's runtime-information broadcast
RUNTIME_INFO_BYTES = 4096.0


class KernelLaunchError(RuntimeError):
    """A device kernel launch failed (triggers the CPU fallback)."""


class KernelVerificationError(RuntimeError):
    """The kernel library failed static verification (verify_kernels=True)."""


@dataclass
class CashmereConfig(RuntimeConfig):
    """Cashmere defaults differ from Satin's.

    One leaf already fills a whole device, so a node needs far fewer
    concurrent jobs than Satin's 8 (Sec. V-B).  Four node-level workers keep
    the PCIe bus busy and give the intra-node scheduler a deep enough queue
    to feed a slower second device (the K20 + Xeon Phi nodes of Fig. 16).
    The two overridden fields and the two added ones are ordinary dataclass
    fields, so ``==``, ``repr`` and :func:`dataclasses.replace` see them.
    """

    #: one leaf fills a device; 4 workers keep PCIe and both devices fed
    workers_per_node: int = 4
    #: Cashmere runs are short (device leaves); a tight steal-backoff cap
    #: keeps iteration starts responsive at negligible event cost.
    steal_backoff_max_s: float = 0.02
    #: intra-node device placement policy (see DeviceScheduler)
    scheduler_policy: str = "makespan"
    #: stream launches (leaves and explicit ``MCL.launch``) whose working
    #: set exceeds device memory in chunks (the paper's future work,
    #: Sec. VI: "Glasswing supports out-of-core data which Cashmere does
    #: not support yet").  Off by default, in which case oversized
    #: launches raise MemoryError and leaves fall back to the CPU (Fig. 4).
    out_of_core: bool = False


class CashmereRuntime(SatinRuntime):
    """Satin runtime extended with many-core execution through MCL."""

    def __init__(self, cluster: SimCluster, app: DivideConquerApp,
                 library: KernelLibrary,
                 config: Optional[CashmereConfig] = None):
        super().__init__(cluster, app, config or CashmereConfig())
        self.library = library
        if self.config.verify_kernels:
            self._verify_library()
        self.scheduler = DeviceScheduler(policy=self.config.scheduler_policy,
                                         obs=self.env.obs)
        #: compiled kernels per (node rank, kernel name, device name)
        self._node_kernels: Dict[int, Dict[str, Dict[str, Any]]] = {}

    def _verify_library(self) -> None:
        """Static-verify every registered kernel version (opt-in gate).

        Enabled with ``RuntimeConfig.verify_kernels``; any *unsuppressed*
        error-severity finding aborts construction with a
        :class:`KernelVerificationError` listing the findings.
        """
        from ..mcl.verify import has_errors, render_text
        findings = []
        for name in self.library.kernel_names():
            for version in self.library.versions(name).values():
                findings.extend(version.verify())
        if has_errors(findings):
            raise KernelVerificationError(
                "kernel library failed static verification:\n"
                + render_text(findings))

    # ------------------------------------------------------------------
    # initialization (Sec. III-B "On initialization")
    # ------------------------------------------------------------------
    def _init_phase(self) -> None:
        """Run :meth:`_initialize` to completion; the makespan clock starts
        after it (see :meth:`SatinRuntime.begin`)."""
        self.env.run(until=self.env.process(self._initialize()))

    def _initialize(self) -> Generator:
        """Master broadcast + per-node kernel compilation."""
        yield from self.comm.channel(0).broadcast(
            RuntimeInfo(), nbytes=RUNTIME_INFO_BYTES)
        for node in self.cluster.nodes:
            per_node = self._node_kernels.setdefault(node.rank, {})
            for name in self.library.kernel_names():
                per_kernel = per_node.setdefault(name, {})
                for dev in node.devices:
                    # compile() selects the most specific version and caches.
                    per_kernel[dev.spec.name] = self.library.compile(
                        name, dev.spec.name)

    # ------------------------------------------------------------------
    # the programming-model hooks
    # ------------------------------------------------------------------
    def _manycore_enabled(self, node: ComputeNode) -> bool:
        return bool(node.devices)

    def get_kernel(self, node: ComputeNode, name: Optional[str] = None):
        """``Cashmere.getKernel()`` (Fig. 4): the compiled kernels of a node.

        With a single registered kernel the name may be omitted; with more,
        it must be given (exactly the paper's rule).
        """
        names = self.library.kernel_names()
        if name is None:
            if len(names) != 1:
                raise KeyError(
                    f"getKernel() without a name needs exactly one registered "
                    f"kernel; have {names}")
            name = names[0]
        per_node = self._node_kernels.get(node.rank, {})
        if name not in per_node or not per_node[name]:
            raise KeyError(f"node {node.rank} has no compiled kernel {name!r} "
                           "(no devices, or init not run)")
        return per_node[name]

    # ------------------------------------------------------------------
    # leaf execution on devices
    # ------------------------------------------------------------------
    def _execute_leaf(self, node: ComputeNode, task: Any,
                      task_id: int = -1) -> Generator:
        if not node.devices:
            result = yield from super()._execute_leaf(node, task, task_id)
            return result
        try:
            kernel_name = self.app.leaf_kernel_name(task)
        except NotImplementedError:
            result = yield from super()._execute_leaf(node, task, task_id)
            return result
        try:
            result = yield from self._launch_leaf_kernel(node, task, kernel_name)
            return result
        except (KernelLaunchError, MemoryError):
            # Fig. 4: catch -> leafCPU(a, b)
            self.stats.count_cpu_fallback()
            result = yield from super()._execute_leaf(node, task, task_id)
            return result

    def _launch_leaf_kernel(self, node: ComputeNode, task: Any,
                            kernel_name: str) -> Generator:
        app = self.app
        # raises MemoryError (-> CPU fallback) if the leaf cannot fit
        launches = yield from self._launch(
            node, kernel_name, app.leaf_kernel_params(task),
            app.leaf_h2d_bytes(task), app.leaf_d2h_bytes(task))
        if launches > 1:
            self.stats.count_out_of_core()
        return self._leaf_token(task)

    def _launch(self, node: ComputeNode, kernel_name: str,
                params: Dict[str, Any], h2d_bytes: float, d2h_bytes: float,
                decision: Optional[SchedulingDecision] = None) -> Generator:
        """Process: one kernel launch on ``node``, for a default leaf and
        for ``MCL.launch`` alike.

        With no ``decision`` the device scheduler chooses the device, and
        the launch releases that reservation when it ends.  A pinned device
        passes its own decision and keeps its reservation.  The node's
        compiled version for the device prices ``params`` and the byte
        counts, and the device runs it, streamed out of core when
        ``CashmereConfig.out_of_core`` is set.  Returns the number of
        kernel launches it took (:meth:`SimDevice.launch`).
        """
        release = None
        if decision is None:
            decision = self.scheduler.choose(node.devices, kernel_name)
            release = partial(self.scheduler.job_finished, decision)
        device = decision.device
        compiled = self._node_kernels[node.rank][kernel_name][device.spec.name]
        profile = compiled.profile(params, h2d_bytes=h2d_bytes,
                                   d2h_bytes=d2h_bytes, label=kernel_name)
        launches = yield from device.launch(
            profile, kernel_name, stream=self.config.out_of_core,
            release=release)
        return launches
