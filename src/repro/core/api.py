"""The user-facing kernel front-end of Fig. 4.

The default leaf path in :class:`~repro.core.runtime.CashmereRuntime` covers
the common case automatically; this module provides the *explicit* API for
advanced leaves — multiple kernels, multiple launches, and device-resident
copies (Sec. II-C1)::

    def leaf(self, task, ctx):                    # inside an app
        kernel = Cashmere.get_kernel(ctx, "matmul")
        device = kernel.get_device()              # pin a device
        yield from device.copy_to_device(nbytes)  # keep data across launches
        for step in range(iterations):
            kl = kernel.create_launch(device=device)
            yield from MCL.launch(kl, params, h2d_bytes=0, d2h_bytes=0)
        yield from device.copy_from_device(out_bytes)
        device.release()
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from ..devices.device import SimDevice
from ..satin.job import LeafContext
from .runtime import CashmereRuntime, KernelLaunchError
from .scheduler import SchedulingDecision

__all__ = ["Cashmere", "MCL", "KernelHandle", "KernelLaunch", "DeviceHandle"]


class DeviceHandle:
    """A device pinned by a leaf for multi-launch data reuse
    (``Kernel.getDevice()`` / ``Device.copy()`` of Sec. II-C1)."""

    def __init__(self, kernel: "KernelHandle", decision: SchedulingDecision):
        self.kernel = kernel
        self.decision = decision
        self.device: SimDevice = decision.device
        self._allocated = 0.0
        self._released = False

    def copy_to_device(self, nbytes: float) -> Generator:
        """Process: stage data that stays resident across launches."""
        self._check_live()
        yield self.device.alloc(nbytes)
        self._allocated += nbytes
        yield from self.device.copy_to_device(nbytes, label=f"{self.kernel.name}-pin")

    def copy_from_device(self, nbytes: float) -> Generator:
        """Process: read back device-resident data."""
        self._check_live()
        yield from self.device.copy_from_device(nbytes, label=f"{self.kernel.name}-pin")

    def release(self) -> None:
        """Free the pinned memory and the scheduler reservation."""
        if self._released:
            return
        self._released = True
        if self._allocated > 0:
            self.device.free(self._allocated)
        self.kernel.runtime.scheduler.job_finished(self.decision)

    def _check_live(self) -> None:
        if self._released:
            raise KernelLaunchError("device handle already released")


class KernelLaunch:
    """One prepared launch (``kernel.createLaunch()`` of Fig. 4)."""

    def __init__(self, kernel: "KernelHandle", device: Optional[DeviceHandle] = None):
        self.kernel = kernel
        self.pinned = device
        self.launched = False

    def execute(self, params: Dict[str, Any], h2d_bytes: float,
                d2h_bytes: float) -> Generator:
        """Process: run the launch through :meth:`SimDevice.launch`.

        Raises :class:`MemoryError` when ``h2d_bytes + d2h_bytes`` exceeds
        the device, unless ``CashmereConfig.out_of_core`` streams it.
        """
        if self.launched:
            raise KernelLaunchError("a KernelLaunch is single-use")
        self.launched = True
        kernel = self.kernel
        # the pin owns its reservation; an unpinned launch has the
        # scheduler choose (and release) a device
        decision = self.pinned.decision if self.pinned is not None else None
        yield from kernel.runtime._launch(kernel.node, kernel.name, params,
                                          h2d_bytes, d2h_bytes,
                                          decision=decision)


class KernelHandle:
    """A kernel bound to a node (what ``Cashmere.getKernel()`` returns)."""

    def __init__(self, runtime: CashmereRuntime, node: Any, name: str):
        self.runtime = runtime
        self.node = node
        self.name = name

    def create_launch(self, device: Optional[DeviceHandle] = None) -> KernelLaunch:
        return KernelLaunch(self, device)

    def get_device(self) -> DeviceHandle:
        """Pin a device chosen by the intra-node scheduler."""
        decision = self.runtime.scheduler.choose(self.node.devices, self.name)
        return DeviceHandle(self, decision)


class Cashmere:
    """Static facade mirroring the paper's API names."""

    @staticmethod
    def get_kernel(ctx: LeafContext, name: Optional[str] = None) -> KernelHandle:
        """``Cashmere.getKernel()``: look up a kernel on the leaf's node."""
        runtime = ctx.runtime
        if not isinstance(runtime, CashmereRuntime):
            raise KernelLaunchError("getKernel() requires a CashmereRuntime")
        compiled = runtime.get_kernel(ctx.node, name)  # validates availability
        resolved = name if name is not None else runtime.library.kernel_names()[0]
        del compiled
        return KernelHandle(runtime, ctx.node, resolved)

    #: ``Cashmere.enableManyCore()`` is implicit in this reproduction: the
    #: runtime consults :meth:`DivideConquerApp.is_manycore` (Fig. 5 line 5).


class MCL:
    """Front-end that launches kernels (``MCL.launch`` of Fig. 4)."""

    @staticmethod
    def launch(kl: KernelLaunch, params: Dict[str, Any],
               h2d_bytes: float = 0.0, d2h_bytes: float = 0.0) -> Generator:
        """Process: copy data in, execute on the selected device, copy out."""
        yield from kl.execute(params, h2d_bytes, d2h_bytes)
