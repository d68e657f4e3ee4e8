"""Kernel versions, most-specific selection and compilation.

Stepwise refinement produces multiple files with different versions of the
same kernel (Sec. III-A): e.g. ``matmul`` on level ``perfect`` plus an
optimized version on ``gpu``.  :class:`KernelLibrary` stores them and, for a
given device, *automatically chooses the most specific version*: the version
whose level lies deepest on the device's ancestry path.  In the paper's
example, with versions at perfect/gpu/amd/hd7970, the Xeon Phi gets
``perfect``, all NVIDIA GPUs get ``gpu``, and the HD7970 gets ``hd7970``.

:meth:`KernelLibrary.compile` then translates the chosen version down to the
leaf, generates OpenCL source and the launch configuration, and bundles the
cost model — the :class:`CompiledKernel` Cashmere ships to each node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..analyze.findings import Finding

from ..devices.perfmodel import KernelProfile
from ..devices.specs import DeviceSpec, device_spec
from .compiler.analysis import KernelAnalysis, analyze_cost, cost_params
from .compiler.codegen import LaunchConfig, derive_launch_config, generate_opencl
from .compiler.efficiency import EfficiencyEstimate, estimate_efficiency
from .compiler.feedback import FeedbackItem, get_feedback
from .compiler.translate import translate
from .hdl.library import get_description, leaf_names
from .mcpl import ast as mcpl_ast
from .mcpl.interpreter import execute
from .mcpl.parser import parse_kernels
from .mcpl.semantics import KernelInfo, analyze

__all__ = ["KernelVersion", "CompiledKernel", "KernelLibrary",
           "CACHE_MISS_RATE", "effective_device_bytes"]

#: Fraction of *re-read* traffic that misses when the reused array does not
#: fit in the device's last-level cache.
CACHE_MISS_RATE = 0.5


def effective_device_bytes(analysis: KernelAnalysis, spec: DeviceSpec) -> float:
    """Cache-aware effective DRAM traffic of a kernel launch.

    Per accessed array: streaming traffic (roughly one visit per element) is
    compulsory; re-read traffic is served by the last-level cache when the
    array fits, and mostly misses otherwise.  This is why a naive k-means
    (centroids of a few tens of KB, cache-resident) stays compute-bound while
    a naive matmul (panels of hundreds of MB) is crushed by DRAM traffic.
    """
    by_array = analysis.global_bytes_by_array or {}
    footprints = analysis.array_footprints or {}
    if not by_array:
        return analysis.global_bytes
    total = 0.0
    for array, traffic in by_array.items():
        size = footprints.get(array)
        if size is None or traffic <= size * 1.5:
            total += traffic                      # streaming / unknown size
        elif size <= spec.l2_bytes:
            total += size                          # reused, cache-resident
        else:
            total += size + (traffic - size) * CACHE_MISS_RATE
    return total


@dataclass
class KernelVersion:
    """One source version of a kernel at one abstraction level."""

    name: str
    level: str
    kernel: mcpl_ast.Kernel
    info: KernelInfo
    source: str

    @property
    def depth(self) -> int:
        """Depth of the level in the hierarchy (0 = perfect)."""
        return len(get_description(self.level).ancestry()) - 1

    def feedback(self, params: Optional[Dict[str, Any]] = None) -> List[FeedbackItem]:
        return get_feedback(self.info, params)

    def verify(self) -> List["Finding"]:
        """Run the static verifier over this version.

        Inline ``// lint: ignore[...]`` comments in the registered source are
        honoured, so the returned findings are exactly the *unsuppressed*
        ones.  See :mod:`repro.mcl.verify`.
        """
        from .verify import verify_kernel
        return verify_kernel(self.info, self.source)


@dataclass
class CompiledKernel:
    """A kernel version compiled for one leaf device."""

    name: str
    device: str
    version_level: str        #: level of the source version that was selected
    leaf_kernel: mcpl_ast.Kernel   #: translated to the leaf level
    leaf_info: KernelInfo
    opencl_source: str
    spec: DeviceSpec

    def __post_init__(self) -> None:
        # Leaf launches rarely repeat a whole params dict (every raytracer
        # leaf passes its own ``row0``), but they do repeat the values the
        # cost model reads, ``cost_params``.  Key the one cost cache on
        # those, per set of passed names: the walker binds every passed name.
        self._cost_params: Dict[FrozenSet[str], Tuple[str, ...]] = {}
        self._costs: Dict[Tuple, Tuple[KernelAnalysis, EfficiencyEstimate]] = {}

    def launch_config(self, params: Dict[str, Any]) -> LaunchConfig:
        """Work-group/work-item configuration for the given parameters."""
        return derive_launch_config(self.leaf_info, params)

    def profile(self, params: Dict[str, Any],
                h2d_bytes: float = 0.0, d2h_bytes: float = 0.0,
                label: Optional[str] = None) -> KernelProfile:
        """Roofline profile of one launch, for the device simulator."""
        names = frozenset(params)
        relevant = self._cost_params.get(names)
        if relevant is None:
            relevant = self._cost_params[names] = cost_params(
                self.leaf_info, names)
        key = (names, tuple([params[name] for name in relevant]))
        cost = self._costs.get(key)
        if cost is None:
            analysis = analyze_cost(self.leaf_info, params)
            cost = self._costs[key] = (analysis, estimate_efficiency(
                self.leaf_info, analysis, self.spec, params))
        analysis, eff = cost
        return KernelProfile(
            name=label or self.name,
            flops=analysis.flops,
            device_bytes=effective_device_bytes(analysis, self.spec),
            compute_efficiency=eff.compute_efficiency,
            memory_efficiency=eff.memory_efficiency,
            divergence_factor=eff.divergence_factor,
            h2d_bytes=h2d_bytes,
            d2h_bytes=d2h_bytes,
        )

    def execute(self, *args: Any) -> Any:
        """Run the leaf kernel through the MCPL interpreter (validation)."""
        return execute(self.leaf_info, *args)


class KernelLibrary:
    """All versions of all kernels of an application."""

    def __init__(self) -> None:
        self._versions: Dict[str, Dict[str, KernelVersion]] = {}
        self._compiled: Dict[Tuple[str, str], CompiledKernel] = {}

    # -- registration ----------------------------------------------------------
    def add_source(self, source: str) -> List[KernelVersion]:
        """Parse MCPL source and register every kernel version in it."""
        added = []
        for kernel in parse_kernels(source):
            info = analyze(kernel)
            version = KernelVersion(
                name=kernel.name, level=kernel.level, kernel=kernel,
                info=info, source=source)
            by_level = self._versions.setdefault(kernel.name, {})
            if kernel.level in by_level:
                raise ValueError(
                    f"duplicate version of {kernel.name!r} at level "
                    f"{kernel.level!r}")
            by_level[kernel.level] = version
            added.append(version)
        return added

    def kernel_names(self) -> List[str]:
        return sorted(self._versions)

    def versions(self, name: str) -> Dict[str, KernelVersion]:
        try:
            return dict(self._versions[name])
        except KeyError:
            raise KeyError(
                f"no kernel {name!r} registered; have {self.kernel_names()}"
            ) from None

    # -- selection -----------------------------------------------------------
    def select_version(self, name: str, device: str) -> KernelVersion:
        """Most specific version for a device (deepest on its ancestry path)."""
        by_level = self.versions(name)
        path = get_description(device).level_names()
        best: Optional[KernelVersion] = None
        for level in path:  # root..leaf: later (deeper) wins
            if level in by_level:
                best = by_level[level]
        if best is None:
            raise KeyError(
                f"kernel {name!r} has no version applicable to {device!r} "
                f"(versions at {sorted(by_level)}, device path {path})")
        return best

    def compile(self, name: str, device: str) -> CompiledKernel:
        """Compile (and cache) the most specific version for a leaf device."""
        key = (name, device)
        if key in self._compiled:
            return self._compiled[key]
        spec = device_spec(device)
        version = self.select_version(name, device)
        leaf_kernel = translate(version.kernel, device)
        leaf_info = analyze(leaf_kernel, get_description(device))
        compiled = CompiledKernel(
            name=name,
            device=device,
            version_level=version.level,
            leaf_kernel=leaf_kernel,
            leaf_info=leaf_info,
            opencl_source=generate_opencl(leaf_info),
            spec=spec,
        )
        self._compiled[key] = compiled
        return compiled

    def compile_all(self, name: str) -> Dict[str, CompiledKernel]:
        """Compile a kernel for every leaf device (what MCL does for Fig. 2)."""
        return {leaf: self.compile(name, leaf) for leaf in leaf_names()}

    def generate_glue(self, name: str) -> str:
        """Generate the Cashmere glue-code module for a kernel.

        The glue records, per device, the selected version level and how to
        configure the launch; Cashmere loads this to call MCL kernels from
        the divide-and-conquer framework.
        """
        lines = [
            f'"""Cashmere glue for kernel {name!r} — generated by MCL."""',
            "",
            f"KERNEL = {name!r}",
            "",
            "SELECTED_VERSIONS = {",
        ]
        for leaf in leaf_names():
            version = self.select_version(name, leaf)
            lines.append(f"    {leaf!r}: {version.level!r},")
        lines.append("}")
        lines.append("")
        lines.append("def launch_config(device, params):")
        lines.append("    from repro.mcl.kernels import KernelLibrary  # runtime lookup")
        lines.append("    raise NotImplementedError('resolved by Cashmere at run time')")
        return "\n".join(lines) + "\n"
