"""Shared scaffolding for the four evaluation applications.

Each application (Table II of the paper) provides:

* MCPL kernel sources — an *unoptimized* version on level ``perfect`` plus
  *optimized* versions on deeper levels (``gpu``, ``mic``),
* a divide-and-conquer driver with two granularities: the Satin baseline
  needs ~8 jobs per node (single-threaded CPU leaves), Cashmere needs far
  fewer (a leaf fills a whole device),
* a numpy reference implementation used to validate the MCPL kernels at
  small scale,
* the cost hooks the simulator charges (task/result/transfer bytes, flops).
"""

from __future__ import annotations

from typing import Any, Optional

from ..cluster.das4 import ClusterConfig, SimCluster
from ..core.runtime import CashmereConfig, CashmereRuntime
from ..mcl.kernels import KernelLibrary
from ..satin.job import DivideConquerApp
from ..satin.runtime import RuntimeConfig, SatinRuntime

__all__ = ["CashmereApplication", "run_satin", "run_cashmere"]

FLOAT_BYTES = 4.0


class CashmereApplication(DivideConquerApp):
    """Base class wiring an app's kernels into both runtimes."""

    #: MCPL sources: always-registered (unoptimized, level perfect)
    KERNELS_UNOPTIMIZED: str = ""
    #: extra sources registered when optimized=True (gpu/mic/... levels)
    KERNELS_OPTIMIZED: str = ""

    @classmethod
    def build_library(cls, optimized: bool = True) -> KernelLibrary:
        """Kernel library for this app (optionally with optimized versions)."""
        lib = KernelLibrary()
        lib.add_source(cls.KERNELS_UNOPTIMIZED)
        if optimized and cls.KERNELS_OPTIMIZED:
            lib.add_source(cls.KERNELS_OPTIMIZED)
        return lib


def run_satin(app: DivideConquerApp, cluster_config: ClusterConfig,
              root_task: Any, seed: int = 42,
              config: Optional[RuntimeConfig] = None, obs: bool = False,
              return_runtime: bool = False):
    """One Satin baseline run (CPU leaves, 8 workers per node).

    ``obs=True`` switches the cluster's event bus on; the Gantt charts are
    drawn from the recorded stream afterwards.
    """
    cluster = SimCluster(cluster_config, obs_enabled=obs)
    runtime = SatinRuntime(cluster, app, config or RuntimeConfig(seed=seed))
    result = runtime.run(root_task)
    if return_runtime:
        return result, runtime, cluster
    return result


def run_cashmere(app: CashmereApplication, cluster_config: ClusterConfig,
                 root_task: Any, optimized: bool = True, seed: int = 42,
                 config: Optional[CashmereConfig] = None, obs: bool = False,
                 return_runtime: bool = False):
    """One Cashmere run with the app's kernel library.

    ``obs=True`` switches the cluster's event bus on; the Gantt charts are
    drawn from the recorded stream afterwards.
    """
    cluster = SimCluster(cluster_config, obs_enabled=obs)
    library = app.build_library(optimized=optimized)
    runtime = CashmereRuntime(cluster, app, library,
                              config or CashmereConfig(seed=seed))
    result = runtime.run(root_task)
    if return_runtime:
        return result, runtime, cluster
    return result
