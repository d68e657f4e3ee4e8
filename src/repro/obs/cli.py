"""The ``python -m repro trace <app>`` subcommand.

Runs one of the four evaluation applications on a small heterogeneous
cluster with the event bus enabled, then exports the run as

* a Chrome-trace JSON file (open in ``chrome://tracing`` or Perfetto),
* optionally the raw event stream (JSON lines, one event per line), and
* a text summary of the metrics registry.

This module is imported lazily by :mod:`repro.__main__` — importing it from
``repro.obs.__init__`` would create a cycle (cli -> apps -> satin -> obs).
"""

from __future__ import annotations

import pathlib
from typing import Any, Dict, Optional, Tuple

from ..cluster.das4 import ClusterConfig
from .export import metrics_summary, write_chrome_trace

__all__ = ["TRACE_APPS", "demo_cluster", "run_traced_app", "trace_main"]


def demo_cluster() -> ClusterConfig:
    """A small heterogeneous slice of DAS-4 for interactive tracing.

    Four nodes, three device types (two GTX480, a K20 + Xeon Phi pair on
    one node, a C2050) — enough to exercise inter-node stealing, PCIe
    transfers, and the intra-node min-makespan scheduler while staying
    fast enough for a command-line round trip.
    """
    return ClusterConfig(
        name="obs-demo-het-4",
        nodes=[("gtx480",), ("k20", "xeon_phi"), ("gtx480",), ("c2050",)],
    )


def _kmeans_small():
    from ..apps.kmeans import KMeansApp
    return KMeansApp(n_points=1 << 22, iterations=2, leaf_points=1 << 18)


def _matmul_small():
    from ..apps.matmul import MatmulApp
    return MatmulApp(n=8192, leaf_block=1024)


def _raytracer_small():
    from ..apps.raytracer import RaytracerApp
    return RaytracerApp(width=1024, height=1024, samples=4, leaf_rows=64)


def _nbody_small():
    from ..apps.nbody import NBodyApp
    return NBodyApp(n_bodies=1 << 16, iterations=2, leaf_bodies=1 << 12)


#: app name -> builder of a CLI-sized instance
TRACE_APPS: Dict[str, Any] = {
    "kmeans": _kmeans_small,
    "matmul": _matmul_small,
    "raytracer": _raytracer_small,
    "nbody": _nbody_small,
}


def run_traced_app(app_name: str, seed: int = 42,
                   cluster_config: Optional[ClusterConfig] = None
                   ) -> Tuple[Any, Any, Any]:
    """Run one demo app with the event bus on; returns (result, runtime,
    cluster)."""
    from ..apps.base import run_cashmere
    try:
        builder = TRACE_APPS[app_name]
    except KeyError:
        raise KeyError(f"unknown app {app_name!r}; known: "
                       f"{sorted(TRACE_APPS)}") from None
    app = builder()
    config = cluster_config or demo_cluster()
    return run_cashmere(app, config, app.root_task(), optimized=True,
                        seed=seed, obs=True, return_runtime=True)


def trace_main(app_name: str, out: pathlib.Path, seed: int = 42,
               events_out: Optional[pathlib.Path] = None,
               summary: bool = True) -> int:
    """Entry point behind ``python -m repro trace``."""
    result, runtime, cluster = run_traced_app(app_name, seed=seed)
    bus = cluster.obs

    out.parent.mkdir(parents=True, exist_ok=True)
    trace = write_chrome_trace(out, bus)
    n_tracks = len({(e["pid"], e["tid"]) for e in trace["traceEvents"]
                    if e.get("ph") != "M"})
    print(f"wrote {out} ({len(trace['traceEvents'])} trace events, "
          f"{n_tracks} tracks, {len(bus.events)} bus events)")

    if events_out is not None:
        events_out.parent.mkdir(parents=True, exist_ok=True)
        events_out.write_text(bus.serialize() + "\n")
        print(f"wrote {events_out} (raw event stream, JSON lines)")

    if summary:
        print()
        print(metrics_summary(result.stats.registry,
                              title=f"trace {app_name} (seed {seed})"))
        print(f"\nmakespan: {result.stats.makespan_s:.3f} s simulated, "
              f"{result.stats.total_jobs} jobs, "
              f"{sum(1 for e in bus.events if e.kind == 'kernel')} kernel "
              f"launches")
    return 0
