"""Figs. 16 and 17: Gantt charts of the heterogeneous k-means execution.

Fig. 16 zooms into two nodes — one with a GTX480 and one with both a Xeon
Phi and a K20 — showing kernel executions overlapped with transfers, and
the intra-node load balancer placing 1 job of each 8-job set on the Phi and
7 on the K20 (the Phi being ~4x slower).  Fig. 17 shows the whole run with
kernel executions only.
"""

from __future__ import annotations

from ..apps.base import run_cashmere
from ..cluster.das4 import heterogeneous_kmeans
from ..core.gantt import gantt_overview, gantt_zoomed, kernel_lanes
from ..core.runtime import CashmereConfig
from ..obs.export import Intervals
from .harness import ExperimentResult, experiment
from .scalability import APP_BUILDERS

__all__ = ["fig16_17", "run_traced_kmeans"]


def run_traced_kmeans(seed: int = 42):
    """Heterogeneous k-means with the event bus on."""
    config = heterogeneous_kmeans()
    app = APP_BUILDERS["k-means"](False)
    result, runtime, cluster = run_cashmere(
        app, config, app.root_task(), optimized=True,
        config=CashmereConfig(seed=seed), obs=True, return_runtime=True)
    return result, runtime, cluster


@experiment("fig16_17")
def fig16_17(seed: int = 42, width: int = 100) -> ExperimentResult:
    """Both Gantt charts plus the K20/Phi job-split evidence."""
    result, runtime, cluster = run_traced_kmeans(seed=seed)
    trace = Intervals(cluster.obs.events)

    # The node carrying both a K20 and a Xeon Phi (node 16's role in the
    # paper), plus one GTX480 node (node 3's role).
    phi_node = next(n for n in cluster.nodes
                    if set(n.device_names) == {"k20", "xeon_phi"})
    gtx_node = next(n for n in cluster.nodes if n.device_names == ["gtx480"])

    span = trace.span()
    t0, t1 = span * 0.45, span * 0.55  # mid-run zoom window
    zoomed = gantt_zoomed(trace, [gtx_node.name, phi_node.name],
                          t0=t0, t1=t1, width=width)
    overview = gantt_overview(trace, width=width)

    k20 = next(d for d in phi_node.devices if d.spec.name == "k20")
    phi = next(d for d in phi_node.devices if d.spec.name == "xeon_phi")
    k20_jobs = k20.launch_counts.get("kmeans", 0)
    phi_jobs = phi.launch_counts.get("kmeans", 0)

    rows = [
        ["kernel lanes", len(kernel_lanes(trace))],
        ["trace activities", len(trace)],
        ["makespan (s)", round(result.stats.makespan_s, 2)],
        [f"{phi_node.name} k20 jobs", k20_jobs],
        [f"{phi_node.name} xeon_phi jobs", phi_jobs],
        ["k20:phi job ratio", round(k20_jobs / max(phi_jobs, 1), 2)],
    ]
    return ExperimentResult(
        experiment_id="fig16_17",
        title="Gantt charts of heterogeneous k-means execution",
        headers=["metric", "value"],
        rows=rows,
        extra={
            "fig16": zoomed,
            "fig17": overview,
            #: the interval view the charts are drawn from
            "trace": trace,
            #: the raw event stream behind the view
            "events": list(cluster.obs.events),
            "k20_jobs": k20_jobs,
            "phi_jobs": phi_jobs,
        },
        metrics=result.stats.registry,
    )
