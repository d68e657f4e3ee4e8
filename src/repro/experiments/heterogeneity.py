"""Table III and Fig. 15: heterogeneous executions.

Table III reports the performance (GFLOPS) of the four applications on
heterogeneous DAS-4 configurations; Fig. 15 the *efficiency*: measured
performance divided by the maximum attainable — the sum over the
configuration's nodes of each node type's one-node performance (Sec. IV).
Both use optimized kernels.

Expected shape (Sec. V-C): heterogeneous efficiency comparable to the
homogeneous (16x GTX480) runs, >90 % for raytracer, k-means and n-body;
lower for the communication-bound matmul.

Each application's bookkeeping is a small config grid — the heterogeneous
run, one one-node reference run per node type, and the homogeneous
16-node reference — enumerated as sweep cells and executed through the
runner's ``cell_runner`` (inline by default; the pooled, cached engine
under ``python -m repro sweep``, where the one-node references of Table
III and Fig. 15 dedupe against each other via the result cache).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..sweep.spec import CellResult, ClusterSpec, RunSpec, run_cells_inline
from .harness import ExperimentResult, experiment

__all__ = ["HeterogeneityResult", "heterogeneous_run", "table3", "fig15"]

#: application -> the :class:`ClusterSpec` kind of its heterogeneous
#: configuration (Table III)
_HET_KINDS = {
    "raytracer": "het_small",
    "matmul": "het_small",
    "k-means": "het_kmeans",
    "n-body": "het_nbody",
}


@dataclass
class HeterogeneityResult:
    app: str
    config_name: str
    device_counts: Dict[str, int]
    het_gflops: float
    max_attainable_gflops: float
    het_efficiency: float
    homogeneous_gflops: float
    homogeneous_efficiency: float


@dataclass
class _HetPlan:
    """One app's cell grid plus the bookkeeping to interpret its results."""

    app: str
    config_name: str
    device_counts: Dict[str, int]
    #: node-device-tuple -> how many such nodes the het config has,
    #: in the config's node order (the FP summation order of Sec. IV's
    #: max-attainable figure)
    node_types: Dict[Tuple[str, ...], int]
    roles: List[object]
    specs: List[RunSpec]


def _one_node_cell(app_name: str, devices: Tuple[str, ...],
                   seed: int) -> RunSpec:
    name = f"one-{'-'.join(devices)}"
    return RunSpec(
        system="cashmere-opt", app=app_name,
        cluster=ClusterSpec(kind="nodes", nodes=(tuple(devices),), name=name),
        seed=seed, label=f"{app_name}/{name}/seed{seed}")


def _het_plan(app_name: str, seed: int, homogeneous_nodes: int) -> _HetPlan:
    cluster = ClusterSpec(kind=_HET_KINDS[app_name])
    config = cluster.build()
    node_types: Dict[Tuple[str, ...], int] = {}
    for devices in config.nodes:
        node_types[devices] = node_types.get(devices, 0) + 1
    roles: List[object] = ["het"]
    specs: List[RunSpec] = [RunSpec(
        system="cashmere-opt", app=app_name, cluster=cluster, seed=seed,
        label=f"{app_name}/{config.name}/seed{seed}")]
    for devices in node_types:
        roles.append(("one", devices))
        specs.append(_one_node_cell(app_name, devices, seed))
    roles.append("homo")
    specs.append(RunSpec(
        system="cashmere-opt", app=app_name,
        cluster=ClusterSpec(kind="gtx480", num_nodes=homogeneous_nodes),
        seed=seed,
        label=f"{app_name}/gtx480-{homogeneous_nodes}/seed{seed}"))
    # Homogeneous efficiency needs the one-node GTX480 reference; every
    # Table III configuration contains GTX480 nodes, so it is already in
    # the grid — assert rather than silently double-run.
    assert ("one", ("gtx480",)) in roles
    return _HetPlan(app=app_name, config_name=config.name,
                    device_counts=config.device_counts(),
                    node_types=node_types, roles=roles, specs=specs)


def _assemble(plan: _HetPlan, results: Sequence[CellResult],
              homogeneous_nodes: int) -> HeterogeneityResult:
    by_role = dict(zip(plan.roles, results))
    het_gflops = by_role["het"].gflops
    max_attainable = 0.0
    for devices, count in plan.node_types.items():
        max_attainable += count * by_role[("one", devices)].gflops
    homo_gflops = by_role["homo"].gflops
    one_gtx480 = by_role[("one", ("gtx480",))].gflops
    return HeterogeneityResult(
        app=plan.app,
        config_name=plan.config_name,
        device_counts=plan.device_counts,
        het_gflops=het_gflops,
        max_attainable_gflops=max_attainable,
        het_efficiency=het_gflops / max_attainable if max_attainable else 0.0,
        homogeneous_gflops=homo_gflops,
        homogeneous_efficiency=(homo_gflops / (homogeneous_nodes * one_gtx480)
                                if one_gtx480 else 0.0),
    )


def heterogeneous_run(app_name: str, seed: int = 42,
                      homogeneous_nodes: int = 16,
                      cell_runner: Optional[Callable[
                          [Sequence[RunSpec]], List[CellResult]]] = None
                      ) -> HeterogeneityResult:
    """One heterogeneous execution with the efficiency bookkeeping of Sec. IV."""
    plan = _het_plan(app_name, seed, homogeneous_nodes)
    results = (cell_runner or run_cells_inline)(plan.specs)
    return _assemble(plan, results, homogeneous_nodes)


def _run_all(seed: int, cell_runner, homogeneous_nodes: int = 16
             ) -> Dict[str, HeterogeneityResult]:
    """All four applications' grids in one batch (one pool submission)."""
    plans = [_het_plan(app_name, seed, homogeneous_nodes)
             for app_name in _HET_KINDS]
    all_specs = [spec for plan in plans for spec in plan.specs]
    all_results = (cell_runner or run_cells_inline)(all_specs)
    out: Dict[str, HeterogeneityResult] = {}
    cursor = 0
    for plan in plans:
        chunk = all_results[cursor:cursor + len(plan.specs)]
        cursor += len(plan.specs)
        out[plan.app] = _assemble(plan, chunk, homogeneous_nodes)
    return out


def _config_label(counts: Dict[str, int]) -> str:
    return ", ".join(f"{n} {dev}" for dev, n in sorted(counts.items()))


@experiment("table3")
def table3(seed: int = 42, cell_runner=None) -> ExperimentResult:
    """Table III: performance of the heterogeneous executions."""
    results = _run_all(seed, cell_runner)
    rows = []
    for app_name, r in results.items():
        rows.append([app_name, round(r.het_gflops, 0),
                     _config_label(r.device_counts)])
    return ExperimentResult(
        experiment_id="table3",
        title="Performance of the heterogeneous executions",
        headers=["application", "performance (GFLOPS)", "configuration"],
        rows=rows,
        extra={"results": results},
    )


@experiment("fig15")
def fig15(seed: int = 42, cell_runner=None) -> ExperimentResult:
    """Fig. 15: efficiency of heterogeneous vs homogeneous executions."""
    results = _run_all(seed, cell_runner)
    rows = []
    for app_name, r in results.items():
        rows.append([app_name,
                     round(100 * r.het_efficiency, 1),
                     round(100 * r.homogeneous_efficiency, 1)])
    return ExperimentResult(
        experiment_id="fig15",
        title="Efficiency of heterogeneous executions (percent)",
        headers=["application", "heterogeneous eff. %", "homogeneous eff. %"],
        rows=rows,
        extra={"results": results},
    )
