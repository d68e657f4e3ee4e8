"""Sweep cell model: what one independent simulation run *is*.

A sweep executes many independent ``(system, app, cluster, seed, config)``
cells — the grid behind every scalability figure, heterogeneity table and
ablation.  This module defines the declarative, picklable description of
one cell (:class:`RunSpec` + :class:`ClusterSpec`), the deterministic
payload a cell produces (:class:`CellResult`), and :func:`run_cell`, the
single function that turns the former into the latter.

Design constraints:

* **picklable** — cells cross a ``multiprocessing`` boundary, so they are
  frozen dataclasses of primitives (no app objects, no cluster objects,
  no callables);
* **deterministic** — :class:`CellResult` carries only values derived from
  the simulation (virtual-time makespan, GFLOPS, counter totals), never
  host wall-clock, so a cached result is byte-identical to a fresh run
  with the same seed and the parallel sweep reproduces the sequential one
  cell for cell;
* **no import cycles** — the experiment modules build :class:`RunSpec`
  grids, so this module must not import them at module level;
  :func:`run_cell` resolves app builders and cluster constructors lazily.
"""

from __future__ import annotations

import fnmatch
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

__all__ = ["ClusterSpec", "RunSpec", "CellResult", "run_cell",
           "run_cells_inline", "config_items"]

#: systems a cell can run on (``repro.experiments.scalability.SYSTEMS``
#: plus ``"graph"`` — the DAG executor of :mod:`repro.graph`)
SYSTEMS = ("satin", "cashmere-unopt", "cashmere-opt", "graph")

#: named interconnects resolvable from a spec (the specs themselves are not
#: picklable-friendly config, so cells carry the *name*)
_NETWORKS = ("qdr-infiniband", "gigabit-ethernet")


@dataclass(frozen=True)
class ClusterSpec:
    """Declarative, picklable description of the cluster a cell runs on.

    ``kind`` selects a DAS-4 constructor from :mod:`repro.cluster.das4`:

    ========== ==================================================
    kind        meaning
    ========== ==================================================
    gtx480      ``gtx480_cluster(num_nodes)``
    satin_cpu   ``satin_cpu_cluster(num_nodes)``
    het_small   Table III raytracer/matmul configuration
    het_kmeans  Table III k-means configuration
    het_nbody   Table III n-body configuration
    nodes       explicit per-node device tuples (``nodes`` field)
    ========== ==================================================
    """

    kind: str
    num_nodes: int = 0
    #: per-node device-name tuples, only for ``kind="nodes"``
    nodes: Tuple[Tuple[str, ...], ...] = ()
    network: str = "qdr-infiniband"
    device_overlap: bool = True
    #: cosmetic name for ``kind="nodes"`` clusters (not part of cache keys)
    name: str = ""

    def build(self):
        """Materialize the :class:`~repro.cluster.das4.ClusterConfig`."""
        import dataclasses

        from ..cluster.das4 import (
            ClusterConfig,
            gtx480_cluster,
            heterogeneous_kmeans,
            heterogeneous_nbody,
            heterogeneous_small,
            satin_cpu_cluster,
        )
        from ..sim.network import GIGABIT_ETHERNET, QDR_INFINIBAND

        network = {"qdr-infiniband": QDR_INFINIBAND,
                   "gigabit-ethernet": GIGABIT_ETHERNET}.get(self.network)
        if network is None:
            raise ValueError(f"unknown network {self.network!r}; "
                             f"known: {_NETWORKS}")
        if self.kind == "gtx480":
            config = gtx480_cluster(self.num_nodes, network=network)
        elif self.kind == "satin_cpu":
            config = satin_cpu_cluster(self.num_nodes, network=network)
        elif self.kind == "het_small":
            config = heterogeneous_small(network=network)
        elif self.kind == "het_kmeans":
            config = heterogeneous_kmeans(network=network)
        elif self.kind == "het_nbody":
            config = heterogeneous_nbody(network=network)
        elif self.kind == "nodes":
            config = ClusterConfig(
                name=self.name or "custom",
                nodes=[tuple(devs) for devs in self.nodes],
                network=network)
        else:
            raise ValueError(f"unknown cluster kind {self.kind!r}")
        if not self.device_overlap:
            config = dataclasses.replace(config, device_overlap=False)
        return config

    def to_dict(self) -> Dict[str, Any]:
        """Canonical form for cache keys (cosmetic ``name`` excluded)."""
        return {
            "kind": self.kind,
            "num_nodes": self.num_nodes,
            "nodes": [list(devs) for devs in self.nodes],
            "network": self.network,
            "device_overlap": self.device_overlap,
        }


def config_items(**kwargs: Any) -> Tuple[Tuple[str, Any], ...]:
    """Normalize runtime-config overrides into the sorted tuple cells carry."""
    return tuple(sorted(kwargs.items()))


@dataclass(frozen=True)
class RunSpec:
    """One sweep cell: everything needed to reproduce one simulation run.

    ``config`` is a sorted tuple of ``(field, value)`` overrides applied to
    the run's :class:`~repro.satin.runtime.RuntimeConfig` /
    :class:`~repro.core.runtime.CashmereConfig` (values must be JSON
    primitives).  ``label`` is cosmetic — progress lines and error reports —
    and deliberately not part of the cache identity.
    """

    system: str           #: one of :data:`SYSTEMS`
    app: str              #: key of ``repro.experiments.scalability.APP_BUILDERS``
    cluster: ClusterSpec
    seed: int = 42
    config: Tuple[Tuple[str, Any], ...] = ()
    label: str = field(default="", compare=False)

    def display(self) -> str:
        if self.label:
            return self.label
        where = self.cluster.kind + (
            f"-{self.cluster.num_nodes}" if self.cluster.num_nodes else "")
        return f"{self.system}/{self.app}/{where}/seed{self.seed}"

    def to_dict(self) -> Dict[str, Any]:
        """Canonical form for cache keys (``label`` excluded)."""
        return {
            "system": self.system,
            "app": self.app,
            "cluster": self.cluster.to_dict(),
            "seed": self.seed,
            "config": [[k, v] for k, v in self.config],
        }


@dataclass(frozen=True)
class CellResult:
    """Deterministic payload of one executed cell.

    Every field derives from the simulation alone — virtual time, counter
    totals — so for a fixed :class:`RunSpec` the result is identical no
    matter when, where or alongside what the cell ran.  Host wall-clock
    lives in the cache record's metadata, never here.
    """

    makespan_s: float
    gflops: float
    total_leaf_flops: float
    steal_attempts: int
    steal_successes: int
    total_jobs: int
    total_leaves: int
    cpu_fallbacks: int
    sim_events: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "makespan_s": self.makespan_s,
            "gflops": self.gflops,
            "total_leaf_flops": self.total_leaf_flops,
            "steal_attempts": self.steal_attempts,
            "steal_successes": self.steal_successes,
            "total_jobs": self.total_jobs,
            "total_leaves": self.total_leaves,
            "cpu_fallbacks": self.cpu_fallbacks,
            "sim_events": self.sim_events,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "CellResult":
        return cls(**{k: d[k] for k in (
            "makespan_s", "gflops", "total_leaf_flops", "steal_attempts",
            "steal_successes", "total_jobs", "total_leaves", "cpu_fallbacks",
            "sim_events")})


def _maybe_inject_failure(spec: RunSpec) -> None:
    """Test hook: ``REPRO_SWEEP_FAIL`` is an fnmatch pattern over cell
    labels; matching cells raise before running.  This is how the test
    suite simulates worker crashes and poisoned cells without patching
    code across a process boundary."""
    pattern = os.environ.get("REPRO_SWEEP_FAIL")
    if pattern and fnmatch.fnmatch(spec.display(), pattern):
        raise RuntimeError(
            f"injected failure (REPRO_SWEEP_FAIL={pattern!r})")


def run_cell(spec: RunSpec) -> Tuple[CellResult, float]:
    """Execute one cell; returns ``(result, host_wall_seconds)``.

    This is the *only* execution path — the inline default, the worker
    processes of the parallel engine and the cache-population path all go
    through here, which is what makes "parallel result == sequential
    result" a structural property rather than a hope.
    """
    from ..apps.base import run_cashmere, run_satin
    from ..core.runtime import CashmereConfig
    from ..experiments.scalability import APP_BUILDERS
    from ..satin.runtime import RuntimeConfig

    _maybe_inject_failure(spec)
    if spec.system == "graph":
        return _run_graph_cell(spec)
    if spec.app not in APP_BUILDERS:
        raise ValueError(f"unknown application {spec.app!r}; known: "
                         f"{sorted(APP_BUILDERS)}")
    builder = APP_BUILDERS[spec.app]
    cluster_config = spec.cluster.build()
    overrides = dict(spec.config)
    # analyze: ignore[REP102] per-cell host wall-clock (cache metadata and
    # the report's wall_s column); cell results come from virtual time
    start = time.perf_counter()
    if spec.system == "satin":
        app = builder(True)
        result, _runtime, cluster = run_satin(
            app, cluster_config, app.root_task(),
            config=RuntimeConfig(seed=spec.seed, **overrides),
            return_runtime=True)
    elif spec.system in ("cashmere-unopt", "cashmere-opt"):
        app = builder(False)
        result, _runtime, cluster = run_cashmere(
            app, cluster_config, app.root_task(),
            optimized=(spec.system == "cashmere-opt"),
            config=CashmereConfig(seed=spec.seed, **overrides),
            return_runtime=True)
    else:
        raise ValueError(f"unknown system {spec.system!r}; known: {SYSTEMS}")
    # analyze: ignore[REP102] see above: host-side cell timing only
    wall_s = time.perf_counter() - start
    stats = result.stats
    cell = CellResult(
        makespan_s=stats.makespan_s,
        gflops=stats.gflops(),
        total_leaf_flops=stats.total_leaf_flops,
        steal_attempts=stats.steal_attempts,
        steal_successes=stats.steal_successes,
        total_jobs=stats.total_jobs,
        total_leaves=stats.total_leaves,
        cpu_fallbacks=stats.cpu_fallbacks,
        sim_events=cluster.env.events_processed,
    )
    return cell, wall_s


def _run_graph_cell(spec: RunSpec) -> Tuple[CellResult, float]:
    """Execute one ``system == "graph"`` cell on the DAG executor.

    ``spec.app`` resolves through :data:`repro.graph.apps.GRAPH_APPS`;
    ``config`` carries ``scheduler_policy`` plus any builder knobs
    (``scale``, ``tiles``, ``passes``, ...).  Jobs == leaves == graph
    nodes and the steal counters are zero: the DAG executor places every
    node directly, nothing is stolen.
    """
    from ..cluster.das4 import SimCluster
    from ..graph.apps import GRAPH_APPS
    from ..graph.executor import GraphConfig, GraphRuntime

    if spec.app not in GRAPH_APPS:
        raise ValueError(f"unknown graph application {spec.app!r}; known: "
                         f"{sorted(GRAPH_APPS)}")
    overrides = dict(spec.config)
    policy = overrides.pop("scheduler_policy",
                           GraphConfig.DEFAULT_SCHEDULER_POLICY)
    graph = GRAPH_APPS[spec.app](**overrides)
    cluster = SimCluster(spec.cluster.build())
    # analyze: ignore[REP102] per-cell host wall-clock (cache metadata)
    start = time.perf_counter()
    runtime = GraphRuntime(cluster, graph,
                           GraphConfig(seed=spec.seed,
                                       scheduler_policy=policy))
    res = runtime.run()
    # analyze: ignore[REP102] host-side cell timing only
    wall_s = time.perf_counter() - start
    cell = CellResult(
        makespan_s=res.makespan_s,
        gflops=res.gflops,
        total_leaf_flops=res.total_flops,
        steal_attempts=0,
        steal_successes=0,
        total_jobs=res.nodes_run,
        total_leaves=res.nodes_run,
        cpu_fallbacks=0,
        sim_events=cluster.env.events_processed,
    )
    return cell, wall_s


def run_cells_inline(cells: Sequence[RunSpec]) -> List[CellResult]:
    """Sequential in-process cell runner — the default ``cell_runner``.

    Experiment runners call their ``cell_runner`` with the full grid; when
    none was injected this preserves the historical behavior exactly (same
    process, same order, no cache).
    """
    return [run_cell(spec)[0] for spec in cells]
