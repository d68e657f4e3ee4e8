"""The benchmark's four workloads.

Every workload runs in three phases, each in a fresh child process
(``bench/child.py``):

* ``inputs(seed, scale)`` builds the inputs from the seed with plain numpy
  and never imports ``repro`` (untimed);
* ``setup(inputs)`` imports ``repro`` and builds the cluster, application
  and runtime, up to and including ``begin()`` (timed as ``setup_s``);
* ``run(state)`` drives the simulation to completion, including deferred
  leaf numerics and stream serialization (timed as ``wall_s``).

``counters(state)`` then reads the program's own counters and
``check(inputs, state, counters, reference)`` validates the outputs; both
are untimed.  Nothing here instruments ``src/``: the per-layer split comes
from the counters the program already keeps and from ``bench/trace.py``.

``scale`` shrinks a workload for the benchmark's own tests; the benchmark
itself always runs at ``scale=1``.
"""

from __future__ import annotations

import hashlib
from types import SimpleNamespace
from typing import Any, Dict, List, Optional

import numpy as np

__all__ = ["WORKLOADS", "COUNTERS", "Workload"]

#: exact per-repeat counters, reported under these names as layer metrics
COUNTERS = (
    "sim.makespan",
    "sim.engine.events",
    "sim.network.messages",
    "sim.network.bytes",
    "satin.steal.attempts",
    "satin.steal.success_ratio",
    "satin.jobs",
    "satin.leaves",
    "core.scheduler.decisions",
    "core.cpu_fallbacks",
    "core.out_of_core_launches",
    "devices.utilization",
    "graph.nodes_run",
    "graph.cross_device_bytes",
    "obs.events",
    "obs.stream_bytes",
)


def _scaled(value: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(round(value * scale)))


def _registry_total(registry: Any, name: str) -> float:
    metric = registry.get(name)
    return float(metric.total) if metric is not None else 0.0


def _gauge_mean(registry: Any, name: str) -> float:
    metric = registry.get(name)
    values = [v for _, v in metric.items()] if metric is not None else []
    return sum(values) / len(values) if values else 0.0


def _graph_device_utilization(runs: List[Any]) -> float:
    """Mean kernel-engine busy fraction over every device of every DAG run.

    ``runs`` holds ``(cluster, makespan_s)`` pairs.  The DAG executor
    records no gauges, so this applies the formula of the Satin/Cashmere
    ``device_utilization`` gauge; once the executor records that gauge,
    read it as ``_gauge_mean`` does for the runtime workloads.
    """
    utils = [min(dev.busy_kernel_s / makespan, 1.0)
             for cluster, makespan in runs if makespan > 0
             for node in cluster.nodes for dev in node.devices]
    return sum(utils) / len(utils) if utils else 0.0


def _runtime_counters(runtime: Any, cluster: Any) -> Dict[str, float]:
    """Counters of one Satin/Cashmere run, read from its metrics registry."""
    reg = runtime.stats.registry
    scheduler = getattr(runtime, "scheduler", None)
    makespan = runtime.stats.makespan_s
    attempts = _registry_total(reg, "satin_steal_attempts_total")
    successes = _registry_total(reg, "satin_steal_successes_total")
    out = dict.fromkeys(COUNTERS, 0.0)
    out.update({
        "sim.makespan": makespan,
        "sim.engine.events": float(cluster.env.events_processed),
        "sim.network.messages": float(cluster.network.total_messages),
        "sim.network.bytes": float(cluster.network.total_bytes),
        "satin.steal.attempts": attempts,
        # useful steals per attempt (base: attempts): wasted steal work
        "satin.steal.success_ratio": successes / attempts if attempts else 0.0,
        "satin.jobs": _registry_total(reg, "satin_jobs_executed_total"),
        "satin.leaves": _registry_total(reg, "satin_leaves_executed_total"),
        "core.scheduler.decisions": float(
            scheduler.decisions if scheduler is not None else 0),
        "core.cpu_fallbacks": _registry_total(
            reg, "cashmere_cpu_fallbacks_total"),
        "core.out_of_core_launches": _registry_total(
            reg, "cashmere_out_of_core_launches_total"),
        "devices.utilization": _gauge_mean(reg, "device_utilization"),
    })
    return out


class Workload:
    """One benchmark workload (see the module docstring for the phases)."""

    name = ""

    def inputs(self, seed: int, scale: float) -> Dict[str, Any]:
        raise NotImplementedError

    def setup(self, inputs: Dict[str, Any]) -> SimpleNamespace:
        raise NotImplementedError

    def run(self, state: SimpleNamespace) -> None:
        raise NotImplementedError

    def counters(self, state: SimpleNamespace) -> Dict[str, float]:
        raise NotImplementedError

    def check(self, inputs: Dict[str, Any], state: SimpleNamespace,
              counters: Dict[str, float],
              reference: Optional[Any]) -> List[str]:
        """Validation failures of one repeat (empty = correct)."""
        return []

    def reference(self, inputs: Dict[str, Any]) -> Optional[Any]:
        """Sequential reference output, computed once per seed (or None)."""
        return None

    def digest(self, state: SimpleNamespace) -> Optional[str]:
        """Hash of the run's obs stream, where the workload records one."""
        return None


class _RuntimeWorkload(Workload):
    """A Satin or Cashmere run, driven through ``begin()``/``complete()``."""

    def run(self, state: SimpleNamespace) -> None:
        state.cluster.env.run(until=state.root)
        state.result = state.runtime.complete(state.root)

    def counters(self, state: SimpleNamespace) -> Dict[str, float]:
        return _runtime_counters(state.runtime, state.cluster)


def _begin(app: Any, cluster: Any, runtime: Any) -> SimpleNamespace:
    return SimpleNamespace(app=app, cluster=cluster, runtime=runtime,
                           root=runtime.begin(app.root_task()))


def _begin_cashmere(app: Any, cluster_config: Any,
                    seed: int) -> SimpleNamespace:
    from repro.cluster.das4 import SimCluster
    from repro.core.runtime import CashmereConfig, CashmereRuntime
    cluster = SimCluster(cluster_config)
    return _begin(app, cluster, CashmereRuntime(
        cluster, app, app.build_library(optimized=True),
        CashmereConfig(seed=seed)))


def _no_fallbacks(counters: Dict[str, float]) -> List[str]:
    return [f"{name} is {counters[name]:.0f}, expected 0"
            for name in ("core.cpu_fallbacks", "core.out_of_core_launches")
            if counters[name] != 0]


# ----------------------------------------------------------------------
# raytracer workloads (Satin CPU and Cashmere devices)
# ----------------------------------------------------------------------
class _Raytracer(_RuntimeWorkload):
    WIDTH = 0
    HEIGHT = 0
    SAMPLES = 0
    LEAF_ROWS = 0

    def inputs(self, seed: int, scale: float) -> Dict[str, Any]:
        rng = np.random.default_rng(seed)
        # a power-of-two leaf count keeps every leaf exactly LEAF_ROWS tall
        leaves = _scaled(self.HEIGHT // self.LEAF_ROWS, scale, floor=2)
        leaves = 1 << (leaves.bit_length() - 1)
        return {
            "seed": seed,
            # the render seed feeds the kernel's per-pixel RNG streams
            "render_seed": int(rng.integers(1, 2**31 - 1)),
            "width": self.WIDTH,
            "height": leaves * self.LEAF_ROWS,
            "samples": _scaled(self.SAMPLES, scale),
            "leaf_rows": self.LEAF_ROWS,
        }

    def _app(self, inputs: Dict[str, Any]) -> Any:
        from repro.apps.raytracer import RaytracerApp
        return RaytracerApp(width=inputs["width"], height=inputs["height"],
                            samples=inputs["samples"],
                            leaf_rows=inputs["leaf_rows"],
                            seed=inputs["render_seed"])

    def check(self, inputs, state, counters, reference) -> List[str]:
        from repro.apps.raytracer import RayTask
        errors = []
        leaves = inputs["height"] // inputs["leaf_rows"]
        if counters["satin.leaves"] != leaves:
            errors.append(f"satin.leaves {counters['satin.leaves']:.0f} "
                          f"!= height/leaf_rows {leaves}")
        # a binary tree has 2*leaves-1 tasks; all but the root run as jobs
        if counters["satin.jobs"] != 2 * leaves - 2:
            errors.append(f"satin.jobs {counters['satin.jobs']:.0f} "
                          f"!= 2*leaves-2 {2 * leaves - 2}")
        want = state.app.leaf_flops(RayTask(0, 1)) * inputs["height"]
        got = _registry_total(state.runtime.stats.registry,
                              "satin_leaf_flops_total")
        if abs(got - want) > 1e-9 * want:
            errors.append(f"total leaf flops {got!r} != per-row flops x "
                          f"height {want!r}")
        return errors


class SatinSteal(_Raytracer):
    """Satin CPU raytracer: the tail of a paper-scale run.

    Eight paper-width leaves (16384 pixels x 8 rows) on 8 CPU-only nodes
    (64 workers): 56 workers idle-steal for the whole leaf time.  Every
    seed has the same number of idle workers, so the steal-storm volume
    (and host time) is stable across seeds, unlike a whole paper-scale
    render whose tail imbalance, and event count, swings with the seed.
    """

    name = "satin-steal"
    WIDTH = 16384
    HEIGHT = 64
    SAMPLES = 24
    LEAF_ROWS = 8
    NODES = 8

    def setup(self, inputs: Dict[str, Any]) -> SimpleNamespace:
        from repro.cluster.das4 import SimCluster, satin_cpu_cluster
        from repro.satin.runtime import RuntimeConfig, SatinRuntime
        app = self._app(inputs)
        cluster = SimCluster(satin_cpu_cluster(self.NODES))
        return _begin(app, cluster, SatinRuntime(
            cluster, app, RuntimeConfig(seed=inputs["seed"])))


class CashmereHet(_Raytracer):
    """Cashmere optimized raytracer on the Table III ``het_small`` mix."""

    name = "cashmere-het"
    WIDTH = 8192
    HEIGHT = 2048
    # few samples keep the tail's idle-steal storm short, so the per-launch
    # work (not the seed-dependent tail) sets the host time
    SAMPLES = 8
    LEAF_ROWS = 16

    def setup(self, inputs: Dict[str, Any]) -> SimpleNamespace:
        from repro.cluster.das4 import heterogeneous_small
        return _begin_cashmere(self._app(inputs), heterogeneous_small(),
                               inputs["seed"])

    def check(self, inputs, state, counters, reference) -> List[str]:
        errors = super().check(inputs, state, counters, reference)
        return errors + _no_fallbacks(counters)


# ----------------------------------------------------------------------
# k-means with real data
# ----------------------------------------------------------------------
class KMeansReal(_RuntimeWorkload):
    """Cashmere optimized k-means on real points, on ``het_kmeans``."""

    name = "kmeans-real"
    POINTS = 1 << 17
    K = 64
    D = 8
    ITERATIONS = 3
    LEAF_POINTS = 1 << 12
    #: Victim-selection seed, fixed: the simulated schedule depends only on
    #: sizes, never on point values, and the schedule decides how many
    #: leaves each ``leaf_batch`` call stacks, which sets peak RSS.  A
    #: per-seed schedule would make peak RSS swing by a third across seeds.
    SCHEDULE_SEED = 43
    #: max abs difference allowed against the sequential reference
    TOLERANCE = 1e-9

    def inputs(self, seed: int, scale: float) -> Dict[str, Any]:
        rng = np.random.default_rng(seed)
        leaves = _scaled(self.POINTS // self.LEAF_POINTS, scale, floor=2)
        n = leaves * self.LEAF_POINTS
        # k Gaussian blobs in the unit cube, so the clustering has structure
        centers = rng.random((self.K, self.D))
        labels = rng.integers(self.K, size=n)
        data = centers[labels] + 0.05 * rng.standard_normal((n, self.D))
        init = data[rng.choice(n, size=self.K, replace=False)].copy()
        return {"seed": self.SCHEDULE_SEED, "data": data, "centroids": init}

    def setup(self, inputs: Dict[str, Any]) -> SimpleNamespace:
        from repro.apps.kmeans import KMeansApp
        from repro.cluster.das4 import heterogeneous_kmeans
        data = inputs["data"]
        app = KMeansApp(n_points=data.shape[0], k=self.K, d=self.D,
                        iterations=self.ITERATIONS,
                        leaf_points=self.LEAF_POINTS, data=data,
                        centroids=inputs["centroids"].copy())
        return _begin_cashmere(app, heterogeneous_kmeans(), inputs["seed"])

    def reference(self, inputs: Dict[str, Any]) -> List[List[List[float]]]:
        """Centroids after each iteration of a sequential Lloyd loop."""
        from repro.apps.kmeans import reference_kmeans_iteration
        data = inputs["data"]
        centroids = inputs["centroids"].copy()
        history = []
        for _ in range(self.ITERATIONS):
            sums = np.zeros_like(centroids)
            counts = np.zeros(self.K)
            # chunked only to bound the (points, k, d) temporary
            for lo in range(0, data.shape[0], self.LEAF_POINTS):
                _, s, c = reference_kmeans_iteration(
                    data[lo:lo + self.LEAF_POINTS], centroids)
                sums += s
                counts += c
            centroids = np.where(counts[:, None] > 0,
                                 sums / np.maximum(counts[:, None], 1.0),
                                 centroids)
            history.append(centroids.tolist())
        return history

    def check(self, inputs, state, counters, reference) -> List[str]:
        errors = _no_fallbacks(counters)
        history = state.app.centroid_history
        want = len(reference) if reference is not None else 0
        if len(history) != want:
            return errors + [f"{len(history)} centroid iterations, the "
                             f"reference has {want}"]
        for i, (got, want) in enumerate(zip(history, reference)):
            diff = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
            if not diff <= self.TOLERANCE:
                errors.append(f"iteration {i}: centroids differ from the "
                              f"sequential reference by {diff:.3g}")
        return errors


# ----------------------------------------------------------------------
# DAG jobs
# ----------------------------------------------------------------------
class GraphDag(Workload):
    """Both compound DAG apps under ``makespan-lookahead``, obs bus on."""

    name = "graph-dag"
    PATH_TRACER = {"tiles": 32, "passes": 16}
    KMEANS_PP = {"chunks": 32, "seed_rounds": 4, "iterations": 8}
    POLICY = "makespan-lookahead"

    def inputs(self, seed: int, scale: float) -> Dict[str, Any]:
        # The DAG executor draws no random numbers: the graphs are the whole
        # input and the seed only reaches GraphConfig.
        return {
            "seed": seed,
            "path-tracer": {k: _scaled(v, scale, floor=2)
                            for k, v in self.PATH_TRACER.items()},
            "kmeans-pp": {k: _scaled(v, scale, floor=1)
                          for k, v in self.KMEANS_PP.items()},
        }

    def setup(self, inputs: Dict[str, Any]) -> SimpleNamespace:
        from repro.cluster.das4 import SimCluster, heterogeneous_kmeans
        from repro.graph.apps import GRAPH_APPS
        from repro.graph.executor import GraphConfig, GraphRuntime
        runs = []
        for app in ("path-tracer", "kmeans-pp"):
            graph = GRAPH_APPS[app](**inputs[app])
            cluster = SimCluster(heterogeneous_kmeans(), obs_enabled=True)
            runtime = GraphRuntime(cluster, graph, GraphConfig(
                seed=inputs["seed"], scheduler_policy=self.POLICY))
            runs.append(SimpleNamespace(graph=graph, cluster=cluster,
                                        runtime=runtime))
        return SimpleNamespace(runs=runs)

    def run(self, state: SimpleNamespace) -> None:
        for r in state.runs:
            r.result = r.runtime.run()
            r.stream = r.cluster.obs.serialize()

    def counters(self, state: SimpleNamespace) -> Dict[str, float]:
        runs = state.runs
        out = dict.fromkeys(COUNTERS, 0.0)
        out.update({
            "sim.makespan": sum(r.result.makespan_s for r in runs),
            "sim.engine.events": float(sum(r.cluster.env.events_processed
                                           for r in runs)),
            "sim.network.messages": float(sum(
                r.cluster.network.total_messages for r in runs)),
            "sim.network.bytes": float(sum(r.cluster.network.total_bytes
                                           for r in runs)),
            "devices.utilization": _graph_device_utilization(
                [(r.cluster, r.result.makespan_s) for r in runs]),
            "graph.nodes_run": float(sum(r.result.nodes_run for r in runs)),
            "graph.cross_device_bytes": float(sum(
                r.result.cross_device_bytes for r in runs)),
            "obs.events": float(sum(len(r.cluster.obs.events) for r in runs)),
            "obs.stream_bytes": float(sum(len(r.stream.encode())
                                          for r in runs)),
        })
        return out

    def digest(self, state: SimpleNamespace) -> str:
        """sha256 over both serialized obs streams (determinism check)."""
        h = hashlib.sha256()
        for r in state.runs:
            h.update(r.stream.encode())
            h.update(b"\0")
        return h.hexdigest()

    def check(self, inputs, state, counters, reference) -> List[str]:
        return [f"{r.graph.name}: nodes_run {r.result.nodes_run} != graph "
                f"size {len(r.graph)}"
                for r in state.runs if r.result.nodes_run != len(r.graph)]


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (SatinSteal(), CashmereHet(), KMeansReal(),
                        GraphDag())}
