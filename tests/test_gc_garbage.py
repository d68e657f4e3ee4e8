"""The runtimes leave no cyclic garbage.

Every object the simulator builds per event, claim, condition or launch
must be freed by reference counting alone: a reference cycle per claim or
per cost analysis leaves thousands of objects per run for the cyclic
collector.  Each test runs one small application with ``gc.DEBUG_SAVEALL``,
which keeps everything the collector frees in ``gc.garbage``, and checks
that none of it is a ``repro`` object or function.
"""

from __future__ import annotations

import gc
import types

from repro.apps.base import run_cashmere
from repro.apps.kmeans import KMeansApp
from repro.cluster.das4 import ClusterConfig, SimCluster, heterogeneous_kmeans
from repro.core.runtime import CashmereConfig
from repro.graph import GraphConfig, GraphRuntime
from repro.graph.apps import GRAPH_APPS


def _repro_garbage(run):
    """Run ``run()`` and return the ``repro`` objects and functions the
    cyclic collector would have freed meanwhile.  What ``run()`` returns
    (the runtime) stays alive until the collection is over, so only what
    the run dropped counts."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        kept = run()
        gc.collect()
        garbage = list(gc.garbage)
        del kept
    finally:
        gc.set_debug(0)
        gc.garbage.clear()

    def defined_in_repro(obj):
        owner = obj if isinstance(obj, types.FunctionType) else type(obj)
        return (owner.__module__ or "").startswith("repro")

    return [obj for obj in garbage if defined_in_repro(obj)]


def test_cashmere_run_leaves_no_cyclic_garbage():
    # Three nodes, so jobs are stolen and syncs wait on their children.
    cluster = ClusterConfig(name="gc-3",
                            nodes=[("gtx480",), ("k20", "xeon_phi"),
                                   ("c2050",)])
    app = KMeansApp(n_points=1 << 18, iterations=2, leaf_points=1 << 15)
    assert _repro_garbage(lambda: run_cashmere(
        app, cluster, app.root_task(), config=CashmereConfig(seed=42),
        return_runtime=True)) == []


def test_graph_run_leaves_no_cyclic_garbage():
    graph = GRAPH_APPS["kmeans-pp"](scale=0.1)
    cluster = SimCluster(heterogeneous_kmeans())
    runtime = GraphRuntime(cluster, graph, GraphConfig(seed=42))
    assert _repro_garbage(runtime.run) == []
