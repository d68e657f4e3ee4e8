#!/usr/bin/env python
"""Heterogeneous k-means: the paper's flagship scenario (Secs. III-B, V-C).

Two runs on a simulated mini-DAS-4 mixing a GTX480 node, a Titan node and a
node carrying both a K20 and a Xeon Phi (the node of Fig. 16):

1. a small run with *real data*, validated against a sequential numpy
   reference — stealing and heterogeneous scheduling never corrupt results;
2. a paper-scale modeled run showing the intra-node min-makespan scheduler
   splitting work between the K20 and the ~4x slower Phi, plus the
   Fig. 16-style Gantt chart.

Run:  python examples/heterogeneous_kmeans.py
"""

import numpy as np

from repro.apps.base import run_cashmere
from repro.apps.kmeans import KMeansApp, reference_kmeans_iteration, small_app
from repro.cluster import ClusterConfig
from repro.core import gantt_zoomed
from repro.core.runtime import CashmereConfig
from repro.obs import Intervals

MINI_DAS4 = ClusterConfig(
    name="mini-das4",
    nodes=[("gtx480",), ("titan",), ("k20", "xeon_phi")],
)


def sequential(points, centroids, iterations):
    c = centroids.copy()
    for _ in range(iterations):
        _, sums, counts = reference_kmeans_iteration(points, c)
        c = np.where(counts[:, None] > 0,
                     sums / np.maximum(counts[:, None], 1.0), c)
    return c


def validate_with_real_data():
    app = small_app(n_points=8192, k=16, d=4, iterations=3, leaf_points=512)
    points = app.data.copy()
    c0 = app.centroids.copy()
    run_cashmere(app, MINI_DAS4, app.root_task(),
                 config=CashmereConfig(seed=7))
    expected = sequential(points, c0, 3)
    np.testing.assert_allclose(app.centroids, expected, rtol=1e-10)
    print("1) distributed centroids match the sequential reference: OK\n")


def show_heterogeneous_schedule():
    # Paper-scale leaves (modeled time): the kernels are heavy enough that
    # keeping the slower Phi busy pays off (Sec. III-B's balancing example).
    app = KMeansApp(n_points=1 << 25, k=4096, d=4, iterations=3,
                    leaf_points=1 << 18)
    result, runtime, cluster = run_cashmere(
        app, MINI_DAS4, app.root_task(),
        config=CashmereConfig(seed=7), obs=True, return_runtime=True)

    print("2) paper-scale run — device workloads:")
    for node in cluster.nodes:
        for dev in node.devices:
            launches = dev.launch_counts.get("kmeans", 0)
            t = dev.measured_times.get("kmeans", 0.0)
            print(f"   {dev.lane:24s} {launches:4d} launches, "
                  f"measured kernel time {t * 1e3:7.2f} ms")
    shared = cluster.node(2)
    k20, phi = shared.devices
    ratio = phi.measured_times["kmeans"] / k20.measured_times["kmeans"]
    print(f"\n   K20 : Xeon Phi job split on {shared.name}: "
          f"{k20.launch_counts['kmeans']} : {phi.launch_counts['kmeans']} "
          f"(the Phi is {ratio:.1f}x slower)")

    view = Intervals(cluster.obs.events)
    span = view.span()
    print("\n   Gantt chart of the shared node (mid-run zoom, cf. Fig. 16):")
    print(gantt_zoomed(view, [shared.name],
                       t0=span * 0.4, t1=span * 0.6, width=90))
    stats = result.stats
    print(f"\n   makespan {stats.makespan_s:.3f} s simulated, "
          f"{stats.total_leaves} leaves, {stats.gflops():.0f} GFLOPS")


def main():
    validate_with_real_data()
    show_heterogeneous_schedule()


if __name__ == "__main__":
    main()
