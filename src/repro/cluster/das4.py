"""DAS-4 cluster presets.

The paper's test-bed (Sec. IV) is the main DAS-4 cluster: 74 dual Xeon E5620
nodes on QDR InfiniBand, with 22 GTX480, 8 K20 (two of which also host a Xeon
Phi), 2 C2050, 1 Titan, 1 GTX680 and 1 HD7970.  This module builds the
configurations used in the evaluation:

* homogeneous 1..16 GTX480 nodes (the scalability studies, Figs. 7-14),
* the 15-node heterogeneous configuration used for raytracer and matmul,
* the 22/23-node configurations used for k-means and n-body (Table III),
  where Xeon Phis share a node with a K20, as on the real machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..sim.engine import Environment
from ..sim.network import QDR_INFINIBAND, Network, NetworkSpec
from .node import ComputeNode

__all__ = [
    "ClusterConfig",
    "SimCluster",
    "gtx480_cluster",
    "satin_cpu_cluster",
    "heterogeneous_small",
    "heterogeneous_kmeans",
    "heterogeneous_nbody",
    "single_device_cluster",
]


@dataclass
class ClusterConfig:
    """Declarative description of a cluster to simulate."""

    name: str
    #: one entry per node: tuple of device names on that node (may be empty)
    nodes: List[Tuple[str, ...]]
    network: NetworkSpec = QDR_INFINIBAND
    #: devices overlap PCIe transfers with kernels (False = ablation)
    device_overlap: bool = True

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def device_counts(self) -> dict:
        counts: dict = {}
        for devs in self.nodes:
            for d in devs:
                counts[d] = counts.get(d, 0) + 1
        return counts


class SimCluster:
    """Instantiated simulated cluster: environment, network, nodes.

    Observability: the cluster's :class:`~repro.obs.bus.EventBus` lives on
    the environment (``cluster.obs`` is an alias for ``cluster.env.obs``)
    and ``obs_enabled`` switches it on.  The Gantt charts and the metrics
    are views of the one recorded stream
    (:class:`repro.obs.export.Intervals`).
    """

    def __init__(self, config: ClusterConfig, obs_enabled: bool = False):
        self.config = config
        self.env = Environment()
        self.env.obs.enabled = obs_enabled
        self.obs = self.env.obs
        self.network = Network(self.env, config.network)
        self.nodes: List[ComputeNode] = [
            ComputeNode(self.env, self.network, rank, devs,
                        device_overlap=config.device_overlap)
            for rank, devs in enumerate(config.nodes)
        ]
        #: cached alive-node list — the worker loops consult it on every
        #: pop/steal round, so rebuilding it per call costs real wall-clock.
        #: Membership changes go through :meth:`membership_changed`.
        self._alive_cache: Optional[List[ComputeNode]] = None
        #: bumped on every membership change; derived caches (e.g. the
        #: runtime's per-rank steal-candidate lists) key off it
        self.alive_version: int = 0

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def node(self, rank: int) -> ComputeNode:
        return self.nodes[rank]

    def alive_nodes(self) -> List[ComputeNode]:
        """The non-crashed nodes (cached; callers must not mutate)."""
        cache = self._alive_cache
        if cache is None:
            cache = self._alive_cache = [n for n in self.nodes
                                         if not n.crashed]
        return cache

    def membership_changed(self) -> None:
        """Invalidate the alive-nodes cache after a ``crashed`` flip."""
        self._alive_cache = None
        self.alive_version += 1


def gtx480_cluster(num_nodes: int, network: NetworkSpec = QDR_INFINIBAND) -> ClusterConfig:
    """Homogeneous GTX480 nodes — the scalability studies run on 1..16 of these."""
    if not 1 <= num_nodes <= 22:
        raise ValueError("DAS-4 has 22 GTX480 nodes")
    return ClusterConfig(
        name=f"das4-{num_nodes}x-gtx480",
        nodes=[("gtx480",) for _ in range(num_nodes)],
        network=network,
    )


def satin_cpu_cluster(num_nodes: int, network: NetworkSpec = QDR_INFINIBAND) -> ClusterConfig:
    """CPU-only nodes for original-Satin baseline measurements."""
    return ClusterConfig(
        name=f"das4-{num_nodes}x-cpu",
        nodes=[() for _ in range(num_nodes)],
        network=network,
    )


def single_device_cluster(device: str, network: NetworkSpec = QDR_INFINIBAND) -> ClusterConfig:
    """One node with one device — used for one-node reference GFLOPS."""
    return ClusterConfig(name=f"das4-1x-{device}", nodes=[(device,)], network=network)


def heterogeneous_small(network: NetworkSpec = QDR_INFINIBAND) -> ClusterConfig:
    """Table III configuration for raytracer and matmul (15 devices/nodes).

    10 GTX480, 2 C2050, 1 GTX680, 1 Titan, 1 HD7970.
    """
    nodes: List[Tuple[str, ...]] = (
        [("gtx480",)] * 10 + [("c2050",)] * 2 + [("gtx680",)] + [("titan",)] + [("hd7970",)]
    )
    return ClusterConfig(name="das4-het-15", nodes=nodes, network=network)


def heterogeneous_kmeans(network: NetworkSpec = QDR_INFINIBAND) -> ClusterConfig:
    """Table III configuration for k-means (22 devices on 21 nodes).

    The 15-device configuration plus 7 K20s and 1 Xeon Phi; the Phi shares a
    node with a K20, as on DAS-4 ("each fitted in a K20 node", Sec. IV).
    """
    nodes = list(heterogeneous_small(network).nodes)
    nodes += [("k20",)] * 6 + [("k20", "xeon_phi")]
    return ClusterConfig(name="das4-het-kmeans", nodes=nodes, network=network)


def heterogeneous_nbody(network: NetworkSpec = QDR_INFINIBAND) -> ClusterConfig:
    """Table III configuration for n-body (24 devices on 22 nodes).

    The 15-device configuration plus 7 K20s and 2 Xeon Phis (two K20 nodes
    each also carry a Phi).
    """
    nodes = list(heterogeneous_small(network).nodes)
    nodes += [("k20",)] * 5 + [("k20", "xeon_phi")] * 2
    return ClusterConfig(name="das4-het-nbody", nodes=nodes, network=network)
