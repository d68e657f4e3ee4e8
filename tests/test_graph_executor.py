"""Tests for the DAG executor and the lookahead placement policy.

Contracts (docs/graphs.md): every node of a valid graph runs exactly once
under every registered device policy; seeded runs are byte-identical;
the ``graph_node_*`` obs events bracket each node; the lookahead policy
orders dispatch by upward rank and places for data locality.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graph.executor as executor
from repro.cluster.das4 import ClusterConfig, SimCluster, heterogeneous_kmeans
from repro.core.policy import policy_names
from repro.core.scheduler import LookaheadMakespanPolicy
from repro.devices.perfmodel import kernel_time
from repro.graph import (
    GraphBuilder,
    GraphConfig,
    GraphError,
    GraphRuntime,
    TaskGraph,
)
from repro.graph.apps import kmeans_pp_graph, path_tracer_graph


def _cluster(nodes=(("gtx480",), ("k20",)), obs=False) -> SimCluster:
    return SimCluster(ClusterConfig(name="graph-test", nodes=list(nodes)),
                      obs_enabled=obs)


def _small_graph() -> TaskGraph:
    b = GraphBuilder("small")
    scene = b.source("scene", flops=0, out_bytes=1 << 16, in_bytes=1 << 16)
    tiles = scene.fanout("tile", 4, flops=5e9, out_bytes=1 << 14)
    tiles.reduce("merge", flops_per_input=1e6, out_bytes=1 << 14)
    return b.build()


# ---------------------------------------------------------------------------
# execution contract
# ---------------------------------------------------------------------------

def test_runs_every_node_exactly_once():
    graph = _small_graph()
    result = GraphRuntime(_cluster(), graph).run()
    assert result.nodes_run == len(graph)
    assert result.makespan_s > 0
    assert result.total_flops == graph.total_flops
    assert sorted(result.placements) == sorted(graph.nodes)
    assert result.gflops > 0


@pytest.mark.parametrize("policy", sorted(policy_names("device")))
def test_every_device_policy_completes_the_graph(policy):
    graph = path_tracer_graph(scale=0.1)
    result = GraphRuntime(_cluster(), graph,
                          GraphConfig(scheduler_policy=policy)).run()
    assert result.nodes_run == len(graph)
    assert result.policy == policy


def test_unknown_policy_rejected():
    with pytest.raises(ValueError, match="unknown policy"):
        GraphRuntime(_cluster(), _small_graph(),
                     GraphConfig(scheduler_policy="nope"))


def test_cluster_without_devices_rejected():
    cluster = SimCluster(ClusterConfig(name="empty", nodes=[(), ()]))
    with pytest.raises(ValueError, match="no many-core devices"):
        GraphRuntime(cluster, _small_graph())


def test_single_device_has_zero_cross_device_bytes():
    result = GraphRuntime(_cluster(nodes=(("k20",),)), _small_graph()).run()
    assert result.cross_device_bytes == 0.0
    assert len(set(result.placements.values())) == 1


def test_multi_device_spreads_independent_tiles():
    # 4 independent equally-sized tiles on 2 devices: any makespan-aware
    # policy must use both.
    result = GraphRuntime(_cluster(), _small_graph()).run()
    tile_lanes = {result.placements[f"tile{i}"] for i in range(4)}
    assert len(tile_lanes) == 2
    assert result.cross_device_bytes > 0  # the merge pulls remote tiles


# ---------------------------------------------------------------------------
# memory admission
# ---------------------------------------------------------------------------

def test_nodes_wait_until_their_footprint_fits():
    # three independent nodes needing 0.6x device memory each: memory
    # admission must run them one at a time on the single device
    cluster = _cluster(nodes=(("gtx480",),), obs=True)
    dev = cluster.node(0).devices[0]
    half = 0.3 * dev.spec.mem_bytes
    b = GraphBuilder("big")
    b.source("big", 3, flops=1e9, in_bytes=half, out_bytes=half)
    graph = b.build()
    result = GraphRuntime(cluster, graph).run()
    assert result.nodes_run == 3
    windows = []
    for name in graph.nodes:
        (h2d,) = [ev for ev in cluster.obs.by_kind("h2d")
                  if ev.fields["label"] == f"{name}-in"]
        (d2h,) = [ev for ev in cluster.obs.by_kind("d2h")
                  if ev.fields["label"] == f"{name}-out"]
        windows.append((h2d.start, d2h.end))
    windows.sort()
    for (_, end), (start, _) in zip(windows, windows[1:]):
        assert end <= start, windows
    assert dev.free_memory == dev.spec.mem_bytes
    assert dev.pending_work_s == 0.0


def test_node_larger_than_every_device_is_rejected():
    b = GraphBuilder("huge")
    b.source("fits", flops=1e9, out_bytes=1 << 20)
    b.source("whale", flops=1e9, out_bytes=1e12)
    with pytest.raises(GraphError, match="'whale'"):
        GraphRuntime(_cluster(), b.build()).run()


# ---------------------------------------------------------------------------
# observability + determinism
# ---------------------------------------------------------------------------

def _obs_run(graph, policy="makespan"):
    cluster = _cluster(obs=True)
    GraphRuntime(cluster, graph, GraphConfig(scheduler_policy=policy)).run()
    return cluster


@pytest.mark.parametrize("policy", ["makespan", "makespan-lookahead"])
def test_graph_node_events_bracket_every_node(policy):
    graph = _small_graph()
    cluster = _obs_run(graph, policy)
    counts = {}
    for ev in cluster.obs.events:
        counts[ev.kind] = counts.get(ev.kind, 0) + 1
    for kind in ("graph_node_ready", "graph_node_dispatch",
                 "graph_node_complete"):
        assert counts.get(kind) == len(graph), (kind, counts)
    dispatches = cluster.obs.by_kind("graph_node_dispatch")
    assert {ev.fields["graph_node"] for ev in dispatches} == set(graph.nodes)
    assert all(ev.fields["policy"] == policy for ev in dispatches)


@pytest.mark.parametrize("policy", sorted(policy_names("device")))
def test_seeded_graph_runs_are_byte_identical(policy):
    graph = kmeans_pp_graph(scale=0.1)
    streams = []
    for _ in range(2):
        cluster = _obs_run(graph, policy)
        streams.append(cluster.obs.serialize())
    d1, d2 = (hashlib.sha256(s.encode()).hexdigest() for s in streams)
    assert d1 == d2
    assert streams[0] == streams[1]


def test_policies_actually_differ_on_the_apps():
    graph = path_tracer_graph(scale=0.5)
    greedy = GraphRuntime(_cluster(), graph,
                          GraphConfig(scheduler_policy="makespan")).run()
    look = GraphRuntime(_cluster(), graph,
                        GraphConfig(
                            scheduler_policy="makespan-lookahead")).run()
    assert greedy.placements != look.placements \
        or greedy.makespan_s != look.makespan_s


# ---------------------------------------------------------------------------
# cost estimates: priced once per distinct input per run, bit-identically
# ---------------------------------------------------------------------------

class _UncachedRuntime(GraphRuntime):
    """Reference executor that prices every estimate from scratch: one
    ``kernel_time`` per device per call, a fresh edge-cost row per
    placement lookup and the full pairwise edge loop per edge.  The per-run
    tables must reproduce it bit for bit."""

    def _kernel_times(self, profile):
        return {dev.lane: kernel_time(profile, dev.spec)
                for dev in self.devices}

    def _edge_row(self, nbytes, src_lane):
        src = self._device_by_lane[src_lane]
        return {dst.lane: self._edge_cost(nbytes, src, dst)
                for dst in self.devices if dst is not src}

    def _mean_exec_estimate(self, name):
        profile = self.graph.nodes[name].profile()
        times = [kernel_time(profile, dev.spec) for dev in self.devices]
        return sum(times) / len(times)

    def _mean_comm_estimate(self, edge):
        if len(self.devices) == 1:
            return 0.0
        total = 0.0
        pairs = 0
        for src in self.devices:
            for dst in self.devices:
                if src is dst:
                    continue
                total += self._edge_cost(edge.nbytes, src, dst)
                pairs += 1
        return total / pairs


#: 4 device types on 3 nodes, one node holding two different devices
_MIXED_POOL = (("gtx480", "k20"), ("c2050",), ("xeon_phi", "gtx480"))


def test_zero_byte_edge_is_free():
    """An empty edge is never sent, so neither the edge cost nor the
    upward rank may charge the network's per-message cost for it."""
    b = GraphBuilder("empty-edge")
    b.node("a", kernel="k", flops=1e9, device_bytes=1 << 20)
    b.node("b", kernel="k", flops=2e9, device_bytes=1 << 20)
    b.edge("a", "b", nbytes=0)
    graph = b.build()
    runtime = GraphRuntime(_cluster(), graph, GraphConfig(
        scheduler_policy="makespan-lookahead"))
    runtime.run()
    (edge,) = graph.edges
    src, dst = runtime.devices  # one device on each of the two nodes
    assert runtime._owner[src.lane].rank != runtime._owner[dst.lane].rank
    assert runtime._ctx.edge_costs(edge.nbytes, src.lane) == {dst.lane: 0.0}
    assert runtime.scheduler.policy._rank["a"] == (
        runtime._mean_exec_estimate("a") + runtime._mean_exec_estimate("b"))


@pytest.mark.parametrize("make_graph", [path_tracer_graph, kmeans_pp_graph])
def test_lookahead_ranks_equal_the_uncached_reference(make_graph):
    graph = make_graph()
    runtime = GraphRuntime(_cluster(nodes=_MIXED_POOL), graph, GraphConfig(
        scheduler_policy="makespan-lookahead"))
    runtime.run()
    reference_rt = _UncachedRuntime(_cluster(nodes=_MIXED_POOL), graph)
    reference = LookaheadMakespanPolicy()
    reference.graph_prepare(graph, reference_rt._mean_exec_estimate,
                            reference_rt._mean_comm_estimate)
    assert runtime.scheduler.policy._rank == reference._rank  # exact, not approx


_DEVICE_TYPES = ("gtx480", "c2050", "gtx680", "titan", "hd7970", "k20",
                 "xeon_phi")


@st.composite
def _random_dags(draw):
    """Small DAGs whose edge sizes and node profiles repeat."""
    n = draw(st.integers(2, 12))
    b = GraphBuilder("random")
    for i in range(n):
        b.node(f"n{i}", kernel=draw(st.sampled_from(("x", "y"))),
               flops=draw(st.one_of(st.sampled_from((1e6, 5e8, 3e9)),
                                    st.floats(1e5, 1e10))),
               device_bytes=draw(st.sampled_from((1 << 16, 1 << 22))))
        preds = draw(st.lists(st.integers(0, i - 1), max_size=3,
                              unique=True)) if i else []
        for j in preds:
            b.edge(f"n{j}", f"n{i}", data=f"n{j}->n{i}",
                   nbytes=draw(st.sampled_from((0, 4096, 1 << 18, 1 << 20))))
    return b.build()


def _stream_run(runtime_cls, graph, nodes, policy):
    cluster = _cluster(nodes=nodes, obs=True)
    result = runtime_cls(cluster, graph,
                         GraphConfig(scheduler_policy=policy)).run()
    return result, cluster.obs.serialize()


@settings(max_examples=25, deadline=None)
@given(graph=_random_dags(),
       nodes=st.lists(st.lists(st.sampled_from(_DEVICE_TYPES), min_size=1,
                               max_size=2).map(tuple),
                      min_size=1, max_size=4),
       policy=st.sampled_from(("makespan", "makespan-lookahead")))
def test_memoized_estimates_reproduce_the_uncached_schedule(graph, nodes,
                                                            policy):
    memo, memo_stream = _stream_run(GraphRuntime, graph, nodes, policy)
    ref, ref_stream = _stream_run(_UncachedRuntime, graph, nodes, policy)
    assert memo.placements == ref.placements
    assert memo.makespan_s == ref.makespan_s
    assert memo_stream == ref_stream


def test_graph_prepare_prices_each_edge_size_once(monkeypatch):
    graph = path_tracer_graph()
    runtime = GraphRuntime(SimCluster(heterogeneous_kmeans()), graph,
                           GraphConfig(scheduler_policy="makespan-lookahead"))
    calls = {"in_prepare": False, "transfer_time": 0}
    real_transfer_time = executor.transfer_time
    real_prepare = runtime.scheduler.policy.graph_prepare

    def counting_transfer_time(nbytes, spec):
        if calls["in_prepare"]:
            calls["transfer_time"] += 1
        return real_transfer_time(nbytes, spec)

    def prepare(*args):
        calls["in_prepare"] = True
        try:
            real_prepare(*args)
        finally:
            calls["in_prepare"] = False

    monkeypatch.setattr(executor, "transfer_time", counting_transfer_time)
    monkeypatch.setattr(runtime.scheduler.policy, "graph_prepare", prepare)
    runtime.run()
    sizes = {edge.nbytes for edge in graph.edges}
    d = len(runtime.devices)
    assert 0 < calls["transfer_time"] <= 2 * len(sizes) * d * (d - 1)
    # the per-edge pricing this replaces makes one pass per edge
    assert len(graph.edges) > len(sizes)


@pytest.mark.parametrize("make_graph", [path_tracer_graph, kmeans_pp_graph])
def test_one_price_per_edge_size_and_device_pair(make_graph, monkeypatch):
    """Ranking fills one price row per (edge size, source device), and
    placement reads those rows: a lookahead run prices each (distinct edge
    size, ordered device pair) exactly once, none of them in graph_select."""
    graph = make_graph(scale=0.1)
    runtime = GraphRuntime(SimCluster(heterogeneous_kmeans()), graph,
                           GraphConfig(scheduler_policy="makespan-lookahead"))
    calls = {"all": 0, "in_select": 0}
    selecting = [False]
    real_edge_cost = GraphRuntime._edge_cost
    real_select = runtime.scheduler.policy.graph_select

    def counting_edge_cost(self, nbytes, src, dst):
        calls["all"] += 1
        if selecting[0]:
            calls["in_select"] += 1
        return real_edge_cost(self, nbytes, src, dst)

    def select(*args):
        selecting[0] = True
        try:
            return real_select(*args)
        finally:
            selecting[0] = False

    monkeypatch.setattr(GraphRuntime, "_edge_cost", counting_edge_cost)
    monkeypatch.setattr(runtime.scheduler.policy, "graph_select", select)
    result = runtime.run()
    assert result.nodes_run == len(graph)
    sizes = {edge.nbytes for edge in graph.edges}
    d = len(runtime.devices)
    assert calls == {"all": len(sizes) * d * (d - 1), "in_select": 0}


# ---------------------------------------------------------------------------
# lookahead policy unit behavior (no cluster needed)
# ---------------------------------------------------------------------------

def _chain_graph():
    b = GraphBuilder("chain")
    b.node("a", kernel="k", flops=1e9, device_bytes=1 << 20, out_bytes=64)
    b.node("b", kernel="k", flops=1e9, device_bytes=1 << 20, out_bytes=64)
    b.node("c", kernel="k", flops=1e9, device_bytes=1 << 20, out_bytes=64)
    b.edge("a", "b", nbytes=64).edge("b", "c", nbytes=64)
    return b.build()


def test_upward_rank_decreases_along_a_chain():
    policy = LookaheadMakespanPolicy()
    graph = _chain_graph()
    policy.graph_prepare(graph, lambda n: 1.0, lambda e: 0.25)
    # rank(c)=1, rank(b)=1+0.25+1=2.25, rank(a)=3.5
    assert policy._rank["c"] == pytest.approx(1.0)
    assert policy._rank["b"] == pytest.approx(2.25)
    assert policy._rank["a"] == pytest.approx(3.5)
    assert policy.graph_order(["c", "a", "b"], graph) == ["a", "b", "c"]


def test_rank_takes_most_expensive_downstream_chain():
    b = GraphBuilder("diamond")
    for n in ("root", "cheap", "costly", "join"):
        b.node(n, kernel="k", flops=1e9, device_bytes=1 << 20, out_bytes=64)
    b.edge("root", "cheap", nbytes=64).edge("root", "costly", nbytes=64)
    b.edge("cheap", "join", nbytes=64).edge("costly", "join", nbytes=64)
    graph = b.build()
    policy = LookaheadMakespanPolicy()
    exec_est = {"root": 1.0, "cheap": 0.5, "costly": 4.0, "join": 1.0}
    policy.graph_prepare(graph, lambda n: exec_est[n], lambda e: 0.0)
    # root's rank must follow the costly branch (1 + 4 + 1), not the cheap
    assert policy._rank["root"] == pytest.approx(6.0)
    assert policy.graph_order(["cheap", "costly"], graph) \
        == ["costly", "cheap"]


class _FakeDev:
    def __init__(self, lane, speed, pending=0.0):
        self.lane = lane
        self.pending_work_s = pending
        self.spec = type("S", (), {"static_speed": speed})()


class _FakeCtx:
    def __init__(self, now, edges, placements, cost, lanes=()):
        self.now = now
        self._edges = edges
        self._placements = placements
        self._cost = cost
        self._lanes = lanes

    def in_edges(self, name):
        return self._edges.get(name, [])

    def placement(self, name):
        return self._placements.get(name)

    def edge_costs(self, nbytes, src_lane):
        return {lane: self._cost for lane in self._lanes if lane != src_lane}


def test_graph_select_prefers_data_locality():
    """A slightly slower device already holding the input wins when the
    transfer costs more than the speed difference — exactly the call the
    greedy policy cannot make."""
    policy = LookaheadMakespanPolicy()
    fast = _FakeDev("fast", speed=2.0)
    slow = _FakeDev("slow", speed=1.0)
    edge = type("E", (), {"src": "prev", "nbytes": 1 << 20})()
    ctx = _FakeCtx(now=0.0, edges={"n": [edge]},
                   placements={"prev": "slow"}, cost=5.0,
                   lanes=("fast", "slow"))
    predictions = {"fast": (1.0, False), "slow": (1.5, False)}
    decision = policy.graph_select("n", [fast, slow], predictions, ctx)
    assert decision.device is slow
    # ... but when moving is nearly free, the faster device wins.
    policy2 = LookaheadMakespanPolicy()
    ctx_free = _FakeCtx(now=0.0, edges={"n": [edge]},
                        placements={"prev": "slow"}, cost=0.01,
                        lanes=("fast", "slow"))
    decision2 = policy2.graph_select("n", [fast, slow], predictions, ctx_free)
    assert decision2.device is fast


def test_graph_select_accounts_for_queued_work():
    policy = LookaheadMakespanPolicy()
    busy = _FakeDev("busy", speed=2.0, pending=10.0)
    idle = _FakeDev("idle", speed=1.0, pending=0.0)
    ctx = _FakeCtx(now=0.0, edges={}, placements={}, cost=0.0)
    predictions = {"busy": (1.0, False), "idle": (2.0, False)}
    decision = policy.graph_select("n", [busy, idle], predictions, ctx)
    assert decision.device is idle
    assert policy._finish["n"] == pytest.approx(2.0)


def test_graph_select_records_finish_estimates_for_successors():
    policy = LookaheadMakespanPolicy()
    dev = _FakeDev("only", speed=1.0)
    ctx = _FakeCtx(now=0.0, edges={}, placements={}, cost=0.0)
    policy.graph_select("a", [dev], {"only": (3.0, False)}, ctx)
    # successor on the same lane starts no earlier than a's finish
    edge = type("E", (), {"src": "a", "nbytes": 8})()
    ctx2 = _FakeCtx(now=0.0, edges={"b": [edge]},
                    placements={"a": "only"}, cost=0.0, lanes=("only",))
    decision = policy.graph_select("b", [dev], {"only": (1.0, False)}, ctx2)
    assert decision.makespan_s == pytest.approx(4.0)
