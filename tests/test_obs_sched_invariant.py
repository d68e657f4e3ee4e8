"""Replay-check the intra-node scheduler against its own event log.

Every ``sched_decision`` event carries the *pre-decision* snapshot: per-lane
pending work and per-lane predicted completion times.  That makes the
placement rule auditable from the log alone:

    makespan(d) = max(max_e pending_e, completion_d)

and under the ``makespan`` policy the chosen device must minimize it
(Sec. III-B of the paper).  The emitted ``makespan_s``/``predicted_s``
values must agree with what the snapshot implies.
"""

from __future__ import annotations

import pytest

from repro.apps.base import run_cashmere
from repro.apps.kmeans import KMeansApp
from repro.cluster.das4 import ClusterConfig, SimCluster, heterogeneous_kmeans
from repro.core.runtime import CashmereConfig
from repro.graph.apps import GRAPH_APPS
from repro.graph.executor import GraphConfig, GraphRuntime

REL = 1e-9


def _run(policy: str = "makespan", seed: int = 42):
    app = KMeansApp(n_points=1 << 22, iterations=2, leaf_points=1 << 18)
    cluster_config = ClusterConfig(
        name="sched-het",
        nodes=[("gtx480",), ("k20", "xeon_phi"), ("c2050",)])
    return run_cashmere(
        app, cluster_config, app.root_task(), optimized=True, seed=seed,
        config=CashmereConfig(seed=seed, scheduler_policy=policy),
        obs=True, return_runtime=True)


def _replay_makespans(ev):
    """Per-lane makespan implied by the event's snapshot."""
    pending = ev.fields["pending"]
    completions = ev.fields["completions"]
    global_pending = max(pending.values())
    return {lane: max(global_pending, completions[lane])
            for lane in completions}


def test_decisions_are_emitted_with_full_snapshots():
    result, runtime, cluster = _run()
    decisions = cluster.obs.by_kind("sched_decision")
    assert len(decisions) == runtime.scheduler.decisions > 0
    multi = [ev for ev in decisions if len(ev.fields["completions"]) > 1]
    assert multi, "the K20+Phi node must make multi-device decisions"
    for ev in decisions:
        assert ev.fields["policy"] == "makespan"
        assert ev.fields["chosen"] in ev.fields["completions"]
        assert set(ev.fields["pending"]) == set(ev.fields["completions"])


def test_makespan_policy_minimizes_replayed_makespan():
    result, runtime, cluster = _run()
    for ev in cluster.obs.by_kind("sched_decision"):
        makespans = _replay_makespans(ev)
        chosen = ev.fields["chosen"]
        best = min(makespans.values())
        tol = REL * max(1.0, best)
        assert makespans[chosen] <= best + tol, (
            f"decision #{ev.seq}: chose {chosen} with makespan "
            f"{makespans[chosen]}, but {makespans} admits {best}")
        # The emitted makespan matches the replay.
        assert ev.fields["makespan_s"] == pytest.approx(makespans[chosen])


def test_predicted_time_matches_snapshot():
    result, runtime, cluster = _run()
    for ev in cluster.obs.by_kind("sched_decision"):
        chosen = ev.fields["chosen"]
        implied = (ev.fields["completions"][chosen]
                   - ev.fields["pending"][chosen])
        assert ev.fields["predicted_s"] == pytest.approx(implied)


def test_paper_example_decision_is_replayable():
    """The worked example of Sec. III-B: K20 queue 3x100ms, GTX480 queue
    1x125ms -> a new job goes to the GTX480 (max(300,250) < max(400,125)).
    Feed exactly that snapshot through the replay rule."""
    ev_fields = {
        "pending": {"k20[0]": 0.300, "gtx480[0]": 0.125},
        "completions": {"k20[0]": 0.400, "gtx480[0]": 0.250},
    }

    class FakeEv:
        fields = ev_fields

    makespans = _replay_makespans(FakeEv())
    assert makespans["gtx480[0]"] == pytest.approx(0.300)
    assert makespans["k20[0]"] == pytest.approx(0.400)
    assert min(makespans, key=makespans.get) == "gtx480[0]"


def test_static_policy_always_picks_fastest_device():
    result, runtime, cluster = _run(policy="static")
    for ev in cluster.obs.by_kind("sched_decision"):
        assert ev.fields["policy"] == "static"
        lanes = ev.fields["completions"]
        if len(lanes) > 1:
            # On the K20 + Xeon Phi node the static table ranks the K20
            # fastest, so every placement lands there.
            assert "/k20" in ev.fields["chosen"]


def test_round_robin_policy_rotates():
    result, runtime, cluster = _run(policy="round-robin")
    multi = [ev for ev in cluster.obs.by_kind("sched_decision")
             if len(ev.fields["completions"]) > 1]
    assert multi
    chosen = {ev.fields["chosen"] for ev in multi}
    if len(multi) > 2:
        assert len(chosen) > 1, "round-robin must touch both devices"


# ---------------------------------------------------------------------------
# DAG placements: replayed from ``graph_node_dispatch`` events
# ---------------------------------------------------------------------------
#
# A DAG placement's record is its ``graph_node_dispatch`` event (``chosen``,
# ``predicted_s``).  The rest of the decision is in the stream too: earlier
# dispatches give every producer's lane, and each node's last interval marks
# when its reservation is released (``SimDevice.launch`` runs ``release``
# in the engine step that emits it).  A fresh, unrun runtime supplies only
# the device pool and the executor's cost functions.

#: four device types on three nodes; two nodes hold two devices each
_SHARED_NODE_POOL = (("gtx480", "k20"), ("c2050",), ("xeon_phi", "gtx480"))
_DAG_POOLS = {
    "das4-het-kmeans": heterogeneous_kmeans,
    "shared-node": lambda: ClusterConfig(name="shared-node",
                                         nodes=list(_SHARED_NODE_POOL)),
}


def _run_dag(app: str, policy: str, pool: str):
    graph = GRAPH_APPS[app](scale=0.1)
    cluster = SimCluster(_DAG_POOLS[pool](), obs_enabled=True)
    runtime = GraphRuntime(cluster, graph,
                           GraphConfig(scheduler_policy=policy))
    runtime.run()
    return graph, runtime, cluster.obs.events


def _last_interval(graph, name: str, lane: str):
    """(lane, label) of the interval after which ``name`` is released."""
    if not graph.out_edges(name) and graph.nodes[name].out_bytes > 0:
        return f"{lane}/d2h", f"{name}-out"
    return f"{lane}/kernel", name


def _replay_dag_placements(graph, pool: str, policy: str, events):
    """Recompute every DAG placement from the stream.

    Returns the replayed per-lane pending work and the dispatch count.
    """
    probe = GraphRuntime(SimCluster(_DAG_POOLS[pool]()), graph,
                         GraphConfig(scheduler_policy=policy))
    lookahead = policy == "makespan-lookahead"
    pending = {dev.lane: 0.0 for dev in probe.devices}
    lane_of = {}    # placed node -> device lane
    finish = {}     # placed node -> its estimated finish time (lookahead)
    releases = {}   # (interval lane, label) -> (device lane, predicted_s)
    dispatches = 0
    for ev in events:
        if ev.kind == "graph_node_dispatch":
            dispatches += 1
            name = ev.fields["graph_node"]
            spec = graph.nodes[name]
            in_edges = graph.in_edges(name)
            footprint = (spec.in_bytes + spec.out_bytes
                         + sum(edge.nbytes for edge in in_edges))
            fits = [dev for dev in probe.devices
                    if dev.spec.mem_bytes >= footprint]
            times = probe._kernel_times(spec.profile())
            inputs = [(edge, lane_of[edge.src],
                       max(finish.get(edge.src, ev.ts), ev.ts))
                      for edge in in_edges]
            best = best_score = None
            for dev in fits:
                t_d = times[dev.lane]
                if lookahead:
                    ready_t = ev.ts
                    for edge, src_lane, arrival in inputs:
                        if src_lane != dev.lane:
                            arrival += probe._edge_cost(
                                edge.nbytes, probe._device_by_lane[src_lane],
                                dev)
                        ready_t = max(ready_t, arrival)
                    score = max(ev.ts + pending[dev.lane], ready_t) + t_d
                else:
                    score = max(pending[other.lane]
                                + (t_d if other is dev else 0.0)
                                for other in fits)
                if (best is None or score < best_score
                        or (score == best_score and dev.spec.static_speed
                            > best.spec.static_speed)):
                    best, best_score = dev, score
            assert ev.fields["chosen"] == best.lane, (
                f"{name}: dispatched to {ev.fields['chosen']}, the replay "
                f"picks {best.lane}")
            assert ev.fields["predicted_s"] == times[best.lane]
            pending[best.lane] += times[best.lane]
            lane_of[name] = best.lane
            finish[name] = best_score
            releases[_last_interval(graph, name, best.lane)] = (
                best.lane, times[best.lane])
        elif ev.kind in ("kernel", "d2h"):
            released = releases.pop((ev.lane, ev.fields["label"]), None)
            if released is not None:
                lane, predicted_s = released
                pending[lane] = max(0.0, pending[lane] - predicted_s)
    assert not releases, f"never released: {sorted(releases)}"
    return pending, dispatches


@pytest.mark.parametrize("pool", sorted(_DAG_POOLS))
@pytest.mark.parametrize("policy", ["makespan", "makespan-lookahead"])
@pytest.mark.parametrize("app", sorted(GRAPH_APPS))
def test_dag_placements_replay_from_the_stream(app, policy, pool):
    graph, runtime, events = _run_dag(app, policy, pool)
    pending, dispatches = _replay_dag_placements(graph, pool, policy, events)
    # the replayed ledger equals the devices' own, bit for bit
    assert pending == {dev.lane: dev.pending_work_s
                       for dev in runtime.devices}
    assert runtime.scheduler.decisions == len(graph) == dispatches
