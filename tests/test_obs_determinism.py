"""Determinism regression tests for the observability event stream.

The contract (docs/observability.md): with the event bus enabled, two runs
of the same app + cluster + seed produce a **byte-identical** serialized
event stream — sequence numbers, virtual timestamps, job ids, steal victims,
scheduler snapshots, everything.  Different seeds must produce different
streams (the steal protocol is randomized).

This is what makes the bus usable as a replay log and as a regression
artifact: any accidental nondeterminism (module-global counters, set/dict
iteration over ids, wall-clock leakage) shows up as a byte diff here.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.apps.base import run_cashmere, run_satin
from repro.apps.kmeans import KMeansApp
from repro.apps.matmul import MatmulApp
from repro.apps.nbody import NBodyApp
from repro.apps.raytracer import RaytracerApp
from repro.cluster.das4 import ClusterConfig, SimCluster, heterogeneous_kmeans
from repro.core.runtime import CashmereConfig
from repro.graph import GraphConfig, GraphRuntime
from repro.graph.apps import GRAPH_APPS
from repro.satin.runtime import RuntimeConfig
from repro.sweep.spec import ClusterSpec


def _cluster() -> ClusterConfig:
    # Small heterogeneous slice: 3 nodes, 4 device types -> exercises
    # stealing (with a real victim choice, so seeds matter), transfers and
    # the intra-node scheduler.
    return ClusterConfig(
        name="det-3",
        nodes=[("gtx480",), ("k20", "xeon_phi"), ("c2050",)])


def _kmeans_stream(seed: int) -> str:
    app = KMeansApp(n_points=1 << 21, iterations=2, leaf_points=1 << 18)
    result, runtime, cluster = run_cashmere(
        app, _cluster(), app.root_task(), optimized=True, seed=seed,
        obs=True, return_runtime=True)
    assert len(cluster.obs.events) > 0
    return cluster.obs.serialize()


def _matmul_stream(seed: int) -> str:
    app = MatmulApp(n=4096, leaf_block=1024)
    result, runtime, cluster = run_cashmere(
        app, _cluster(), app.root_task(), optimized=True, seed=seed,
        obs=True, return_runtime=True)
    assert len(cluster.obs.events) > 0
    return cluster.obs.serialize()


STREAMS = {"kmeans": _kmeans_stream, "matmul": _matmul_stream}


@pytest.mark.parametrize("app_name", sorted(STREAMS))
@pytest.mark.parametrize("seed", [7, 42])
def test_same_seed_byte_identical(app_name, seed):
    make = STREAMS[app_name]
    first = make(seed)
    second = make(seed)
    # Compare digests first for a readable failure, then the full bytes.
    d1 = hashlib.sha256(first.encode()).hexdigest()
    d2 = hashlib.sha256(second.encode()).hexdigest()
    assert d1 == d2, f"{app_name} seed={seed}: stream digests differ"
    assert first == second


@pytest.mark.parametrize("app_name", sorted(STREAMS))
def test_different_seeds_differ(app_name):
    make = STREAMS[app_name]
    assert make(7) != make(8), \
        f"{app_name}: different seeds produced identical event streams"


def test_repeated_runs_stay_identical():
    """Many repetitions in one process: no cross-run state leaks through
    module-global counters (job ids, event sequence numbers, caches)."""
    reference = _matmul_stream(3)
    for _ in range(4):
        assert _matmul_stream(3) == reference


def test_stream_is_replayable_json_lines():
    """Every line of the serialized stream parses back; seq is dense."""
    import json

    lines = _kmeans_stream(11).split("\n")
    records = [json.loads(line) for line in lines]
    assert [r["seq"] for r in records] == list(range(len(records)))
    ts = [r["ts"] for r in records]
    assert all(b >= a for a, b in zip(ts, ts[1:])), \
        "event timestamps must be non-decreasing in emission order"


# ---------------------------------------------------------------------------
# golden hashes: the five apps' seeded streams are frozen byte-for-byte
# ---------------------------------------------------------------------------
#
# Same-seed/byte-identical (above) only protects against nondeterminism
# *within* one build of the runtime.  These constants additionally pin the
# streams *across* builds: any refactor of the spawn/sync machinery, the
# scheduler, or the protocol chains that changes even one event is a
# regression and must either be reverted or consciously re-golden-ed with
# a changelog note.  Every app computes its leaf values through the one
# deferred ``leaf_batch`` path, so these streams pin that path too.

GOLDEN_STREAM_HASHES = {
    "kmeans":
        "0ac26c445cba294a7b013feb52ee3a22a597f1c50a8579410d0b36182057167e",
    "matmul":
        "35bd2fd77d9c538994371f70b1cc030d53f1f2da0f7e39b2d0305172dd6d91a8",
    "nbody":
        "098a9edf36b602c885073d4f9b698a830b3992978b6c4a9ac0ed65ea757cf017",
    "raytracer":
        "1f3542e090f7c5a56da4341082d7832e20435db12773c84b7f5b9ca5062116f7",
    "satin-raytracer":
        "2c66bf9d77ecebeae8652198ff419d8cafbe5079cd73b8c68161ec6e81aa4a31",
}


def _golden_stream_hash(app_name: str) -> str:
    if app_name == "kmeans":
        app = KMeansApp(n_points=1 << 18, iterations=2, leaf_points=1 << 15)
    elif app_name == "matmul":
        app = MatmulApp(n=2048, leaf_block=512)
    elif app_name == "nbody":
        app = NBodyApp(n_bodies=1 << 14, iterations=2, leaf_bodies=1 << 11)
    elif app_name == "raytracer":
        app = RaytracerApp(width=256, height=128, samples=4, leaf_rows=16)
    else:  # satin-raytracer
        app = RaytracerApp(width=512, height=256, samples=4, leaf_rows=16)
        cluster_config = ClusterSpec(kind="satin_cpu", num_nodes=4).build()
        _res, _rt, cluster = run_satin(
            app, cluster_config, app.root_task(),
            config=RuntimeConfig(seed=42), obs=True, return_runtime=True)
        return hashlib.sha256(cluster.obs.serialize().encode()).hexdigest()
    _res, _rt, cluster = run_cashmere(
        app, _cluster(), app.root_task(),
        config=CashmereConfig(seed=42), obs=True, return_runtime=True)
    return hashlib.sha256(cluster.obs.serialize().encode()).hexdigest()


@pytest.mark.parametrize("app_name", sorted(GOLDEN_STREAM_HASHES))
def test_golden_stream_hashes(app_name):
    assert _golden_stream_hash(app_name) == GOLDEN_STREAM_HASHES[app_name], (
        f"{app_name}: seeded obs stream changed — the runtime's event "
        f"structure is no longer byte-identical to the committed golden")


# ---------------------------------------------------------------------------
# golden hashes: the DAG executor's seeded streams, frozen the same way
# ---------------------------------------------------------------------------
#
# Both compound graph apps at a small scale on the Table III k-means pool
# (23 devices of 7 types on 22 nodes), under the greedy and the lookahead
# placement policy.  The lookahead streams pin the upward ranks and EFT
# placements, so a change to the executor's cost estimates that reorders
# even one dispatch shows up here.

GRAPH_GOLDEN_STREAM_HASHES = {
    ("kmeans-pp", "makespan"):
        "323db285582c33d71749a7630f2cf641109d8e345584ec84cb16d697b34e8f56",
    ("kmeans-pp", "makespan-lookahead"):
        "b3e3154382fe4267d639c9ffef17cdae20a86c3e03694193d91b76b2c1932162",
    ("path-tracer", "makespan"):
        "39d3677dfdd32fc53ff58090df71a4006190ff57551e9a68126ba36b9024c423",
    ("path-tracer", "makespan-lookahead"):
        "93ff2e812e97266a0d24bea3512a5dba9160103d58114719b6f1be2711f79d6e",
}


def _graph_golden_stream_hash(app_name: str, policy: str) -> str:
    graph = GRAPH_APPS[app_name](scale=0.1)
    cluster = SimCluster(heterogeneous_kmeans(), obs_enabled=True)
    GraphRuntime(cluster, graph,
                 GraphConfig(seed=42, scheduler_policy=policy)).run()
    return hashlib.sha256(cluster.obs.serialize().encode()).hexdigest()


@pytest.mark.parametrize("app_name,policy", sorted(GRAPH_GOLDEN_STREAM_HASHES))
def test_graph_golden_stream_hashes(app_name, policy):
    want = GRAPH_GOLDEN_STREAM_HASHES[(app_name, policy)]
    assert _graph_golden_stream_hash(app_name, policy) == want, (
        f"{app_name}/{policy}: seeded DAG obs stream changed — the graph "
        f"executor's schedule is no longer byte-identical to the golden")


# ---------------------------------------------------------------------------
# serve sessions: per-job streams are independent of client arrival order
# ---------------------------------------------------------------------------
#
# The serve contract extends the determinism contract across tenants: each
# accepted job's seed derives from (session seed, tenant, per-tenant
# sequence number) and each job runs its own fresh simulation, so a job's
# event stream depends only on *which* submission it was for its tenant —
# never on how the submissions of different tenants happened to interleave
# at the socket, and never on what shared-pool slice it landed on.

def _serve_spec_for(tenant: str, k: int):
    """The k-th job spec of a tenant: fixed per (tenant, k), varied enough
    to make stream mixups across jobs detectable.  Multi-node jobs with
    many leaves, so the randomized steal protocol has real victim choices
    and the per-job seed is visible in the stream."""
    from repro.serve import JobSpec
    sizes = {"alpha": (1536, 1024, 2048), "beta": (896, 1280, 1792)}[tenant]
    return JobSpec(size=sizes[k % 3], leaf=64, nodes=2 + k % 2)


def _serve_session(seed: int, arrival_order):
    """Run one full serve session; return {(tenant, seq): event stream}."""
    import itertools

    from repro.serve import ServeConfig, Submitted
    from repro.serve.executor import run_admitted_sync
    from repro.serve.service import JobService
    from repro.serve.tenants import TenantConfig

    service = JobService(
        ServeConfig(nodes=6, seed=seed,
                    tenants=[TenantConfig(name="alpha", weight=3.0),
                             TenantConfig(name="beta", weight=1.0)]),
        clock=itertools.count(0).__next__)
    next_k = {"alpha": 0, "beta": 0}
    for tenant in arrival_order:
        spec = _serve_spec_for(tenant, next_k[tenant])
        next_k[tenant] += 1
        assert isinstance(service.submit(tenant, spec), Submitted)
    finished = run_admitted_sync(service)
    assert all(job.state.value == "done" for job in finished)
    assert all(job.events for job in finished)
    return {(job.tenant, job.tenant_seq): job.events for job in finished}


#: the same six submissions (3 per tenant), globally interleaved three
#: different ways — batched, round-robin, and beta-first
ARRIVALS = (
    ["alpha", "alpha", "alpha", "beta", "beta", "beta"],
    ["alpha", "beta", "alpha", "beta", "alpha", "beta"],
    ["beta", "beta", "alpha", "alpha", "beta", "alpha"],
)


@pytest.mark.parametrize("seed", [7, 42])
def test_serve_streams_independent_of_arrival_order(seed):
    reference = _serve_session(seed, ARRIVALS[0])
    assert len(reference) == 6
    for order in ARRIVALS[1:]:
        replay = _serve_session(seed, order)
        assert replay.keys() == reference.keys()
        for key in reference:
            d1 = hashlib.sha256(reference[key].encode()).hexdigest()
            d2 = hashlib.sha256(replay[key].encode()).hexdigest()
            assert d1 == d2, \
                f"job {key}: stream differs across arrival orders"
            assert replay[key] == reference[key]


def test_serve_different_session_seeds_differ():
    a = _serve_session(7, list(ARRIVALS[1]))
    b = _serve_session(8, list(ARRIVALS[1]))
    assert any(a[key] != b[key] for key in a), \
        "different session seeds produced identical per-job event streams"


def test_serve_jobs_have_distinct_streams():
    """Adjacent jobs of one session must not share a stream (the per-job
    seed derivation actually differentiates them)."""
    session = _serve_session(42, list(ARRIVALS[0]))
    streams = list(session.values())
    assert len(set(streams)) == len(streams)
