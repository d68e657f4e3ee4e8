"""Property-based tests for the observability layer (hypothesis).

Property families, straight from the design contract:

* counters are monotone under any sequence of increments,
* histogram quantiles are always bounded by min/max,
* the metrics summary table prints a histogram's own min, interpolated
  p50 and max,
* per-device utilization is within [0, 1] on randomized workloads,
* the Chrome-trace export round-trips ``json.loads`` with non-decreasing
  ``ts`` per (pid, tid) track, for arbitrary event streams,
* a serialized stream equals ``json.dumps`` of every event's ``to_dict``,
  byte for byte, with and without the C accelerator,
* the interval view's transfer/compute overlap equals a per-device rescan
  of the stream, which the run-end gauges read in one pass,
* Satin/Cashmere and DAG runs derive the same run-end gauges, pinned by a
  registry golden and checked against their formulas.
"""

from __future__ import annotations

import hashlib
import json
import re

import pytest

try:
    from hypothesis import example, given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is in the CI image
    pytest.skip("hypothesis not installed", allow_module_level=True)

from repro.cluster.das4 import SimCluster, heterogeneous_kmeans
from repro.graph.apps import GRAPH_APPS
from repro.graph.executor import GraphConfig, GraphRuntime
from repro.obs.bus import EventBus, ObsEvent
from repro.obs.export import Intervals, chrome_trace, metrics_summary
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

# ---------------------------------------------------------------------------
# counters
# ---------------------------------------------------------------------------

amounts = st.lists(
    st.floats(min_value=0.0, max_value=1e9,
              allow_nan=False, allow_infinity=False),
    max_size=50)


@given(amounts=amounts)
def test_counter_is_monotone(amounts):
    c = Counter("test_total")
    seen = [c.value()]
    for a in amounts:
        c.inc(a)
        seen.append(c.value())
    assert all(b >= a for a, b in zip(seen, seen[1:]))
    assert c.value() == pytest.approx(sum(amounts))


@given(amount=st.floats(max_value=-1e-9, min_value=-1e9, allow_nan=False))
def test_counter_rejects_negative(amount):
    c = Counter("test_total")
    before = c.value()
    with pytest.raises(ValueError):
        c.inc(amount)
    assert c.value() == before


@given(per_label=st.dictionaries(
    st.integers(min_value=0, max_value=7), amounts, max_size=4))
def test_counter_total_equals_sum_of_children(per_label):
    c = Counter("test_total")
    for node, incs in per_label.items():
        for a in incs:
            c.inc(a, node=node)
    expect = sum(sum(incs) for incs in per_label.values())
    assert c.total == pytest.approx(expect)
    by_node = c.by_label("node")
    for node, incs in per_label.items():
        if incs:
            assert by_node.get(node, 0.0) == pytest.approx(sum(incs))


# ---------------------------------------------------------------------------
# histograms
# ---------------------------------------------------------------------------

samples = st.lists(
    st.floats(min_value=-1e6, max_value=1e6,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=100)


@given(samples=samples, q=st.floats(min_value=0.0, max_value=1.0))
def test_histogram_quantile_bounded_by_min_max(samples, q):
    h = Histogram("test_hist")
    for s in samples:
        h.observe(s)
    value = h.quantile(q)
    assert h.min() <= value <= h.max()
    assert h.quantile(0.0) == pytest.approx(h.min())
    assert h.quantile(1.0) == pytest.approx(h.max())


@given(samples=samples)
def test_histogram_moments_consistent(samples):
    h = Histogram("test_hist")
    for s in samples:
        h.observe(s)
    assert h.count() == len(samples)
    assert h.sum() == pytest.approx(sum(samples))
    # fp summation can put the mean a few ulps outside [min, max]
    slack = 1e-9 * max(1.0, abs(h.min()), abs(h.max()))
    assert h.min() - slack <= h.mean() <= h.max() + slack


@given(q=st.one_of(st.floats(max_value=-1e-9, allow_nan=False),
                   st.floats(min_value=1.0 + 1e-9, allow_nan=False)))
def test_histogram_quantile_domain(q):
    h = Histogram("test_hist")
    h.observe(1.0)
    with pytest.raises(ValueError):
        h.quantile(q)


def test_empty_histogram_quantile_is_none():
    assert Histogram("test_hist").quantile(0.5) is None


@given(samples=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                        min_size=1, max_size=100))
@example(samples=[1.0, 2.0, 3.0, 4.0])
@example(samples=[0.0, -0.0])
def test_metrics_summary_row_matches_histogram(samples):
    registry = MetricsRegistry()
    h = registry.histogram("test_hist")
    for s in samples:
        h.observe(s)
    row = re.search(r"n=(\S+) min=(\S+) p50=(\S+) max=(\S+)",
                    metrics_summary(registry))
    assert row.groups() == (str(len(samples)), format(h.min(), ".4g"),
                            format(h.quantile(0.5), ".4g"),
                            format(h.max(), ".4g"))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_registry_get_or_create_and_type_conflicts():
    reg = MetricsRegistry()
    c = reg.counter("a_total")
    assert reg.counter("a_total") is c
    with pytest.raises(TypeError):
        reg.gauge("a_total")
    g = reg.gauge("b")
    assert isinstance(g, Gauge)
    assert sorted(reg.names()) == ["a_total", "b"]
    assert "a_total" in reg and len(reg) == 2
    snap = reg.snapshot()
    assert snap["a_total"]["kind"] == "counter"


# ---------------------------------------------------------------------------
# utilization on randomized workloads
# ---------------------------------------------------------------------------

@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       leaf_shift=st.integers(min_value=9, max_value=11))
def test_device_utilization_in_unit_interval(seed, leaf_shift):
    from repro.apps.base import run_cashmere
    from repro.apps.matmul import MatmulApp
    from repro.cluster.das4 import ClusterConfig

    app = MatmulApp(n=4096, leaf_block=1 << leaf_shift)
    cluster_config = ClusterConfig(
        name="prop-het", nodes=[("gtx480",), ("k20", "xeon_phi")])
    result, runtime, cluster = run_cashmere(
        app, cluster_config, app.root_task(), seed=seed, obs=True,
        return_runtime=True)
    reg = result.stats.registry

    util = reg.get("device_utilization")
    assert util is not None
    by_lane = util.by_label("lane")
    assert by_lane, "expected at least one device utilization sample"
    for lane, value in by_lane.items():
        assert 0.0 <= value <= 1.0, f"{lane}: utilization {value}"

    cpu = reg.get("node_cpu_utilization")
    for node, value in cpu.by_label("node").items():
        assert 0.0 <= value <= 1.0, f"node {node}: cpu utilization {value}"

    ratio = reg.get("satin_steal_success_ratio")
    for node, value in ratio.by_label("node").items():
        assert 0.0 <= value <= 1.0

    overlap = reg.get("device_overlap_fraction")
    if overlap is not None:
        for lane, value in overlap.by_label("lane").items():
            assert 0.0 <= value <= 1.0


# ---------------------------------------------------------------------------
# Chrome-trace export on arbitrary event streams
# ---------------------------------------------------------------------------

interval_kind = st.sampled_from(["cpu", "kernel", "h2d", "d2h", "send"])
point_kind = st.sampled_from(["spawn", "steal_attempt", "crash"])


@st.composite
def obs_events(draw, max_node=7, max_start=1e3):
    seq = draw(st.integers(min_value=0, max_value=10**6))
    node = draw(st.one_of(st.none(),
                          st.integers(min_value=0, max_value=max_node)))
    if draw(st.booleans()):
        kind = draw(interval_kind)
        start = draw(st.floats(min_value=0.0, max_value=max_start,
                               allow_nan=False, allow_infinity=False))
        dur = draw(st.floats(min_value=0.0, max_value=10.0,
                             allow_nan=False, allow_infinity=False))
        lane = f"node{node or 0}/dev[{draw(st.integers(0, 2))}]/{kind}"
        return ObsEvent(seq=seq, ts=start + dur, kind=kind, node=node,
                        lane=lane, start=start, end=start + dur,
                        fields={"label": kind})
    kind = draw(point_kind)
    ts = draw(st.floats(min_value=0.0, max_value=1e3,
                        allow_nan=False, allow_infinity=False))
    return ObsEvent(seq=seq, ts=ts, kind=kind, node=node, fields={})


@given(events=st.lists(obs_events(), max_size=40))
@settings(max_examples=50, deadline=None)
def test_chrome_trace_round_trips_and_is_monotone(events):
    trace = chrome_trace(events)
    blob = json.dumps(trace)
    parsed = json.loads(blob)
    assert parsed["traceEvents"] == trace["traceEvents"]

    last_ts = {}
    for ev in parsed["traceEvents"]:
        if ev.get("ph") == "M":
            continue
        assert ev["ph"] in ("X", "i")
        assert ev["ts"] >= 0.0
        if ev["ph"] == "X":
            assert ev["dur"] >= 0.0
        track = (ev["pid"], ev["tid"])
        assert ev["ts"] >= last_ts.get(track, float("-inf")), \
            f"track {track}: ts went backwards"
        last_ts[track] = ev["ts"]


def test_chrome_trace_accepts_bus():
    bus = EventBus(enabled=True)
    bus.emit("kernel", node=1, lane="node1/gtx480[0]/kernel",
             start=0.0, end=0.5, label="k", device="gtx480")
    bus.emit("spawn", node=1, job_id=3)
    trace = chrome_trace(bus)
    names = [e["name"] for e in trace["traceEvents"] if e.get("ph") == "X"]
    assert "k" in names


# ---------------------------------------------------------------------------
# serialization: one reused encoder, byte-identical to json.dumps
# ---------------------------------------------------------------------------

#: floats json.dumps spells specially or at the edge of repr
_EDGE_FLOATS = (float("nan"), float("inf"), float("-inf"), -0.0, 0.0,
                5e-324, 2.2250738585072009e-308, 1e308, -1e308, 1e16, 0.1)
#: control, separator, non-ASCII, astral and lone-surrogate characters
_EDGE_CHARS = ("\x00", "\x1f", "\x7f", "\"", "\\", "/", "\u2028", "\xe9",
               "\u96ea", "\U0001f600", "\ud800")


class _Opaque:
    """Not JSON: ``default=str`` spells it by its ``str``."""

    def __init__(self, tag):
        self.tag = tag

    def __str__(self):
        return f"<opaque {self.tag}>"


_texts = st.text(alphabet=st.one_of(st.characters(),
                                    st.sampled_from(_EDGE_CHARS)),
                 max_size=12)
_floats = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())
_scalars = st.one_of(
    st.none(), st.booleans(), _floats, _texts,
    st.integers(min_value=-2**200, max_value=2**200),
    st.builds(_Opaque, st.integers(0, 9)))
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(_texts, inner, max_size=4)),
    max_leaves=12)


@st.composite
def _encodable_events(draw):
    """Events with every optional member drawn or ``None`` and arbitrary
    nested fields."""
    return ObsEvent(
        draw(st.integers(min_value=0, max_value=2**70)),
        draw(_floats),
        draw(_texts),
        draw(st.none() | st.integers(min_value=-2**70, max_value=2**70)),
        draw(st.none() | _texts),
        draw(st.none() | _floats),
        draw(st.none() | _floats),
        draw(st.dictionaries(_texts, _values, max_size=5)))


def _dumps(ev):
    return json.dumps(ev.to_dict(), sort_keys=True, separators=(",", ":"),
                      default=str)


@pytest.mark.parametrize("accelerated", [True, False],
                         ids=["c-encoder", "python-fallback"])
@given(events=st.lists(_encodable_events(), max_size=8))
@settings(max_examples=150, deadline=None)
def test_serialize_equals_json_dumps_byte_for_byte(accelerated, events):
    with pytest.MonkeyPatch.context() as mp:
        if accelerated:
            assert json.encoder.c_make_encoder is not None
        else:
            mp.setattr(json.encoder, "c_make_encoder", None)
        bus = EventBus()
        bus.events.extend(events)
        lines = [_dumps(ev) for ev in events]
        assert [ev.serialize() for ev in events] == lines
        assert bus.serialize() == "\n".join(lines)


@pytest.mark.parametrize("accelerated", [True, False],
                         ids=["c-encoder", "python-fallback"])
def test_a_circular_field_fails_its_stream_only(accelerated, monkeypatch):
    """The circular-reference check stays on, and a stream that fails it
    leaves no marker behind for the next stream."""
    if not accelerated:
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    bus = EventBus(enabled=True)
    loop = bus.emit("spawn", node=0, job_id=1)
    loop.fields["self"] = loop.fields
    with pytest.raises(ValueError, match="Circular reference"):
        bus.serialize()
    del loop.fields["self"]
    bus.emit("crash", node=1, nested={"a": [1.5, None]})
    assert bus.serialize() == "\n".join(_dumps(ev) for ev in bus.events)


# ---------------------------------------------------------------------------
# transfer/compute overlap: exact, and one pass per run
# ---------------------------------------------------------------------------

def _merged(intervals):
    out = []
    for s, e in sorted(intervals):
        if out and s <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], e))
        else:
            out.append((s, e))
    return out


def _rescanned_overlap_fraction(events, lane_prefix):
    """The per-device scan the view replaced: two passes over the stream."""
    kernel = _merged((ev.start, ev.end) for ev in events
                     if ev.kind == "kernel" and ev.is_interval
                     and (ev.lane or "").startswith(lane_prefix))
    transfer = _merged((ev.start, ev.end) for ev in events
                       if ev.kind in ("h2d", "d2h") and ev.is_interval
                       and (ev.lane or "").startswith(lane_prefix))
    total_transfer = sum(e - s for s, e in transfer)
    if total_transfer <= 0:
        return None
    overlapped = 0.0
    ki = 0
    for ts, te in transfer:
        while ki < len(kernel) and kernel[ki][1] <= ts:
            ki += 1
        kj = ki
        while kj < len(kernel) and kernel[kj][0] < te:
            overlapped += min(te, kernel[kj][1]) - max(ts, kernel[kj][0])
            kj += 1
    return min(overlapped / total_transfer, 1.0)


@given(events=st.one_of(
    st.lists(obs_events(), max_size=40),
    # few devices and a short window, so kernels and transfers collide
    st.lists(obs_events(max_node=0, max_start=5.0), min_size=10,
             max_size=40)))
@settings(max_examples=200, deadline=None)
def test_overlap_fraction_equals_per_device_rescan(events):
    view = Intervals(events)
    devices = {ev.lane.rpartition("/")[0] for ev in events
               if ev.lane is not None}
    for dev in sorted(devices) + ["node9/dev[0]"]:
        assert view.overlap_fraction(dev) == \
            _rescanned_overlap_fraction(events, dev), dev


class _CountingList(list):
    """A list that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def test_finalize_metrics_scans_the_stream_once():
    from repro.obs.cli import run_traced_app

    result, runtime, cluster = run_traced_app("raytracer")
    gauge = result.stats.registry.get("device_overlap_fraction")
    before = gauge.by_label("lane")
    assert before
    cluster.obs.events = events = _CountingList(cluster.obs.events)
    runtime._finalize_metrics()
    assert events.iterations <= 1
    assert gauge.by_label("lane") == before


# ---------------------------------------------------------------------------
# the run ledger: one derivation of the run-end gauges for both executors
# ---------------------------------------------------------------------------

#: sha256 over the metrics-registry snapshots of the four ``repro trace``
#: apps (seed 42, apps in sorted order, each snapshot's sorted-key JSON
#: followed by a NUL byte)
TRACE_REGISTRY_GOLDEN = (
    "967fe0e081b1e54074514543ec76a15852ff87564f986dfa9f571b1e79b901e9")


def test_trace_app_registries_match_golden():
    from repro.obs.cli import TRACE_APPS, run_traced_app

    digest = hashlib.sha256()
    for app in sorted(TRACE_APPS):
        result, _, _ = run_traced_app(app, seed=42)
        digest.update(json.dumps(result.stats.registry.snapshot(),
                                 sort_keys=True).encode())
        digest.update(b"\0")
    assert digest.hexdigest() == TRACE_REGISTRY_GOLDEN


def _dag_run(app, obs):
    graph = GRAPH_APPS[app](scale=0.1)
    cluster = SimCluster(heterogeneous_kmeans(), obs_enabled=obs)
    result = GraphRuntime(cluster, graph, GraphConfig(
        scheduler_policy="makespan-lookahead")).run()
    devices = [dev for node in cluster.nodes for dev in node.devices]
    return result, cluster, devices


@pytest.mark.parametrize("app", sorted(GRAPH_APPS))
def test_dag_run_records_the_cluster_gauges(app):
    result, cluster, devices = _dag_run(app, obs=True)
    registry = result.registry
    intervals = Intervals(cluster.obs.events)
    util = registry.get("device_utilization").by_label("lane")
    overlap = registry.get("device_overlap_fraction").by_label("lane")
    assert set(util) == {dev.lane for dev in devices}
    assert overlap
    for dev in devices:
        assert util[dev.lane] == min(dev.busy_kernel_s / result.makespan_s,
                                     1.0)
        # no value where the device transferred nothing
        assert overlap.get(dev.lane) == intervals.overlap_fraction(dev.lane)
    assert (registry.get("network_bytes_total").value()
            == cluster.network.total_bytes)


@pytest.mark.parametrize("app", sorted(GRAPH_APPS))
def test_dag_run_without_the_bus_has_no_overlap_gauge(app):
    result, _, devices = _dag_run(app, obs=False)
    assert not result.registry.get("device_overlap_fraction").items()
    assert (set(result.registry.get("device_utilization").by_label("lane"))
            == {dev.lane for dev in devices})
