"""Conservation laws checked on recorded obs streams.

Read through the one interval view (:class:`repro.obs.export.Intervals`), a
recorded stream must describe a schedule the simulated hardware could have
run:

* every interval ends no earlier than it starts;
* a device engine does one thing at a time, so no two intervals on one
  ``kernel``, ``h2d`` or ``d2h`` lane overlap;
* with ``device_overlap=False`` copies and kernels share one engine, so no
  two of one device's kernel/h2d/d2h intervals overlap.

The laws run over every ``repro trace`` app (with and without copy/compute
overlap) and over both DAG apps under both placement policies.
"""

from __future__ import annotations

import dataclasses
from typing import List

import pytest

from repro.cluster.das4 import SimCluster, heterogeneous_kmeans
from repro.graph import GraphConfig, GraphRuntime
from repro.graph.apps import GRAPH_APPS
from repro.obs.bus import EventBus, ObsEvent
from repro.obs.cli import TRACE_APPS, demo_cluster, run_traced_app
from repro.obs.export import Intervals

ENGINES = ("kernel", "h2d", "d2h")


def _overlapping(events: List[ObsEvent]) -> List[str]:
    """One message per interval that starts before an earlier one ends."""
    found = []
    last = None
    for ev in sorted(events, key=lambda ev: (ev.start, ev.end)):
        if last is not None and ev.start < last.end:
            found.append(f"{last.lane} [{last.start}, {last.end}] overlaps "
                         f"{ev.lane} [{ev.start}, {ev.end}]")
        if last is None or ev.end > last.end:
            last = ev
    return found


def stream_law_violations(view: Intervals, serial_devices: bool) -> List[str]:
    """Every broken law of the view, as readable messages."""
    found = [f"{ev.lane}: ends at {ev.end} before it starts at {ev.start}"
             for ev in view.events if ev.end < ev.start]
    devices = {}
    for lane in view.lanes():
        device, _, engine = lane.rpartition("/")
        if engine in ENGINES:
            found += _overlapping(view.by_lane(lane))
            devices.setdefault(device, []).extend(view.by_lane(lane))
    if serial_devices:
        for events in devices.values():
            found += _overlapping(events)
    return found


def _device_lanes(view: Intervals) -> List[str]:
    return [lane for lane in view.lanes()
            if lane.rpartition("/")[2] in ENGINES]


@pytest.mark.parametrize("device_overlap", [True, False])
@pytest.mark.parametrize("app_name", sorted(TRACE_APPS))
def test_trace_app_streams_obey_the_laws(app_name, device_overlap):
    config = dataclasses.replace(demo_cluster(), device_overlap=device_overlap)
    _, _, cluster = run_traced_app(app_name, cluster_config=config)
    view = Intervals(cluster.obs.events)
    assert _device_lanes(view), "the run recorded no device intervals"
    assert stream_law_violations(
        view, serial_devices=not device_overlap) == []


@pytest.mark.parametrize("policy", ["makespan", "makespan-lookahead"])
@pytest.mark.parametrize("app_name", ["path-tracer", "kmeans-pp"])
def test_graph_streams_obey_the_laws(app_name, policy):
    cluster = SimCluster(heterogeneous_kmeans(), obs_enabled=True)
    GraphRuntime(cluster, GRAPH_APPS[app_name](scale=0.1),
                 GraphConfig(seed=42, scheduler_policy=policy)).run()
    view = Intervals(cluster.obs.events)
    assert _device_lanes(view), "the run recorded no device intervals"
    assert stream_law_violations(view, serial_devices=False) == []


def test_laws_catch_broken_streams():
    bus = EventBus(enabled=True)
    dev = "node0/gtx480[0]"
    bus.emit("kernel", lane=f"{dev}/kernel", start=0.0, end=2.0)
    bus.emit("kernel", lane=f"{dev}/kernel", start=2.0, end=3.0)  # touches
    bus.emit("h2d", lane=f"{dev}/h2d", start=1.0, end=1.5)
    bus.emit("cpu", lane="node0/cpu", start=0.0, end=2.0)
    bus.emit("cpu", lane="node0/cpu", start=1.0, end=2.0)  # 8 cores: fine
    view = Intervals(bus.events)
    assert stream_law_violations(view, serial_devices=False) == []
    assert len(stream_law_violations(view, serial_devices=True)) == 1

    bus.emit("d2h", lane=f"{dev}/d2h", start=4.0, end=3.5)
    bus.emit("kernel", lane=f"{dev}/kernel", start=2.5, end=2.6)
    found = stream_law_violations(Intervals(bus.events), serial_devices=False)
    assert len(found) == 2
    assert "ends at 3.5 before it starts at 4.0" in found[0]
    assert "overlaps" in found[1]
