"""Tests for the interval view of a recorded stream and Gantt rendering."""

import pytest

from repro.core.gantt import (
    gantt_overview,
    gantt_zoomed,
    kernel_lanes,
    node_queues,
    render_gantt_ascii,
)
from repro.obs.bus import EventBus
from repro.obs.export import Intervals


def make_trace():
    bus = EventBus(enabled=True)
    bus.emit("kernel", lane="node0/gtx480[0]/kernel", start=0.0, end=2.0, label="k")
    bus.emit("spawn", node=0, job_id=1)  # a point event: not an interval
    bus.emit("kernel", lane="node0/gtx480[0]/kernel", start=3.0, end=4.0, label="k")
    bus.emit("h2d", lane="node0/gtx480[0]/h2d", start=0.5, end=1.0, label="in")
    bus.emit("cpu", lane="node1/cpu", start=1.0, end=1.5, label="steal")
    return Intervals(bus.events)


def test_record_and_query():
    t = make_trace()
    assert len(t) == 4
    assert t.lanes() == ["node0/gtx480[0]/kernel", "node0/gtx480[0]/h2d",
                         "node1/cpu"]
    assert len(t.by_kind("kernel")) == 2
    assert t.by_lane("node1/cpu")[0].fields["label"] == "steal"
    assert t.by_lane("node9/cpu") == []


def test_span_and_busy_time():
    t = make_trace()
    assert t.span() == 4.0
    # kernel lane: [0,2] + [3,4] = 3.0 busy
    assert t.busy_time("node0/gtx480[0]/kernel") == pytest.approx(3.0)
    assert t.utilization("node0/gtx480[0]/kernel") == pytest.approx(0.75)


def test_busy_time_merges_overlapping_intervals():
    bus = EventBus(enabled=True)
    bus.emit("kernel", lane="q", start=0.0, end=2.0, label="a")
    bus.emit("kernel", lane="q", start=1.0, end=3.0, label="b")  # overlaps
    assert Intervals(bus.events).busy_time("q") == pytest.approx(3.0)


def test_view_keeps_only_interval_kinds_on_lanes():
    bus = EventBus(enabled=True)
    bus.emit("kernel", start=0.0, end=1.0)                 # no lane
    bus.emit("steal_attempt", lane="node0/steal", victim=1)  # point kind
    bus.emit("graph_node_ready", lane="x", start=0.0, end=1.0)  # not interval kind
    bus.emit("send", lane="node0/net", start=0.0, end=1.0)
    t = Intervals(bus.events)
    assert t.lanes() == ["node0/net"]
    assert Intervals([]).span() == 0.0
    assert Intervals([]).utilization("node0/net") == 0.0


def test_overlap_fraction_reads_the_device_lanes():
    bus = EventBus(enabled=True)
    dev = "node0/gtx480[0]"
    bus.emit("kernel", lane=f"{dev}/kernel", start=1.0, end=3.0)
    bus.emit("h2d", lane=f"{dev}/h2d", start=0.0, end=2.0)   # half overlapped
    bus.emit("d2h", lane=f"{dev}/d2h", start=2.5, end=3.5)   # half overlapped
    bus.emit("h2d", lane="node0/gtx480[1]/h2d", start=0.0, end=9.0)
    t = Intervals(bus.events)
    assert t.overlap_fraction(dev) == pytest.approx(1.5 / 3.0)
    assert t.overlap_fraction("node0/gtx480[1]") == 0.0
    assert t.overlap_fraction("node5/k20[0]") is None  # no transfers


def test_render_ascii_basic():
    chart = render_gantt_ascii(make_trace(), width=40)
    assert "#" in chart       # kernel bars
    assert ">" in chart       # h2d bars
    assert "=" in chart       # cpu bars
    assert "node1/cpu" in chart


def test_render_empty_trace():
    assert render_gantt_ascii(Intervals([])) == "(empty trace)"


def test_render_zoom_window():
    chart = render_gantt_ascii(make_trace(), width=40, t0=2.5, t1=3.5)
    # Only the second kernel interval is inside the window.
    lines = [l for l in chart.splitlines() if l.startswith("node0/gtx480[0]/kernel")]
    assert lines and "#" in lines[0]
    h2d = [l for l in chart.splitlines() if "/h2d" in l]
    assert h2d and ">" not in h2d[0]


def test_render_bar_clipped_at_window_end_fills_last_column():
    # (0.2 - 0.01) * (100 / 0.19) is 99.99999999999999, which used to
    # truncate to 99 and leave the last column blank.
    bus = EventBus(enabled=True)
    bus.emit("kernel", lane="node0/gtx480[0]/kernel", start=0.0, end=1.0)
    chart = render_gantt_ascii(Intervals(bus.events), width=100,
                               t0=0.01, t1=0.2)
    row = chart.splitlines()[1]
    assert row.split("|")[1] == "#" * 100


def test_render_kind_filter():
    chart = render_gantt_ascii(make_trace(), width=40, kinds=("kernel",))
    assert "#" in chart
    assert "node1/cpu" not in chart


def test_render_window_past_all_activity_is_blank():
    chart = render_gantt_ascii(make_trace(), t0=10.0, t1=11.0, width=30)
    body = "\n".join(chart.splitlines()[1:-1])  # drop header + legend
    assert not any(ch in body for ch in "#><=?")


def test_render_degenerate_window_rejected():
    assert render_gantt_ascii(make_trace(), t0=5.0, t1=5.0) == "(empty window)"


def test_node_queues_and_kernel_lanes():
    t = make_trace()
    assert node_queues(t, "node0") == ["node0/gtx480[0]/kernel",
                                       "node0/gtx480[0]/h2d"]
    assert node_queues(t, "node1") == ["node1/cpu"]
    assert kernel_lanes(t) == ["node0/gtx480[0]/kernel"]


def test_gantt_helpers_render():
    t = make_trace()
    assert "#" in gantt_overview(t, width=30)
    zoomed = gantt_zoomed(t, ["node0"], width=30)
    assert "node0/gtx480[0]/kernel" in zoomed
    assert "node1/cpu" not in zoomed
