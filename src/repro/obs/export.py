"""Exporters for the observability layer.

* :func:`chrome_trace` / :func:`write_chrome_trace` — turn the event stream
  into the Chrome ``chrome://tracing`` (aka Perfetto legacy) JSON format:
  interval events become complete (``"ph": "X"``) slices, point events
  become instants (``"ph": "i"``), nodes become processes and lanes become
  threads.
* :func:`metrics_summary` — render a :class:`repro.obs.metrics
  .MetricsRegistry` as the text tables the benchmark harness prints.
* :class:`Intervals` — the one interval view of a recorded stream: per-lane
  bars for the Gantt charts, busy time, utilization and the
  transfer/compute overlap statistic of the paper's Fig. 16 discussion.
* :func:`record_run_gauges` — the run-end cluster gauges, derived the same
  way for Satin/Cashmere runs and DAG runs.
"""

from __future__ import annotations

import json
from typing import (TYPE_CHECKING, Any, Dict, Iterable, List, Optional,
                    Sequence, Tuple)

from ..util.tables import format_table
from .bus import INTERVAL_KINDS, EventBus, ObsEvent
from .metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                      _histogram_entry)

if TYPE_CHECKING:
    from ..cluster.das4 import SimCluster

__all__ = ["chrome_trace", "write_chrome_trace", "metrics_summary",
           "Intervals", "record_run_gauges", "CATEGORIES"]

#: event kind -> Chrome trace category (the acceptance criteria talk about
#: "steal, transfer, and kernel events"; these are their categories)
CATEGORIES: Dict[str, str] = {
    "kernel": "kernel",
    "h2d": "transfer",
    "d2h": "transfer",
    "send": "transfer",
    "recv": "transfer",
    "cpu": "cpu",
    "steal": "steal",
    "steal_attempt": "steal",
    "steal_success": "steal",
    "spawn": "runtime",
    "result_recv": "runtime",
    "crash": "fault",
    "orphan_requeue": "fault",
    "sched_decision": "scheduler",
}

_US = 1e6  # chrome traces use microseconds


def _json_safe(value: Any) -> Any:
    """Best-effort conversion of event fields for JSON serialization."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return str(value)


def chrome_trace(source: Any) -> Dict[str, Any]:
    """Build a Chrome-trace dictionary from a bus or an event iterable.

    Every event lands on a ``(pid, tid)`` track: ``pid`` is the node rank
    (or 0 for cluster-global events) and ``tid`` is a stable per-lane index.
    Events are sorted by ``(pid, tid, ts)``, so ``ts`` is non-decreasing
    within each track — a property the test-suite locks down.
    """
    events: Sequence[ObsEvent] = (
        source.events if isinstance(source, EventBus) else list(source))

    # Stable lane -> tid assignment, in first-appearance order per node.
    lane_tids: Dict[Tuple[int, str], int] = {}
    next_tid: Dict[int, int] = {}

    def tid_for(pid: int, lane: str) -> int:
        key = (pid, lane)
        if key not in lane_tids:
            next_tid[pid] = next_tid.get(pid, 0) + 1
            lane_tids[key] = next_tid[pid]
        return lane_tids[key]

    trace_events: List[Dict[str, Any]] = []
    for ev in events:
        pid = ev.node if ev.node is not None else 0
        lane = ev.lane if ev.lane is not None else f"node{pid}/{ev.kind}"
        tid = tid_for(pid, lane)
        cat = CATEGORIES.get(ev.kind, "misc")
        args = {"seq": ev.seq}
        args.update({k: _json_safe(v) for k, v in ev.fields.items()})
        if ev.is_interval:
            trace_events.append({
                "name": str(ev.fields.get("label", ev.kind)),
                "cat": cat,
                "ph": "X",
                "ts": ev.start * _US,
                "dur": max(ev.end - ev.start, 0.0) * _US,
                "pid": pid,
                "tid": tid,
                "args": args,
            })
        else:
            trace_events.append({
                "name": ev.kind,
                "cat": cat,
                "ph": "i",
                "s": "t",
                "ts": ev.ts * _US,
                "pid": pid,
                "tid": tid,
                "args": args,
            })
    trace_events.sort(key=lambda e: (e["pid"], e["tid"], e["ts"], e["name"]))

    # Metadata: name the processes/threads so the viewer shows lanes.
    metadata: List[Dict[str, Any]] = []
    named_pids = set()
    for (pid, lane), tid in sorted(lane_tids.items(),
                                   key=lambda item: (item[0][0], item[1])):
        if pid not in named_pids:
            named_pids.add(pid)
            metadata.append({"name": "process_name", "ph": "M", "pid": pid,
                             "tid": 0, "args": {"name": f"node{pid}"}})
        metadata.append({"name": "thread_name", "ph": "M", "pid": pid,
                         "tid": tid, "args": {"name": lane}})
    return {
        "traceEvents": metadata + trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs", "time_unit": "us"},
    }


def write_chrome_trace(path: Any, source: Any) -> Dict[str, Any]:
    """Write the Chrome-trace JSON for a bus/event stream; returns the
    trace dict it wrote."""
    doc = chrome_trace(source)
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
    return doc


# ---------------------------------------------------------------------------
# interval arithmetic over the event stream
# ---------------------------------------------------------------------------

def _merged(intervals: Iterable[Tuple[float, float]]) -> List[Tuple[float, float]]:
    out: List[Tuple[float, float]] = []
    for s, e in sorted(intervals):
        if out and s <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], e))
        else:
            out.append((s, e))
    return out


class Intervals:
    """Read-only interval view of a recorded event stream.

    Built in one pass over ``events``: it keeps every interval event that
    sits on a lane and has a kind in :data:`INTERVAL_KINDS`, grouped by
    lane in order of first appearance.  The Gantt charts of the paper's
    Figs. 16-17 and the run-end ``device_overlap_fraction`` gauge both read
    this view, so each stream is scanned once however many lanes are asked.
    """

    def __init__(self, events: Iterable[ObsEvent]) -> None:
        #: the kept events, in stream order
        self.events: List[ObsEvent] = []
        self._lanes: Dict[str, List[ObsEvent]] = {}
        for ev in events:
            if (ev.lane is not None and ev.kind in INTERVAL_KINDS
                    and ev.is_interval):
                self.events.append(ev)
                self._lanes.setdefault(ev.lane, []).append(ev)

    def __len__(self) -> int:
        return len(self.events)

    def lanes(self) -> List[str]:
        return list(self._lanes)

    def by_lane(self, lane: str) -> List[ObsEvent]:
        return list(self._lanes.get(lane, ()))

    def by_kind(self, kind: str) -> List[ObsEvent]:
        return [ev for ev in self.events if ev.kind == kind]

    def span(self) -> float:
        """Time from the first interval's start to the last one's end."""
        if not self.events:
            return 0.0
        return (max(ev.end for ev in self.events)
                - min(ev.start for ev in self.events))

    def busy_time(self, lane: str) -> float:
        """Union duration of one lane's intervals."""
        return sum(e - s for s, e in self._union(lane))

    def utilization(self, lane: str) -> float:
        span = self.span()
        return self.busy_time(lane) / span if span > 0 else 0.0

    def overlap_fraction(self, device_lane: str) -> Optional[float]:
        """Fraction of PCIe transfer time overlapped with kernel execution.

        ``device_lane`` names one device (e.g. ``"node3/gtx480[0]"``); its
        ``/kernel``, ``/h2d`` and ``/d2h`` lanes are read.  Returns ``None``
        when the device transferred nothing; otherwise a value in
        ``[0, 1]``: time during which both a transfer *and* a kernel were
        active, divided by total transfer time.
        """
        kernel = self._union(f"{device_lane}/kernel")
        transfer = self._union(f"{device_lane}/h2d", f"{device_lane}/d2h")
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

    def _union(self, *lanes: str) -> List[Tuple[float, float]]:
        return _merged((ev.start, ev.end) for lane in lanes
                       for ev in self._lanes.get(lane, ()))


def record_run_gauges(registry: MetricsRegistry, cluster: "SimCluster",
                      makespan: float) -> None:
    """Derive the run-end cluster gauges (CPU and device utilization,
    transfer/compute overlap when the bus is on, network totals) from the
    cluster's counters and one :class:`Intervals` pass over its stream."""
    cpu_util = registry.gauge(
        "node_cpu_utilization", "host-CPU busy fraction, by node")
    dev_util = registry.gauge(
        "device_utilization", "kernel-engine busy fraction, by device lane")
    overlap = registry.gauge(
        "device_overlap_fraction",
        "fraction of PCIe transfer time overlapped with kernels")
    net_bytes = registry.gauge("network_bytes_total",
                               "bytes carried by the interconnect")
    net_msgs = registry.gauge("network_messages_total",
                              "messages carried by the interconnect")
    net_bytes.set(cluster.network.total_bytes)
    net_msgs.set(cluster.network.total_messages)
    obs = cluster.obs
    intervals = Intervals(obs.events) if obs.enabled else None
    for node in cluster.nodes:
        if makespan > 0:
            cpu_util.set(
                min(node.busy_cpu_s / (node.cpu.cores * makespan), 1.0),
                node=node.rank)
        for dev in node.devices:
            if makespan > 0:
                dev_util.set(min(dev.busy_kernel_s / makespan, 1.0),
                             lane=dev.lane)
            if intervals is not None:
                frac = intervals.overlap_fraction(dev.lane)
                if frac is not None:
                    overlap.set(frac, lane=dev.lane)


# ---------------------------------------------------------------------------
# text summary
# ---------------------------------------------------------------------------

def _fmt_labels(key: Tuple[Tuple[str, Any], ...]) -> str:
    return ",".join(f"{k}={v}" for k, v in key) or "-"


def metrics_summary(registry: MetricsRegistry,
                    title: str = "metrics") -> str:
    """Render every metric of a registry as one aligned text table."""
    rows: List[List[Any]] = []
    for name in registry.names():
        metric = registry.get(name)
        if isinstance(metric, Counter) or isinstance(metric, Gauge):
            for key, value in metric.items():
                rows.append([name, metric.kind, _fmt_labels(key), value])
            if not metric.items():
                rows.append([name, metric.kind, "-", 0.0])
        elif isinstance(metric, Histogram):
            for key, samples in metric.items():
                entry = _histogram_entry(samples)
                summary = (f"n={entry['count']} min={entry['min']:.4g} "
                           f"p50={entry['p50']:.4g} "
                           f"max={entry['max']:.4g}") if samples else "n=0"
                rows.append([name, metric.kind, _fmt_labels(key), summary])
    return format_table(["metric", "type", "labels", "value"], rows,
                        title=title)
