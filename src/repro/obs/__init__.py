"""``repro.obs`` — the unified observability layer.

One subsystem, three pieces:

* **event bus** (:mod:`repro.obs.bus`) — structured, virtual-time-stamped
  events (spawn / steal / transfer / kernel / crash / requeue / scheduler
  decisions) emitted by every layer of the stack and hung off
  ``Environment.obs``; zero overhead when disabled, byte-deterministic for
  a fixed seed,
* **metrics registry** (:mod:`repro.obs.metrics`) — counters, gauges and
  histograms replacing the runtimes' ad-hoc statistic dicts,
* **exporters** (:mod:`repro.obs.export`) — Chrome ``chrome://tracing``
  JSON, text summary tables, and the :class:`~repro.obs.export.Intervals`
  view of a recorded stream (Gantt lanes, utilization, transfer/compute
  overlap).

``python -m repro trace <app>`` (see :mod:`repro.obs.cli`) runs a small
heterogeneous workload with the bus enabled and writes a Chrome trace.
"""

from .bus import INTERVAL_KINDS, POINT_KINDS, EventBus, ObsEvent
from .export import Intervals, chrome_trace, metrics_summary, write_chrome_trace
from .metrics import Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "EventBus",
    "ObsEvent",
    "INTERVAL_KINDS",
    "POINT_KINDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "chrome_trace",
    "write_chrome_trace",
    "metrics_summary",
    "Intervals",
]
