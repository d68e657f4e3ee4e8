"""Gantt-chart reporting for Cashmere runs (the paper's Figs. 16-17).

A run with the event bus on records every CPU task, host<->device transfer,
network send and kernel execution as an interval event.  These helpers draw
an :class:`~repro.obs.export.Intervals` view of that stream the way the
paper presents it: a zoomed-in multi-queue view of a couple of nodes
(Fig. 16), and a kernels-only overview of the whole run (Fig. 17).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..obs.export import Intervals

__all__ = ["node_queues", "gantt_zoomed", "gantt_overview", "kernel_lanes",
           "render_gantt_ascii"]

_KIND_CHAR = {
    "kernel": "#",
    "h2d": ">",
    "d2h": "<",
    "send": "s",
    "recv": "r",
    "cpu": "=",
    "steal": "?",
}


def render_gantt_ascii(view: Intervals, width: int = 100,
                       queues: Optional[Sequence[str]] = None,
                       t0: Optional[float] = None,
                       t1: Optional[float] = None,
                       kinds: Optional[Sequence[str]] = None) -> str:
    """Render an interval view as an ASCII Gantt chart.

    ``kinds`` restricts the chart to some event kinds (the paper's Fig. 17
    shows kernel executions only); ``t0``/``t1`` zoom in (Fig. 16).  A bar
    that reaches the window's end fills the last column.
    """
    bars = {lane: [ev for ev in view.by_lane(lane)
                   if kinds is None or ev.kind in kinds]
            for lane in view.lanes()}
    bars = {lane: evs for lane, evs in bars.items() if evs}
    if not bars:
        return "(empty trace)"
    lo = min(ev.start for evs in bars.values() for ev in evs) if t0 is None else t0
    hi = max(ev.end for evs in bars.values() for ev in evs) if t1 is None else t1
    if hi <= lo:
        return "(empty window)"
    lanes = queues if queues is not None else sorted(bars)
    label_w = max(len(q) for q in lanes) + 1
    scale = width / (hi - lo)
    lines = []
    header = " " * label_w + f"|{lo:.3f}s" + " " * max(0, width - 16) + f"{hi:.3f}s|"
    lines.append(header)
    for q in lanes:
        row = [" "] * width
        for ev in bars.get(q, ()):
            s = max(ev.start, lo)
            e = min(ev.end, hi)
            if e <= lo or s >= hi:
                continue
            i0 = int((s - lo) * scale)
            i1 = width if e >= hi else max(i0 + 1, int((e - lo) * scale))
            ch = _KIND_CHAR.get(ev.kind, "*")
            for i in range(i0, min(i1, width)):
                row[i] = ch
        lines.append(q.ljust(label_w) + "|" + "".join(row) + "|")
    legend = "  ".join(f"{c}={k}" for k, c in _KIND_CHAR.items())
    lines.append(" " * label_w + legend)
    return "\n".join(lines)


def node_queues(view: Intervals, node_name: str) -> List[str]:
    """All lanes ('queues', in the paper's terminology) of one node."""
    return [q for q in view.lanes()
            if q == node_name or q.startswith(node_name + "/")]


def kernel_lanes(view: Intervals) -> List[str]:
    """Lanes that carry kernel executions (Fig. 17 keeps only these)."""
    return sorted({ev.lane for ev in view.by_kind("kernel")})


def gantt_zoomed(view: Intervals, node_names: Sequence[str],
                 t0: Optional[float] = None, t1: Optional[float] = None,
                 width: int = 100) -> str:
    """Fig. 16: all queues of selected nodes, zoomed to [t0, t1]."""
    lanes: List[str] = []
    for name in node_names:
        lanes.extend(node_queues(view, name))
    return render_gantt_ascii(view, width=width, queues=lanes, t0=t0, t1=t1)


def gantt_overview(view: Intervals, width: int = 100) -> str:
    """Fig. 17: the whole run, kernel executions only."""
    return render_gantt_ascii(view, width=width, queues=kernel_lanes(view),
                              kinds=("kernel",))
