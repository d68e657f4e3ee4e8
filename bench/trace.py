"""Per-layer tracing for the benchmark's traced repeats.

Everything here observes ``repro`` from outside; nothing in ``src/`` is
instrumented.  A traced repeat records two things:

* **Self time per layer.**  A ``signal.setitimer(ITIMER_PROF)`` sampler
  charges each sample to the innermost stack frame whose file lies under
  ``src/repro/``, mapped to a layer by :data:`LAYER_RULES`.  Frames outside
  ``repro`` (numpy, the standard library, this benchmark) are skipped, so a
  numpy call is charged to the ``repro`` code that made it.  Each sample
  weighs the process CPU time since the previous one: a long numpy call
  that delays the signal is still charged in full, and the weights sum to
  the CPU time of the sampled phase.
* **Boundary spans.**  Wrappers around plain (non-generator) public
  functions, listed in :data:`SPANS`, count calls and inclusive time.
"""

from __future__ import annotations

import functools
import importlib
import os
import signal
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["LAYER_RULES", "LAYERS", "SPANS", "Sampler", "install_spans"]

#: ``(path prefix under src/repro/, layer)``; the first matching prefix wins
LAYER_RULES: Tuple[Tuple[str, str], ...] = (
    ("sim/engine.py", "sim.engine"),
    ("sim/network.py", "sim.network"),
    ("sim/resources.py", "sim.resources"),
    ("cluster/", "cluster"),
    ("satin/comm.py", "satin.comm"),
    ("satin/steal.py", "satin.steal"),
    # job, queues, stats, shared objects and fault tolerance (which no
    # workload crashes, so it would always read zero on its own)
    ("satin/", "satin.runtime"),
    ("core/scheduler.py", "core.scheduler"),
    ("core/policy.py", "core.scheduler"),
    ("core/", "core.runtime"),
    ("devices/", "devices"),
    ("mcl/", "mcl"),
    ("apps/", "apps"),
    ("graph/", "graph"),
    ("obs/", "obs"),
    ("sim/trace.py", "obs"),
)

#: every layer a sample can be charged to, in report order
LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys(layer for _, layer in LAYER_RULES)) + ("other",)

#: span name -> (module, attribute path) of the wrapped function
SPANS: Dict[str, Tuple[str, str]] = {
    "mcl.profile": ("repro.mcl.kernels", "CompiledKernel.profile"),
    # the module global CompiledKernel.analysis calls on a cache miss
    "mcl.analyze_cost": ("repro.mcl.kernels", "analyze_cost"),
    "mcl.compile": ("repro.mcl.kernels", "KernelLibrary.compile"),
    "core.scheduler.choose": ("repro.core.scheduler",
                              "DeviceScheduler.choose"),
    "core.scheduler.graph_prepare": (
        "repro.core.scheduler", "LookaheadMakespanPolicy.graph_prepare"),
    "core.scheduler.graph_order": (
        "repro.core.scheduler", "LookaheadMakespanPolicy.graph_order"),
    "core.scheduler.graph_select": (
        "repro.core.scheduler", "LookaheadMakespanPolicy.graph_select"),
    "apps.leaf_batch": ("repro.apps.kmeans", "KMeansApp.leaf_batch"),
    "obs.emit": ("repro.obs.bus", "EventBus.emit"),
    "obs.serialize": ("repro.obs.bus", "EventBus.serialize"),
}

#: sampling timer interval, in seconds of process CPU time
INTERVAL_S = 0.001


class Sampler:
    """CPU-time-weighted statistical profiler over ``repro`` layers.

    Use as a context manager around the phase to sample; afterwards
    ``self_s`` maps every layer of :data:`LAYERS` to its CPU seconds.
    """

    def __init__(self, src: str):
        self._root = os.path.join(os.path.realpath(src), "repro") + os.sep
        self._layer_of: Dict[str, Optional[str]] = {}
        self._last = 0.0
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.samples = 0

    def _layer(self, filename: str) -> Optional[str]:
        """Layer of a ``repro`` source file; None for any other file."""
        try:
            return self._layer_of[filename]
        except KeyError:
            pass
        layer = None
        path = os.path.realpath(filename)
        if path.startswith(self._root):
            rel = path[len(self._root):].replace(os.sep, "/")
            layer = next((name for prefix, name in LAYER_RULES
                          if rel.startswith(prefix)), "other")
        self._layer_of[filename] = layer
        return layer

    def _on_sample(self, _signum: int, frame: Any) -> None:
        now = time.process_time()
        weight = now - self._last
        self._last = now
        layer = "other"
        while frame is not None:
            found = self._layer(frame.f_code.co_filename)
            if found is not None:
                layer = found
                break
            frame = frame.f_back
        self.self_s[layer] += weight
        self.samples += 1

    def __enter__(self) -> "Sampler":
        self._last = time.process_time()
        signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        # the CPU time since the last sample, spent inside this harness
        self.self_s["other"] += time.process_time() - self._last


def _timed(fn: Callable, stat: List[float]) -> Callable:
    perf = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        start = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            stat[0] += 1
            stat[1] += perf() - start

    return wrapper


def install_spans() -> Dict[str, List[float]]:
    """Wrap every :data:`SPANS` target; returns ``span -> [calls, seconds]``.

    A target that no longer exists (renamed by a refactor) is reported on
    stderr and reads zero calls, so the rest of the trace still works.
    Call once per process, before the workload is set up.
    """
    stats: Dict[str, List[float]] = {}
    for span, (module_name, attr) in SPANS.items():
        stats[span] = [0, 0.0]
        owner: Any = importlib.import_module(module_name)
        *path, name = attr.split(".")
        try:
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, name)
        except AttributeError:
            print(f"bench.trace: span {span}: {module_name}.{attr} not "
                  "found; reporting 0 calls", file=sys.stderr)
            continue
        setattr(owner, name, _timed(fn, stats[span]))
    return stats
