"""One benchmark process: ``python -m bench.child``.

Reads one JSON request on stdin (written by ``bench/run.py``) and prints
one JSON result line on stdout.  The request's ``src`` directory is put
first on ``sys.path``, so the source tree under test is the one imported.

* ``"phase": "reference"`` computes the workload's sequential reference
  output for the seed (once per seed, outside any timed phase);
* ``"phase": "repeat"`` runs the workload's three phases (see
  ``bench/workloads.py``).  ``setup_s`` starts before the first
  ``import repro``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from typing import Any, Dict


def reference(request: Dict[str, Any]) -> Dict[str, Any]:
    from bench.workloads import WORKLOADS
    workload = WORKLOADS[request["workload"]]
    inputs = workload.inputs(request["seed"], request["scale"])
    return {"reference": workload.reference(inputs)}


def repeat(request: Dict[str, Any]) -> Dict[str, Any]:
    from bench.workloads import WORKLOADS
    workload = WORKLOADS[request["workload"]]
    inputs = workload.inputs(request["seed"], request["scale"])
    spans = None
    if request["trace"]:
        from bench.trace import Sampler, install_spans
        spans = install_spans()
    start = time.perf_counter()
    state = workload.setup(inputs)
    setup_s = time.perf_counter() - start
    sampler = None
    if request["trace"]:
        with Sampler(request["src"]) as sampler:
            start = time.perf_counter()
            workload.run(state)
            wall_s = time.perf_counter() - start
    else:
        start = time.perf_counter()
        workload.run(state)
        wall_s = time.perf_counter() - start
    counters = workload.counters(state)
    errors = workload.check(inputs, state, counters, request["reference"])
    result: Dict[str, Any] = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "counters": counters,
        "digest": workload.digest(state),
        "errors": errors,
    }
    if sampler is not None:
        result["self_s"] = sampler.self_s
        result["samples"] = sampler.samples
        result["spans"] = spans
    return result


if __name__ == "__main__":
    request = json.load(sys.stdin)
    sys.path.insert(0, request["src"])
    phase = reference if request["phase"] == "reference" else repeat
    print(json.dumps(phase(request)))
