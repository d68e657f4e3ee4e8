"""The repository benchmark: ``python bench/run.py``.

    python bench/run.py [--workload W] [--seed N] [--repeats 5]
                        [--seconds S] [--trace [0|1]] [--out F]

Every repeat of every workload runs in a fresh child process
(``python -m bench.child``), one at a time, round-robin across workloads,
with ``OMP/OPENBLAS/MKL_NUM_THREADS=1`` so the load is one single-threaded
process.  A run makes at least ``--repeats`` rounds and keeps adding
rounds until ``--seconds`` have passed.  A round is one untraced repeat per
workload; ``--trace`` adds one traced repeat per workload to every round.
Traced repeats yield the per-layer split and never enter the end-to-end
numbers.

The source tree under test is ``src/`` next to this directory; it is put
first on each child's ``sys.path`` (``bench/ab.py`` compares two trees).  Every metric is
printed as ``workload metric value unit``; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics of ``BENCHMARK.json`` (the per-layer ones with ``--trace``).  The
exit code is non-zero when any repeat fails validation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

#: the seed changes were developed on, and the one kept back for checking
DEV_SEED = 43
HELD_OUT_SEED = 42

#: one repeat takes a few seconds; this only stops a hung child
CHILD_TIMEOUT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: The children's bytecode cache, inside the checkout.  setup_s then times
#: imports from a warm cache, as an installed package runs, whatever the
#: caller's PYTHONDONTWRITEBYTECODE and whatever __pycache__ a source tree
#: happens to carry; both trees of an A/B get the same treatment.
PYCACHE = BENCH_DIR / ".bench_cache" / "pycache"

END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")


def metric_units() -> Dict[str, str]:
    """Unit of every metric the benchmark computes."""
    from bench.trace import LAYERS, SPANS
    units = {
        "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
        "error_rate": "ratio",
        # simulated (virtual) seconds, not host time
        "sim.makespan": "sim_s",
        "sim.engine.events": "count", "sim.engine.us_per_event": "us",
        "sim.network.messages": "count", "sim.network.bytes": "B",
        "satin.steal.attempts": "count", "satin.steal.success_ratio": "ratio",
        "satin.jobs": "count", "satin.leaves": "count",
        "core.scheduler.decisions": "count", "core.cpu_fallbacks": "count",
        "core.out_of_core_launches": "count", "devices.utilization": "ratio",
        "graph.nodes_run": "count", "graph.cross_device_bytes": "B",
        "obs.events": "count", "obs.stream_bytes": "B",
        "mcl.analysis_hit_ratio": "ratio", "apps.leaves_per_batch": "count",
        "trace.wall_s": "s", "trace.overhead": "ratio",
        "trace.samples": "count",
    }
    for layer in LAYERS:
        units[f"{layer}.self_pct"] = "%"
    for span in SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.pct"] = "%"
    return units


def resolve_src(path: Path) -> Path:
    """The directory holding the ``repro`` package for a checkout or src."""
    for candidate in (path / "src", path):
        if (candidate / "repro" / "__init__.py").is_file():
            return candidate.resolve()
    raise FileNotFoundError(f"no repro package under {path}")


# ----------------------------------------------------------------------
# repeats
# ----------------------------------------------------------------------
def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    return env


def warm_bytecode(src: Path) -> None:
    """Fill the children's bytecode cache for ``src`` before any timing."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(src)],
                   env=child_env(), check=True, timeout=CHILD_TIMEOUT_S)


def run_child(request: Dict[str, Any]) -> Dict[str, Any]:
    """One repeat in a fresh process; a crash counts as a failed repeat."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bench.child"], cwd=ROOT, env=child_env(),
            input=json.dumps(request), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"errors": [f"child timed out after {CHILD_TIMEOUT_S:.0f}s"]}
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"errors": [f"child exited {proc.returncode}: {tail[0]}"]}
    return json.loads(lines[-1])


def collect(workloads: Sequence[str], seed: int, src: Path, *,
            repeats: int, seconds: float, trace: bool,
            scale: float = 1.0) -> Dict[str, Dict[str, List]]:
    """Run every workload's repeats; ``name -> {"untraced", "traced"}``."""
    warm_bytecode(src)
    base = {"seed": seed, "scale": scale, "src": str(src)}
    references = {}
    for name in workloads:
        out = run_child(dict(base, phase="reference", workload=name))
        if "reference" not in out:
            raise RuntimeError(f"{name}: reference failed: {out['errors']}")
        references[name] = out["reference"]
    results: Dict[str, Dict[str, List]] = {
        name: {"untraced": [], "traced": []} for name in workloads}
    start = time.monotonic()
    rounds = 0
    while rounds < repeats or time.monotonic() - start < seconds:
        # traced repeats pair with untraced ones in time (alternating which
        # goes first), so trace.overhead compares like with like
        kinds = ("untraced", "traced") if trace else ("untraced",)
        for name in workloads:
            for kind in kinds if rounds % 2 == 0 else kinds[::-1]:
                results[name][kind].append(run_child(dict(
                    base, phase="repeat", workload=name,
                    trace=kind == "traced", reference=references[name])))
        rounds += 1
    return results


# ----------------------------------------------------------------------
# summary
# ----------------------------------------------------------------------
def quartiles(values: Sequence[float]) -> tuple:
    """(p25, median, p75) as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def determinism_errors(repeats: Sequence[Dict[str, Any]]) -> Dict[int, str]:
    """Repeats whose exact counters or stream digest differ from the first.

    Every counter is a deterministic function of the seed, traced or not,
    so any difference between repeats of one seed is a failure.
    """
    ran = [(i, r) for i, r in enumerate(repeats) if "counters" in r]
    if not ran:
        return {}
    _, first = ran[0]
    out = {}
    for i, r in ran[1:]:
        a, b = first["counters"], r["counters"]
        differ = [f"{k} {a.get(k)} vs {b.get(k)}"
                  for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)]
        if first["digest"] != r["digest"]:
            differ.append("obs stream sha256")
        if differ:
            out[i] = "not deterministic: " + ", ".join(differ)
    return out


def summarize(untraced: List[Dict[str, Any]],
              traced: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Metrics, failures and errors of one workload's repeats."""
    from bench.trace import LAYERS, SPANS

    repeats = untraced + traced
    errors = {i: list(r.get("errors", [])) for i, r in enumerate(repeats)}
    for i, msg in determinism_errors(repeats).items():
        errors[i].append(msg)
    failed = sum(1 for msgs in errors.values() if msgs)
    out: Dict[str, Any] = {
        "attempted": len(repeats), "failed": failed,
        "errors": [f"repeat {i}: {m}" for i, msgs in errors.items()
                   for m in msgs],
        "metrics": {"error_rate": failed / len(repeats)},
        "quartiles": {},
    }
    timed = [r for r in untraced if "wall_s" in r]
    if not timed:
        return out
    metrics = out["metrics"]
    for name in END_TO_END:
        p25, med, p75 = quartiles([r[name] for r in timed])
        metrics[name] = med
        out["quartiles"][name] = {"p25": p25, "p75": p75, "n": len(timed)}
    counters = timed[0]["counters"]
    metrics.update(counters)
    events = counters["sim.engine.events"]
    metrics["sim.engine.us_per_event"] = (
        metrics["wall_s"] / events * 1e6 if events else 0.0)
    traced = [r for r in traced if "self_s" in r]
    if not traced:
        return out
    wall = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead"] = wall / metrics["wall_s"]
    metrics["trace.samples"] = statistics.median(
        r["samples"] for r in traced)
    for layer in LAYERS:
        metrics[f"{layer}.self_pct"] = statistics.median(
            100.0 * r["self_s"][layer] / r["wall_s"] for r in traced)
    for span in SPANS:
        metrics[f"{span}.calls"] = traced[0]["spans"][span][0]
        metrics[f"{span}.pct"] = statistics.median(
            100.0 * r["spans"][span][1] / (r["setup_s"] + r["wall_s"])
            for r in traced)
    profiles = metrics["mcl.profile.calls"]
    metrics["mcl.analysis_hit_ratio"] = (
        1.0 - metrics["mcl.analyze_cost.calls"] / profiles
        if profiles else 0.0)
    batches = metrics["apps.leaf_batch.calls"]
    metrics["apps.leaves_per_batch"] = (
        counters["satin.leaves"] / batches if batches else 0.0)
    return out


def result_line(summaries: Dict[str, Dict[str, Any]], names: List[str],
                units: Dict[str, str]) -> Dict[str, Any]:
    """The final JSON object; metric keys are ``workload/metric`` when
    the run covered more than one workload."""
    metrics = {}
    for workload, summary in summaries.items():
        for name in names:
            if name not in summary["metrics"]:
                continue
            key = name if len(summaries) == 1 else f"{workload}/{name}"
            metrics[key] = {"value": summary["metrics"][name],
                            "unit": units[name]}
    attempted = sum(s["attempted"] for s in summaries.values())
    failed = sum(s["failed"] for s in summaries.values())
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def host_info() -> Dict[str, Any]:
    import numpy
    return {"platform": platform.platform(), "machine": platform.machine(),
            "processor": platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "cpu_count": os.cpu_count()}


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------
def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    from bench.workloads import WORKLOADS
    p = argparse.ArgumentParser(
        prog="bench/run.py",
        description="Run the repository benchmark (see bench/README.md).")
    p.add_argument("--workload", choices=sorted(WORKLOADS),
                   help="one workload (default: all, round-robin)")
    p.add_argument("--seed", type=int, default=DEV_SEED,
                   help=f"input seed (dev {DEV_SEED}, held-out "
                        f"{HELD_OUT_SEED})")
    p.add_argument("--repeats", type=int, default=5,
                   help="minimum rounds (one repeat per workload each)")
    p.add_argument("--seconds", type=float, default=0.0,
                   help="keep adding rounds until this many seconds passed")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1),
                   help="add a traced repeat to every round and report the "
                        "per-layer metrics")
    p.add_argument("--out", type=Path, help="write the full report as JSON")
    p.add_argument("--scale", type=float, default=1.0,
                   help="shrink the workloads (the benchmark's own tests)")
    args = p.parse_args(argv)
    if args.repeats < 1 or args.seconds < 0 or args.scale <= 0:
        p.error("--repeats must be >= 1, --seconds >= 0 and --scale > 0")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    src = resolve_src(ROOT)
    spec = json.loads(SPEC_PATH.read_text())
    from bench.workloads import WORKLOADS
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    results = collect(workloads, args.seed, src, repeats=args.repeats,
                      seconds=args.seconds, trace=bool(args.trace),
                      scale=args.scale)
    summaries = {name: summarize(**results[name]) for name in workloads}
    units = metric_units()
    for name, summary in summaries.items():
        for metric, value in summary["metrics"].items():
            print(f"{name} {metric} {value:.6g} {units[metric]}")
            for key, q in summary["quartiles"].get(metric, {}).items():
                print(f"{name} {metric}.{key} {q:.6g} "
                      f"{'count' if key == 'n' else units[metric]}")
        for error in summary["errors"]:
            print(f"{name} FAILED {error}", file=sys.stderr)
    section = "per_layer" if args.trace else "end_to_end"
    line = result_line(summaries, [m["name"] for m in spec[section]], units)
    if args.out is not None:
        report = {"schema": "repro-bench/1", "host": host_info(),
                  "args": {k: str(v) for k, v in vars(args).items()},
                  "workloads": summaries, "result": line}
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True)
                            + "\n")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    # Run as a script, this directory heads sys.path and its trace.py would
    # shadow the standard library's trace module; import it as ``bench``.
    sys.path[:] = [p for p in sys.path
                   if Path(p or ".").resolve() != BENCH_DIR]
    sys.path.insert(0, str(ROOT))
    try:
        sys.exit(main())
    except FileNotFoundError as exc:
        print(f"bench/run.py: {exc}", file=sys.stderr)
        sys.exit(2)
