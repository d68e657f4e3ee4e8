"""Benchmark of the sweep engine itself: parallel + cached fig9_10,
plus the two DAG apps at reduced scale.

Runs one figure's config grid cold through the pooled engine, then warm
from the cache, then the ``ablation_graph_scheduler`` grid (the
path-tracer and k-means++ pipelines on the DAG executor, scale 0.25),
and writes the machine-readable ``BENCH_sweep.json`` (schema in
docs/sweep.md) next to the other results.  CI's bench-smoke job runs
this at reduced scale (``REPRO_BENCH_NODE_COUNTS``) with ``--jobs 2``
semantics (``REPRO_BENCH_SWEEP_JOBS``), checks that no cell failed, and
uploads the JSON as an artifact.

Assertions are about the *engine*, not the host's speed: the warm pass
must be served entirely from the cache (and be fast in absolute terms),
and both passes must produce identical tables.
"""

import json
import os

from conftest import bench_node_counts, record, results_dir

from repro.experiments import run_experiment
from repro.sweep import SweepCache, SweepSession
from repro.sweep.bench import sweep_entry, write_bench


def _jobs():
    raw = os.environ.get("REPRO_BENCH_SWEEP_JOBS")
    if raw:
        return int(raw)
    return max(1, os.cpu_count() or 1)


def test_sweep_engine(benchmark, tmp_path):
    node_counts = bench_node_counts()
    kwargs = {} if node_counts is None else {"node_counts": node_counts}
    cache = SweepCache(tmp_path / "sweep-cache")
    jobs = _jobs()

    cold_session = SweepSession(jobs=jobs, cache=cache)
    cold = benchmark.pedantic(
        lambda: run_experiment("fig9_10", cell_runner=cold_session.runner,
                               **kwargs),
        rounds=1, iterations=1)
    record(cold)

    warm_session = SweepSession(jobs=jobs, cache=cache)
    warm = run_experiment("fig9_10", cell_runner=warm_session.runner,
                          **kwargs)

    graph_session = SweepSession(jobs=jobs, cache=cache)
    graph = run_experiment("ablation_graph_scheduler",
                           cell_runner=graph_session.runner, scale=0.25)

    entries = [sweep_entry("fig9_10/cold", cold_session.reports[0]),
               sweep_entry("fig9_10/warm", warm_session.reports[0]),
               sweep_entry("graph-apps/cold", graph_session.reports[0])]
    out = results_dir()
    out.mkdir(parents=True, exist_ok=True)
    bench_record = write_bench(out / "BENCH_sweep.json", entries, jobs)
    print(json.dumps(bench_record["totals"], indent=2, sort_keys=True))

    # Engine contracts (host-speed independent):
    cold_entry, warm_entry, graph_entry = entries
    assert cold_entry["failed"] == 0 and warm_entry["failed"] == 0
    assert warm_entry["executed"] == 0, "warm pass must be all cache hits"
    assert warm_entry["cache_hits"] == warm_entry["cells"]
    assert warm_entry["wall_s"] < 5.0, "cached sweep must resume in <5s"
    assert warm.rows == cold.rows, "cache must reproduce the table exactly"
    # DAG apps: every cell ran, and the dependency-aware lookahead policy
    # never lost to greedy (the ablation's speedup column is >= 1 even at
    # reduced scale would be host-independent but scale-sensitive; the
    # engine contract here is only that the grid executes cleanly).
    assert graph_entry["failed"] == 0
    assert graph_entry["cells"] == len(graph.rows) * 2
