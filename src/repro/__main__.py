"""Command-line interface: regenerate the paper's tables and figures.

Usage::

    python -m repro list                     # show experiment ids
    python -m repro run fig15                # run one experiment
    python -m repro run all -o results/      # run everything, save artifacts
    python -m repro sweep fig7_8 --jobs 8    # parallel, cached, resumable
    python -m repro lint --all               # static-verify builtin kernels
    python -m repro serve --demo             # multi-tenant job service demo
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
import time
from typing import Any, Dict, List, Optional

from .experiments import experiment_runner, list_experiments, run_experiment
from .experiments.artifacts import accepted_kwargs as _accepted_kwargs
from .experiments.artifacts import save_artifacts as _save


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the evaluation of 'Cashmere: Heterogeneous "
                    "Many-Core Computing' (IPDPS 2015).")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiment ids")

    run_p = sub.add_parser("run", help="run one experiment (or 'all')")
    run_p.add_argument("experiment",
                       help="experiment id from 'list', or 'all'")
    run_p.add_argument("-o", "--out", type=pathlib.Path, default=None,
                       help="directory to write the text/SVG artifacts to")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the run seed (where applicable)")
    run_p.add_argument("--steal-policy", default=None,
                       metavar="POLICY",
                       help="cluster-level steal victim-selection policy "
                            "(registry kind 'steal': random, cluster-aware, "
                            "adaptive; where applicable)")
    run_p.add_argument("--scheduler-policy", default=None,
                       metavar="POLICY",
                       help="device placement policy (registry kind "
                            "'device': makespan, makespan-lookahead, "
                            "static, round-robin; where applicable)")

    sweep_p = sub.add_parser(
        "sweep", help="run experiments through the parallel, cached, "
                      "resumable sweep engine (see docs/sweep.md)")
    sweep_p.add_argument("experiments", nargs="+",
                         metavar="EXPERIMENT",
                         help="experiment ids from 'list', or 'all'")
    sweep_p.add_argument("-j", "--jobs", type=int,
                         default=max(1, os.cpu_count() or 1),
                         help="worker processes (default: all cores)")
    sweep_p.add_argument("--cache-dir", type=pathlib.Path, default=None,
                         help="result-cache directory (default: "
                              "$REPRO_SWEEP_CACHE or ~/.cache/repro-sweep)")
    sweep_p.add_argument("--no-cache", action="store_true",
                         help="run fully stateless (no reads, no writes)")
    sweep_p.add_argument("--force", action="store_true",
                         help="ignore cached results, re-run every cell "
                              "(fresh results are still written back)")
    sweep_p.add_argument("--retries", type=int, default=1,
                         help="extra attempts per failed cell (default: 1)")
    sweep_p.add_argument("--bench-out", type=pathlib.Path, default=None,
                         help="path for BENCH_sweep.json (default: "
                              "<out-dir>/BENCH_sweep.json)")
    sweep_p.add_argument("-o", "--out", type=pathlib.Path, default=None,
                         help="directory to write the text/SVG artifacts to")
    sweep_p.add_argument("--seed", type=int, default=None,
                         help="override the run seed (where applicable)")
    sweep_p.add_argument("--steal-policy", default=None, metavar="POLICY",
                         help="cluster-level steal victim-selection policy "
                              "(where applicable)")
    sweep_p.add_argument("--scheduler-policy", default=None,
                         metavar="POLICY",
                         help="intra-node device placement policy "
                              "(where applicable)")
    sweep_p.add_argument("--node-counts", default=None, metavar="N,N,...",
                         help="override scalability node counts, e.g. "
                              "'1,2,4' for a reduced-scale smoke sweep")
    sweep_p.add_argument("--scale", type=float, default=None,
                         help="problem-size multiplier for experiments "
                              "that accept one (the DAG-app ablation); "
                              "e.g. 0.25 for a reduced-scale smoke sweep")

    trace_p = sub.add_parser(
        "trace", help="run an app with the event bus on and export a "
                      "Chrome-trace JSON (open in chrome://tracing)")
    trace_p.add_argument("app", help="application to trace",
                         choices=("kmeans", "matmul", "raytracer", "nbody"))
    trace_p.add_argument("--out", type=pathlib.Path,
                         default=pathlib.Path("trace.json"),
                         help="Chrome-trace output path (default: trace.json)")
    trace_p.add_argument("--events", type=pathlib.Path, default=None,
                         help="also write the raw event stream (JSON lines)")
    trace_p.add_argument("--seed", type=int, default=42,
                         help="run seed (default: 42)")
    trace_p.add_argument("--no-summary", action="store_true",
                         help="skip the metrics summary table")

    lint_p = sub.add_parser(
        "lint", help="statically verify MCPL kernel sources (races, "
                     "bounds, initialization, memory budgets)")
    lint_p.add_argument("targets", nargs="*",
                        help="app names (kmeans, matmul, nbody, raytracer) "
                             "or .mcpl file paths")
    lint_p.add_argument("--all", action="store_true", dest="all_apps",
                        help="lint every builtin application")
    lint_p.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable JSON output")
    lint_p.add_argument("--errors-only", action="store_true",
                        help="hide warning-severity findings")

    analyze_p = sub.add_parser(
        "analyze", help="determinism sanitizer: REP1xx static lints over "
                        "the runtime source, and/or a happens-before "
                        "shared-object race check (see docs/analyze.md)")
    analyze_p.add_argument("--static", action="store_true",
                           help="run the static AST pass over the "
                                "installed repro package")
    analyze_p.add_argument("--races", default=None, metavar="APP",
                           help="run APP with the race sanitizer attached "
                                "(kmeans, matmul, nbody, raytracer, "
                                "race-demo, race-demo-synced)")
    analyze_p.add_argument("--all", action="store_true", dest="all_checks",
                           help="static pass + race-sanitized run of every "
                                "builtin application")
    analyze_p.add_argument("--json", action="store_true", dest="as_json",
                           help="machine-readable JSON output")
    analyze_p.add_argument("--root", type=pathlib.Path, default=None,
                           help="directory tree for the static pass "
                                "(default: the installed repro package)")
    analyze_p.add_argument("--seed", type=int, default=42,
                           help="seed for the race-sanitized run "
                                "(default: 42)")

    serve_p = sub.add_parser(
        "serve", help="multi-tenant job service over the simulated "
                      "cluster (NDJSON socket protocol, or --demo)")
    serve_p.add_argument("--demo", action="store_true",
                         help="run the acceptance scenario (concurrent "
                              "tenant burst + mid-run node churn) and "
                              "print the report")
    serve_p.add_argument("--clients", type=int, default=200,
                         help="concurrent demo clients (default: 200)")
    serve_p.add_argument("--nodes", type=int, default=9,
                         help="pool size in nodes (default: 9)")
    serve_p.add_argument("--seed", type=int, default=42,
                         help="session seed (default: 42)")
    serve_p.add_argument("--admission-policy", default="fair-share",
                         metavar="POLICY",
                         help="admission policy (registry kind "
                              "'admission': fair-share, strict-priority)")
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="socket bind host (default: 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=0,
                         help="socket bind port (default: ephemeral)")
    serve_p.add_argument("--tenant", action="append", default=None,
                         metavar="NAME[:WEIGHT]",
                         help="register a tenant (repeatable; default: "
                              "alpha:3 beta:2 gamma:1)")
    serve_p.add_argument("--json", action="store_true", dest="as_json",
                         help="machine-readable demo report")

    args = parser.parse_args(argv)

    if args.command == "list":
        for experiment_id in list_experiments():
            print(experiment_id)
        return 0

    if args.command == "lint":
        from .mcl.verify.cli import lint_main
        return lint_main(args.targets, all_apps=args.all_apps,
                         as_json=args.as_json,
                         errors_only=args.errors_only)

    if args.command == "analyze":
        from .analyze.cli import analyze_main
        return analyze_main(static=args.static, races=args.races,
                            all_checks=args.all_checks,
                            as_json=args.as_json, root=args.root,
                            seed=args.seed)

    if args.command == "serve":
        from .core.policy import policy_class as _policy_class
        from .serve.cli import serve_main
        try:
            import repro.serve  # noqa: F401  (registers admission policies)
            _policy_class("admission", args.admission_policy)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
        return serve_main(
            demo=args.demo, clients=args.clients, nodes=args.nodes,
            seed=args.seed, policy=args.admission_policy,
            host=args.host, port=args.port, tenants=args.tenant,
            as_json=args.as_json)

    if args.command == "trace":
        from .obs.cli import trace_main
        return trace_main(args.app, out=args.out, seed=args.seed,
                          events_out=args.events,
                          summary=not args.no_summary)

    # Resolve policy names through the unified registry up front so a typo
    # fails fast with the known names, before any experiment runs.
    from .core.policy import policy_class
    requested: Dict[str, Any] = {}
    if args.seed is not None:
        requested["seed"] = args.seed
    try:
        if args.steal_policy is not None:
            import repro.satin  # noqa: F401  (registers the steal policies)
            policy_class("steal", args.steal_policy)
            requested["steal_policy"] = args.steal_policy
        if args.scheduler_policy is not None:
            import repro.core.scheduler  # noqa: F401  (registers device
            #                                            placement policies)
            policy_class("device", args.scheduler_policy)
            requested["scheduler_policy"] = args.scheduler_policy
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2

    if args.command == "sweep":
        from .sweep.cli import sweep_main
        if args.node_counts is not None:
            requested["node_counts"] = tuple(
                int(n) for n in args.node_counts.split(","))
        if args.scale is not None:
            requested["scale"] = args.scale
        return sweep_main(
            args.experiments, jobs=args.jobs, cache_dir=args.cache_dir,
            no_cache=args.no_cache, force=args.force,
            retries=args.retries, bench_out=args.bench_out, out=args.out,
            runner_kwargs=requested)

    targets = list_experiments() if args.experiment == "all" \
        else [args.experiment]
    for experiment_id in targets:
        try:
            runner = experiment_runner(experiment_id)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        kwargs = _accepted_kwargs(runner, requested)
        start = time.perf_counter()
        result = run_experiment(experiment_id, **kwargs)
        elapsed = time.perf_counter() - start
        print(result.render())
        print(f"({elapsed:.1f}s wall-clock)\n")
        if args.out is not None:
            for path in _save(result, args.out):
                print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
