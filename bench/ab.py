"""Interleaved A/B comparison of two source trees: ``python bench/ab.py A B``.

    python bench/ab.py PARENT CHANGE [--workload W ...] [--pairs 10]
                       [--seed N] [--out F]

``PARENT`` and ``CHANGE`` are checkouts (or their ``src`` directories).
Both sides run this checkout's benchmark code with the same settings; only
the ``repro`` package differs, put first on each child's ``sys.path``.  A
pair is one fresh-process repeat of each side, per workload; the side that
runs first alternates from pair to pair.

For every end-to-end metric and workload the report gives each side's
median and quartiles, the change's win fraction over all pairs (ties count
for neither side) and a verdict under the metric's bound in
``BENCHMARK.json``:

* ``improved``: the change wins at least 9 of 10 pairs and the medians
  differ by more than the parent's quartile spread;
* ``regressed``: the change's median is worse by more than the bound,
  however wide the spread;
* ``unresolved``: the parent's own spread exceeds the bound, and not every
  change run beats every parent run, so "unchanged" cannot be shown;
* ``unchanged``: otherwise.

A pair whose two sides simulate different things (``sim.makespan`` or
``sim.engine.events`` differ) is flagged: the comparison then measures two
different simulations.  The exit code is non-zero when any metric
regressed, any repeat of the change failed, or any pair was flagged.  An
unresolved metric prints a warning on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: simulated quantities that must agree between the sides of a pair
FLAGGED = ("sim.makespan", "sim.engine.events")


def verdict(parent: Sequence[float], change: Sequence[float], bound: float,
            lower_is_better: bool = True) -> Dict[str, Any]:
    """Compare paired samples of one metric (index ``i`` = pair ``i``)."""
    from bench.run import quartiles
    sign = 1.0 if lower_is_better else -1.0
    p25, med_a, p75 = quartiles(parent)
    c25, med_b, c75 = quartiles(change)
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) < 0)
    win_fraction = wins / len(parent)
    worse_by = sign * (med_b - med_a) / med_a
    if lower_is_better:
        every_run_better = max(change) < min(parent)
    else:
        every_run_better = min(change) > max(parent)
    if (win_fraction >= 0.9 and worse_by < 0
            and abs(med_b - med_a) > p75 - p25):
        result = "improved"
    elif worse_by > bound:
        result = "regressed"
    elif (p75 - p25) / med_a > bound and not every_run_better:
        result = "unresolved"
    else:
        result = "unchanged"
    return {"parent": {"median": med_a, "p25": p25, "p75": p75},
            "change": {"median": med_b, "p25": c25, "p75": c75},
            "n": len(parent), "change_worse_by": worse_by,
            "win_fraction": win_fraction, "bound": bound,
            "verdict": result}


def compare(parent_src: Path, change_src: Path, workloads: Sequence[str],
            pairs: int, seed: int) -> Dict[str, Any]:
    from bench.run import END_TO_END, SPEC_PATH, run_child, warm_bytecode

    spec = {m["name"]: m for m in
            json.loads(SPEC_PATH.read_text())["end_to_end"]}
    sides = {"parent": str(parent_src), "change": str(change_src)}
    for src in (parent_src, change_src):
        warm_bytecode(src)
    base = {"seed": seed, "scale": 1.0}
    references = {
        (side, name): run_child(dict(base, phase="reference", src=src,
                                     workload=name)).get("reference")
        for side, src in sides.items() for name in workloads}
    runs: Dict[str, Dict[str, List[Dict[str, Any]]]] = {
        name: {"parent": [], "change": []} for name in workloads}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for name in workloads:
            for side in order:
                runs[name][side].append(run_child(dict(
                    base, phase="repeat", src=sides[side], workload=name,
                    trace=False, reference=references[(side, name)])))
    report: Dict[str, Any] = {"pairs": pairs, "seed": seed, "sides": sides,
                              "workloads": {}}
    for name in workloads:
        a, b = runs[name]["parent"], runs[name]["change"]
        failed = {side: sum(1 for r in runs[name][side] if r["errors"])
                  for side in sides}
        flagged = [i for i, (x, y) in enumerate(zip(a, b))
                   if "counters" in x and "counters" in y
                   and any(x["counters"][k] != y["counters"][k]
                           for k in FLAGGED)]
        entry: Dict[str, Any] = {"failed": failed, "flagged_pairs": flagged,
                                 "metrics": {}}
        ok = [(x, y) for x, y in zip(a, b) if "wall_s" in x and "wall_s" in y]
        if ok:
            for metric in END_TO_END:
                entry["metrics"][metric] = verdict(
                    [x[metric] for x, _ in ok], [y[metric] for _, y in ok],
                    spec[metric]["bound"],
                    spec[metric]["better"] == "lower")
        report["workloads"][name] = entry
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    from bench.run import DEV_SEED, resolve_src
    from bench.workloads import WORKLOADS
    p = argparse.ArgumentParser(
        prog="bench/ab.py",
        description="Interleaved A/B of two source trees (bench/README.md).")
    p.add_argument("parent", type=Path, help="parent checkout or src dir")
    p.add_argument("change", type=Path, help="changed checkout or src dir")
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                   help="workload to compare (repeatable; default: all)")
    p.add_argument("--pairs", type=int, default=10,
                   help="interleaved pairs per workload (at least 10)")
    p.add_argument("--seed", type=int, default=DEV_SEED)
    p.add_argument("--out", type=Path, help="write the report as JSON")
    args = p.parse_args(argv)
    if args.pairs < 10:
        p.error("--pairs must be at least 10")
    report = compare(resolve_src(args.parent), resolve_src(args.change),
                     args.workload or list(WORKLOADS), args.pairs, args.seed)
    bad = False
    for name, entry in report["workloads"].items():
        for metric, v in entry["metrics"].items():
            a, b = v["parent"], v["change"]
            print(f"{name:13s} {metric:12s} "
                  f"parent {a['median']:.4g} [{a['p25']:.4g}, {a['p75']:.4g}]"
                  f"  change {b['median']:.4g} [{b['p25']:.4g}, "
                  f"{b['p75']:.4g}]  worse by {v['change_worse_by']:+.2%}"
                  f"  wins {v['win_fraction']:.0%}  {v['verdict']}")
            bad |= v["verdict"] == "regressed"
            if v["verdict"] == "unresolved":
                print(f"warning: {name} {metric}: the parent's spread is "
                      f"wider than the bound {v['bound']:.0%}; the change "
                      "is not shown unchanged", file=sys.stderr)
        if entry["failed"]["change"] or entry["flagged_pairs"]:
            bad = True
            print(f"{name}: failed repeats {entry['failed']}, pairs with "
                  f"different simulations {entry['flagged_pairs']}")
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True)
                            + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    # see bench/run.py: keep this directory off sys.path
    sys.path[:] = [p for p in sys.path
                   if Path(p or ".").resolve() != BENCH_DIR]
    sys.path.insert(0, str(ROOT))
    try:
        sys.exit(main())
    except FileNotFoundError as exc:
        print(f"bench/ab.py: {exc}", file=sys.stderr)
        sys.exit(2)
