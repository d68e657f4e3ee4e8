"""Tests of the benchmark itself: ``PYTHONPATH=src pytest bench -q``.

Every workload runs at a tiny ``--scale``; the checks cover the metric
contract of ``BENCHMARK.json``, the validators (a corrupted reference and
a forced event-count mismatch, patched into the children's results, must
fail the run), the sampler's accounting and the A/B verdicts.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from bench import run
from bench.ab import verdict
from bench.run import END_TO_END, ROOT, SPEC_PATH, main, metric_units
from bench.trace import LAYERS
from bench.workloads import WORKLOADS

TINY = ["--scale", "0.05", "--repeats", "2"]


def _report(tmp_path, argv):
    out = tmp_path / "report.json"
    code = main(TINY + ["--out", str(out)] + argv)
    return code, json.loads(out.read_text())


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    # large enough that a few milliseconds off-CPU do not dominate the
    # traced wall time the sampled self times are compared with
    return _report(tmp_path_factory.mktemp("traced"),
                   ["--trace", "--scale", "0.25"])


def test_spec_matches_the_benchmark():
    spec = json.loads(SPEC_PATH.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert tuple(m["name"] for m in spec["end_to_end"]) == END_TO_END
    units = metric_units()
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == units[metric["name"]], metric
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_every_metric_is_emitted_with_its_unit(traced):
    code, report = traced
    assert code == 0
    assert report["result"]["correct"]
    spec = json.loads(SPEC_PATH.read_text())
    units = metric_units()
    for workload in WORKLOADS:
        summary = report["workloads"][workload]
        assert summary["failed"] == 0, summary["errors"]
        assert summary["metrics"]["error_rate"] == 0.0
        for metric in spec["end_to_end"] + spec["per_layer"]:
            assert metric["name"] in summary["metrics"], (workload, metric)
            key = f"{workload}/{metric['name']}"
            if metric in spec["per_layer"]:
                assert report["result"]["metrics"][key]["unit"] == \
                    units[metric["name"]]


def test_sampled_self_time_covers_the_traced_wall_time(traced):
    _, report = traced
    for workload in WORKLOADS:
        metrics = report["workloads"][workload]["metrics"]
        total = sum(metrics[f"{layer}.self_pct"] for layer in LAYERS)
        assert 90.0 <= total <= 110.0, (workload, total)


def _patch_child(monkeypatch, alter):
    """Run the real children, then let ``alter(request, result)`` edit
    each result, as a faulty program or reference would produce it."""
    real = run.run_child

    def patched(request):
        out = real(request)
        alter(request, out)
        return out

    monkeypatch.setattr(run, "run_child", patched)


def test_corrupted_reference_fails_every_repeat(tmp_path, monkeypatch):
    def corrupt(request, out):
        if request["phase"] == "reference":
            out["reference"][0][0][0] += 1e-6

    _patch_child(monkeypatch, corrupt)
    code, report = _report(tmp_path, ["--workload", "kmeans-real"])
    assert code != 0
    assert not report["result"]["correct"]
    summary = report["workloads"]["kmeans-real"]
    assert summary["metrics"]["error_rate"] == 1.0
    assert all("sequential reference" in e for e in summary["errors"])


def test_event_count_mismatch_between_repeats_is_caught(tmp_path,
                                                        monkeypatch):
    repeats = []

    def extra_event(request, out):
        if request["phase"] == "repeat":
            repeats.append(out)
            if len(repeats) % 2 == 0:
                out["counters"]["sim.engine.events"] += 1

    _patch_child(monkeypatch, extra_event)
    code, report = _report(tmp_path, ["--workload", "graph-dag"])
    assert code != 0
    summary = report["workloads"]["graph-dag"]
    assert summary["metrics"]["error_rate"] == 0.5
    assert "sim.engine.events" in summary["errors"][0]
    assert "obs stream sha256" not in summary["errors"][0]


#: ten parent repeats whose quartile spread is 43 % of their median
WIDE = [0.08, 0.10, 0.12, 0.15, 0.09, 0.11, 0.14, 0.10, 0.13, 0.08]


def test_ab_reports_a_regression_however_wide_the_spread():
    result = verdict(WIDE, [2 * v for v in WIDE], bound=0.25)
    assert result["verdict"] == "regressed"
    assert result["change_worse_by"] > 0.9


def test_ab_wide_spread_without_regression_is_unresolved():
    assert verdict(WIDE, WIDE[::-1], bound=0.25)["verdict"] == "unresolved"
    tight = [1.0 + 0.001 * i for i in range(10)]
    assert verdict(tight, tight[::-1], bound=0.25)["verdict"] == "unchanged"


def test_ab_improvement_needs_nine_tenths_of_pairs():
    faster = [0.5 * v for v in WIDE]
    assert verdict(WIDE, faster, bound=0.25)["verdict"] == "improved"
    mixed = faster[:8] + [2 * v for v in WIDE[8:]]
    assert verdict(WIDE, mixed, bound=0.25)["verdict"] != "improved"


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(SPEC_PATH, tmp_path / SPEC_PATH.name)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__",
                                                  ".bench_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "satin-steal",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
