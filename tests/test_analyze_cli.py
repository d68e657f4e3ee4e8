"""``python -m repro analyze`` CLI: exit codes and JSON shape.

Exit-code convention (shared with ``repro lint``): 0 clean, 1 findings,
2 usage error.
"""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main as repro_main
from repro.analyze.cli import analyze_main


@pytest.fixture()
def dirty_tree(tmp_path):
    """A package tree containing one instance of each REP1xx pattern."""
    pkg = tmp_path / "repro"
    (pkg / "satin").mkdir(parents=True)
    (pkg / "rng.py").write_text(
        "import random\nrandom.shuffle(x)\n")
    (pkg / "clock.py").write_text(
        "import time\nt = time.time()\n")
    (pkg / "order.py").write_text(
        "def f(q):\n    q.push({1, 2})\n")
    (pkg / "ident.py").write_text(
        "def f(a, b):\n    return id(a) < id(b)\n")
    (pkg / "default.py").write_text(
        "def f(acc=[]):\n    return acc\n")
    (pkg / "satin" / "env.py").write_text(
        "import os\nx = os.environ['A']\n")
    return pkg


def test_no_mode_is_usage_error(capsys):
    assert analyze_main() == 2
    assert "nothing to analyze" in capsys.readouterr().err


def test_unknown_race_app_is_usage_error(capsys):
    assert analyze_main(races="no-such-app") == 2
    assert "unknown app" in capsys.readouterr().err


def test_static_fails_on_every_rep1xx_pattern(dirty_tree, capsys):
    assert analyze_main(static=True, root=dirty_tree) == 1
    out = capsys.readouterr().out
    for code in ("REP101", "REP102", "REP103", "REP104", "REP105",
                 "REP106"):
        assert code in out
    assert "FAILED" in out


def test_static_clean_on_shipped_tree(capsys):
    assert analyze_main(static=True) == 0
    assert "OK" in capsys.readouterr().out


def test_static_json_shape(dirty_tree, capsys):
    assert analyze_main(static=True, root=dirty_tree, as_json=True) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    (section,) = payload["sections"]
    assert section["section"] == "static"
    findings = section["findings"]
    assert {f["code"] for f in findings} == {
        "REP101", "REP102", "REP103", "REP104", "REP105", "REP106"}
    sample = findings[0]
    assert set(sample) == {"code", "severity", "origin", "line",
                           "message", "hint", "summary"}
    assert all(f["severity"] == "error" for f in findings)


def test_races_demo_exits_nonzero(capsys):
    assert analyze_main(races="race-demo") == 1
    assert "REP201" in capsys.readouterr().out


def test_races_demo_synced_exits_zero(capsys):
    assert analyze_main(races="race-demo-synced") == 0
    assert "OK" in capsys.readouterr().out


def test_races_json_shape(capsys):
    assert analyze_main(races="race-demo", as_json=True) == 1
    payload = json.loads(capsys.readouterr().out)
    (section,) = payload["sections"]
    assert section["section"] == "races:race-demo"
    (finding,) = section["findings"]
    assert finding["code"] == "REP201"
    assert finding["origin"] == "shared-object:counter"


def test_main_entry_point_wires_analyze(capsys):
    assert repro_main(["analyze", "--races", "race-demo-synced"]) == 0
    assert repro_main(["analyze", "--races", "race-demo"]) == 1
    capsys.readouterr()


def test_main_entry_point_static_clean():
    assert repro_main(["analyze", "--static"]) == 0
