"""The obs taxonomy matches what the source actually emits.

Scans ``src/repro`` for ``<obs|bus>.emit("<kind>", ...)`` calls and checks
that every emitted kind is declared in ``INTERVAL_KINDS`` or
``POINT_KINDS`` and has a row in the ``docs/observability.md`` taxonomy
table.  Emitters whose kind is not a string literal are listed in
:data:`DYNAMIC_EMITTERS` with the kinds they can produce; a new dynamic
emitter fails the test until it is listed there.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, List, Set, Tuple

from repro.obs import INTERVAL_KINDS, POINT_KINDS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
DOC = ROOT / "docs" / "observability.md"

#: emitters with a computed kind -> every kind they can emit
DYNAMIC_EMITTERS: Dict[str, Set[str]] = {
    # RaceDetector._emit(kind, ...) -> obs.emit(kind, ...)
    "analyze/races.py": {"hb_spawn", "hb_sync", "hb_guard",
                         "shared_access", "race"},
}


def _is_bus(node: ast.expr) -> bool:
    """``obs`` / ``bus`` or any ``<expr>.obs`` / ``<expr>.bus`` — not
    codegen's ``emit``."""
    if isinstance(node, ast.Name):
        return node.id in ("obs", "bus")
    return isinstance(node, ast.Attribute) and node.attr in ("obs", "bus")


def _scan() -> Tuple[Set[str], List[str]]:
    """Literal kinds emitted anywhere, and the files of dynamic emitters."""
    literal: Set[str] = set()
    dynamic: List[str] = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "emit"
                    and _is_bus(node.func.value) and node.args):
                continue
            kind = node.args[0]
            if isinstance(kind, ast.Constant) and isinstance(kind.value, str):
                literal.add(kind.value)
            else:
                dynamic.append(rel)
    return literal, dynamic


def _documented_kinds() -> Set[str]:
    """Backticked names in the first column of the taxonomy table."""
    kinds: Set[str] = set()
    for line in DOC.read_text().splitlines():
        if line.startswith("| `"):
            first_cell = line.split("|")[1]
            kinds.update(re.findall(r"`([a-z0-9_]+)`", first_cell))
    return kinds


def _emitted_kinds() -> Set[str]:
    literal, _dynamic = _scan()
    return literal.union(*DYNAMIC_EMITTERS.values())


def test_scan_finds_the_core_emitters():
    literal, _dynamic = _scan()
    assert {"cpu", "kernel", "send", "spawn", "steal_salvage",
            "graph_node_dispatch"} <= literal


def test_dynamic_emitters_are_exactly_the_listed_ones():
    _literal, dynamic = _scan()
    assert sorted(set(dynamic)) == sorted(DYNAMIC_EMITTERS)


def test_every_emitted_kind_is_declared():
    undeclared = _emitted_kinds() - (INTERVAL_KINDS | POINT_KINDS)
    assert not undeclared, f"emitted but not declared: {sorted(undeclared)}"


def test_every_emitted_kind_is_documented():
    undocumented = _emitted_kinds() - _documented_kinds()
    assert not undocumented, \
        f"emitted but missing from {DOC.name}: {sorted(undocumented)}"
