"""Golden tests for the determinism sanitizer's static pass (REP1xx).

Each rule gets a trigger case, a clean counterpart, and (where relevant)
whitelist behavior; plus the inline-suppression workflow shared with
``repro lint``.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analyze import analyze_file, analyze_source, analyze_tree
from repro.analyze.static import environ_is_hot, wallclock_allowed


def _codes(source: str, module=None):
    return [f.code for f in analyze_source(textwrap.dedent(source),
                                           module=module)]


# ---------------------------------------------------------------------------
# REP101: process-global randomness
# ---------------------------------------------------------------------------

def test_rep101_global_random_module():
    assert _codes("""
        import random
        random.shuffle(items)
    """) == ["REP101"]


def test_rep101_global_random_via_alias():
    assert _codes("""
        import random as rnd
        x = rnd.randint(0, 10)
    """) == ["REP101"]


def test_rep101_from_import():
    assert _codes("""
        from random import shuffle
        shuffle(items)
    """) == ["REP101"]


def test_rep101_unseeded_random_instance():
    assert _codes("""
        import random
        rng = random.Random()
    """) == ["REP101"]


def test_rep101_seeded_random_instance_clean():
    assert _codes("""
        import random
        rng = random.Random(42)
        rng.shuffle(items)
    """) == []


def test_rep101_legacy_numpy_global():
    assert _codes("""
        import numpy as np
        x = np.random.rand(10)
    """) == ["REP101"]


def test_rep101_unseeded_default_rng():
    assert _codes("""
        import numpy as np
        rng = np.random.default_rng()
    """) == ["REP101"]


def test_rep101_seeded_default_rng_clean():
    assert _codes("""
        import numpy as np
        rng = np.random.default_rng(42)
        x = rng.random(10)
    """) == []


# ---------------------------------------------------------------------------
# REP102: wall clock
# ---------------------------------------------------------------------------

def test_rep102_time_time():
    assert _codes("""
        import time
        t = time.time()
    """) == ["REP102"]


def test_rep102_perf_counter_and_datetime():
    assert _codes("""
        import time
        from datetime import datetime
        a = time.perf_counter()
        b = datetime.now()
    """) == ["REP102", "REP102"]


def test_rep102_whitelisted_cli_module_clean():
    src = """
        import time
        t = time.monotonic()
    """
    assert _codes(src, module="repro.sweep.cli") == []
    assert _codes(src, module="repro.sweep.bench") == []
    assert _codes(src, module="repro.sweep.engine") == ["REP102"]


def test_rep102_virtual_time_clean():
    assert _codes("""
        def run(env):
            now = env.now
    """) == []


# ---------------------------------------------------------------------------
# REP103 basics (depth in tests/test_analyze_taint.py)
# ---------------------------------------------------------------------------

def test_rep103_set_into_sink():
    assert _codes("""
        def f(q):
            pending = {1, 2, 3}
            q.push(pending)
    """) == ["REP103"]


def test_rep103_sorted_sanitizes():
    assert _codes("""
        def f(q):
            pending = {1, 2, 3}
            q.push(sorted(pending))
    """) == []


# ---------------------------------------------------------------------------
# REP104: identity ordering
# ---------------------------------------------------------------------------

def test_rep104_id_comparison():
    assert _codes("""
        def f(a, b):
            return id(a) < id(b)
    """) == ["REP104"]


def test_rep104_id_equality_clean():
    assert _codes("""
        def f(a, b):
            return id(a) == id(b)
    """) == []


def test_rep104_sort_key():
    assert _codes("""
        def f(xs):
            return sorted(xs, key=id)
    """) == ["REP104"]


def test_rep104_sort_key_lambda():
    assert _codes("""
        def f(xs):
            return sorted(xs, key=lambda x: hash(x))
    """) == ["REP104"]


def test_rep104_stable_key_clean():
    assert _codes("""
        def f(xs):
            return sorted(xs, key=lambda x: x.name)
    """) == []


# ---------------------------------------------------------------------------
# REP105: mutable defaults
# ---------------------------------------------------------------------------

def test_rep105_list_default():
    assert _codes("""
        def f(acc=[]):
            return acc
    """) == ["REP105"]


def test_rep105_ctor_defaults():
    assert _codes("""
        def f(a=dict(), b=set()):
            return a, b
    """) == ["REP105", "REP105"]


def test_rep105_none_default_clean():
    assert _codes("""
        def f(acc=None):
            return acc or []
    """) == []


# ---------------------------------------------------------------------------
# REP106: os.environ in hot paths
# ---------------------------------------------------------------------------

def test_rep106_environ_in_hot_module():
    src = """
        import os
        flag = os.environ.get("REPRO_FAST")
    """
    assert _codes(src, module="repro.satin.runtime") == ["REP106"]
    assert _codes(src) == ["REP106"]       # unknown module: treated hot


def test_rep106_getenv_in_hot_module():
    assert _codes("""
        import os
        flag = os.getenv("REPRO_FAST")
    """, module="repro.sim.engine") == ["REP106"]


def test_rep106_cold_module_clean():
    assert _codes("""
        import os
        cache = os.environ.get("REPRO_SWEEP_CACHE")
    """, module="repro.sweep.cache") == []


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------

def test_inline_suppression():
    assert _codes("""
        import time
        t = time.time()  # analyze: ignore[REP102] host provenance stamp
    """) == []


def test_comment_line_suppression_applies_to_next_line():
    assert _codes("""
        import time
        # analyze: ignore[REP102] host provenance stamp
        t = time.time()
    """) == []


def test_suppression_is_code_specific():
    assert _codes("""
        import time
        t = time.time()  # analyze: ignore[REP101] wrong code
    """) == ["REP102"]


def test_bare_suppression_suppresses_all():
    assert _codes("""
        import time
        t = time.time()  # analyze: ignore
    """) == []


# ---------------------------------------------------------------------------
# files and trees
# ---------------------------------------------------------------------------

def test_analyze_file_derives_module_name(tmp_path):
    pkg = tmp_path / "repro"
    (pkg / "satin").mkdir(parents=True)
    target = pkg / "satin" / "hot.py"
    target.write_text("import os\nx = os.environ['A']\n")
    findings = analyze_file(target, root=pkg)
    assert [f.code for f in findings] == ["REP106"]
    assert findings[0].origin == "repro.satin.hot"


def test_analyze_tree_reports_each_file(tmp_path):
    pkg = tmp_path / "repro"
    pkg.mkdir()
    (pkg / "clock.py").write_text("import time\nt = time.time()\n")
    (pkg / "ok.py").write_text("x = 1\n")
    assert [f.code for f in analyze_tree(pkg)] == ["REP102"]


def test_syntax_error_propagates():
    with pytest.raises(SyntaxError):
        analyze_source("def broken(:\n")


def test_shipped_tree_is_clean():
    """Acceptance: the checked-in runtime passes its own sanitizer, with
    inline suppressions as the only way to accept a finding."""
    assert analyze_tree() == []


def test_unseeded_graph_builder_fixture_flagged():
    """Golden: a DAG-app builder that jitters node costs from the
    process-global RNG is exactly the nondeterminism REP101 exists to
    catch — two builds of the "same" graph would place differently."""
    assert _codes("""
        import random

        from repro.graph import GraphBuilder

        def jittered_pipeline(stages):
            g = GraphBuilder("jittered")
            prev = None
            for i in range(stages):
                name = f"stage{i}"
                g.node(name, kernel="stage",
                       flops=1e9 * (1.0 + random.random()),
                       device_bytes=1 << 20)
                if prev is not None:
                    g.edge(prev, name, nbytes=1 << 16)
                prev = name
            return g.build()
    """, module="repro.graph.fixture") == ["REP101"]


def test_seeded_graph_builder_fixture_clean():
    """Counterpart: the same builder drawing jitter from an explicitly
    seeded instance passes the sanitizer."""
    assert _codes("""
        import random

        from repro.graph import GraphBuilder

        def jittered_pipeline(stages, seed):
            rng = random.Random(seed)
            g = GraphBuilder("jittered")
            prev = None
            for i in range(stages):
                name = f"stage{i}"
                g.node(name, kernel="stage",
                       flops=1e9 * (1.0 + rng.random()),
                       device_bytes=1 << 20)
                if prev is not None:
                    g.edge(prev, name, nbytes=1 << 16)
                prev = name
            return g.build()
    """, module="repro.graph.fixture") == []


def test_config_whitelists_are_globs():
    assert wallclock_allowed("repro.sweep.cli")
    assert wallclock_allowed("repro.obs.bench")
    assert not wallclock_allowed("repro.sim.engine")
    assert not wallclock_allowed(None)
    assert environ_is_hot("repro.satin.runtime")
    assert environ_is_hot(None)
    assert not environ_is_hot("repro.sweep.cache")
