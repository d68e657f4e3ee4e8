"""REP103 taint-walk coverage, plus total-ness of the static pass.

The taint walk is intraprocedural and statement-ordered: these tests pin
the propagation rules (sources, wrappers, views, loop control-taint,
sanitizers, re-assignment clearing) and then assert the analyzer is total
— it must never raise on any parseable input, including every file of the
shipped tree.
"""

from __future__ import annotations

import pathlib
import textwrap
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analyze import analyze_file, analyze_source
from repro.analyze.static import source_root


def _codes(source: str):
    return [f.code for f in analyze_source(textwrap.dedent(source))]


# ---------------------------------------------------------------------------
# sources
# ---------------------------------------------------------------------------

def test_set_literal_is_source():
    assert _codes("""
        def f(q):
            q.push({1, 2})
    """) == ["REP103"]


def test_set_call_and_comprehension_are_sources():
    assert _codes("""
        def f(q, xs):
            q.push(set(xs))
            q.emit({x for x in xs})
    """) == ["REP103", "REP103"]


def test_set_algebra_is_source():
    assert _codes("""
        def f(q, a, b):
            s = {1} | {2}
            q.push(s)
    """) == ["REP103"]


def test_plain_dict_is_not_a_source():
    # CPython dicts are insertion-ordered (>= 3.7): iterating one is fine.
    assert _codes("""
        def f(q, d):
            for k in d:
                q.push(k)
    """) == []


def test_list_is_not_a_source():
    assert _codes("""
        def f(q):
            q.push([1, 2, 3])
    """) == []


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------

def test_taint_through_assignment_chain():
    assert _codes("""
        def f(q):
            s = {1, 2}
            t = s
            q.push(t)
    """) == ["REP103"]


def test_taint_through_order_preserving_wrappers():
    assert _codes("""
        def f(q):
            s = {1, 2}
            q.push(list(s))
    """) == ["REP103"]


def test_taint_through_comprehension():
    assert _codes("""
        def f(q):
            s = {1, 2}
            doubled = [x * 2 for x in s]
            q.push(doubled)
    """) == ["REP103"]


def test_taint_through_dict_built_from_set():
    assert _codes("""
        def f(q):
            s = {1, 2}
            d = {k: 0 for k in s}
            q.push(d.keys())
    """) == ["REP103"]


def test_taint_through_dict_fromkeys():
    assert _codes("""
        def f(q):
            s = {1, 2}
            d = dict.fromkeys(s)
            q.push(d)
    """) == ["REP103"]


def test_set_annotated_parameter_is_tainted():
    assert _codes("""
        def f(q, ids: set):
            q.push(ids)
    """) == ["REP103"]


def test_reassignment_clears_taint():
    assert _codes("""
        def f(q):
            s = {1, 2}
            s = sorted(s)
            q.push(s)
    """) == []


def test_taint_is_function_local():
    assert _codes("""
        def a():
            s = {1, 2}

        def b(q, s):
            q.push(s)
    """) == []


# ---------------------------------------------------------------------------
# loop control-taint
# ---------------------------------------------------------------------------

def test_sink_inside_tainted_loop():
    assert _codes("""
        def f(q):
            for x in {1, 2}:
                q.push(x)
    """) == ["REP103"]


def test_list_built_in_tainted_loop_carries_taint():
    # append() is not itself a sink; it marks `out` tainted, so the
    # later push of the hash-ordered list fires.
    assert _codes("""
        def f(q):
            out = []
            for x in {1, 2}:
                out.append(x)
            q.push(out)
    """) == ["REP103"]


def test_sink_after_tainted_loop_with_clean_arg():
    assert _codes("""
        def f(q):
            for x in {1, 2}:
                pass
            q.push(1)
    """) == []


def test_sorted_loop_is_clean():
    assert _codes("""
        def f(q):
            for x in sorted({1, 2}):
                q.push(x)
    """) == []


# ---------------------------------------------------------------------------
# sanitizers and sinks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("call", ["sorted(s)", "min(s)", "max(s)",
                                  "sum(s)", "len(s)", "any(s)", "all(s)"])
def test_sanitizers(call):
    assert _codes(f"""
        def f(q):
            s = {{1, 2}}
            q.push({call})
    """) == []


@pytest.mark.parametrize("sink", ["q.push(s)", "q.send(0, s)", "q.emit(s)",
                                  "q.schedule(s)", "env.process(s)",
                                  "q.put(s)", "q.submit(s)", "q.arm(s)"])
def test_method_sinks(sink):
    assert _codes(f"""
        def f(q, env):
            s = {{1, 2}}
            {sink}
    """) == ["REP103"]


def test_engine_queue_entry_points_are_sinks():
    # Hops or events queued from a hash-ordered loop fire in hash order.
    assert _codes("""
        def f(env, ops):
            for op in set(ops):
                env._schedule(op.step, 1.0)
            for op in {o for o in ops}:
                env._schedule_front(op.start)
            for op in sorted(set(ops), key=lambda o: o.rank):
                env._schedule(op.step)
    """) == ["REP103", "REP103"]


def test_heapq_sinks():
    assert _codes("""
        import heapq

        def f(heap):
            s = {1, 2}
            heapq.heappush(heap, s)
            heapq.heapify(list(s))
    """) == ["REP103", "REP103"]


def test_non_sink_call_is_clean():
    assert _codes("""
        def f(q):
            s = {1, 2}
            q.lookup(s)
    """) == []


# ---------------------------------------------------------------------------
# the pass is total
# ---------------------------------------------------------------------------

_TREE_FILES = sorted(source_root().rglob("*.py"))


def test_tree_is_nonempty():
    assert len(_TREE_FILES) > 40


@pytest.mark.parametrize("path", _TREE_FILES,
                         ids=lambda p: str(p.relative_to(source_root())))
def test_static_pass_never_raises_on_tree_file(path: pathlib.Path):
    findings = analyze_file(path)          # must not raise
    for f in findings:
        assert f.code.startswith("REP")
        assert f.line >= 0


_TOKENS = (list("abcdefqs(){}[]<>=+-*.,:#'\" \n\t_0123456789")
           + ["set", "dict", "sorted", "push", "for ", " in ", "def ",
              "import ", "lambda ", "id(", "time.time()", "os.environ",
              "random.", "# analyze: ignore[REP103]", "yield ", "class "])


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.sampled_from(_TOKENS), max_size=120).map("".join))
def test_static_pass_total_on_arbitrary_text(source):
    """analyze_source either parses and returns findings, or raises
    SyntaxError (the one documented failure mode) — never anything else."""
    with warnings.catch_warnings():
        # Arbitrary near-Python text can trip SyntaxWarnings (e.g. invalid
        # decimal literals) on the way to the SyntaxError we tolerate.
        warnings.simplefilter("ignore", SyntaxWarning)
        try:
            findings = analyze_source(source)
        except SyntaxError:
            return
    assert isinstance(findings, list)
