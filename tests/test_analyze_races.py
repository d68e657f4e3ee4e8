"""Happens-before race sanitizer: units, the seeded fixture, and the
zero-overhead contract.

The regression at the heart of this file: two spawned sibling jobs
updating one shared object without a sync edge between them must yield
exactly one write/write ``REP201`` report, and the same program with a
sync edge between the updates must be silent.  The builtin applications
(which broadcast only between synced iterations) must also stay silent.

The zero-overhead contract: with ``detect_races=False`` no detector is
attached, no ``hb_*``/``shared_access``/``race`` events exist, and the
seeded obs event stream is byte-identical run to run; with the flag on,
the simulation schedule (timestamps, job ids, results) is unchanged.
"""

from __future__ import annotations

import pytest

from repro.analyze.fixture_app import run_fixture
from repro.analyze.races import RaceDetector, VectorClock

_HB_KINDS = {"hb_spawn", "hb_sync", "hb_guard", "shared_access", "race"}


# ---------------------------------------------------------------------------
# VectorClock units
# ---------------------------------------------------------------------------

def test_clock_tick_and_leq():
    a = VectorClock({1: 1})
    b = a.copy()
    b.tick(1)
    assert a.leq(b)
    assert not b.leq(a)
    assert not a.concurrent_with(b)


def test_clock_concurrent():
    a = VectorClock({1: 1})
    b = VectorClock({2: 1})
    assert a.concurrent_with(b)
    assert b.concurrent_with(a)


def test_clock_join_is_componentwise_max():
    a = VectorClock({1: 3, 2: 1})
    a.join(VectorClock({2: 5, 3: 1}))
    assert a.as_dict() == {1: 3, 2: 5, 3: 1}


def test_empty_clock_leq_everything():
    assert VectorClock().leq(VectorClock({1: 9}))


# ---------------------------------------------------------------------------
# detector units (no runtime)
# ---------------------------------------------------------------------------

def test_spawn_orders_child_after_parent():
    d = RaceDetector()
    d.on_access(None, "obj", "write")
    d.on_spawn(d.ROOT, 1)
    d.on_access(1, "obj", "read")
    assert d.reports == []       # the spawn edge orders read after write


def test_sibling_writes_race():
    d = RaceDetector()
    d.on_spawn(d.ROOT, 1)
    d.on_spawn(d.ROOT, 2)
    d.on_access(1, "obj", "write")
    d.on_access(2, "obj", "write")
    assert len(d.reports) == 1
    report = d.reports[0]
    assert {report.first.task, report.second.task} == {1, 2}
    assert report.first.kind == report.second.kind == "write"


def test_sync_orders_later_reader():
    d = RaceDetector()
    d.on_spawn(d.ROOT, 1)
    d.on_access(1, "obj", "write")
    d.on_sync(d.ROOT, [1])
    d.on_spawn(d.ROOT, 2)
    d.on_access(2, "obj", "read")
    assert d.reports == []


def test_guard_orders_waiter_after_writer():
    d = RaceDetector()
    d.on_spawn(d.ROOT, 1)
    d.on_spawn(d.ROOT, 2)
    d.on_access(1, "obj", "write")
    d.on_guard(2, 1)
    d.on_access(2, "obj", "read")
    assert d.reports == []


def test_read_read_never_conflicts():
    d = RaceDetector()
    d.on_spawn(d.ROOT, 1)
    d.on_spawn(d.ROOT, 2)
    d.on_access(1, "obj", "read")
    d.on_access(2, "obj", "read")
    assert d.reports == []


def test_disjoint_ranks_never_conflict():
    d = RaceDetector()
    d.on_spawn(d.ROOT, 1)
    d.on_spawn(d.ROOT, 2)
    d.on_access(1, "obj", "write", rank=0)
    d.on_access(2, "obj", "write", rank=1)
    assert d.reports == []


def test_broadcast_write_overlaps_every_rank():
    d = RaceDetector()
    d.on_spawn(d.ROOT, 1)
    d.on_spawn(d.ROOT, 2)
    d.on_access(1, "obj", "write", rank=None)   # broadcast
    d.on_access(2, "obj", "read", rank=3)
    assert len(d.reports) == 1


def test_duplicate_pairs_reported_once():
    d = RaceDetector()
    d.on_spawn(d.ROOT, 1)
    d.on_spawn(d.ROOT, 2)
    d.on_access(1, "obj", "write")
    d.on_access(2, "obj", "write")
    d.on_access(2, "obj", "write")
    assert len(d.reports) == 1


def test_distinct_objects_reported_separately():
    d = RaceDetector()
    d.on_spawn(d.ROOT, 1)
    d.on_spawn(d.ROOT, 2)
    for obj in ("a", "b"):
        d.on_access(1, obj, "write")
        d.on_access(2, obj, "write")
    assert len(d.reports) == 2


def test_findings_shape():
    d = RaceDetector()
    d.on_spawn(d.ROOT, 1)
    d.on_spawn(d.ROOT, 2)
    d.on_access(1, "counter", "write")
    d.on_access(2, "counter", "write")
    (finding,) = d.findings()
    assert finding.code == "REP201"
    assert finding.origin == "shared-object:counter"
    assert "data race" in finding.message
    report_dict = d.reports[0].to_dict()
    assert report_dict["obj"] == "counter"
    assert set(report_dict["first"]) == {"task", "kind", "rank", "clock"}


# ---------------------------------------------------------------------------
# the seeded fixture (the PR's regression scenario)
# ---------------------------------------------------------------------------

def test_fixture_racy_reports_exactly_one_write_write_race():
    runtime = run_fixture(synced=False)
    reports = runtime.race_detector.reports
    assert len(reports) == 1
    (report,) = reports
    assert report.obj == "counter"
    assert report.first.kind == "write"
    assert report.second.kind == "write"
    assert report.first.task != report.second.task


def test_fixture_synced_is_silent():
    runtime = run_fixture(synced=True)
    assert runtime.race_detector.reports == []


def test_fixture_replicas_converge_either_way():
    # The fixture's increments commute, so results agree even when racy —
    # exactly why schedule-dependent interleavings need a sanitizer, not
    # an output diff, to be caught.
    for synced in (False, True):
        runtime = run_fixture(synced=synced)
        counter = runtime.shared_object("counter")
        assert [counter.value(r) for r in sorted(counter.replicas)] == [2, 2]


@pytest.mark.parametrize("seed", [7, 42, 1234])
def test_fixture_verdict_is_seed_independent(seed):
    assert len(run_fixture(synced=False, seed=seed)
               .race_detector.reports) == 1
    assert run_fixture(synced=True, seed=seed).race_detector.reports == []


# ---------------------------------------------------------------------------
# builtin apps stay silent
# ---------------------------------------------------------------------------

def test_builtin_app_has_no_races():
    from repro.analyze.cli import run_race_sanitizer
    assert run_race_sanitizer("matmul") == []


# ---------------------------------------------------------------------------
# zero overhead when disabled
# ---------------------------------------------------------------------------

def test_flag_off_attaches_no_detector():
    runtime = run_fixture(synced=False, detect_races=False)
    assert runtime.race_detector is None


def test_flag_off_stream_is_byte_identical_and_free_of_hb_events():
    def stream():
        runtime = run_fixture(synced=False, detect_races=False, obs=True)
        return runtime.obs
    a, b = stream(), stream()
    assert a.serialize() == b.serialize()
    assert len(a.events) > 0
    assert not [e for e in a.events if e.kind in _HB_KINDS]


def test_flag_on_does_not_perturb_the_schedule():
    base = run_fixture(synced=False, detect_races=False, obs=True)
    sanitized = run_fixture(synced=False, detect_races=True, obs=True)
    assert [e for e in sanitized.obs.events if e.kind in _HB_KINDS]
    # Dropping the sanitizer's own events leaves the identical schedule:
    # same kinds, timestamps, nodes and payloads in the same order (seq
    # numbers differ because the hb events consume sequence slots).
    def shape(bus):
        return [(e.ts, e.kind, e.node, e.lane, e.start, e.end, e.fields)
                for e in bus.events if e.kind not in _HB_KINDS]
    assert shape(sanitized.obs) == shape(base.obs)


def test_flag_on_mirrors_hb_edges_to_the_bus():
    runtime = run_fixture(synced=False, detect_races=True, obs=True)
    kinds = {e.kind for e in runtime.obs.events}
    assert {"hb_spawn", "hb_sync", "shared_access", "race"} <= kinds
