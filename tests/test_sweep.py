"""Tests for the sweep engine: cache identity, resume, failure isolation.

The contracts under test (docs/sweep.md):

* **cache identity** — a cache hit returns the *same* ``CellResult`` (and
  therefore the same experiment table rows) as the cold run that
  populated it;
* **resume** — re-running a sweep after a crash/failure executes only the
  missing cells;
* **failure isolation** — one poisoned cell (its runner raises) is
  reported as failed without aborting or corrupting sibling cells;
* **determinism** — parallel execution produces cell-for-cell the same
  results as inline sequential execution.
"""

from __future__ import annotations

import json

import pytest

from repro.sweep import (
    CellResult,
    ClusterSpec,
    RunSpec,
    SweepCache,
    SweepError,
    SweepSession,
    cell_key,
    config_items,
    run_cell,
    run_cells,
    run_cells_inline,
)


@pytest.fixture(autouse=True)
def _pinned_salt(monkeypatch):
    """Pin the code-version salt so keys are stable within the test run."""
    monkeypatch.setenv("REPRO_SWEEP_SALT", "test-salt")
    monkeypatch.delenv("REPRO_SWEEP_FAIL", raising=False)


def _cell(nodes: int = 1, system: str = "cashmere-opt",
          seed: int = 42) -> RunSpec:
    kind = "satin_cpu" if system == "satin" else "gtx480"
    return RunSpec(system=system, app="matmul",
                   cluster=ClusterSpec(kind=kind, num_nodes=nodes),
                   seed=seed, label=f"test/{system}/n{nodes}/seed{seed}")


GRID = [_cell(1), _cell(2), _cell(1, system="cashmere-unopt")]


# -- keys ---------------------------------------------------------------------

def test_cell_key_ignores_label():
    a = _cell(1)
    b = RunSpec(system=a.system, app=a.app, cluster=a.cluster, seed=a.seed,
                label="a totally different label")
    assert cell_key(a) == cell_key(b)


def test_cell_key_depends_on_spec_fields():
    base = _cell(1)
    assert cell_key(base) != cell_key(_cell(2))
    assert cell_key(base) != cell_key(_cell(1, seed=7))
    assert cell_key(base) != cell_key(_cell(1, system="cashmere-unopt"))
    tweaked = RunSpec(system=base.system, app=base.app, cluster=base.cluster,
                      seed=base.seed,
                      config=config_items(steal_policy="adaptive"))
    assert cell_key(base) != cell_key(tweaked)


def test_cell_key_depends_on_code_salt(monkeypatch):
    a = cell_key(_cell(1))
    monkeypatch.setenv("REPRO_SWEEP_SALT", "other-salt")
    assert cell_key(_cell(1)) != a


# -- cache identity -----------------------------------------------------------

def test_cache_hit_returns_identical_result(tmp_path):
    cache = SweepCache(tmp_path / "cache")
    cold = run_cells(GRID, cache=cache, jobs=1)
    assert cold.executed == len(GRID) and not cold.failed

    warm = run_cells(GRID, cache=cache, jobs=1)
    assert warm.executed == 0
    assert warm.cache_hits == len(GRID)
    # byte-identical payloads, not merely approximately equal
    for a, b in zip(cold.cell_results, warm.cell_results):
        assert json.dumps(a.to_dict(), sort_keys=True) == \
            json.dumps(b.to_dict(), sort_keys=True)


def test_cache_hit_experiment_rows_identical(tmp_path):
    """End to end: a warm experiment renders the exact same table."""
    from repro.experiments.scalability import fig9_10

    cache = SweepCache(tmp_path / "cache")
    cold_session = SweepSession(jobs=1, cache=cache)
    cold = fig9_10(node_counts=(1,), cell_runner=cold_session.runner)
    warm_session = SweepSession(jobs=1, cache=cache)
    warm = fig9_10(node_counts=(1,), cell_runner=warm_session.runner)
    cold_counts = [(r.executed, r.cache_hits) for r in cold_session.reports]
    warm_counts = [(r.executed, r.cache_hits) for r in warm_session.reports]
    assert cold_counts == [(3, 0)]
    assert warm_counts == [(0, 3)]
    assert warm.rows == cold.rows
    assert warm.render() == cold.render()


def test_parallel_matches_sequential(tmp_path):
    """jobs=2 across a fork pool: cell-for-cell identical to inline."""
    sequential = run_cells_inline(GRID)
    parallel = run_cells(GRID, jobs=2).results()
    assert parallel == sequential


def test_cache_survives_corrupt_record(tmp_path):
    cache = SweepCache(tmp_path / "cache")
    run_cells(GRID[:1], cache=cache)
    key = cell_key(GRID[0])
    record_path = cache.root / key[:2] / f"{key}.json"
    record_path.write_text("{ truncated")
    report = run_cells(GRID[:1], cache=cache)
    assert report.executed == 1 and not report.failed


def test_force_reexecutes_but_rewrites(tmp_path):
    cache = SweepCache(tmp_path / "cache")
    run_cells(GRID[:1], cache=cache)
    forced = run_cells(GRID[:1], cache=cache, force=True)
    assert forced.executed == 1 and forced.cache_hits == 0
    warm = run_cells(GRID[:1], cache=cache)
    assert warm.cache_hits == 1


# -- dedupe -------------------------------------------------------------------

def test_duplicate_cells_run_once():
    cells = [_cell(1), _cell(1), _cell(2), _cell(1)]
    report = run_cells(cells)
    assert len(report.outcomes) == 2
    assert len(report.cell_results) == 4
    assert report.cell_results[0] == report.cell_results[1]
    assert report.cell_results[0] == report.cell_results[3]


# -- failure isolation & resume ----------------------------------------------

def test_poisoned_cell_does_not_abort_siblings(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SWEEP_FAIL", "test/cashmere-opt/n2*")
    cache = SweepCache(tmp_path / "cache")
    report = run_cells(GRID, cache=cache, jobs=2, retries=1)
    assert len(report.failed) == 1
    poisoned = report.failed[0]
    assert poisoned.spec.display() == "test/cashmere-opt/n2/seed42"
    assert poisoned.attempts == 2          # initial + 1 retry
    assert "injected failure" in poisoned.error
    # siblings completed and were cached
    ok = [o for o in report.outcomes if o.source == "run"]
    assert len(ok) == len(GRID) - 1
    assert all(o.result is not None for o in ok)
    with pytest.raises(SweepError, match="test/cashmere-opt/n2"):
        report.results()


def test_resume_runs_only_missing_cells(tmp_path, monkeypatch):
    """Simulated worker crash, then resume: only the crashed cell re-runs."""
    cache = SweepCache(tmp_path / "cache")
    monkeypatch.setenv("REPRO_SWEEP_FAIL", "test/cashmere-opt/n2*")
    crashed = run_cells(GRID, cache=cache, jobs=2)
    assert len(crashed.failed) == 1

    monkeypatch.delenv("REPRO_SWEEP_FAIL")
    resumed = run_cells(GRID, cache=cache, jobs=2)
    assert resumed.executed == 1           # only the missing cell
    assert resumed.cache_hits == len(GRID) - 1
    assert not resumed.failed
    # and the resumed sweep's payload matches a fully cold one
    cold = run_cells_inline(GRID)
    assert resumed.results() == cold


def test_retry_recovers_flaky_cell(tmp_path, monkeypatch):
    """A failure on the first attempt is retried; attempts are counted."""
    calls = {"n": 0}
    import repro.sweep.engine as engine

    real_worker = engine._worker

    def flaky(item):
        calls["n"] += 1
        if calls["n"] == 1:
            return item[0], "err", "transient", 0.0
        return real_worker(item)

    monkeypatch.setattr(engine, "_worker", flaky)
    report = run_cells(GRID[:1], retries=2, jobs=1)
    assert not report.failed
    assert report.outcomes[0].attempts == 2


# -- run_cell payload ---------------------------------------------------------

def test_run_cell_payload_is_deterministic():
    a, _ = run_cell(_cell(1))
    b, _ = run_cell(_cell(1))
    assert a == b
    assert isinstance(a, CellResult)
    assert a.makespan_s > 0 and a.gflops > 0 and a.sim_events > 0


def test_unknown_cluster_kind_rejected():
    with pytest.raises(ValueError, match="unknown cluster kind"):
        ClusterSpec(kind="fpga-rack", num_nodes=2).build()


def test_heterogeneity_through_cells():
    """The Table III bookkeeping survives the cell conversion."""
    from repro.experiments.heterogeneity import heterogeneous_run

    r = heterogeneous_run("matmul")
    assert r.het_gflops > 0
    assert 0 < r.het_efficiency <= 1.2
    assert 0 < r.homogeneous_efficiency <= 1.2
