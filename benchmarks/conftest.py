"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper, prints the
rows/series, and writes them to ``<results>/<experiment_id>.txt`` so the
regenerated evaluation artifacts persist after the run.  The results
directory is ``results/`` next to the repo root, overridable with the
``REPRO_RESULTS_DIR`` environment variable (CI points it at the artifact
staging directory).
"""

import os
import pathlib


def results_dir() -> pathlib.Path:
    env = os.environ.get("REPRO_RESULTS_DIR")
    if env:
        return pathlib.Path(env)
    return pathlib.Path(__file__).resolve().parent.parent / "results"


def bench_node_counts():
    """Node counts from ``REPRO_BENCH_NODE_COUNTS``, validated.

    Returns ``None`` for full paper scale (the variable is unset or
    empty/whitespace, which previously slipped through as an empty tuple
    and crashed the scalability experiments), else a sorted tuple of
    distinct positive ints.  A malformed value fails fast with the
    offending text rather than deep inside an experiment.
    """
    raw = os.environ.get("REPRO_BENCH_NODE_COUNTS")
    if raw is None or not raw.strip():
        return None
    try:
        counts = tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise ValueError(
            f"REPRO_BENCH_NODE_COUNTS must be comma-separated ints, "
            f"got {raw!r}") from None
    if not counts or any(n < 1 for n in counts):
        raise ValueError(
            f"REPRO_BENCH_NODE_COUNTS needs positive node counts, "
            f"got {raw!r}")
    return tuple(sorted(set(counts)))


def record(result) -> None:
    """Persist an ExperimentResult's table and SVG figures, and print the
    table as written."""
    from repro.experiments.artifacts import save_artifacts

    # re-read the env var at call time so a test can redirect one run
    table = save_artifacts(result, results_dir())[0]
    print()
    print(pathlib.Path(table).read_text(), end="")
