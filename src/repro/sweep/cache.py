"""Content-addressed result cache for sweep cells.

A cell's cache key is a SHA-256 over the canonical JSON of

* a schema tag (bumped when the record layout changes),
* a **code-version salt** — a digest of every ``repro`` source file, so
  editing the simulator silently invalidates all cached results (stale
  results from an older model are the one thing a result cache must never
  serve), and
* the cell's :meth:`~repro.sweep.spec.RunSpec.to_dict` (system, app,
  cluster, seed, config overrides — *not* the cosmetic label).

Records are one JSON file per key, sharded by the key's first two hex
digits, written atomically (temp file + ``os.replace``) so a crashed or
killed sweep never leaves a half-written record for the re-run that
resumes it to trip over.  The salt can be pinned with ``REPRO_SWEEP_SALT`` (used by tests and
by anyone who wants cache hits across known-benign source edits).
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
import time
from typing import Any, Dict, Optional

from .spec import CellResult, RunSpec

__all__ = ["SweepCache", "cell_key", "code_salt", "default_cache_dir",
           "CACHE_SCHEMA"]

#: bump when the record layout or CellResult fields change
CACHE_SCHEMA = 1

_salt_cache: Optional[str] = None


def code_salt() -> str:
    """Digest of the ``repro`` package sources (memoized per process).

    ``REPRO_SWEEP_SALT`` overrides it when set.
    """
    global _salt_cache
    env = os.environ.get("REPRO_SWEEP_SALT")
    if env is not None:
        return env
    if _salt_cache is None:
        root = pathlib.Path(__file__).resolve().parent.parent
        h = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
        _salt_cache = h.hexdigest()
    return _salt_cache


def cell_key(spec: RunSpec, salt: Optional[str] = None) -> str:
    """Content hash identifying one cell's result."""
    payload = {
        "schema": CACHE_SCHEMA,
        "salt": salt if salt is not None else code_salt(),
        "cell": spec.to_dict(),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def default_cache_dir() -> pathlib.Path:
    """``REPRO_SWEEP_CACHE`` or ``~/.cache/repro-sweep``."""
    env = os.environ.get("REPRO_SWEEP_CACHE")
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro-sweep"


class SweepCache:
    """One JSON record per cell under ``root``, sharded by key prefix."""

    def __init__(self, root: pathlib.Path):
        self.root = pathlib.Path(root)

    def _path(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The full cached record, or ``None`` on miss/corruption.

        A corrupt record (partial write from a hard kill predating the
        atomic-write path, disk trouble) counts as a miss: the sweep
        re-runs the cell and overwrites it.
        """
        path = self._path(key)
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if record.get("schema") != CACHE_SCHEMA or "result" not in record:
            return None
        return record

    def put(self, key: str, spec: RunSpec, result: CellResult,
            wall_s: float) -> None:
        """Atomically persist one cell's record."""
        record = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "spec": spec.to_dict(),
            "label": spec.display(),
            "result": result.to_dict(),
            # analyze: ignore[REP102] cache provenance metadata: records
            # *when* the host produced the entry, never feeds a simulation
            "meta": {"wall_s": wall_s, "saved_at": time.time()},
        }
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(record, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))
