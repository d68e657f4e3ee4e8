"""N-body simulation — the iterative application with intensive
communication (Table II).

The paper simulates 2 million bodies for 2 iterations.  Each iteration is
O(n^2) computation; afterwards every node needs all updated positions —
O(n) communication with an all-to-all pattern, which we model as the
master gathering leaf results (through the normal result path) and
broadcasting the new positions.

Kernel versions:

* ``perfect`` — naive all-pairs, every interaction re-reads global memory,
* ``gpu``    — the classic tiled formulation: 256-body tiles staged through
  local memory, own body state in registers,
* ``mic``    — core/thread chunking, vectorized inner interaction loop, own
  body in registers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .base import FLOAT_BYTES, CashmereApplication

__all__ = ["NBodyApp", "NBodyTask", "reference_nbody_step",
           "small_app", "PAPER_BODIES", "PAPER_ITERATIONS"]

PAPER_BODIES = 2_000_000
PAPER_ITERATIONS = 2
SOFTENING = 0.01

KERNELS_PERFECT = """
perfect void nbody(int nl, int n, float dt,
    float[nl,4] mypos, float[n,4] allpos,
    float[nl,4] vel, float[nl,4] out) {
  foreach (int i in nl threads) {
    float ax = 0.0;
    float ay = 0.0;
    float az = 0.0;
    for (int j = 0; j < n; j++) {
      float dx = allpos[j,0] - mypos[i,0];
      float dy = allpos[j,1] - mypos[i,1];
      float dz = allpos[j,2] - mypos[i,2];
      float r2 = dx * dx + dy * dy + dz * dz + 0.01;
      float inv = rsqrt(r2);
      float inv3 = inv * inv * inv;
      float s = allpos[j,3] * inv3;
      ax += dx * s;
      ay += dy * s;
      az += dz * s;
    }
    vel[i,0] += ax * dt;
    vel[i,1] += ay * dt;
    vel[i,2] += az * dt;
    out[i,0] = mypos[i,0] + vel[i,0] * dt;
    out[i,1] = mypos[i,1] + vel[i,1] * dt;
    out[i,2] = mypos[i,2] + vel[i,2] * dt;
    out[i,3] = mypos[i,3];
  }
}
"""

KERNELS_GPU = """
gpu void nbody(int nl, int n, float dt,
    float[nl,4] mypos, float[n,4] allpos,
    float[nl,4] vel, float[nl,4] out) {
  foreach (int b in (nl + 255) / 256 blocks) {
    local float[256,4] tile;
    local float[256,4] acc;
    foreach (int t in 256 threads) {
      acc[t,0] = 0.0;
      acc[t,1] = 0.0;
      acc[t,2] = 0.0;
    }
    for (int jj = 0; jj < n; jj += 256) {
      foreach (int t in 256 threads) {
        for (int x = t; x < 1024; x += 256) {
          if (jj + x / 4 < n) {
            tile[x / 4, x % 4] = allpos[jj + x / 4, x % 4];
          }
        }
      }
      foreach (int t in 256 threads) {
        int i = b * 256 + t;
        if (i < nl) {
          private float[4] me;
          for (int f = 0; f < 4; f++) {
            me[f] = mypos[i,f];
          }
          float ax = 0.0;
          float ay = 0.0;
          float az = 0.0;
          for (int j = 0; j < 256; j++) {
            if (jj + j < n) {
              float dx = tile[j,0] - me[0];
              float dy = tile[j,1] - me[1];
              float dz = tile[j,2] - me[2];
              float r2 = dx * dx + dy * dy + dz * dz + 0.01;
              float inv = rsqrt(r2);
              float inv3 = inv * inv * inv;
              float s = tile[j,3] * inv3;
              ax += dx * s;
              ay += dy * s;
              az += dz * s;
            }
          }
          acc[t,0] += ax;
          acc[t,1] += ay;
          acc[t,2] += az;
        }
      }
    }
    foreach (int t in 256 threads) {
      int i = b * 256 + t;
      if (i < nl) {
        vel[i,0] += acc[t,0] * dt;
        vel[i,1] += acc[t,1] * dt;
        vel[i,2] += acc[t,2] * dt;
        out[i,0] = mypos[i,0] + vel[i,0] * dt;
        out[i,1] = mypos[i,1] + vel[i,1] * dt;
        out[i,2] = mypos[i,2] + vel[i,2] * dt;
        out[i,3] = mypos[i,3];
      }
    }
  }
}
"""

KERNELS_MIC = """
mic void nbody(int nl, int n, float dt,
    float[nl,4] mypos, float[n,4] allpos,
    float[nl,4] vel, float[nl,4] out) {
  foreach (int ci in 60 cores) {
    foreach (int ti in 4 threads) {
      int w = ci * 4 + ti;
      int chunk = (nl + 239) / 240;
      for (int i = w * chunk; i < (w + 1) * chunk && i < nl; i += 1) {
        private float[4] me;
        for (int f = 0; f < 4; f++) {
          me[f] = mypos[i,f];
        }
        float ax = 0.0;
        float ay = 0.0;
        float az = 0.0;
        for (int jj = 0; jj < n; jj += 16) {
          foreach (int v in 16 vectors) {
            int j = jj + v;
            if (j < n) {
              float dx = allpos[j,0] - me[0];
              float dy = allpos[j,1] - me[1];
              float dz = allpos[j,2] - me[2];
              float r2 = dx * dx + dy * dy + dz * dz + 0.01;
              float inv = rsqrt(r2);
              float inv3 = inv * inv * inv;
              float s = allpos[j,3] * inv3;
              ax += dx * s;  // lint: ignore[MCL102] SIMD sum-reduction across the 16 lanes
              ay += dy * s;  // lint: ignore[MCL102] SIMD sum-reduction across the 16 lanes
              az += dz * s;  // lint: ignore[MCL102] SIMD sum-reduction across the 16 lanes
            }
          }
        }
        vel[i,0] += ax * dt;
        vel[i,1] += ay * dt;
        vel[i,2] += az * dt;
        out[i,0] = mypos[i,0] + vel[i,0] * dt;
        out[i,1] = mypos[i,1] + vel[i,1] * dt;
        out[i,2] = mypos[i,2] + vel[i,2] * dt;
        out[i,3] = mypos[i,3];
      }
    }
  }
}
"""


@dataclass(frozen=True)
class NBodyTask:
    """One iteration's force computation for the bodies in [lo, hi)."""

    iteration: int
    lo: int
    hi: int

    @property
    def count(self) -> int:
        return self.hi - self.lo


#: flops per body-body interaction (3 subs, 6 mul/add for r2, rsqrt~2,
#: 2 for inv3, 1 scale, 6 for the accumulate) — the customary count is 20.
FLOPS_PER_INTERACTION = 20.0

#: Bodies per force block in ``leaf_batch``.  Each ``(rows, n, 3)``
#: temporary of a block takes 1.5 KiB per body of ``n``.
_BLOCK_BODIES = 64


def reference_nbody_step(pos: np.ndarray, vel: np.ndarray, dt: float
                         ) -> Tuple[np.ndarray, np.ndarray]:
    """One full O(n^2) step: returns (new_pos, new_vel).

    ``pos`` is [n, 4] (x, y, z, mass); matches the kernels' math exactly.
    """
    delta = pos[None, :, :3] - pos[:, None, :3]        # [i, j, 3]
    r2 = (delta ** 2).sum(axis=2) + SOFTENING
    inv3 = r2 ** -1.5
    s = pos[None, :, 3] * inv3                          # [i, j]
    acc = (delta * s[:, :, None]).sum(axis=1)           # [i, 3]
    new_vel = vel.copy()
    new_vel[:, :3] += acc * dt
    new_pos = pos.copy()
    new_pos[:, :3] += new_vel[:, :3] * dt
    return new_pos, new_vel


class NBodyApp(CashmereApplication):
    """Iterative all-pairs n-body over the D&C model."""

    name = "nbody"
    KERNELS_UNOPTIMIZED = KERNELS_PERFECT
    KERNELS_OPTIMIZED = KERNELS_GPU + KERNELS_MIC

    def __init__(self, n_bodies: int = PAPER_BODIES,
                 iterations: int = PAPER_ITERATIONS, dt: float = 0.01,
                 leaf_bodies: int = 1 << 10,
                 data: Optional[Tuple[np.ndarray, np.ndarray]] = None):
        self.n_bodies = n_bodies
        self.iterations = iterations
        self.dt = dt
        self.leaf_bodies = leaf_bodies
        #: optional real data: (pos [n,4], vel [n,4])
        self.data = data
        #: position snapshots per iteration (real mode)
        self.history: List[np.ndarray] = []

    # -- iterative main program -------------------------------------------------
    def program(self, runtime, master, root_task):
        last = None
        # Initial distribution of all body positions (all-to-all: every
        # node contributes its share, as on the real system).
        yield from runtime.allgather(self.n_bodies * 4 * FLOAT_BYTES,
                                     tag="nbody-positions")
        for it in range(self.iterations):
            self._prepare_iteration()
            task = NBodyTask(it, 0, self.n_bodies)
            last = yield from runtime.run_subtask(master, task)
            self._commit_iteration()
            if self.data is not None:
                self.history.append(self.data[0].copy())
            # All nodes need the updated positions: O(n) bytes exchanged
            # all-to-all (Sec. IV: "all-to-all for each compute node").
            yield from runtime.allgather(self.n_bodies * 4 * FLOAT_BYTES,
                                         tag="nbody-positions")
        return last

    # -- structure ------------------------------------------------------------
    def root_task(self) -> NBodyTask:
        return NBodyTask(0, 0, self.n_bodies)

    def is_leaf(self, task: NBodyTask) -> bool:
        return task.count <= self.leaf_bodies

    def divide(self, task: NBodyTask) -> List[NBodyTask]:
        mid = (task.lo + task.hi) // 2
        return [NBodyTask(task.iteration, task.lo, mid),
                NBodyTask(task.iteration, mid, task.hi)]

    def combine(self, task: NBodyTask, results: List[Any]) -> Any:
        return sum(r for r in results if r is not None)

    # -- costs -------------------------------------------------------------------
    def task_bytes(self, task: NBodyTask) -> float:
        # A stolen task carries its own bodies (pos + vel).  The *other*
        # positions are already node-resident: program() broadcasts all
        # positions before the first iteration and after each one — the
        # O(n) all-to-all communication of Sec. IV.
        return FLOAT_BYTES * task.count * 8

    def result_bytes(self, task: NBodyTask) -> float:
        return FLOAT_BYTES * task.count * 8  # new pos + vel

    def leaf_flops(self, task: NBodyTask) -> float:
        return FLOPS_PER_INTERACTION * task.count * self.n_bodies

    # -- kernels --------------------------------------------------------------
    def leaf_kernel_name(self, task: NBodyTask) -> str:
        return "nbody"

    def leaf_kernel_params(self, task: NBodyTask) -> Dict[str, Any]:
        return {"nl": task.count, "n": self.n_bodies, "dt": self.dt}

    def leaf_h2d_bytes(self, task: NBodyTask) -> float:
        return self.task_bytes(task)

    def leaf_d2h_bytes(self, task: NBodyTask) -> float:
        return self.result_bytes(task)

    # -- real execution ----------------------------------------------------------
    def leaf_batch(self, tasks) -> List[Any]:
        """One vectorized all-pairs pass over every pending leaf's bodies.

        Forces are computed row-independently, so concatenating the body
        ranges leaves each row's reduction unchanged: the staged
        positions/velocities and per-task checksums are the same however
        the leaves are batched.  The stacked rows are walked in blocks of
        ``_BLOCK_BODIES``, so the ``(rows, n, 3)`` temporaries do not grow
        with the number of leaves batched.  Leaves write into staging
        arrays so in-iteration updates do not corrupt other leaves'
        inputs; program() commits them after the round.
        """
        if self.data is None:
            return [0.0] * len(tasks)
        pos, vel = self.data
        idx = np.concatenate([np.arange(t.lo, t.hi) for t in tasks])
        acc = np.empty((idx.size, 3))
        for lo in range(0, idx.size, _BLOCK_BODIES):
            rows = idx[lo:lo + _BLOCK_BODIES]
            delta = pos[None, :, :3] - pos[rows, None, :3]
            r2 = (delta ** 2).sum(axis=2) + SOFTENING
            s = pos[None, :, 3] * r2 ** -1.5
            acc[lo:lo + rows.size] = (delta * s[:, :, None]).sum(axis=1)
        out: List[Any] = []
        off = 0
        for t in tasks:
            lo, hi = t.lo, t.hi
            a = acc[off:off + t.count]
            self._staged_vel[lo:hi] = vel[lo:hi]
            self._staged_vel[lo:hi, :3] += a * self.dt
            self._staged_pos[lo:hi] = pos[lo:hi]
            self._staged_pos[lo:hi, :3] += self._staged_vel[lo:hi, :3] * self.dt
            out.append(float(a.sum()))
            off += t.count
        return out

    def _prepare_iteration(self) -> None:
        if self.data is not None:
            self._staged_pos = np.empty_like(self.data[0])
            self._staged_vel = np.empty_like(self.data[1])

    def _commit_iteration(self) -> None:
        if self.data is not None:
            self.data[0][:] = self._staged_pos
            self.data[1][:] = self._staged_vel


def small_app(n_bodies: int = 512, iterations: int = 2,
             leaf_bodies: int = 64, seed: int = 0) -> NBodyApp:
    """Small configuration with real data for validation."""
    rng = np.random.default_rng(seed)
    pos = rng.random((n_bodies, 4))
    pos[:, 3] = rng.random(n_bodies) + 0.5  # masses
    vel = np.zeros((n_bodies, 4))
    return NBodyApp(n_bodies=n_bodies, iterations=iterations,
                    leaf_bodies=leaf_bodies, data=(pos, vel))
