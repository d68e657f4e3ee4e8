"""Matrix multiplication — the regular, compute- *and* communication-
intensive application (Table II).

The paper multiplies two 32768x32768 single-precision matrices.  The D&C
driver divides the output matrix into quadrants; a leaf computes one
``bs x bs`` output block from an ``bs x n`` row panel of A and an ``n x bs``
column panel of B, which is why matmul is communication-heavy: a stolen leaf
drags hundreds of MB across the network (Sec. V-B2's poor scaling).

Kernel versions:

* ``perfect`` — the paper's Fig. 3 kernel verbatim (unoptimized),
* ``gpu``    — 32x32 local-memory tiling with cooperative staging,
* ``mic``    — core/thread chunking with 16-wide vectorized columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .base import FLOAT_BYTES, CashmereApplication

__all__ = ["MatmulApp", "MatmulTask", "PAPER_N", "small_app"]

#: the paper's problem size (Sec. V-B2)
PAPER_N = 32768

KERNELS_PERFECT = """
perfect void matmul(int n, int m, int p,
    float[n,m] c,
    float[n,p] a, float[p,m] b) {
  foreach (int i in n threads) {
    foreach (int j in m threads) {
      float sum = 0.0;
      for (int k = 0; k < p; k++) {
        sum += a[i,k] * b[k,j];
      }
      c[i,j] += sum;
    }
  }
}
"""

KERNELS_GPU = """
gpu void matmul(int n, int m, int p,
    float[n,m] c,
    float[n,p] a, float[p,m] b) {
  foreach (int bi in n / 32 blocks) {
    foreach (int bj in m / 32 blocks) {
      local float[32,32] ta;
      local float[32,32] tb;
      local float[32,32] cacc;
      foreach (int ti in 32 threads) {
        foreach (int tj in 32 threads) {
          cacc[ti,tj] = 0.0;
        }
      }
      for (int kk = 0; kk < p; kk += 32) {
        foreach (int ti in 32 threads) {
          foreach (int tj in 32 threads) {
            ta[ti,tj] = a[bi * 32 + ti, kk + tj];  // lint: ignore[MCL201] the driver pads p to a multiple of 32
            tb[ti,tj] = b[kk + ti, bj * 32 + tj];  // lint: ignore[MCL201] the driver pads p to a multiple of 32
          }
        }
        foreach (int ti in 32 threads) {
          foreach (int tj in 32 threads) {
            float sum = cacc[ti,tj];
            for (int k = 0; k < 32; k++) {
              sum += ta[ti,k] * tb[k,tj];
            }
            cacc[ti,tj] = sum;
          }
        }
      }
      foreach (int ti in 32 threads) {
        foreach (int tj in 32 threads) {
          c[bi * 32 + ti, bj * 32 + tj] += cacc[ti,tj];
        }
      }
    }
  }
}
"""

KERNELS_MIC = """
mic void matmul(int n, int m, int p,
    float[n,m] c,
    float[n,p] a, float[p,m] b) {
  foreach (int ci in 60 cores) {
    int rows = (n + 59) / 60;
    for (int kk = 0; kk < p; kk += 256) {
      for (int jj = 0; jj < m; jj += 128) {
        local float[256,128] tb;
        for (int x = 0; x < 256; x++) {
          for (int y = 0; y < 128; y++) {
            tb[x,y] = b[kk + x, jj + y];  // lint: ignore[MCL201] the driver pads p and m to multiples of the tile
          }
        }
        foreach (int ti in 4 threads) {
          int chunk = (rows + 3) / 4;
          int base = ci * rows + ti * chunk;
          for (int i = base; i < base + chunk && i < n && i < ci * rows + rows; i += 1) {
            for (int jv = 0; jv < 128; jv += 16) {
              foreach (int v in 16 vectors) {
                int j = jj + jv + v;
                float sum = 0.0;
                for (int k = 0; k < 256; k++) {
                  sum += a[i, kk + k] * tb[k, jv + v];  // lint: ignore[MCL201] kk + k < p by padding; jv + v < 128 since jv steps by the 16-lane width
                }
                c[i,j] += sum;  // lint: ignore[MCL201] j = jj + jv + v < m by padding
              }
            }
          }
        }
      }
    }
  }
}
"""


@dataclass(frozen=True)
class MatmulTask:
    """One output block of C: rows [row0, row0+size), cols [col0, col0+size)."""

    row0: int
    col0: int
    size: int


class MatmulApp(CashmereApplication):
    """Blocked matmul over the Cashmere/Satin divide-and-conquer model."""

    name = "matmul"
    KERNELS_UNOPTIMIZED = KERNELS_PERFECT
    KERNELS_OPTIMIZED = KERNELS_GPU + KERNELS_MIC

    def __init__(self, n: int = PAPER_N, leaf_block: int = 2048,
                 data: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None):
        if n % leaf_block != 0:
            raise ValueError("n must be a multiple of leaf_block")
        self.n = n
        self.leaf_block = leaf_block
        #: optional (a, b, c) arrays for real execution; each leaf writes
        #: its own block of c
        self.data = data

    # -- structure ----------------------------------------------------------
    def root_task(self) -> MatmulTask:
        return MatmulTask(0, 0, self.n)

    def is_leaf(self, task: MatmulTask) -> bool:
        return task.size <= self.leaf_block

    def divide(self, task: MatmulTask) -> List[MatmulTask]:
        half = task.size // 2
        return [MatmulTask(task.row0 + di * half, task.col0 + dj * half, half)
                for di in (0, 1) for dj in (0, 1)]

    def combine(self, task: MatmulTask, results: List[Any]) -> Any:
        return sum(r for r in results if r is not None)

    # -- costs ----------------------------------------------------------------
    def task_bytes(self, task: MatmulTask) -> float:
        # Row panel of A, column panel of B, and the C block itself.
        return FLOAT_BYTES * (2.0 * task.size * self.n + task.size ** 2)

    def result_bytes(self, task: MatmulTask) -> float:
        return FLOAT_BYTES * task.size ** 2

    def leaf_flops(self, task: MatmulTask) -> float:
        return 2.0 * task.size * task.size * self.n

    # -- kernels -----------------------------------------------------------------
    def leaf_kernel_name(self, task: MatmulTask) -> str:
        return "matmul"

    def leaf_kernel_params(self, task: MatmulTask) -> Dict[str, int]:
        return {"n": task.size, "m": task.size, "p": self.n}

    def leaf_h2d_bytes(self, task: MatmulTask) -> float:
        return self.task_bytes(task)

    def leaf_d2h_bytes(self, task: MatmulTask) -> float:
        return self.result_bytes(task)

    # -- real execution -------------------------------------------------------
    def leaf_batch(self, tasks) -> List[Any]:
        """All pending output blocks in one stacked batched matmul.

        Leaves of equal size share a ``[k, s, n] @ [k, n, s]`` call; each
        slice is one leaf's own GEMM.  Leaf blocks of C are disjoint and
        each leaf computes its whole block, so a leaf assigns it: write
        order does not matter, and a leaf re-executed after a crash writes
        the same block again instead of adding it twice.
        """
        if self.data is None:
            return [0.0] * len(tasks)
        a, b, c = self.data
        out: List[Any] = [None] * len(tasks)
        by_size: Dict[int, List[int]] = {}
        for i, t in enumerate(tasks):
            by_size.setdefault(t.size, []).append(i)
        for size, idxs in by_size.items():
            a_stack = np.stack(
                [a[tasks[i].row0:tasks[i].row0 + size, :] for i in idxs])
            b_stack = np.stack(
                [b[:, tasks[i].col0:tasks[i].col0 + size] for i in idxs])
            blocks = a_stack @ b_stack
            for j, i in enumerate(idxs):
                t = tasks[i]
                block = blocks[j]
                c[t.row0:t.row0 + size, t.col0:t.col0 + size] = block
                out[i] = float(block.sum())
        return out


def small_app(n: int = 256, leaf_block: int = 64,
             seed: int = 0) -> MatmulApp:
    """A small configuration with real data, for validation."""
    rng = np.random.default_rng(seed)
    a = rng.random((n, n), dtype=np.float64)
    b = rng.random((n, n), dtype=np.float64)
    c = np.zeros((n, n))
    return MatmulApp(n=n, leaf_block=leaf_block, data=(a, b, c))
