"""K-means clustering — the iterative application with light communication
(Table II).

The paper clusters 268 million 4-feature points into 4096 clusters over 3
iterations.  Each iteration is a divide-and-conquer pass over point chunks:
a leaf assigns its points to the nearest centroid and produces partial sums
and counts (O(k·d) result bytes); the master combines partials into new
centroids and broadcasts them — O(k) communication per iteration against
O(n·k) computation, which is why k-means scales so well (Fig. 11).

Kernel versions:

* ``perfect`` — naive assignment, centroids re-read from global memory,
* ``gpu``    — centroids staged through local memory in 2048-cluster chunks
  (4096x4 floats exceed 48 KB of local memory), transposed point layout for
  coalescing,
* ``mic``    — core/thread chunking with the cluster loop vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .base import FLOAT_BYTES, CashmereApplication

__all__ = ["KMeansApp", "KMeansTask", "nearest_centroid",
           "reference_kmeans_iteration",
           "small_app", "PAPER_POINTS", "PAPER_K", "PAPER_D",
           "PAPER_ITERATIONS"]

PAPER_POINTS = 268_000_000
PAPER_K = 4096
PAPER_D = 4
PAPER_ITERATIONS = 3

KERNELS_PERFECT = """
perfect void kmeans(int nk, int d, int np,
    float[np,d] points, float[nk,d] centroids,
    float[nk,d] sums, float[nk] counts, int[np] assign) {
  foreach (int i in np threads) {
    float best = 100000000000.0;
    int bi = 0;
    for (int cc = 0; cc < nk; cc++) {
      float dist = 0.0;
      for (int f = 0; f < d; f++) {
        float diff = points[i,f] - centroids[cc,f];
        dist += diff * diff;
      }
      if (dist < best) {
        best = dist;
        bi = cc;
      }
    }
    assign[i] = bi;
  }
  for (int i = 0; i < np; i++) {
    int cc = assign[i];
    counts[cc] += 1.0;  // lint: ignore[MCL201] assign[i] holds a cluster id in [0, nk) by construction
    for (int f = 0; f < d; f++) {
      sums[cc,f] += points[i,f];  // lint: ignore[MCL201] cc = assign[i] is in [0, nk)
    }
  }
}
"""

KERNELS_GPU = """
gpu void kmeans(int nk, int d, int np,
    float[d,np] points, float[nk,d] centroids,
    float[nk,d] sums, float[nk] counts, int[np] assign) {
  foreach (int b in (np + 255) / 256 blocks) {
    local float[2048,4] lc;
    local float[256] lbest;  // lint: ignore[MCL501] tuned for 48 KB devices (GTX480/K20); the generic gpu level assumes 32 KB
    local int[256] lbi;
    foreach (int t in 256 threads) {
      lbest[t] = 100000000000.0;
      lbi[t] = 0;
    }
    for (int base = 0; base < nk; base += 2048) {
      foreach (int t in 256 threads) {
        for (int x = t; x < 2048 * d; x += 256) {
          if (base + x / d < nk) {
            lc[x / d, x % d] = centroids[base + x / d, x % d];  // lint: ignore[MCL101,MCL201] threads copy disjoint x strides; d == 4 at run time
          }
        }
      }
      foreach (int t in 256 threads) {
        int i = b * 256 + t;
        if (i < np) {
          private float[4] pt;
          for (int f = 0; f < d; f++) {
            pt[f] = points[f,i];  // lint: ignore[MCL201] d == 4 at run time (pt is sized for it)
          }
          for (int cc = 0; cc < 2048 && base + cc < nk; cc++) {
            float dist = 0.0;
            for (int f = 0; f < d; f++) {
              float diff = pt[f] - lc[cc,f];  // lint: ignore[MCL201] d == 4 at run time
              dist += diff * diff;
            }
            if (dist < lbest[t]) {
              lbest[t] = dist;
              lbi[t] = base + cc;
            }
          }
        }
      }
    }
    foreach (int t in 256 threads) {
      int i = b * 256 + t;
      if (i < np) {
        assign[i] = lbi[t];
      }
    }
  }
  for (int i = 0; i < np; i++) {
    int cc = assign[i];
    counts[cc] += 1.0;  // lint: ignore[MCL201] assign[i] holds a cluster id in [0, nk) by construction
    for (int f = 0; f < d; f++) {
      sums[cc,f] += points[f,i];  // lint: ignore[MCL201] cc = assign[i] is in [0, nk)
    }
  }
}
"""

KERNELS_MIC = """
mic void kmeans(int nk, int d, int np,
    float[np,d] points, float[nk,d] centroids,
    float[nk,d] sums, float[nk] counts, int[np] assign) {
  foreach (int ci in 60 cores) {
    foreach (int ti in 4 threads) {
      int w = ci * 4 + ti;
      int chunk = (np + 239) / 240;
      for (int i = w * chunk; i < (w + 1) * chunk && i < np; i += 1) {
        float best = 100000000000.0;
        int bi = 0;
        private float[4] pt;
        for (int f = 0; f < d; f++) {
          pt[f] = points[i,f];  // lint: ignore[MCL201] d == 4 at run time (pt is sized for it)
        }
        for (int base = 0; base < nk; base += 16) {
          foreach (int v in 16 vectors) {
            int cc = base + v;
            if (cc < nk) {
              float dist = 0.0;
              for (int f = 0; f < d; f++) {
                float diff = pt[f] - centroids[cc,f];  // lint: ignore[MCL201] d == 4 at run time
                dist += diff * diff;
              }
              if (dist < best) {
                best = dist;  // lint: ignore[MCL102] SIMD min-reduction; lanes resolve via vector blend
                bi = cc;  // lint: ignore[MCL102] SIMD min-reduction; lanes resolve via vector blend
              }
            }
          }
        }
        assign[i] = bi;
      }
    }
  }
  for (int i = 0; i < np; i++) {
    int cc = assign[i];
    counts[cc] += 1.0;  // lint: ignore[MCL201] assign[i] holds a cluster id in [0, nk) by construction
    for (int f = 0; f < d; f++) {
      sums[cc,f] += points[i,f];  // lint: ignore[MCL201] cc = assign[i] is in [0, nk)
    }
  }
}
"""


@dataclass(frozen=True)
class KMeansTask:
    """One iteration's work on the points in [lo, hi)."""

    iteration: int
    lo: int
    hi: int

    @property
    def count(self) -> int:
        return self.hi - self.lo


#: Points per distance block.  One ``(rows, k)`` term is 256 KiB at k = 64,
#: so the few terms a block keeps live stay in cache.
_BLOCK_ROWS = 512


def _pairwise_terms(block_t: np.ndarray, centroids_t: np.ndarray,
                    lo: int, n: int) -> np.ndarray:
    """Sum of the squared-difference terms of features ``[lo, lo + n)``.

    The terms are added in the order of numpy's pairwise summation
    (``pairwise_sum`` in ``loops_utils.h.src``): below 8 terms left to
    right; up to 128 as eight running sums combined as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the remainder; above
    128 split at a multiple of 8 near the middle, each half recursively.
    """
    def term(f: int) -> np.ndarray:
        t = np.subtract.outer(block_t[f], centroids_t[f])
        return np.multiply(t, t, out=t)

    if n < 8:
        total = term(lo)
        for f in range(lo + 1, lo + n):
            total += term(f)
        return total
    if n <= 128:
        tail = n - n % 8

        def running(j: int) -> np.ndarray:
            r = term(lo + j)
            for i in range(8, tail, 8):
                r += term(lo + i + j)
            return r

        def pair(j: int) -> np.ndarray:
            r = running(j)
            r += running(j + 1)
            return r

        # Each running sum is built just before it is added, so at most
        # five (rows, k) arrays are live; keeping all eight is slower.
        total = pair(0)
        total += pair(2)
        right = pair(4)
        right += pair(6)
        total += right
        for f in range(lo + tail, lo + n):
            total += term(f)
        return total
    half = n // 2 - (n // 2) % 8
    total = _pairwise_terms(block_t, centroids_t, lo, half)
    total += _pairwise_terms(block_t, centroids_t, lo + half, n - half)
    return total


def _squared_distances(block: np.ndarray, centroids_t: np.ndarray
                       ) -> np.ndarray:
    """``(rows, k)`` squared distances of ``block`` to the ``(d, k)``
    transposed centroids, bit-identical to
    ``((block[:, None] - centroids[None]) ** 2).sum(axis=2)``."""
    block_t = np.ascontiguousarray(block.T)
    return _pairwise_terms(block_t, centroids_t, 0, block_t.shape[0])


def _gram_settle(points: np.ndarray, centroids_t: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Rank every point by the Gram form and prove which ranks are exact.

    Returns ``(best, refine)``.  ``best[i]`` is the first argmin of
    ``S_i = |c|^2 - 2 p_i.c``, point ``i``'s squared distances less the
    row-constant ``|p_i|^2``: one small GEMM against the ``-2``-scaled
    ``(d, k)`` centroids and one add of ``|c|^2`` per ``_BLOCK_ROWS``
    block.  ``refine`` lists, in order, the rows whose ``best`` is not
    proven to be the broadcast's argmin.

    The bound holds for any summation order, with or without FMA.  Let
    ``u = 2^-53``, ``g_n = n u / (1 - n u)``, ``D_j = |p - c_j|^2``
    exactly and ``M = (|p| + max_j |c_j|)^2``.

    * The broadcast's ``D^_j`` has ``|D^_j - D_j| <= g_{d+2} D_j``: one
      rounding for the difference, one for the square and ``d - 1`` for
      the sum of nonnegative terms.
    * The Gram value ``S~_j`` has ``|S~_j - (D_j - |p|^2)| <= g_{d+1}
      (|c_j|^2 + 2 |p| |c_j|)``: ``g_d`` for the dot product and for
      ``|c_j|^2``, one rounding for the add.  Scaling by -2 is exact; if
      it overflows, so does ``|c_j|^2``.
    * Both right-hand sides are at most ``g_{d+2} M``, so ``D^_j - |p|^2
      = S~_j + e_j`` with ``|e_j| <= E = 2 g_{d+2} M``.

    So if ``S~_j > S~_b + 2E`` for every ``j != b``, then ``D^_j > D^_b``:
    ``b`` is the broadcast's argmin, with no tie.  A row is settled when
    every ``j != b`` has ``S~_j > thr = S~_b + (8 (d + 3) u M~ + eta)``,
    where ``M~`` is ``M`` from the computed norms.  ``8 (d + 3) u M~``
    covers ``4 g_{d+2} M`` with room for the roundings of ``M~`` and of
    ``thr`` itself.  Gradual underflow adds at most ``2^-1075`` per
    rounded product or square, ``6 d`` of them to ``|e_j| + |e_b|``, and
    leaves ``8 (d + 3) u M~`` short by at most ``2^-1074``;
    ``eta = (4 d + 8) 2^-1074`` covers both.  Rounding is monotone, so an
    ``S~_j`` that overflows to ``+inf`` still lies above a finite ``thr``.

    Every row the proof does not cover fails the test.  Near ties, and
    exact ties from a duplicated centroid, fall within the margin.  A NaN
    or infinity in the row, or an ``M~`` that overflows, makes ``thr``
    NaN or ``+inf``.  A non-finite centroid makes ``max_j |c_j|`` NaN or
    ``+inf`` for every row, since ``max`` propagates NaN.
    """
    d, k = centroids_t.shape
    c_sq = np.einsum("fj,fj->j", centroids_t, centroids_t)
    c_norm = np.sqrt(c_sq.max())
    scaled_t = centroids_t * -2.0
    tol = 8 * (d + 3) * 2.0 ** -53
    eta = (4 * d + 8) * 2.0 ** -1074
    best = np.empty(points.shape[0], dtype=np.intp)
    settled = np.empty(points.shape[0], dtype=bool)
    # flat index of each block row's first column
    starts = np.arange(_BLOCK_ROWS) * k
    for lo in range(0, points.shape[0], _BLOCK_ROWS):
        block = points[lo:lo + _BLOCK_ROWS]
        rows = block.shape[0]
        gram = block @ scaled_t
        gram += c_sq
        flat = gram.reshape(-1)
        at = starts[:rows] + gram.argmin(axis=1, out=best[lo:lo + rows])
        norm = np.sqrt(np.einsum("ij,ij->i", block, block)) + c_norm
        thr = flat[at] + (norm * norm * tol + eta)
        flat[at] = np.inf
        runner_up = flat[starts[:rows] + gram.argmin(axis=1)]
        settled[lo:lo + rows] = runner_up > thr
    return best, np.flatnonzero(~settled)


def nearest_centroid(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of each point's nearest centroid, the first one on a tie.

    Exact against ``((points[:, None] - centroids[None]) ** 2).sum(axis=2)
    .argmin(axis=1)`` in float64.  :func:`_gram_settle` ranks every point
    with the BLAS form ``|c|^2 - 2 p.c`` and a proven bound on its
    rounding, which settles a row when its runner-up is clear of its best
    by more than twice that bound.  Only the other rows (near ties, exact
    ties, non-finite or out-of-range values) take the exact pass,
    :func:`_squared_distances`: every distance the same float as the
    broadcast's, added in numpy's own summation order.  Both walk the
    points in blocks of ``_BLOCK_ROWS``, so no ``(points, k, d)`` or
    ``(points, k)`` temporary is built.
    """
    points = np.asarray(points, dtype=np.float64)
    centroids_t = np.ascontiguousarray(centroids.T, dtype=np.float64)
    assign, refine = _gram_settle(points, centroids_t)
    for lo in range(0, refine.size, _BLOCK_ROWS):
        rows = refine[lo:lo + _BLOCK_ROWS]
        assign[rows] = _squared_distances(points[rows],
                                          centroids_t).argmin(axis=1)
    return assign


def reference_kmeans_iteration(points: np.ndarray, centroids: np.ndarray
                               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One assignment pass: (assignments, per-cluster sums, counts).

    Exact against the textbook numpy form: :func:`nearest_centroid`
    matches the broadcast distance ``argmin``, and each column's
    ``bincount`` adds the points in index order, as
    ``np.add.at(sums, assign, points)`` does.
    """
    assign = nearest_centroid(points, centroids)
    k = centroids.shape[0]
    sums = np.zeros_like(centroids)
    for f in range(points.shape[1]):
        sums[:, f] = np.bincount(assign, weights=points[:, f], minlength=k)
    counts = np.bincount(assign, minlength=k).astype(float)
    return assign, sums, counts


class KMeansApp(CashmereApplication):
    """Iterative distributed k-means over the D&C model."""

    name = "kmeans"
    KERNELS_UNOPTIMIZED = KERNELS_PERFECT
    KERNELS_OPTIMIZED = KERNELS_GPU + KERNELS_MIC

    def __init__(self, n_points: int = PAPER_POINTS, k: int = PAPER_K,
                 d: int = PAPER_D, iterations: int = PAPER_ITERATIONS,
                 leaf_points: int = 1 << 18,
                 data: Optional[np.ndarray] = None,
                 centroids: Optional[np.ndarray] = None):
        self.n_points = n_points
        self.k = k
        self.d = d
        self.iterations = iterations
        self.leaf_points = leaf_points
        #: optional real data: points [n, d]
        self.data = data
        #: current centroids (real mode); updated by program() per iteration
        self.centroids = centroids
        #: per-iteration centroid snapshots (real mode, for validation)
        self.centroid_history: List[np.ndarray] = []

    # -- iterative main program (Fig. 5 + Sec. V-B3) -------------------------
    def program(self, runtime, master, root_task):
        last = None
        for it in range(self.iterations):
            task = KMeansTask(it, 0, self.n_points)
            last = yield from runtime.run_subtask(master, task)
            if self.data is not None and last is not None:
                sums, counts = last
                new = np.where(counts[:, None] > 0,
                               sums / np.maximum(counts[:, None], 1.0),
                               self.centroids)
                self.centroids = new
                self.centroid_history.append(new.copy())
            # Distribute the k updated centroids to every node: the O(k)
            # per-iteration communication the paper highlights.
            yield from runtime.broadcast_from(
                master, nbytes=self.k * self.d * FLOAT_BYTES,
                tag="kmeans-centroids")
        return last

    # -- structure ------------------------------------------------------------
    def root_task(self) -> KMeansTask:
        return KMeansTask(0, 0, self.n_points)

    def is_leaf(self, task: KMeansTask) -> bool:
        return task.count <= self.leaf_points

    def divide(self, task: KMeansTask) -> List[KMeansTask]:
        mid = (task.lo + task.hi) // 2
        return [KMeansTask(task.iteration, task.lo, mid),
                KMeansTask(task.iteration, mid, task.hi)]

    def combine(self, task: KMeansTask, results: List[Any]) -> Any:
        real = [r for r in results if r is not None]
        if not real:
            return None
        sums = sum(r[0] for r in real)
        counts = sum(r[1] for r in real)
        return (sums, counts)

    # -- costs -------------------------------------------------------------------
    def task_bytes(self, task: KMeansTask) -> float:
        # The input points are pre-distributed across the cluster before the
        # timed section (on DAS-4 they are read from storage, not shipped
        # from the master) and stay node-resident between iterations
        # (Satin's shared-object-style data reuse).  A stolen task carries
        # only the current centroids — the O(k) communication of Sec. IV.
        return FLOAT_BYTES * self.k * self.d + 64.0

    def result_bytes(self, task: KMeansTask) -> float:
        # Partial sums and counts.
        return FLOAT_BYTES * (self.k * self.d + self.k)

    def leaf_flops(self, task: KMeansTask) -> float:
        # 3 flops per (point, cluster, feature): sub, mul, add.
        return 3.0 * task.count * self.k * self.d

    # -- kernels --------------------------------------------------------------
    def leaf_kernel_name(self, task: KMeansTask) -> str:
        return "kmeans"

    def leaf_kernel_params(self, task: KMeansTask) -> Dict[str, int]:
        return {"nk": self.k, "d": self.d, "np": task.count}

    def leaf_h2d_bytes(self, task: KMeansTask) -> float:
        return self.task_bytes(task)

    def leaf_d2h_bytes(self, task: KMeansTask) -> float:
        return self.result_bytes(task)

    # -- real execution ----------------------------------------------------------
    def leaf_result(self, task: KMeansTask) -> Any:
        if self.data is None:
            return None
        _, sums, counts = reference_kmeans_iteration(
            self.data[task.lo:task.hi], self.centroids)
        return sums, counts


def small_app(n_points: int = 4096, k: int = 16, d: int = 4,
             iterations: int = 2, leaf_points: int = 512,
             seed: int = 0) -> KMeansApp:
    """Small configuration with real data for validation."""
    rng = np.random.default_rng(seed)
    data = rng.random((n_points, d))
    centroids = data[rng.choice(n_points, size=k, replace=False)].copy()
    return KMeansApp(n_points=n_points, k=k, d=d, iterations=iterations,
                     leaf_points=leaf_points, data=data, centroids=centroids)
