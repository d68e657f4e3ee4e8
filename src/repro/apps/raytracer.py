"""Path-tracing raytracer — the irregular, compute-intensive application
(Table II), based on smallpt / SmallptGPU.

The paper renders the Cornell scene at 16384x8192 with 500 random samples
per pixel.  The kernel is highly divergent: ray bounces terminate at
data-dependent depths, so SIMD lanes idle — which is why optimization
barely helps this kernel (Sec. V-A) and why we provide no vectorized
``mic`` version (divergent code does not vectorize).

The MCPL kernel is a simplified grayscale path tracer with a 32-bit
xorshift RNG; the Python reference implementation mirrors it operation for
operation, so interpreter output can be compared bit-for-bit at small
sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .base import FLOAT_BYTES, CashmereApplication

__all__ = ["RaytracerApp", "RayTask", "cornell_scene", "reference_trace",
           "small_app", "PAPER_WIDTH", "PAPER_HEIGHT",
           "PAPER_SAMPLES"]

PAPER_WIDTH = 16384
PAPER_HEIGHT = 8192
PAPER_SAMPLES = 500

_TRACE_BODY = """
  foreach (int y in nrows threads) {
    foreach (int x in w threads) {
      int state = seed + (row0 + y) * w + x + 1;
      float acc = 0.0;
      for (int s = 0; s < ns; s++) {
        float ox = 0.5;
        float oy = 0.5;
        float oz = 0.0 - 2.0;
        float dx = (float_cast(x) + 0.5) / float_cast(w) - 0.5;
        float dy = (float_cast(row0 + y) + 0.5) / float_cast(h) - 0.5;
        float dz = 1.0;
        float inv = rsqrt(dx * dx + dy * dy + dz * dz);
        dx = dx * inv;
        dy = dy * inv;
        dz = dz * inv;
        float atten = 1.0;
        int depth = 0;
        int alive = 1;
        while (alive == 1) {
          float tbest = 100000000.0;
          int ibest = 0 - 1;
          for (int i = 0; i < no; i++) {
            float cx = spheres[i,0] - ox;
            float cy = spheres[i,1] - oy;
            float cz = spheres[i,2] - oz;
            float bq = cx * dx + cy * dy + cz * dz;
            float det = bq * bq - (cx * cx + cy * cy + cz * cz)
                + spheres[i,3] * spheres[i,3];
            if (det > 0.0) {
              float sq = sqrt(det);
              float tt = bq - sq;
              if (tt < 0.001) {
                tt = bq + sq;
              }
              if (tt > 0.001 && tt < tbest) {
                tbest = tt;
                ibest = i;
              }
            }
          }
          if (ibest < 0) {
            alive = 0;
          } else {
            acc = acc + atten * material[ibest,0];
            atten = atten * material[ibest,1];
            ox = ox + dx * tbest;
            oy = oy + dy * tbest;
            oz = oz + dz * tbest;
            state = state ^ (state << 13);
            state = state ^ (state >> 17);
            state = state ^ (state << 5);
            float r1 = float_cast(state & 65535) / 65536.0;
            state = state ^ (state << 13);
            state = state ^ (state >> 17);
            state = state ^ (state << 5);
            float r2 = float_cast(state & 65535) / 65536.0;
            dx = r1 * 2.0 - 1.0;
            dy = r2 * 2.0 - 1.0;
            dz = (r1 + r2) * 0.5 - 0.5 + 0.001;
            float n2 = rsqrt(dx * dx + dy * dy + dz * dz + 0.0001);
            dx = dx * n2;
            dy = dy * n2;
            dz = dz * n2;
            depth = depth + 1;
            if (depth >= 5) {
              alive = 0;
            }
            if (atten < 0.05) {
              alive = 0;
            }
          }
        }
      }
      image[y,x] = acc / float_cast(ns);
    }
  }
"""

_SIGNATURE = """void raytrace(int w, int h, int row0, int nrows,
    int ns, int no, int seed,
    float[no,4] spheres, float[no,2] material,
    float[nrows,w] image) {"""

KERNELS_PERFECT = "perfect " + _SIGNATURE + _TRACE_BODY + "}\n"

#: The "optimized" gpu version.  Stepwise refinement cannot remove the
#: algorithmic divergence (Sec. V-A: "to obtain better performance from the
#: raytracer would mean a different algorithm"), so the gpu version is the
#: same computation, merely restructured — its performance matches the
#: unoptimized one, reproducing Fig. 6's raytracer bars.
KERNELS_GPU = "gpu " + _SIGNATURE + _TRACE_BODY + "}\n"


def _i32(x: int) -> int:
    x &= 0xFFFFFFFF
    return x - 0x100000000 if x >= 0x80000000 else x


def _xorshift(state: int) -> int:
    state = _i32(state ^ _i32((state & 0xFFFFFFFF) << 13))
    state = _i32(state ^ ((state & 0xFFFFFFFF) >> 17))
    state = _i32(state ^ _i32((state & 0xFFFFFFFF) << 5))
    return state


def reference_trace(w: int, h: int, row0: int, nrows: int, ns: int,
                    seed: int, spheres: np.ndarray, material: np.ndarray
                    ) -> np.ndarray:
    """Python port of the MCPL kernel, operation for operation."""
    no = spheres.shape[0]
    image = np.zeros((nrows, w))
    for y in range(nrows):
        for x in range(w):
            state = seed + (row0 + y) * w + x + 1
            acc = 0.0
            for _s in range(ns):
                ox, oy, oz = 0.5, 0.5, -2.0
                dx = (float(x) + 0.5) / float(w) - 0.5
                dy = (float(row0 + y) + 0.5) / float(h) - 0.5
                dz = 1.0
                inv = 1.0 / np.sqrt(dx * dx + dy * dy + dz * dz)
                dx, dy, dz = dx * inv, dy * inv, dz * inv
                atten = 1.0
                depth = 0
                while True:
                    tbest = 100000000.0
                    ibest = -1
                    for i in range(no):
                        cx = spheres[i, 0] - ox
                        cy = spheres[i, 1] - oy
                        cz = spheres[i, 2] - oz
                        bq = cx * dx + cy * dy + cz * dz
                        det = bq * bq - (cx * cx + cy * cy + cz * cz) \
                            + spheres[i, 3] * spheres[i, 3]
                        if det > 0.0:
                            sq = float(np.sqrt(det))
                            tt = bq - sq
                            if tt < 0.001:
                                tt = bq + sq
                            if tt > 0.001 and tt < tbest:
                                tbest = tt
                                ibest = i
                    if ibest < 0:
                        break
                    acc += atten * material[ibest, 0]
                    atten *= material[ibest, 1]
                    ox += dx * tbest
                    oy += dy * tbest
                    oz += dz * tbest
                    state = _xorshift(state)
                    r1 = float(state & 65535) / 65536.0
                    state = _xorshift(state)
                    r2 = float(state & 65535) / 65536.0
                    dx = r1 * 2.0 - 1.0
                    dy = r2 * 2.0 - 1.0
                    dz = (r1 + r2) * 0.5 - 0.5 + 0.001
                    n2 = 1.0 / np.sqrt(dx * dx + dy * dy + dz * dz + 0.0001)
                    dx, dy, dz = dx * n2, dy * n2, dz * n2
                    depth += 1
                    if depth >= 5 or atten < 0.05:
                        break
            image[y, x] = acc / float(ns)
    return image


_FLOPS_PER_ROW_CACHE: Dict[Tuple[int, int, int, int], float] = {}


def _flops_per_row(width: int, height: int, samples: int, n_objects: int
                   ) -> float:
    """Per-row flop count from the MCL analysis of the perfect kernel."""
    key = (width, height, samples, n_objects)
    if key not in _FLOPS_PER_ROW_CACHE:
        from ..mcl.compiler.analysis import analyze_cost
        from ..mcl.mcpl.parser import parse_kernel
        ref_rows = 4
        analysis = analyze_cost(parse_kernel(KERNELS_PERFECT),
                                {"w": width, "h": height, "row0": 0,
                                 "nrows": ref_rows, "ns": samples,
                                 "no": n_objects, "seed": 1})
        _FLOPS_PER_ROW_CACHE[key] = analysis.flops / ref_rows
    return _FLOPS_PER_ROW_CACHE[key]


def cornell_scene() -> Tuple[np.ndarray, np.ndarray]:
    """The smallpt Cornell-box scene as 9 spheres.

    Returns (spheres [9,4]: x,y,z,radius; material [9,2]: emission,
    reflectivity), scaled into the unit box the camera looks at.
    """
    big = 1000.0
    spheres = np.array([
        [-big, 0.5, 0.5, big - 0.0],     # left wall
        [big + 1.0, 0.5, 0.5, big - 0.0],  # right wall
        [0.5, 0.5, big + 1.5, big - 0.0],  # back wall
        [0.5, 0.5, -big - 2.5, big - 0.0],  # front wall
        [0.5, -big, 0.5, big - 0.0],     # floor
        [0.5, big + 1.0, 0.5, big - 0.0],  # ceiling
        [0.3, 0.2, 0.8, 0.18],           # mirror-ish ball
        [0.7, 0.2, 0.6, 0.18],           # glass-ish ball
        [0.5, 0.95, 0.5, 0.12],          # light
    ])
    material = np.array([
        [0.0, 0.75], [0.0, 0.75], [0.0, 0.75], [0.0, 0.0],
        [0.0, 0.75], [0.0, 0.75],
        [0.0, 0.9], [0.0, 0.9],
        [12.0, 0.0],
    ])
    return spheres, material


@dataclass(frozen=True)
class RayTask:
    """Render the image rows [row0, row0 + nrows)."""

    row0: int
    nrows: int


class RaytracerApp(CashmereApplication):
    """Strip-decomposed path tracing over the D&C model."""

    name = "raytracer"
    KERNELS_UNOPTIMIZED = KERNELS_PERFECT
    KERNELS_OPTIMIZED = KERNELS_GPU
    #: path tracing is scalar and branchy on the host CPU: no SSE, frequent
    #: mispredictions — a single core sustains far below its streaming rate
    cpu_irregularity_penalty = 4.6

    def __init__(self, width: int = PAPER_WIDTH, height: int = PAPER_HEIGHT,
                 samples: int = PAPER_SAMPLES, leaf_rows: int = 64,
                 seed: int = 1,
                 scene: Optional[Tuple[np.ndarray, np.ndarray]] = None,
                 real_execution: bool = False):
        self.width = width
        self.height = height
        self.samples = samples
        self.leaf_rows = leaf_rows
        self.seed = seed
        self.spheres, self.material = scene if scene is not None \
            else cornell_scene()
        self.real_execution = real_execution
        #: assembled image in real mode
        self.image: Optional[np.ndarray] = \
            np.zeros((height, width)) if real_execution else None

    @property
    def n_objects(self) -> int:
        return self.spheres.shape[0]

    # -- structure ----------------------------------------------------------
    def root_task(self) -> RayTask:
        return RayTask(0, self.height)

    def is_leaf(self, task: RayTask) -> bool:
        return task.nrows <= self.leaf_rows

    def divide(self, task: RayTask) -> List[RayTask]:
        half = task.nrows // 2
        return [RayTask(task.row0, half),
                RayTask(task.row0 + half, task.nrows - half)]

    def combine(self, task: RayTask, results: List[Any]) -> Any:
        return sum(r for r in results if r is not None)

    # -- costs ---------------------------------------------------------------
    def task_bytes(self, task: RayTask) -> float:
        # Scene description plus parameters: tiny (compute >> communication).
        return FLOAT_BYTES * (self.n_objects * 6) + 64.0

    def result_bytes(self, task: RayTask) -> float:
        return FLOAT_BYTES * task.nrows * self.width

    def leaf_flops(self, task: RayTask) -> float:
        # O(n * o * d * s) (Sec. IV).  Derived from the MCL static analysis
        # of the kernel so the CPU-leaf (Satin) timing, the device timing
        # and the reported application GFLOPS all count the same work.
        return task.nrows * _flops_per_row(self.width, self.height,
                                           self.samples, self.n_objects)

    # -- kernels ----------------------------------------------------------------
    def leaf_kernel_name(self, task: RayTask) -> str:
        return "raytrace"

    def leaf_kernel_params(self, task: RayTask) -> Dict[str, int]:
        return {"w": self.width, "h": self.height, "row0": task.row0,
                "nrows": task.nrows, "ns": self.samples,
                "no": self.n_objects, "seed": self.seed}

    def leaf_h2d_bytes(self, task: RayTask) -> float:
        return self.task_bytes(task)

    def leaf_d2h_bytes(self, task: RayTask) -> float:
        return self.result_bytes(task)

    # -- real execution -----------------------------------------------------------
    def leaf_result(self, task: RayTask) -> Any:
        if not self.real_execution:
            return 0.0
        block = reference_trace(self.width, self.height, task.row0,
                                task.nrows, self.samples, self.seed,
                                self.spheres, self.material)
        self.image[task.row0:task.row0 + task.nrows, :] = block
        return float(block.sum())


def small_app(width: int = 32, height: int = 16, samples: int = 4,
             leaf_rows: int = 4) -> RaytracerApp:
    """Tiny configuration with real rendering for validation."""
    return RaytracerApp(width=width, height=height, samples=samples,
                        leaf_rows=leaf_rows, real_execution=True)
