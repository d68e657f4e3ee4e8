"""Golden tests for the race detector: MCL101, MCL102, MCL401.

Each rule has triggering and non-triggering kernels, including the
paper-shaped patterns (tiled matmul indexing, block/thread decompositions)
that the dependence tests must prove independent.
"""

from repro.mcl.verify import Severity, verify_source


def codes(source):
    return {f.code for f in verify_source(source)}


def findings_for(source, code):
    return [f for f in verify_source(source) if f.code == code]


# ---------------------------------------------------------------------------
# MCL101 — cross-iteration array races
# ---------------------------------------------------------------------------

def test_mcl101_triggers_on_shared_element():
    src = """
    perfect void f(int n, float[n] a, float[1] out) {
      foreach (int i in n threads) {
        out[0] = out[0] + a[i];
      }
    }
    """
    found = findings_for(src, "MCL101")
    assert found
    assert found[0].severity is Severity.ERROR
    assert "'out'" in found[0].message


def test_mcl101_triggers_on_offset_overlap():
    # iteration i writes a[i], iteration i+1 reads it: a loop-carried race.
    src = """
    perfect void f(int n, float[n] a) {
      foreach (int i in n threads) {
        a[i] = a[i + 1];  // lint: ignore[MCL201] probe kernel
      }
    }
    """
    assert "MCL101" in codes(src)


def test_mcl101_clean_on_identity_subscript():
    src = """
    perfect void f(int n, float[n] a) {
      foreach (int i in n threads) {
        a[i] = a[i] * 2.0;
      }
    }
    """
    assert "MCL101" not in codes(src)


def test_mcl101_clean_on_block_thread_decomposition():
    # i = b * 256 + t is injective over (b, t): no two iterations collide.
    src = """
    gpu void f(int n, float[n] a) {
      foreach (int b in n / 256 blocks) {
        foreach (int t in 256 threads) {
          int i = b * 256 + t;
          a[i] = a[i] + 1.0;  // lint: ignore[MCL201] n is a multiple of 256
        }
      }
    }
    """
    assert "MCL101" not in codes(src)


def test_mcl101_reads_alone_do_not_race():
    src = """
    perfect void f(int n, float[n] a, float[n] b) {
      foreach (int i in n threads) {
        b[i] = a[0] + a[i];
      }
    }
    """
    assert "MCL101" not in codes(src)


# ---------------------------------------------------------------------------
# MCL102 — scalar races
# ---------------------------------------------------------------------------

def test_mcl102_triggers_on_outer_scalar_write():
    src = """
    perfect void f(int n, float[n] a, float[1] out) {
      float acc = 0.0;
      foreach (int i in n threads) {
        acc += a[i];
      }
      out[0] = acc;
    }
    """
    found = findings_for(src, "MCL102")
    assert found
    assert "'acc'" in found[0].message


def test_mcl102_clean_for_loop_local_scalar():
    src = """
    perfect void f(int n, float[n] a) {
      foreach (int i in n threads) {
        float x = a[i];
        x = x * 2.0;
        a[i] = x;
      }
    }
    """
    assert "MCL102" not in codes(src)


def test_mcl102_sequential_for_is_not_parallel():
    src = """
    perfect void f(int n, float[n] a, float[1] out) {
      float acc = 0.0;
      for (int i = 0; i < n; i++) {
        acc += a[i];
      }
      out[0] = acc;
    }
    """
    assert "MCL102" not in codes(src)


# ---------------------------------------------------------------------------
# MCL401 — barrier under divergent control flow
# ---------------------------------------------------------------------------

def test_mcl401_triggers_under_thread_dependent_guard():
    src = """
    gpu void f(int n, float[n] a) {
      foreach (int b in n / 256 blocks) {
        foreach (int t in 256 threads) {
          if (t < 128) {
            barrier();
          }
          a[b * 256 + t] = 1.0;  // lint: ignore[MCL201] n is a multiple of 256
        }
      }
    }
    """
    found = findings_for(src, "MCL401")
    assert found
    assert found[0].severity is Severity.ERROR
    assert "barrier" in found[0].message


def test_mcl401_triggers_under_data_dependent_guard():
    src = """
    gpu void f(int n, float[n] a) {
      foreach (int b in n / 256 blocks) {
        foreach (int t in 256 threads) {
          if (a[b * 256 + t] > 0.0) {
            barrier();
          }
        }
      }
    }
    """
    assert "MCL401" in codes(src)


def test_mcl401_clean_for_unconditional_barrier():
    src = """
    gpu void f(int n, float[n] a) {
      foreach (int b in n / 256 blocks) {
        local float[256] tile;
        foreach (int t in 256 threads) {
          tile[t] = a[b * 256 + t];  // lint: ignore[MCL201] n is a multiple of 256
          barrier();
        }
      }
    }
    """
    assert "MCL401" not in codes(src)


def test_mcl401_clean_for_uniform_guard():
    # The condition depends only on a parameter: all iterations agree.
    src = """
    gpu void f(int n, float[n] a) {
      foreach (int b in n / 256 blocks) {
        foreach (int t in 256 threads) {
          if (n > 256) {
            barrier();
          }
        }
      }
    }
    """
    assert "MCL401" not in codes(src)


# ---------------------------------------------------------------------------
# findings carry the kernel tag
# ---------------------------------------------------------------------------

def test_findings_are_tagged_with_kernel_and_level():
    src = """
    perfect void probe(int n, float[n] a, float[1] out) {
      foreach (int i in n threads) {
        out[0] = a[i];
      }
    }
    """
    found = findings_for(src, "MCL101")
    assert found
    assert found[0].origin == "probe@perfect"
