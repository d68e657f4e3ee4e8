"""Golden tests for the safety lints: MCL201/301/302/303/501.

Every rule code gets at least one *triggering* and one *non-triggering*
kernel, plus tests of the suppression machinery and the renderers.
"""

import json

import pytest

from repro.mcl.verify import (Severity, has_errors, render_json, render_text,
                              verify_source)


def codes(source):
    return {f.code for f in verify_source(source)}


def findings_for(source, code):
    return [f for f in verify_source(source) if f.code == code]


# ---------------------------------------------------------------------------
# MCL201 — bounds
# ---------------------------------------------------------------------------

def test_mcl201_triggers_on_upper_overflow():
    src = """
    perfect void f(int n, float[n] a) {
      foreach (int i in n threads) {
        a[i + 1] = 0.0;
      }
    }
    """
    found = findings_for(src, "MCL201")
    assert found, "off-by-one subscript must be reported"
    assert found[0].severity is Severity.ERROR
    assert "< n" in found[0].message


def test_mcl201_triggers_on_negative_index():
    src = """
    perfect void f(int n, float[n] a) {
      foreach (int i in n threads) {
        a[i - 1] = 0.0;
      }
    }
    """
    found = findings_for(src, "MCL201")
    assert found
    assert ">= 0" in found[0].message


def test_mcl201_clean_on_exact_range():
    src = """
    perfect void f(int n, float[n] a) {
      foreach (int i in n threads) {
        a[i] = a[i] * 2.0;
      }
    }
    """
    assert "MCL201" not in codes(src)


def test_mcl201_guard_refinement_proves_bounds():
    src = """
    perfect void f(int n, float[n] a) {
      foreach (int i in n + 32 threads) {
        if (i < n) {
          a[i] = 0.0;
        }
      }
    }
    """
    assert "MCL201" not in codes(src)


@pytest.mark.parametrize("guard", ["if (i == 4) { out[0] = 1; }",
                                   "if (i == 2) { continue; }"],
                         ids=["equality", "continue"])
def test_mcl201_counter_bound_holds_on_every_iteration(guard):
    # The counter runs to n - 1, so out[i] overflows the 7 elements for
    # n > 7.  Under the guard the counter's bounds keep moving from pass to
    # pass, and only a pass that changes them no more may be recorded.
    src = f"""
    perfect void f(int n, int[7] out) {{
      for (int i = 0; i < n; i++) {{
        {guard}
        out[i] = 1;
      }}
    }}
    """
    (found,) = findings_for(src, "MCL201")
    assert "(i) of 'out'" in found.message and "< 7" in found.message


# ---------------------------------------------------------------------------
# MCL301 — maybe-uninitialized reads
# ---------------------------------------------------------------------------

def test_mcl301_triggers_on_conditional_init():
    src = """
    perfect void f(int n, float[n] a) {
      foreach (int i in n threads) {
        float x;
        if (i < 2) {
          x = 1.0;
        }
        a[i] = x;
      }
    }
    """
    found = findings_for(src, "MCL301")
    assert found
    assert "'x'" in found[0].message
    assert found[0].severity is Severity.ERROR


def test_mcl301_clean_when_initialized():
    src = """
    perfect void f(int n, float[n] a) {
      foreach (int i in n threads) {
        float x = 0.0;
        if (i < 2) {
          x = 1.0;
        }
        a[i] = x;
      }
    }
    """
    assert "MCL301" not in codes(src)


# ---------------------------------------------------------------------------
# MCL302 — dead stores
# ---------------------------------------------------------------------------

def test_mcl302_triggers_on_overwritten_initializer():
    src = """
    perfect void f(int n, float[n] a) {
      foreach (int i in n threads) {
        float x = 1.0;
        x = 2.0;
        a[i] = x;
      }
    }
    """
    found = findings_for(src, "MCL302")
    assert found
    assert found[0].severity is Severity.WARNING
    assert "never read" in found[0].message


def test_mcl302_clean_when_both_values_used():
    src = """
    perfect void f(int n, float[n] a) {
      foreach (int i in n threads) {
        float x = 1.0;
        a[i] = x;
        x = 2.0;
        a[i] = a[i] + x;
      }
    }
    """
    assert "MCL302" not in codes(src)


# ---------------------------------------------------------------------------
# MCL303 — unused parameters
# ---------------------------------------------------------------------------

def test_mcl303_triggers_on_unused_param():
    src = """
    perfect void f(int n, int m, float[n] a) {
      foreach (int i in n threads) {
        a[i] = 0.0;
      }
    }
    """
    found = findings_for(src, "MCL303")
    assert len(found) == 1
    assert "'m'" in found[0].message


def test_mcl303_param_used_only_in_shape_is_not_unused():
    src = """
    perfect void f(int n, int m, float[n,m] a) {
      foreach (int i in n threads) {
        a[i,0] = 0.0;
      }
    }
    """
    assert "MCL303" not in codes(src)


# ---------------------------------------------------------------------------
# MCL501 — local memory budget
# ---------------------------------------------------------------------------

def test_mcl501_triggers_on_local_overflow():
    # 16384 floats = 64 KB > the generic gpu level's 32 KB of local memory.
    src = """
    gpu void f(int n, float[n] a) {
      foreach (int b in n / 256 blocks) {
        local float[16384] tile;
        foreach (int t in 256 threads) {
          tile[t] = 0.0;
        }
      }
    }
    """
    found = findings_for(src, "MCL501")
    assert found
    assert "65536 bytes" in found[0].message


def test_mcl501_clean_within_budget():
    src = """
    gpu void f(int n, float[n] a) {
      foreach (int b in n / 256 blocks) {
        local float[256] tile;
        foreach (int t in 256 threads) {
          tile[t] = 0.0;
        }
      }
    }
    """
    assert "MCL501" not in codes(src)


def test_mcl501_symbolic_shapes_are_not_counted():
    src = """
    gpu void f(int n, float[n] a) {
      foreach (int b in n / 256 blocks) {
        local float[n] tile;
        foreach (int t in 256 threads) {
          tile[t] = 0.0;
        }
      }
    }
    """
    assert "MCL501" not in codes(src)


# ---------------------------------------------------------------------------
# suppressions + renderers
# ---------------------------------------------------------------------------

def test_same_line_suppression_silences_finding():
    src = """
    perfect void f(int n, float[n] a) {
      foreach (int i in n threads) {
        a[i + 1] = 0.0;  // lint: ignore[MCL201] caller allocates n + 1 slots
      }
    }
    """
    assert "MCL201" not in codes(src)


def test_comment_line_suppression_applies_to_next_line():
    src = """
    perfect void f(int n, float[n] a) {
      foreach (int i in n threads) {
        // lint: ignore[MCL201] caller allocates n + 1 slots
        a[i + 1] = 0.0;
      }
    }
    """
    assert "MCL201" not in codes(src)


def test_suppression_is_code_specific():
    src = """
    perfect void f(int n, int m, float[n] a) {
      foreach (int i in n threads) {
        a[i + 1] = 0.0;  // lint: ignore[MCL501] wrong code
      }
    }
    """
    assert "MCL201" in codes(src)
    assert "MCL303" in codes(src)     # unused m, untouched by the comment


def test_render_text_and_json_agree():
    src = """
    perfect void f(int n, int m, float[n] a) {
      foreach (int i in n threads) {
        a[i + 1] = 0.0;
      }
    }
    """
    findings = verify_source(src)
    text = render_text(findings)
    payload = json.loads(render_json(findings))
    assert len(payload["findings"]) == len(findings)
    for f in findings:
        assert f.code in text
        assert any(item["code"] == f.code for item in payload["findings"])


def test_has_errors_distinguishes_severities():
    warn_only = """
    perfect void f(int n, int m, float[n] a) {
      foreach (int i in n threads) {
        a[i] = 0.0;
      }
    }
    """
    findings = verify_source(warn_only)
    assert findings                      # MCL303 on m
    assert not has_errors(findings)

    err = """
    perfect void f(int n, float[n] a) {
      foreach (int i in n threads) {
        a[i + 1] = 0.0;
      }
    }
    """
    assert has_errors(verify_source(err))
