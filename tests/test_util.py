"""Tests for the util package: table formatting."""

import pytest

from repro.util import format_table


def test_format_table_basic():
    text = format_table(["a", "bb"], [[1, "x"], [22, "yy"]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert lines[1].startswith("a")
    assert "---" not in lines[0]
    assert lines[3].startswith("1")


def test_format_table_rejects_ragged_rows():
    with pytest.raises(ValueError, match="row length"):
        format_table(["a", "b"], [[1]])


def test_format_table_float_formatting():
    text = format_table(["v"], [[1234.5], [3.14159], [0.001234], [0]])
    assert "1234" in text      # large floats rounded to integers
    assert "3.14" in text
    assert "0.0012" in text
