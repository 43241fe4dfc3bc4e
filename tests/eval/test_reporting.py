"""Tests for the reporting helpers."""

import pytest

from repro.eval.reporting import format_table


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(
            ["name", "value"],
            [["alpha", 1], ["bb", 22.5]],
            title="My Table",
        )
        lines = text.splitlines()
        assert lines[0] == "My Table"
        assert "name" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert "alpha" in lines[3]
        assert "22.50" in lines[4]  # floats rendered with 2 decimals

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="row width"):
            format_table(["a", "b"], [[1]])

    def test_label_left_numbers_right(self):
        text = format_table(["name", "n"], [["x", 5], ["longlabel", 123]])
        lines = text.splitlines()
        assert lines[2].startswith("x ")
        assert lines[2].rstrip().endswith("5")
