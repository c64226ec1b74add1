"""Tests for experiment reporting and ASCII plotting."""

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.experiments.asciiplot import histogram_plot, line_plot, sstable_ranges
from repro.experiments.report import (
    ExperimentResult,
    ResultTable,
    format_table,
    format_value,
)


class TestFormatValue:
    def test_floats_rounded(self):
        assert format_value(3.14159) == "3.142"

    def test_extremes_scientific(self):
        assert "e" in format_value(1.5e9)
        assert "e" in format_value(1.5e-7)

    def test_nan_and_zero(self):
        assert format_value(float("nan")) == "nan"
        assert format_value(0.0) == "0"

    def test_non_floats_passthrough(self):
        assert format_value(42) == "42"
        assert format_value("pi_c") == "pi_c"
        assert format_value(None) == "None"
        assert format_value(True) == "True"


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["a", "long_header"], [[1, 2.5], [300, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1  # equal widths

    def test_width_mismatch_rejected(self):
        with pytest.raises(ExperimentError):
            format_table(["a"], [[1, 2]])

    def test_empty_rows_ok(self):
        text = format_table(["a", "b"], [])
        assert "a" in text


class TestResultContainers:
    def test_column_extraction(self):
        table = ResultTable("caption", ["x", "y"], [[1, 2], [3, 4]])
        assert table.column("y") == [2, 4]
        with pytest.raises(ExperimentError):
            table.column("z")

    def test_result_render_and_lookup(self):
        result = ExperimentResult(
            experiment_id="figX", title="T", paper_reference="Fig X"
        )
        result.add_table("first table", ["a"], [[1]])
        result.notes.append("observation")
        result.charts.append("(chart)")
        text = result.render()
        assert "figX" in text and "first table" in text
        assert "note: observation" in text and "(chart)" in text
        assert result.table("first").caption == "first table"
        with pytest.raises(ExperimentError):
            result.table("missing")


class TestAsciiPlots:
    def test_line_plot_contains_markers_and_legend(self):
        text = line_plot(
            [0, 1, 2, 3],
            {"a series": [1.0, 2.0, 3.0, 4.0], "b series": [4.0, 3.0, 2.0, 1.0]},
            x_label="x",
            y_label="y",
        )
        assert "[a]" in text and "[b]" in text
        assert "a" in text

    def test_line_plot_rejects_empty(self):
        with pytest.raises(ExperimentError):
            line_plot([1], {})
        with pytest.raises(ExperimentError):
            line_plot([1], {"s": [float("nan")]})

    def test_line_plot_constant_series(self):
        text = line_plot([0, 1], {"c": [5.0, 5.0]})
        assert "c" in text

    def test_histogram_plot_bars(self):
        text = histogram_plot(
            np.array([0.0, 1.0, 2.0]), np.array([10, 5])
        )
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0].count("#") > lines[1].count("#")

    def test_histogram_rebins_when_many(self):
        edges = np.linspace(0, 1, 101)
        counts = np.ones(100)
        text = histogram_plot(edges, counts)
        assert len(text.splitlines()) == 20

    def test_histogram_rejects_mismatch(self):
        with pytest.raises(ExperimentError):
            histogram_plot(np.array([0.0, 1.0]), np.array([1, 2]))

    def test_sstable_ranges_marks_query(self):
        text = sstable_ranges(
            [(0.0, 10.0), (12.0, 20.0)], query=(5.0, 15.0)
        )
        assert "=" in text and "|" in text

    def test_sstable_ranges_empty(self):
        assert sstable_ranges([]) == "(no SSTables)"
