"""Tests for the ASCII chart renderer."""

from repro.bench.plotting import ascii_line_chart


class TestAsciiChart:
    def test_empty(self):
        assert ascii_line_chart({}) == "(no data)"
        assert ascii_line_chart({"a": []}) == "(no data)"

    def test_single_series_markers_present(self):
        chart = ascii_line_chart(
            {"speed": [(1, 1.0), (2, 2.0), (4, 4.0)]}, width=30, height=8
        )
        assert chart.count("o") >= 3
        assert "legend: o speed" in chart

    def test_multiple_series_distinct_markers(self):
        chart = ascii_line_chart(
            {"a": [(1, 1.0), (2, 2.0)], "b": [(1, 2.0), (2, 1.0)]},
        )
        assert "o a" in chart and "x b" in chart
        assert "o" in chart and "x" in chart

    def test_axis_labels(self):
        chart = ascii_line_chart(
            {"a": [(1, 10.0), (64, 500.0)]},
            x_label="threads", y_label="ms", log_x=True,
        )
        assert "ms vs threads" in chart
        assert "[log x]" in chart
        assert "500" in chart and "10" in chart

    def test_constant_series_no_crash(self):
        chart = ascii_line_chart({"flat": [(1, 5.0), (2, 5.0), (3, 5.0)]})
        assert "flat" in chart

    def test_single_point(self):
        chart = ascii_line_chart({"dot": [(3, 7.0)]})
        assert "o" in chart

    def test_dimensions_respected(self):
        chart = ascii_line_chart(
            {"a": [(1, 1.0), (10, 10.0)]}, width=25, height=6
        )
        canvas_lines = [l for l in chart.splitlines() if "|" in l]
        assert len(canvas_lines) == 6
        assert all(len(l.split("|", 1)[1]) == 25 for l in canvas_lines)

    def test_connecting_dots_drawn(self):
        chart = ascii_line_chart(
            {"a": [(1, 1.0), (100, 100.0)]}, width=40, height=12
        )
        assert "." in chart  # interpolation between distant points
