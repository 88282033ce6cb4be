"""Tests for the reporting helpers."""

import pytest

from repro.core.histogram import from_latencies
from repro.core.report import (
    ReportBuilder,
    ascii_plot,
    comparison_verdict,
    format_table,
    histogram_report,
    suite_report,
    sweep_table,
    timeline_table,
)
from repro.core.results import RepetitionSet
from repro.core.timeline import IntervalSeries
from tests.test_results_and_runner import make_run


class TestFormatTable:
    def test_alignment_and_content(self):
        table = format_table(["a", "long header"], [[1, 2], ["xyz", 42]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "long header" in lines[0]
        assert "xyz" in lines[3]

    def test_mismatched_rows_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])


class TestAsciiPlot:
    def test_plot_contains_points_and_ranges(self):
        points = [(float(i), float(i * i)) for i in range(10)]
        plot = ascii_plot(points, width=30, height=8, x_label="size", y_label="ops")
        assert "*" in plot
        assert "size" in plot and "ops" in plot

    def test_empty_plot(self):
        assert ascii_plot([]) == "(no data)"

    def test_single_point(self):
        assert "*" in ascii_plot([(1.0, 1.0)])


def make_sweep():
    sweep = {}
    for size, throughput in [(64, 9700.0), (448, 1000.0), (1024, 200.0)]:
        repetitions = RepetitionSet(label=str(size))
        for i in range(3):
            repetitions.add(make_run(throughput * (1 + 0.02 * i), repetition=i))
        sweep[float(size)] = repetitions
    return sweep


class TestSweepAndTimelineTables:
    def test_sweep_table_has_row_per_parameter(self):
        table = sweep_table(make_sweep())
        assert "64" in table and "1024" in table
        assert "rel stddev" in table
        assert "fragility" in table.lower()

    def test_timeline_table(self):
        series = IntervalSeries(interval_s=1.0)
        for second in range(3):
            for _ in range(10 * (second + 1)):
                series.record(second * 1e9 + 1e8, 1000.0)
        table = timeline_table(series)
        assert "time (s)" in table
        assert "Spread" in table


class TestHistogramReport:
    def test_mentions_modality_and_span(self):
        histogram = from_latencies([4000.0] * 50 + [8_000_000.0] * 50)
        report = histogram_report(histogram, "read latency")
        assert "bi-modal" in report
        assert "orders of magnitude" in report


class TestComparisonVerdict:
    def test_overlapping_intervals_refuse_a_winner(self):
        a = RepetitionSet("a", [make_run(100.0 + i) for i in range(3)])
        b = RepetitionSet("b", [make_run(100.5 + i) for i in range(3)])
        verdict = comparison_verdict("ext2", a, "xfs", b)
        assert "no demonstrated difference" in verdict

    def test_clear_difference_reports_speedup(self):
        a = RepetitionSet("a", [make_run(100.0 + i) for i in range(3)])
        b = RepetitionSet("b", [make_run(300.0 + i) for i in range(3)])
        verdict = comparison_verdict("ext2", a, "xfs", b)
        assert "faster" in verdict
        assert "xfs" in verdict


class TestReportBuilder:
    def test_sections_rendered_in_order(self):
        report = (
            ReportBuilder(title="My report")
            .add_section("First", "alpha")
            .add_sweep("Sweep", make_sweep())
            .add_histogram("Latency", from_latencies([1000.0] * 10))
            .render()
        )
        assert report.index("First") < report.index("Sweep") < report.index("Latency")
        assert "My report" in report


class TestSuiteReport:
    def test_suite_report_renders_all_cells(self):
        from repro.core.benchmark import NanoBenchmark
        from repro.core.dimensions import Dimension, DimensionVector
        from repro.core.suite import SuiteResult
        from repro.storage.config import paper_testbed
        from repro.workloads.micro import random_read_workload

        benchmark = NanoBenchmark(
            name="mini",
            description="test benchmark",
            workload_factory=lambda: random_read_workload(1024 * 1024),
            dimensions=DimensionVector.of(isolates=[Dimension.CACHING]),
        )
        result = SuiteResult(testbed=paper_testbed())
        result.add(benchmark, "ext2", RepetitionSet("a", [make_run(100.0 + i) for i in range(3)]))
        result.add(benchmark, "xfs", RepetitionSet("b", [make_run(300.0 + i) for i in range(3)]))
        text = suite_report(result)
        assert "mini" in text
        assert "ext2" in text and "xfs" in text
        assert "Caching" in text
