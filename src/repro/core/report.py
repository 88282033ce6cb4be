"""Multi-dimensional, range-based reporting.

"Let's get away from single-number reporting. ... In the interest of full
disclosure, let's report a range of values that span multiple dimensions."
The helpers here render sweeps, timelines, histograms and cross-file-system
comparisons as plain text, always carrying spread information and refusing to
declare winners the data cannot support.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.core.histogram import LatencyHistogram
from repro.core.results import RepetitionSet, mean_throughputs
from repro.core.stats import dynamic_range, fragility_index, overlapping_confidence_intervals
from repro.core.timeline import IntervalSeries


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a plain-text table with column alignment."""
    columns = len(headers)
    for row in rows:
        if len(row) != columns:
            raise ValueError("all rows must have the same number of columns as headers")
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(columns)]
    lines = []
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(cells[0]))
    lines.append(header_line)
    lines.append("  ".join("-" * widths[i] for i in range(columns)))
    for row in cells[1:]:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(columns)))
    return "\n".join(lines)


def checks_line(checks: Dict[str, bool]) -> str:
    """The one-line PASS/FAIL summary every harness report ends with.

    Shared by all figure/table result classes (they used to hand-roll the
    same join) so the qualitative-claims footer reads identically everywhere.
    """
    return "Qualitative checks: " + ", ".join(
        f"{name}={'PASS' if ok else 'FAIL'}" for name, ok in checks.items()
    )


def ascii_plot(
    points: Sequence[Tuple[float, float]],
    width: int = 60,
    height: int = 15,
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """A very small scatter/line plot in ASCII for terminal reports."""
    if not points:
        return "(no data)"
    xs = [float(x) for x, _ in points]
    ys = [float(y) for _, y in points]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for x, y in points:
        col = int((x - x_min) / x_span * (width - 1))
        row = int((y - y_min) / y_span * (height - 1))
        grid[height - 1 - row][col] = "*"

    lines = [f"{y_label} (max {y_max:.1f})"]
    lines.extend("|" + "".join(row) for row in grid)
    lines.append("+" + "-" * width)
    lines.append(f" {x_label}: {x_min:.1f} .. {x_max:.1f}   (min y {y_min:.1f})")
    return "\n".join(lines)


def sweep_table(sweep: Mapping[float, RepetitionSet]) -> str:
    """A Figure-1-style table: file size in bytes, mean, stddev, relative stddev, CI."""
    means = mean_throughputs(sweep)
    rows = []
    for size in sorted(sweep):
        summary = sweep[size].throughput_summary()
        rows.append(
            [
                f"{size:.0f}",
                f"{summary.mean:.0f}",
                f"{summary.stddev:.0f}",
                f"{summary.relative_stddev_percent:.1f}%",
                f"[{summary.ci95_low:.0f}, {summary.ci95_high:.0f}]",
                summary.n,
            ]
        )
    header = [
        "file_size (bytes)",
        "mean ops/s",
        "stddev",
        "rel stddev",
        "95% CI",
        "n",
    ]
    table = format_table(header, rows)
    footer = (
        f"\nDynamic range across the sweep: {dynamic_range([m for _, m in means]):.1f}x; "
        f"fragility index {fragility_index(means):.2f} "
        "(max relative change between adjacent parameter values)"
    )
    return table + footer


def timeline_table(series: IntervalSeries, label: str = "throughput") -> str:
    """A Figure-2-style table of per-interval throughput."""
    rows = [
        [f"{sample.end_s:.0f}", f"{sample.throughput_ops_s:.0f}", f"{sample.mean_latency_ns / 1000:.1f}"]
        for sample in series.samples()
    ]
    table = format_table(["time (s)", f"{label} (ops/s)", "mean latency (us)"], rows)
    return table + f"\nSpread across intervals: {series.spread():.1f}x"


def histogram_report(histogram: LatencyHistogram, title: str = "latency histogram") -> str:
    """A Figure-3-style text rendering of a latency histogram."""
    modes = histogram.modes()
    modality = (
        "uni-modal" if len(modes) <= 1 else ("bi-modal" if len(modes) == 2 else f"{len(modes)}-modal")
    )
    header = (
        f"{title}: n={histogram.total}, mean={histogram.mean_ns() / 1000:.1f} us, "
        f"median={histogram.median_ns() / 1000:.1f} us, p99={histogram.percentile(99) / 1000:.1f} us, "
        f"{modality}, spans {histogram.span_orders_of_magnitude():.1f} orders of magnitude"
    )
    return header + "\n" + histogram.to_ascii()


def comparison_verdict(label_a: str, a: RepetitionSet, label_b: str, b: RepetitionSet) -> str:
    """An honest two-system comparison: refuses to call overlapping results a win."""
    summary_a = a.throughput_summary()
    summary_b = b.throughput_summary()
    if overlapping_confidence_intervals(a.throughputs(), b.throughputs()):
        return (
            f"{label_a} ({summary_a.mean:.0f} ops/s) and {label_b} ({summary_b.mean:.0f} ops/s): "
            "95% confidence intervals overlap -- no demonstrated difference."
        )
    faster, slower = (label_a, label_b) if summary_a.mean > summary_b.mean else (label_b, label_a)
    hi = max(summary_a.mean, summary_b.mean)
    lo = min(summary_a.mean, summary_b.mean)
    return (
        f"{faster} is {hi / lo:.2f}x faster than {slower} "
        f"({hi:.0f} vs {lo:.0f} ops/s, non-overlapping 95% CIs)."
    )


@dataclass
class ReportSection:
    """One titled block of a report."""

    title: str
    body: str


@dataclass
class ReportBuilder:
    """Accumulates sections and renders a complete plain-text report."""

    title: str
    sections: List[ReportSection] = field(default_factory=list)

    def add_section(self, title: str, body: str) -> "ReportBuilder":
        """Append a section; returns self for chaining."""
        self.sections.append(ReportSection(title=title, body=body))
        return self

    def add_sweep(self, title: str, sweep: Mapping[float, RepetitionSet]) -> "ReportBuilder":
        """Append a sweep table section."""
        return self.add_section(title, sweep_table(sweep))

    def add_timeline(self, title: str, series: IntervalSeries) -> "ReportBuilder":
        """Append a timeline table section."""
        return self.add_section(title, timeline_table(series))

    def add_histogram(self, title: str, histogram: LatencyHistogram) -> "ReportBuilder":
        """Append a latency histogram section."""
        return self.add_section(title, histogram_report(histogram, title))

    def render(self, width: int = 78) -> str:
        """Render the full report."""
        bar = "=" * width
        lines = [bar, self.title.center(width), bar, ""]
        for section in self.sections:
            lines.append(section.title)
            lines.append("-" * min(width, max(8, len(section.title))))
            lines.append(section.body)
            lines.append("")
        return "\n".join(lines)


def suite_report(suite_result, title: str = "Nano-benchmark suite") -> str:
    """Render a per-dimension, per-file-system comparison of a suite run.

    Every cell shows mean throughput with its relative standard deviation; the
    per-benchmark verdict lines apply the CI-overlap honesty rule pairwise
    against the first file system.
    """
    builder = ReportBuilder(title=title)
    fs_names = suite_result.filesystems()
    for benchmark_name in suite_result.benchmark_names():
        benchmark = suite_result.benchmarks[benchmark_name]
        rows = []
        for fs_name in fs_names:
            repetitions = suite_result.result_for(benchmark_name, fs_name)
            summary = repetitions.throughput_summary()
            rows.append(
                [
                    fs_name,
                    f"{summary.mean:.0f}",
                    f"{summary.relative_stddev_percent:.1f}%",
                    f"[{summary.ci95_low:.0f}, {summary.ci95_high:.0f}]",
                ]
            )
        body = format_table(["file system", "mean ops/s", "rel stddev", "95% CI"], rows)
        verdicts = []
        baseline_fs = fs_names[0]
        baseline = suite_result.result_for(benchmark_name, baseline_fs)
        for fs_name in fs_names[1:]:
            verdicts.append(
                comparison_verdict(
                    baseline_fs, baseline, fs_name, suite_result.result_for(benchmark_name, fs_name)
                )
            )
        primary = benchmark.primary_dimension()
        dimension_note = f"dimension: {primary.title}" if primary is not None else "dimension: (none)"
        builder.add_section(
            f"{benchmark_name} ({dimension_note})",
            benchmark.description + "\n\n" + body + ("\n" + "\n".join(verdicts) if verdicts else ""),
        )
    return builder.render()
