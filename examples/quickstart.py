#!/usr/bin/env python3
"""Quickstart: benchmark one file system the way the paper says you should.

Builds the paper's simulated testbed (512 MB RAM, single SATA disk), runs the
random-read nano-benchmark at two working-set sizes -- one inside the page
cache and one beyond it -- and prints a multi-dimensional report: throughput
with confidence intervals, the latency histogram, the regime each
measurement actually exercised, and any fragility warnings.

Run it with ``--quick`` to use a 1/8-scale machine (seconds instead of a
couple of minutes)::

    python examples/quickstart.py --quick
"""

from __future__ import annotations

import argparse

from repro import BenchmarkConfig, WarmupMode
from repro.fs import DEFAULT_FS_TYPES
from repro.analysis.fragility import assess_repetitions
from repro.analysis.regimes import classify_repetitions
from repro.core.report import ReportBuilder, histogram_report
from repro.experiments.figure1 import measure_file_sizes
from repro.storage.config import paper_testbed, scaled_testbed

MiB = 1024 * 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="run on a 1/8-scale machine")
    parser.add_argument("--fs", default="ext2", choices=DEFAULT_FS_TYPES)
    args = parser.parse_args(argv)

    testbed = scaled_testbed(0.125) if args.quick else paper_testbed()
    cache_mb = testbed.page_cache_bytes // MiB
    small_file = int(testbed.page_cache_bytes * 0.5)
    large_file = int(testbed.page_cache_bytes * 2.0)

    config = BenchmarkConfig(
        duration_s=5.0 if args.quick else 20.0,
        repetitions=3 if args.quick else 5,
        warmup_mode=WarmupMode.PREWARM,
        interval_s=1.0,
    )
    sweep = measure_file_sizes(args.fs, [small_file, large_file], config, testbed)

    report = ReportBuilder(title=f"Quickstart: {args.fs} on {testbed.describe()}")
    for label, size in (("fits in cache", small_file), ("twice the cache", large_file)):
        repetitions = sweep[size]
        summary = repetitions.throughput_summary()
        regime = classify_repetitions(repetitions)
        warnings = assess_repetitions(repetitions)
        body = [
            f"Working set: {size // MiB} MiB (page cache: {cache_mb} MiB)",
            f"Throughput: {summary.format('ops/s')}",
            f"Regime: {regime.value} -- {regime.description}",
        ]
        if warnings:
            body.append("Fragility warnings:")
            body.extend("  " + warning.format() for warning in warnings)
        else:
            body.append("Fragility warnings: none")
        body.append("")
        body.append(histogram_report(repetitions.merged_histogram(), "read latency"))
        report.add_section(f"Random read, {label}", "\n".join(body))

    print(report.render())
    print(
        "Take-away: the same benchmark measures completely different subsystems "
        "depending on the working-set size -- report both, never a single number."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
