#!/usr/bin/env python3
"""Run Filebench-like macro personalities and see what they actually measure.

The survey (Table 1) classifies Filebench and Postmark as benchmarks that
*exercise* many dimensions without isolating any.  This example runs the
webserver and varmail personalities plus a PostMark pass against a simulated
stack and prints, next to every headline number, the evidence of what was
really measured: the cache hit ratio, the device utilisation, the latency
modality, and the dimension-coverage vector of the workload.

::

    python examples/macro_personalities.py --quick
"""

from __future__ import annotations

import argparse

from repro.core.dimensions import DimensionVector
from repro.core.experiment import Experiment, ParameterGrid
from repro.core.histogram import LatencyHistogram
from repro.core.runner import BenchmarkConfig, WarmupMode
from repro.storage.config import paper_testbed, scaled_testbed
from repro.workloads import (
    PostmarkConfig,
    run_postmark,
    varmail_personality,
    webserver_personality,
)
from repro.fs.stack import DEFAULT_FS_TYPES, build_stack


def describe_run(name, repetitions, dimensions):
    summary = repetitions.throughput_summary()
    run = repetitions.first()
    histogram = repetitions.merged_histogram()
    modality = "bi-modal" if histogram.is_bimodal() else "uni-modal"
    vector = DimensionVector.from_names(dimensions)
    print(f"--- {name}")
    print(f"  throughput : {summary.format('ops/s')}")
    print(f"  cache hits : {run.cache_hit_ratio * 100:.1f}% of page lookups")
    print(f"  device I/O : {run.device_reads} reads, {run.device_writes} writes")
    print(f"  latency    : mean {histogram.mean_ns() / 1000:.1f} us, {modality}, "
          f"p99 {histogram.percentile(99) / 1000:.1f} us")
    print(f"  dimensions : {vector.describe()} (exercised, not isolated)")
    print()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="run on a 1/8-scale machine")
    parser.add_argument("--fs", default="ext3", choices=DEFAULT_FS_TYPES)
    args = parser.parse_args(argv)

    testbed = scaled_testbed(0.125) if args.quick else paper_testbed()
    config = BenchmarkConfig(
        duration_s=3.0 if args.quick else 10.0,
        repetitions=2 if args.quick else 3,
        warmup_mode=WarmupMode.NONE,
        interval_s=1.0,
    )
    file_count = 100 if args.quick else 500

    print(f"Macro personalities on {args.fs} ({testbed.describe()})\n")

    web = webserver_personality(file_count=file_count, threads=2)
    mail = varmail_personality(file_count=file_count, threads=2)
    outcome = Experiment(
        ParameterGrid.of(workload=[web, mail], fs=[args.fs]),
        name="macro-personalities",
        config=config,
        testbed=testbed,
    ).run()
    describe_run("Filebench-like webserver", outcome.result_for(workload=web.name), web.dimensions)
    describe_run("Filebench-like varmail", outcome.result_for(workload=mail.name), mail.dimensions)

    # PostMark is a one-shot transaction benchmark, run directly on a stack.
    stack = build_stack(args.fs, testbed=testbed, seed=11)
    postmark = run_postmark(
        stack,
        PostmarkConfig(
            initial_files=file_count,
            transactions=300 if args.quick else 2000,
        ),
    )
    print("--- PostMark")
    print(f"  {postmark.summary()}")
    merged = LatencyHistogram()
    for latencies in postmark.op_latencies_ns.values():
        merged.add_many(latencies)
    print(f"  latency    : mean {merged.mean_ns() / 1000:.1f} us, "
          f"{'bi-modal' if merged.is_bimodal() else 'uni-modal'}")
    print(f"  cache hits : {stack.cache.stats.hit_ratio * 100:.1f}%")
    print()
    print(
        "None of these numbers says which dimension was measured -- the hit ratios "
        "and modality above are what determine whether you benchmarked RAM, the "
        "allocator, or the disk."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
