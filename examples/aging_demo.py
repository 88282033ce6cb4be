#!/usr/bin/env python3
"""Age a file system, snapshot the state, and compare PostMark fresh vs. aged.

Every published PostMark number implicitly assumes a freshly-formatted file
system -- a state variable the paper says evaluations must disclose.  This
example makes the hidden variable explicit:

1. churn an ext2 stack into a realistically aged state (shredded free
   space) and print the fragmentation metrics that describe it;
2. save the state as a deterministic snapshot -- a shareable artifact that
   anyone can restore bit-for-bit;
3. measure the PostMark transaction mix on a fresh stack and on the
   restored aged state -- one experiment whose ``snapshot`` axis holds both,
   as ``run_aged_vs_fresh`` runs it -- and report both side by side.

::

    python examples/aging_demo.py --quick
"""

from __future__ import annotations

import argparse
import os
import tempfile

from repro.aging import ChurnAger, quick_aging_config, save_snapshot, snapshot_stack
from repro.core.experiment import Experiment, ParameterGrid
from repro.core.runner import BenchmarkConfig, WarmupMode
from repro.fs.stack import DEFAULT_FS_TYPES, build_stack
from repro.storage.config import paper_testbed, scaled_testbed
from repro.workloads import postmark_workload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="run on a 1/16-scale machine")
    parser.add_argument("--fs", default="ext2", choices=DEFAULT_FS_TYPES)
    args = parser.parse_args(argv)

    testbed = scaled_testbed(0.0625) if args.quick else paper_testbed()
    # Files larger than the aged free-space holes and a pool larger than the
    # page cache: the read half of each transaction must touch the (aged,
    # fragmented) disk layout instead of being absorbed by the cache.
    postmark = postmark_workload(
        file_count=60 if args.quick else 400,
        min_size=128 * 1024,
        max_size=(1 if args.quick else 2) * 1024 * 1024,
        iosize=128 * 1024,
    )
    # A cold-cache protocol, identical for both states.
    config = BenchmarkConfig(
        duration_s=1.0 if args.quick else 5.0,
        repetitions=3 if args.quick else 5,
        warmup_mode=WarmupMode.NONE,
        cold_cache=True,
    )

    # 1. Age a stack and describe the damage.
    aged_source = build_stack(args.fs, testbed=testbed, seed=777)
    aging = ChurnAger(quick_aging_config()).age(aged_source)
    print(aging.render())

    # 2. The aged state becomes a reproducible artifact.
    with tempfile.NamedTemporaryFile("w", suffix=".snapshot.json", delete=False) as handle:
        snapshot_path = handle.name
        save_snapshot(snapshot_stack(aged_source), handle)
    size_kib = os.path.getsize(snapshot_path) // 1024
    print(
        f"\nSaved the aged state to {snapshot_path} ({size_kib} KiB; "
        "removed again once measured below)"
    )

    # 3. The same PostMark protocol on a fresh format (snapshot None) and on
    #    the restored aged state, as the two cells of one experiment.
    outcome = Experiment(
        ParameterGrid.of(fs=[args.fs], workload=[postmark], snapshot=[None, snapshot_path]),
        name=f"aging-demo-{args.fs}",
        config=config,
        testbed=testbed,
    ).run()
    os.unlink(snapshot_path)  # the demo's artifact; don't litter the temp dir
    fresh = outcome.result_for(snapshot=None).throughput_summary()
    aged = outcome.result_for(snapshot=snapshot_path).throughput_summary()

    print(f"\nfresh {args.fs}: PostMark {fresh.format('ops/s')}")
    print(f"aged  {args.fs}: PostMark {aged.format('ops/s')}")
    ratio = fresh.mean / aged.mean if aged.mean > 0 else float("inf")
    direction = "slower" if ratio > 1 else "faster"
    magnitude = ratio if ratio > 1 else 1 / ratio
    print(
        f"\nThe same benchmark runs {magnitude:.2f}x {direction} on the aged state "
        "(aging can cut either way: fragmentation slows large reads, while a "
        "nearly-full device forces new files into the few free regions, which "
        "*improves* locality over fresh-format placement). Publishing either "
        "number without the state snapshot -- or at least the fragmentation "
        "metrics above -- makes it irreproducible."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
