#!/usr/bin/env python3
"""PostMark on a fresh-out-of-box SSD vs the same SSD at steady state.

Every SSD benchmarking guide says the same thing the paper says about file
systems: the *state* of the device is part of the experiment.  A fresh SSD
has its whole over-provisioned pool erased, so writes land at raw NAND
program speed; once the device has been filled and churned, garbage
collection runs behind every write and both throughput and tail latency
change.  Publishing either number without saying which state it came from
makes it irreproducible.

This example makes the device state explicit:

1. measure the PostMark transaction mix on a fresh ``ssd-ftl`` device and
   on one deterministically preconditioned to steady state
   (:func:`repro.storage.flash.precondition_ssd`: fill, burn-in, churn until
   write amplification is statistically steady), as the two values of one
   experiment's ``device`` axis -- what ``fsbench-rocket ssd-steady`` runs;
2. report throughput side by side with the flash telemetry -- write
   amplification, erase counts and garbage-collection pause time -- that
   explains the gap, plus the experiment's qualitative checks.

::

    python examples/ssd_steady_state.py --quick
"""

from __future__ import annotations

import argparse

from repro.experiments import run_fresh_vs_steady
from repro.fs.stack import DEFAULT_FS_TYPES
from repro.storage.config import paper_testbed, scaled_testbed
from repro.workloads import postmark_workload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="run on a 1/16-scale machine")
    parser.add_argument("--fs", default="ext4", choices=DEFAULT_FS_TYPES)
    args = parser.parse_args(argv)

    # Write-heavy PostMark: files big enough that the write stream must reach
    # the device instead of idling in the page cache, which is where the two
    # device states diverge.
    postmark = postmark_workload(
        file_count=60 if args.quick else 300,
        min_size=64 * 1024,
        max_size=(512 if args.quick else 1024) * 1024,
        iosize=64 * 1024,
    )
    # The steady device comes from DEVICE_REGISTRY's deterministic
    # preconditioner, so the "aged device" here is exactly the state every
    # other harness (and every other machine) would manufacture.
    result = run_fresh_vs_steady(
        fs_type=args.fs,
        workload=postmark,
        testbed=scaled_testbed(0.0625) if args.quick else paper_testbed(),
        quick=args.quick,
    )
    print(result.render())
    print()
    for state, repetitions in (("ssd-ftl-fresh", result.fresh), ("ssd-ftl-steady", result.steady)):
        print(f"{state:>16}: {repetitions.throughput_summary().format('ops/s')}")

    ratio = result.slowdown_factor
    print(
        f"\nThe same PostMark run is {ratio:.2f}x "
        f"{'slower' if ratio > 1 else 'faster'} on the steady-state device, whose "
        f"write amplification is {result.steady_write_amplification:.2f} against "
        f"{result.fresh_write_amplification:.2f} fresh. "
        "A fresh-out-of-box SSD number and a preconditioned one are different "
        "experiments; report which state you measured (or snapshot it -- FTL "
        "state round-trips through repro.aging.snapshot_stack bit-identically)."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
