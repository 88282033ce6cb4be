#!/usr/bin/env python3
"""Demonstrate benchmark fragility around the page-cache boundary (Figure 1).

Runs the transition zoom: a coarse sweep of the random-read working set
across the page-cache size locates the cliff, bisection narrows it the way
Section 3.1 does ("performance drops within an even narrower region -- less
than 6 MB in size"), and a fine sweep measures the spread inside it.  Prints
the Figure-1 style table of every measured size (mean throughput and
relative standard deviation), the zoom report, and the fragility report a
careful researcher should attach to such results.

::

    python examples/fragility_demo.py --quick
"""

from __future__ import annotations

import argparse

from repro.analysis.fragility import assess_sweep
from repro.analysis.regimes import regime_ranges
from repro.core.report import ascii_plot, sweep_table
from repro.core.results import mean_throughputs
from repro.experiments import run_transition_zoom
from repro.experiments.config import default_scale, quick_scale
from repro.fs.stack import DEFAULT_FS_TYPES
from repro.storage.config import paper_testbed, scaled_testbed

MiB = 1024 * 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="run on a 1/8-scale machine with a short protocol"
    )
    parser.add_argument("--fs", default="ext2", choices=DEFAULT_FS_TYPES)
    args = parser.parse_args(argv)

    testbed = scaled_testbed(0.125) if args.quick else paper_testbed()
    scale = quick_scale() if args.quick else default_scale()
    result = run_transition_zoom(fs_type=args.fs, testbed=testbed, scale=scale)

    # The whole graph: the coarse sweep plus the fine sweep across the cliff.
    sweep = {**result.coarse_sweep, **result.fine_sweep}
    means = mean_throughputs(sweep)

    print(f"Cache-cliff sweep of {args.fs} random-read throughput vs working-set size")
    print(f"Page cache: {testbed.page_cache_bytes // MiB} MiB\n")
    print(sweep_table(sweep))
    print()
    print(ascii_plot(means, x_label="file size (bytes)", y_label="ops/s"))
    print()
    print(result.render())
    print()
    print("Regime ranges:")
    for regime, low, high in regime_ranges(sweep):
        print(f"  {regime.value:>14}: {low / MiB:7.1f} .. {high / MiB:7.1f} MiB")
    print()
    print("Fragility report:")
    print(assess_sweep(sweep).format())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
