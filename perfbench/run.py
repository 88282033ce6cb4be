"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload postmark-ext2-hdd --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (``sim_ops_per_s``, ``setup_s``,
``peak_rss_mb``), measuring for ``--seconds``.  ``--trace 1`` runs the
separate traced mode: a fixed number of units untraced, then the same units
traced, so its exact counts repeat for a seed whatever ``--seconds`` says.
It prints the per-layer metrics and writes raw spans and a per-layer table
under ``.perfbench/`` in the checkout.  The last line of standard output is the
result: ``{"correct", "attempted", "failed", "metrics"}``.  The simulator is
imported from ``src/`` of the same checkout; without it the command exits
with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pkgutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, ROOT)

from perfbench import declared  # noqa: E402


def import_simulator() -> None:
    """Import every ``repro`` module before any clock starts.

    Lazy imports inside the simulator then cost a dictionary lookup, not a
    module execution, and the traced mode can find every module that holds
    a function it wraps.
    """
    import repro

    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[entry["name"] for entry in declared("workloads")])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured part")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        print(f"perfbench: no simulator source at {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCE)
    import_simulator()
    from perfbench.workloads import WORKLOADS, Tally

    workload = WORKLOADS[args.workload]
    tally = Tally()
    mode = workload.trace if args.trace else workload.measure
    metrics = mode(args.seed, args.seconds, tally, WORK_DIR)
    for reason in tally.reasons:
        print(f"perfbench: failed: {reason}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
