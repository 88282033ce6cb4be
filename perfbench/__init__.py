"""End-to-end and per-layer benchmark of the simulator (see ``perfbench/README.md``)."""

import json
import os

#: Declares the workloads and every metric's name, unit and direction.
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def declared(section: str) -> list:
    """The entries of one section of ``BENCHMARK.json``, in file order."""
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)[section]
