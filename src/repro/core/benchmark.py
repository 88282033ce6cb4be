"""Nano-benchmark abstraction.

A :class:`NanoBenchmark` binds together the three things the paper says a
benchmark must make explicit: *what workload* runs, *which dimension(s)* it
claims to measure (and whether it isolates them), and *under what measurement
protocol* it is valid.  The suite in :mod:`repro.core.suite` composes these
into the multi-dimensional evaluation the paper calls for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.dimensions import Dimension, DimensionVector
from repro.core.runner import BenchmarkConfig
from repro.workloads.spec import WorkloadSpec


@dataclass
class NanoBenchmark:
    """One nano-benchmark: a workload, its dimension claim and its protocol.

    Attributes
    ----------
    name:
        Identifier used in reports.
    description:
        What the benchmark measures, in one sentence.
    workload_factory:
        Zero-argument callable producing a fresh :class:`WorkloadSpec`;
        a factory (rather than a spec instance) so every run starts from an
        unmutated fileset description.
    dimensions:
        The dimension-coverage vector the benchmark claims.
    config:
        The measurement protocol appropriate for this benchmark (e.g. a
        cold-cache protocol for on-disk benchmarks, a pre-warmed protocol for
        in-memory benchmarks).  ``None`` means the default
        :class:`BenchmarkConfig`.
    """

    name: str
    description: str
    workload_factory: Callable[[], WorkloadSpec]
    dimensions: DimensionVector = field(default_factory=DimensionVector)
    config: Optional[BenchmarkConfig] = None

    def build_workload(self) -> WorkloadSpec:
        """Create a fresh workload spec for one run."""
        return self.workload_factory()

    def primary_dimension(self) -> Optional[Dimension]:
        """The first isolated dimension, or the first covered one, or None."""
        for dimension in Dimension.ordered():
            if self.dimensions.isolates(dimension):
                return dimension
        covered = self.dimensions.covered_dimensions()
        return covered[0] if covered else None

    def describe(self) -> str:
        """One-line description including the dimension claim."""
        return f"{self.name}: {self.description} [{self.dimensions.describe()}]"
