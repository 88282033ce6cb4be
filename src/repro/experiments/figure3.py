"""Figure 3: read-latency histograms for 64 MB, 1024 MB and 25 GB files.

Protocol (Section 3.2): the same single-threaded random-read workload with
latency histograms (log2 ns buckets) collected per operation, for three file
sizes spanning the working-set spectrum.  The paper's observations:

* 64 MB (fits in memory): a single peak around 4 microseconds;
* 1024 MB (twice RAM): two peaks of roughly equal height -- cache hits on the
  left, disk reads on the right;
* 25 GB (far larger than RAM): the memory peak becomes invisible, essentially
  all operations are disk reads;
* overall, working-set size moves reported latency across more than three
  orders of magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.experiment import Experiment, ParameterGrid
from repro.core.histogram import LatencyHistogram, bucket_label
from repro.core.parallel import group_label
from repro.core.report import checks_line
from repro.core.results import RunResult
from repro.core.runner import BenchmarkConfig, WarmupMode
from repro.experiments.config import ExperimentScale, MiB, default_scale
from repro.storage.config import TestbedConfig, paper_testbed
from repro.workloads.micro import random_read_workload

#: Bucket index (log2 ns) of a ~4 us cache-hit peak.
MEMORY_PEAK_BUCKET_RANGE = (10, 15)
#: Bucket index (log2 ns) of a ~4-30 ms disk peak.
DISK_PEAK_BUCKET_RANGE = (21, 26)


@dataclass
class Figure3Result:
    """Latency histograms per file size."""

    histograms: Dict[int, LatencyHistogram] = field(default_factory=dict)
    runs: Dict[int, RunResult] = field(default_factory=dict)
    scale_name: str = "default"

    def sizes_mb(self) -> List[int]:
        """File sizes (MiB) present, ascending."""
        return sorted(self.histograms)

    def modes_for(self, size_mb: int) -> List[int]:
        """Histogram peak bucket indices for one file size."""
        return self.histograms[size_mb].modes()

    def _has_peak_in(self, size_mb: int, bucket_range) -> bool:
        low, high = bucket_range
        return any(low <= mode <= high for mode in self.modes_for(size_mb))

    def latency_span_orders(self) -> float:
        """Orders of magnitude spanned across all three histograms."""
        merged = LatencyHistogram()
        for histogram in self.histograms.values():
            merged = merged.merge(histogram)
        return merged.span_orders_of_magnitude()

    def checks(self) -> Dict[str, bool]:
        """The paper's qualitative claims, evaluated against the measured data."""
        sizes = self.sizes_mb()
        small, medium, large = sizes[0], sizes[len(sizes) // 2], sizes[-1]
        medium_histogram = self.histograms[medium]
        large_histogram = self.histograms[large]
        # For the huge file the memory peak should be negligible.
        memory_fraction_large = sum(
            large_histogram.fractions()[MEMORY_PEAK_BUCKET_RANGE[0] : MEMORY_PEAK_BUCKET_RANGE[1] + 1]
        )
        return {
            "small_file_single_memory_peak": (
                self._has_peak_in(small, MEMORY_PEAK_BUCKET_RANGE)
                and not self._has_peak_in(small, DISK_PEAK_BUCKET_RANGE)
            ),
            "medium_file_bimodal": medium_histogram.is_bimodal()
            and self._has_peak_in(medium, MEMORY_PEAK_BUCKET_RANGE)
            and self._has_peak_in(medium, DISK_PEAK_BUCKET_RANGE),
            "large_file_disk_peak_dominates": self._has_peak_in(large, DISK_PEAK_BUCKET_RANGE)
            and memory_fraction_large < 0.15,
            "latencies_span_three_orders_of_magnitude": self.latency_span_orders() >= 3.0,
        }

    def render(self) -> str:
        """Figure-3-as-text: one histogram per file size."""
        lines = ["Figure 3 reproduction -- read latency histograms (log2 ns buckets)", ""]
        for size_mb in self.sizes_mb():
            histogram = self.histograms[size_mb]
            modes = ", ".join(f"{m} ({bucket_label(m)})" for m in histogram.modes())
            lines.append(f"--- {size_mb} MB file: n={histogram.total}, peaks at buckets [{modes}]")
            lines.append(histogram.to_ascii())
            lines.append("")
        lines.append(checks_line(self.checks()))
        return "\n".join(lines)


def run_figure3(
    fs_type: str = "ext2",
    testbed: Optional[TestbedConfig] = None,
    scale: Optional[ExperimentScale] = None,
    sizes_mb: Optional[Sequence[int]] = None,
    seed: int = 42,
) -> Figure3Result:
    """Collect the Figure 3 latency histograms.

    The histograms come from one :class:`~repro.core.experiment.Experiment`
    with a per-size workload axis.
    """
    scale = scale if scale is not None else default_scale()
    scale.validate()
    testbed = testbed if testbed is not None else paper_testbed()
    sizes = list(sizes_mb) if sizes_mb is not None else list(scale.figure3_sizes_mb)

    config = BenchmarkConfig(
        duration_s=0.0,
        max_ops=scale.figure3_ops,
        repetitions=1,
        warmup_mode=WarmupMode.PREWARM,
        interval_s=10.0,
        cold_cache=True,
        seed=seed,
    )
    specs = {size_mb: random_read_workload(size_mb * MiB) for size_mb in sizes}
    outcome = Experiment(
        grid=ParameterGrid.of(workload=list(specs.values()), fs=[fs_type]),
        name="figure3",
        config=config,
        testbed=testbed,
    ).run()

    result = Figure3Result(scale_name=scale.name)
    for size_mb, spec in specs.items():
        run = outcome.sets[group_label(spec.name, fs_type)].first()
        result.histograms[size_mb] = run.histogram
        result.runs[size_mb] = run
    return result
