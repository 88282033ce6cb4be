"""Figure 4: latency histograms sampled over time (Ext2, 256 MB file).

Protocol (Section 3.2): the random-read workload on a 256 MB file (which fits
in the cache), started cold, with a latency histogram collected for every
10-second interval.  The paper's observations:

* early intervals are dominated by a disk-latency peak (around 2^23 ns);
* as the cache warms the disk peak fades and a memory peak (around 2^11 ns)
  grows;
* the distribution is bi-modal during most of the run, so measuring "the"
  latency at any single point in time is arbitrary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.experiment import Experiment, ParameterGrid
from repro.core.frame import ResultFrame
from repro.core.parallel import group_label
from repro.core.report import checks_line
from repro.core.results import RunResult
from repro.core.runner import BenchmarkConfig, EnvironmentNoise, WarmupMode
from repro.core.timeline import HistogramTimeline
from repro.experiments.config import ExperimentScale, MiB, default_scale
from repro.experiments.figure3 import DISK_PEAK_BUCKET_RANGE, MEMORY_PEAK_BUCKET_RANGE
from repro.storage.config import TestbedConfig, paper_testbed
from repro.workloads.micro import random_read_workload


@dataclass
class Figure4Result:
    """The histogram-vs-time surface for the warm-up run."""

    fs_type: str
    file_size_bytes: int
    run: RunResult
    scale_name: str = "default"

    @property
    def timeline(self) -> HistogramTimeline:
        """The per-interval histograms."""
        if self.run.histogram_timeline is None:
            raise ValueError("figure 4 requires histogram_interval_s to be enabled")
        return self.run.histogram_timeline

    def disk_peak_fraction(self, interval: int) -> float:
        """Fraction of operations in the disk-latency buckets for one interval."""
        histogram = self.timeline.histogram_at(interval)
        low, high = DISK_PEAK_BUCKET_RANGE
        return sum(histogram.fractions()[low : high + 1])

    def memory_peak_fraction(self, interval: int) -> float:
        """Fraction of operations in the memory-latency buckets for one interval."""
        histogram = self.timeline.histogram_at(interval)
        low, high = MEMORY_PEAK_BUCKET_RANGE
        return sum(histogram.fractions()[low : high + 1])

    def peak_migration(self) -> List[Tuple[float, float, float]]:
        """(time s, disk fraction, memory fraction) per interval."""
        times = self.timeline.interval_times_s()
        return [
            (times[index], self.disk_peak_fraction(index), self.memory_peak_fraction(index))
            for index in range(len(self.timeline))
        ]

    def bimodal_fraction(self) -> float:
        """Fraction of intervals with a bi-modal latency distribution."""
        return self.timeline.bimodal_fraction()

    def checks(self) -> Dict[str, bool]:
        """The paper's qualitative claims, evaluated against the measured data."""
        migration = self.peak_migration()
        if len(migration) < 3:
            return {"enough_intervals": False}
        first_disk = migration[0][1]
        last_disk = migration[-1][1]
        first_memory = migration[0][2]
        last_memory = migration[-1][2]
        return {
            "enough_intervals": True,
            "disk_peak_dominates_early": first_disk > first_memory,
            "memory_peak_dominates_late": last_memory > last_disk,
            "disk_peak_fades": last_disk < first_disk * 0.5 or last_disk < 0.1,
            "bimodal_for_much_of_run": self.bimodal_fraction() >= 0.3,
        }

    def to_frame(self) -> ResultFrame:
        """The histogram-vs-time surface as a tidy frame (rows per interval)."""
        frame = ResultFrame()
        for time_s, disk, memory in self.peak_migration():
            histogram_index = int(time_s / self.timeline.interval_s) - 1
            bimodal = self.timeline.histogram_at(histogram_index).is_bimodal()
            base = {"experiment": "figure4", "fs": self.fs_type, "time_s": time_s}
            frame.append({**base, "metric": "disk-peak %", "value": round(100 * disk, 1)})
            frame.append({**base, "metric": "memory-peak %", "value": round(100 * memory, 1)})
            frame.append({**base, "metric": "bimodal", "value": "yes" if bimodal else "no"})
        return frame

    def render(self) -> str:
        """Figure-4-as-text: per-interval peak fractions and modality.

        The table is a pivot of :meth:`to_frame` (time down, metrics across)
        -- the shared frame renderer, not bespoke table code.
        """
        table = self.to_frame().pivot(
            index="time_s", columns="metric", aggregate="first"
        ).render(index_headers=["time (s)"], index_format="{:.0f}")
        lines = [
            f"Figure 4 reproduction -- {self.fs_type}, {self.file_size_bytes // MiB} MB file, "
            "histograms per 10 s interval",
            "",
            table,
            "",
            f"Bi-modal intervals: {100 * self.bimodal_fraction():.0f}% of the run",
            checks_line(self.checks()),
        ]
        return "\n".join(lines)


def run_figure4(
    fs_type: str = "ext2",
    testbed: Optional[TestbedConfig] = None,
    scale: Optional[ExperimentScale] = None,
    seed: int = 42,
) -> Figure4Result:
    """Run the histogram-over-time experiment.

    The run is one single-cell :class:`~repro.core.experiment.Experiment`.
    """
    scale = scale if scale is not None else default_scale()
    scale.validate()
    testbed = testbed if testbed is not None else paper_testbed()
    file_size = scale.figure4_file_mb * MiB

    config = BenchmarkConfig(
        duration_s=scale.figure4_duration_s,
        repetitions=1,
        warmup_mode=WarmupMode.NONE,
        interval_s=scale.interval_s,
        histogram_interval_s=scale.interval_s,
        cold_cache=True,
        seed=seed,
        noise=EnvironmentNoise(enabled=False),
    )
    spec = random_read_workload(file_size)
    outcome = Experiment(
        grid=ParameterGrid.of(workload=[spec], fs=[fs_type]),
        name="figure4",
        config=config,
        testbed=testbed,
    ).run()
    return Figure4Result(
        fs_type=fs_type,
        file_size_bytes=file_size,
        run=outcome.sets[group_label(spec.name, fs_type)].first(),
        scale_name=scale.name,
    )
